import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdcn.errors import MetricError
from kdcn.metrics import auc, epochs_to_threshold
from kdcn.rng import RngStream
from oracles import auc_bruteforce


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.9, 0.1], [1, 0]) == 1.0

    def test_hand_counted(self):
        assert auc([0.8, 0.7, 0.6, 0.5], [1, 0, 1, 0]) == 0.75

    def test_all_ties(self):
        assert auc([0.3, 0.3, 0.3, 0.3], [1, 0, 1, 0]) == 0.5

    def test_single_class_undefined(self):
        with pytest.raises(MetricError):
            auc([0.5, 0.6], [1, 1])

    def test_equals_bruteforce_exactly_on_random_instances(self):
        rng = RngStream(17)
        for trial in range(100):
            n = int(rng.integers(2, 501))
            # quantized scores force plenty of ties
            scores = np.round(rng.uniform(0, 1, n), 2)
            labels = (rng.random(n) < 0.5).astype(int)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            assert auc(scores, labels) == auc_bruteforce(scores, labels)

    def test_negation_antisymmetry_without_ties(self):
        rng = RngStream(18)
        scores = rng.permutation(200) / 200.0  # all distinct
        labels = (rng.random(200) < 0.4).astype(int)
        labels[0], labels[1] = 0, 1
        # equality is exact in rational arithmetic; allow one ulp for the
        # float subtraction 1 - x
        assert auc(scores, labels) == pytest.approx(1.0 - auc(-scores, labels), abs=5e-16)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_invariant_under_monotone_transform(self, seed):
        rng = RngStream(seed)
        n = 40
        scores = rng.uniform(-2, 2, n)
        labels = (rng.random(n) < 0.5).astype(int)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        transformed = np.exp(3.0 * scores) + 7.0
        assert auc(scores, labels) == auc(transformed, labels)


class TestEpochsToThreshold:
    def test_middle(self):
        assert epochs_to_threshold([0.9, 0.7, 0.5], 0.6) == 3

    def test_immediate(self):
        assert epochs_to_threshold([0.9, 0.7], 1.5) == 1

    def test_never(self):
        assert epochs_to_threshold([0.9, 0.7], 0.1) is None
