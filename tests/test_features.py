import math

import numpy as np
import pytest

from kdcn.model import extract_keywords
from kdcn.rng import RngStream
from oracles import (
    AttentionParams,
    BehaviorLog,
    ConvParams,
    DialogueInput,
    FeatureBundle,
    assemble_features,
    behavior_matrix,
    behavior_vector,
    dialogue_interaction,
    user_state,
)


def make_conv(rng, d, widths=(2, 4), n_filters=2, seq_len=4):
    return ConvParams(
        seq_len,
        {w: rng.uniform(-1, 1, (n_filters, d, w)) for w in widths},
        {w: rng.uniform(-0.5, 0.5, n_filters) for w in widths},
    )


def make_attn(rng, d=8, heads=2):
    return AttentionParams(
        heads,
        rng.uniform(-1, 1, (d, d)),
        rng.uniform(-1, 1, (d, d)),
        rng.uniform(-1, 1, (d, d)),
    )


class TestBehaviorVector:
    def test_mean_of_two(self):
        table = np.array([[1.0, 1.0], [3.0, 3.0]])
        assert np.array_equal(behavior_vector([0, 1], table), [2.0, 2.0])

    def test_singleton(self):
        table = np.array([[1.0, 1.0], [3.0, 3.0]])
        assert np.array_equal(behavior_vector([1], table), [3.0, 3.0])

    def test_empty_gives_zeros(self):
        assert np.array_equal(behavior_vector([], np.ones((3, 5))), np.zeros(5))

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            behavior_vector([7], np.ones((3, 5)))

    def test_permutation_invariant(self):
        table = RngStream(0).uniform(-1, 1, (10, 4))
        items = [3, 1, 4, 1, 5]
        a = behavior_vector(items, table)
        b = behavior_vector(list(reversed(items)), table)
        assert np.allclose(a, b, atol=1e-12)

    def test_matrix_stacks_columns(self):
        table = np.array([[1.0, 2.0], [3.0, 4.0]])
        mat = behavior_matrix(BehaviorLog([[0], [1], []]), table)
        assert mat.shape == (2, 3)
        assert np.array_equal(mat[:, 2], [0.0, 0.0])


class TestUserState:
    def test_zero_input_determined_by_biases(self):
        conv = make_conv(RngStream(1), d=3)
        u = user_state(np.zeros((3, 4)), conv)
        expected = np.concatenate(
            [np.maximum(conv.biases[w], 0.0) for w in conv.widths]
        )
        assert np.allclose(u, expected, atol=1e-15)

    def test_identical_columns_pool_any_position(self):
        rng = RngStream(2)
        col = rng.uniform(-1, 1, 3)
        b = np.tile(col[:, None], (1, 4))
        conv = make_conv(rng, d=3)
        u = user_state(b, conv)
        # width-2 filters see the same window at all 3 positions
        from kdcn.numeric import relu
        from oracles import conv_seq

        for f in range(2):
            vals = relu(conv_seq(b, conv.filters[2][f], float(conv.biases[2][f])))
            assert np.allclose(vals, vals[0], atol=1e-12)
            assert u[f] == pytest.approx(vals[0], abs=1e-12)

    def test_against_windowed_oracle(self):
        rng = RngStream(3)
        b = rng.uniform(-1, 1, (4, 4))
        conv = make_conv(rng, d=4)
        u = user_state(b, conv)
        expected = []
        for width in conv.widths:
            for f in range(2):
                best = -np.inf
                for t in range(4 - width + 1):
                    val = float(conv.biases[width][f])
                    for i in range(4):
                        for j in range(width):
                            val += b[i, t + j] * conv.filters[width][f][i, j]
                    best = max(best, max(val, 0.0))
                expected.append(best)
        assert np.allclose(u, expected, atol=1e-12)

    def test_zero_pad_append_invariance(self):
        rng = RngStream(4)
        for k0 in (2, 4):
            b = rng.uniform(-1, 1, (3, k0))
            conv = make_conv(rng, d=3, seq_len=k0)
            base = user_state(b, conv)
            for extra in (1, 3):
                padded = np.concatenate([b, np.zeros((3, extra))], axis=1)
                assert np.array_equal(user_state(padded, conv), base)


class TestExtractKeywords:
    VOCAB = {"red": 3, "dress": 5, "silk": 9}

    def test_empty(self):
        assert extract_keywords("", self.VOCAB) == []

    def test_dedup(self):
        assert extract_keywords("red RED red", self.VOCAB) == [3]

    def test_in_vocab_filter_preserves_order(self):
        out = extract_keywords("long silk maxi dress in red", self.VOCAB)
        assert out == [9, 5, 3]

    def test_cap(self):
        assert extract_keywords("red dress silk", self.VOCAB, cap=2) == [3, 5]

    @pytest.mark.parametrize("cap", [0, -1])
    def test_nonpositive_cap_keeps_none(self, cap):
        assert extract_keywords("red dress silk", self.VOCAB, cap=cap) == []

    def test_punctuation_split(self):
        assert extract_keywords("Red, dress! (silk)", self.VOCAB) == [3, 5, 9]


def attention_oracle(ids, table, attn, max_q, max_t, row_shift=0.0):
    """Explicit-loop enumeration of the attention update."""
    total = max_q + max_t
    d = table.shape[1]
    out = np.zeros((total, d))
    dh = attn.head_dim
    for h in range(attn.n_heads):
        ma, mb, wv = attn.head("q", h), attn.head("k", h), attn.head("v", h)
        for i in range(len(ids)):
            logits = [
                float((ma @ table[ids[i]]) @ (mb @ table[ids[j]])) + row_shift
                for j in range(len(ids))
            ]
            mx = max(logits)
            exps = [math.exp(v - mx) for v in logits]
            z = sum(exps)
            row = np.zeros(dh)
            for j in range(len(ids)):
                row += (exps[j] / z) * (wv @ table[ids[j]])
            out[i, h * dh : (h + 1) * dh] = row
    return out


class TestDialogueInteraction:
    def test_single_keyword_is_value_projection(self):
        rng = RngStream(5)
        table = rng.uniform(-1, 1, (10, 8))
        attn = make_attn(rng)
        out = dialogue_interaction(DialogueInput([4], []), table, attn, 2, 2)
        assert out.shape == (4, 8)
        assert np.allclose(out[0], attn.value_proj @ table[4], atol=1e-12)
        assert np.array_equal(out[1:], np.zeros((3, 8)))

    def test_two_identical_keywords(self):
        rng = RngStream(6)
        table = rng.uniform(-1, 1, (10, 8))
        attn = make_attn(rng)
        out = dialogue_interaction(DialogueInput([4], [4]), table, attn, 2, 2)
        assert np.allclose(out[0], out[1], atol=1e-12)
        # weights are forced to 0.5/0.5, so each row is the half-sum of values
        assert np.allclose(out[0], attn.value_proj @ table[4], atol=1e-12)

    def test_against_loop_oracle(self):
        rng = RngStream(7)
        table = rng.uniform(-1, 1, (20, 8))
        attn = make_attn(rng)
        ids = [3, 11, 17]
        out = dialogue_interaction(DialogueInput(ids[:2], ids[2:]), table, attn, 4, 4)
        expected = attention_oracle(ids, table, attn, 4, 4)
        assert np.abs(out - expected).max() < 1e-10

    def test_row_shift_invariance(self):
        rng = RngStream(8)
        table = rng.uniform(-1, 1, (20, 8))
        attn = make_attn(rng)
        ids = [1, 2, 3]
        a = attention_oracle(ids, table, attn, 4, 4)
        b = attention_oracle(ids, table, attn, 4, 4, row_shift=13.7)
        assert np.abs(a - b).max() < 1e-10

    def test_zero_keywords_fallback(self):
        rng = RngStream(9)
        out = dialogue_interaction(
            DialogueInput([], []), rng.uniform(-1, 1, (5, 8)), make_attn(rng), 3, 3
        )
        assert np.array_equal(out, np.zeros((6, 8)))

    def test_rows_in_convex_hull_of_values(self):
        rng = RngStream(10)
        table = rng.uniform(-1, 1, (20, 8))
        attn = make_attn(rng)
        ids = [2, 5, 9, 13]
        out = dialogue_interaction(DialogueInput(ids[:2], ids[2:]), table, attn, 4, 4)
        dh = attn.head_dim
        for h in range(attn.n_heads):
            values = np.array([attn.head("v", h) @ table[j] for j in ids])
            lo, hi = values.min(axis=0), values.max(axis=0)
            block = out[: len(ids), h * dh : (h + 1) * dh]
            assert np.all(block >= lo - 1e-12) and np.all(block <= hi + 1e-12)

    def test_attention_rows_sum_to_one(self):
        # recompute the weights the way the op does and check normalization
        from oracles import softmax_rows

        rng = RngStream(11)
        table = rng.uniform(-1, 1, (20, 8))
        attn = make_attn(rng)
        ids = np.array([2, 5, 9])
        x = table[ids]
        for h in range(attn.n_heads):
            w = softmax_rows((x @ attn.head("q", h).T) @ (x @ attn.head("k", h).T).T)
            assert np.abs(w.sum(axis=1) - 1.0).max() < 1e-9


class TestAssembleFeatures:
    def test_zero_components(self):
        cat_table = np.zeros((3, 2))
        bundle = FeatureBundle([1], np.zeros(4), np.zeros(3), np.zeros(6))
        f = assemble_features(bundle, cat_table, 1)
        assert np.array_equal(f, np.zeros(2 + 4 + 3 + 6))

    def test_total_length(self):
        rng = RngStream(12)
        cat_table = rng.uniform(-1, 1, (5, 3))
        bundle = FeatureBundle([2, 4], rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 8))
        f = assemble_features(bundle, cat_table, 2)
        assert f.shape == (2 * 3 + 4 + 2 + 8,)
        assert np.array_equal(f[:3], cat_table[2])
        assert np.array_equal(f[3:6], cat_table[4])

    def test_missing_slot_padded(self):
        cat_table = RngStream(13).uniform(-1, 1, (5, 3))
        bundle = FeatureBundle([1], np.zeros(1), np.zeros(1), np.zeros(1))
        f = assemble_features(bundle, cat_table, 2)
        assert np.array_equal(f[3:6], np.zeros(3))

    def test_pure_function(self):
        rng = RngStream(14)
        cat_table = rng.uniform(-1, 1, (4, 2))
        bundle = FeatureBundle([0], rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 4))
        assert np.array_equal(
            assemble_features(bundle, cat_table, 1), assemble_features(bundle, cat_table, 1)
        )
