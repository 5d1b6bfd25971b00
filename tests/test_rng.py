"""The draw stream: seeds, child streams and the first draws are pinned."""

import numpy as np

from kdcn.rng import RngStream


def test_is_a_numpy_generator():
    assert isinstance(RngStream(0), np.random.Generator)
    assert repr(RngStream(7)) == "RngStream(seed=7)"


def test_seeds_are_pinned():
    assert RngStream(7).child("a").seed == 8104344808565692802
    assert RngStream(2**70).seed == 0  # reduced mod 2**64
    assert RngStream(7).child("a").random() == RngStream(8104344808565692802).random()


def test_first_draws_are_pinned():
    # values drawn in this order from RngStream(7); a change here changes
    # every artifact the pipeline writes at a fixed seed
    r = RngStream(7)
    assert r.random() == 0.625095466604667
    assert r.random(3).tolist() == [0.8972138009695755, 0.7756856902451935, 0.22520718999059186]
    assert r.uniform(-1.0, 2.0, 3).tolist() == [
        -0.0995011452663237, 1.6206603361887857, -0.9842040863032758
    ]
    assert r.normal(0.5, 2.0, 3).tolist() == [
        3.180430491109067, -0.48441303710265926, -0.7409497996398808
    ]
    assert r.integers(0, 10, 5).tolist() == [8, 3, 3, 2, 7]
    assert r.integers(5) == 1
    assert r.integers(0, np.array([3, 30, 300])).tolist() == [2, 13, 143]
    assert r.choice(10, size=4, replace=False).tolist() == [3, 4, 8, 5]
    assert r.permutation(6).tolist() == [0, 5, 4, 1, 3, 2]
    x = np.arange(6)
    r.shuffle(x)
    assert x.tolist() == [0, 1, 2, 4, 3, 5]
