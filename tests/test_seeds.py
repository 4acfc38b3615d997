import math
from random import Random

import pytest

from sensched import seeds
from sensched.seeds import derive_rng, label_sampler


def _assert_same_draws(k: int, sigma: int, n_rngs: int = 3, rounds: int = 8) -> None:
    """Draws through one sampler from interleaved rngs equal rng.sample's."""
    sampler = label_sampler(k, sigma)
    ours = [derive_rng(k, sigma, i) for i in range(n_rngs)]
    theirs = [derive_rng(k, sigma, i) for i in range(n_rngs)]
    draws = [sampler(rng) for rng in ours]
    for _ in range(rounds):
        for draw, ref in zip(draws, theirs):
            got = draw()
            want = frozenset(ref.sample(range(k), sigma))
            assert got == want
            assert list(got) == list(want), (k, sigma)
    for rng, ref in zip(ours, theirs):
        assert rng.getstate() == ref.getstate()


def test_label_sampler_makes_sample_draws():
    for k in range(1, 26):
        for sigma in range(1, k + 1):
            _assert_same_draws(k, sigma)


@pytest.mark.parametrize("limit", [0, 1, 20, 90])
def test_label_sampler_makes_sample_draws_past_a_small_table_limit(monkeypatch, limit):
    monkeypatch.setattr(seeds, "LABEL_TABLE_LIMIT", limit)
    for k in range(1, 13):
        for sigma in range(1, k + 1):
            _assert_same_draws(k, sigma, n_rngs=2, rounds=4)


def test_label_sampler_shares_one_table_across_rngs():
    sampler = label_sampler(10, 2)
    draws = [sampler(Random(seed)) for seed in range(400)]
    drawn = [draw() for draw in draws for _ in range(3)]
    # one frozenset object per draw sequence, whichever rng drew it
    assert len({id(labels) for labels in drawn}) <= math.perm(10, 2)
    assert len(set(drawn)) == math.comb(10, 2)


def test_label_sampler_above_the_pool_size_calls_sample():
    # k = 22 is past random.sample's pool branch for sigma <= 5
    draw = label_sampler(22, 2)(Random(5))
    ref = Random(5)
    for _ in range(50):
        assert draw() == frozenset(ref.sample(range(22), 2))


@pytest.mark.parametrize("k, sigma", [(2, 1), (4, 2), (10, 2), (12, 5), (22, 2)])
def test_label_sampler_avoid_redraws_as_sample_does(k, sigma):
    # k = 22 is past the pool branch, so draw(avoid) calls sample there
    ours, ref = Random(11), Random(11)
    draw = label_sampler(k, sigma)(ours)
    held = frozenset(range(sigma))
    for _ in range(300):
        got = draw(held)
        want = frozenset(ref.sample(range(k), sigma))
        while want == held:
            want = frozenset(ref.sample(range(k), sigma))
        assert got == want != held
        held = got
    assert ours.getstate() == ref.getstate()
