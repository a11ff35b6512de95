"""The counter-based draw kernel: its bits, its uniformity and its streams."""
import math

import numpy as np
import pytest

from wparab import draws

M64 = (1 << 64) - 1
N = 1 << 20


def splitmix_reference(key: int, n: int, start: int = 0) -> list[float]:
    """Draws start .. start + n - 1 of stream ``key`` on [0, 1), computed on
    Python ints masked to 64 bits."""
    out = []
    for i in range(start, start + n):
        z = (key + (i + 1) * draws.GAMMA) & M64
        z = ((z ^ z >> 30) * 0xBF58476D1CE4E5B9) & M64
        z = ((z ^ z >> 27) * 0x94D049BB133111EB) & M64
        out.append(((z ^ z >> 31) >> 11) * 2.0 ** -53)
    return out


def test_pinned_first_values_of_one_stream():
    key = draws.key(7, "field", 0)
    assert key == 8501578907762793140
    got = draws.uniform(key, 0.0, 1.0, (4,))
    assert got.tolist() == [0.05164812848847267, 0.03287782189639077,
                            0.16141030347019347, 0.3179548184012191]
    assert got.tolist() == splitmix_reference(key, 4)


@pytest.mark.parametrize("seed", [0, 1, 2 ** 63, 2 ** 64 - 1])
def test_matches_the_integer_reference(seed):
    key = draws.key(seed, "triangle-x")
    assert 0 <= key <= M64
    assert draws.uniform(key, 0.0, 1.0, (3, 5), start=70).ravel().tolist() == \
        splitmix_reference(key, 15, start=70)


def test_uniform_on_the_unit_interval():
    # bounds of 5 standard errors for the mean and the variance, and the KS
    # distance below its 0.1% critical value 1.95 / sqrt(n)
    u = draws.uniform(draws.key(2026, "uniformity"), 0.0, 1.0, (N,))
    assert u.min() >= 0.0 and u.max() < 1.0
    assert np.all(u * 2.0 ** 53 == np.floor(u * 2.0 ** 53))
    assert abs(u.mean() - 0.5) < 5.0 * math.sqrt(1.0 / 12.0 / N)
    assert abs(u.var() - 1.0 / 12.0) < 5.0 * math.sqrt(1.0 / 180.0 / N)
    u.sort()
    ranks = np.arange(1, N + 1) / N
    ks = max(np.max(ranks - u), np.max(u - (ranks - 1.0 / N)))
    assert ks < 1.95 / math.sqrt(N)


def test_two_keys_are_uncorrelated():
    a, b = (draws.uniform(draws.key(2026, "correlation", i), 0.0, 1.0, (N,))
            for i in (0, 1))
    assert abs(np.corrcoef(a, b)[0, 1]) < 5.0 / math.sqrt(N)
    # neighbouring counters of one key too
    assert abs(np.corrcoef(a[:-1], a[1:])[0, 1]) < 5.0 / math.sqrt(N)


@pytest.mark.parametrize("start", [1, 999, 3 * 32768])
def test_draws_from_start_are_a_slice_of_the_one_shot_draws(start):
    key = draws.key(11, "triangle-t")
    whole = draws.uniform(key, -0.25, 0.0, (start + 300,))
    assert np.array_equal(draws.uniform(key, -0.25, 0.0, (100, 3), start=start),
                          whole[start:].reshape(100, 3))


def test_bounds_broadcast_over_the_last_axis():
    key = draws.key(3, "vitali")
    lo, hi = np.array([0.1, -0.8, 0.02]), np.array([0.9, -0.2, 0.15])
    got = draws.uniform(key, lo, hi, (50, 3))
    unit = draws.uniform(key, 0.0, 1.0, (50, 3))
    assert np.array_equal(got, lo + (hi - lo) * unit)
    assert np.all((lo <= got) & (got < hi))


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 64 + 7])
def test_a_seed_beyond_64_bits_is_refused(seed):
    # masked to 64 bits, it would share the streams of seed % 2**64
    with pytest.raises(OverflowError):
        draws.key(seed, "forcing")


def test_keys_separate_seeds_labels_and_indices():
    keys = {draws.key(seed, label, *index)
            for seed in range(20) for label in ("field", "vitali", "forcing")
            for index in ((), (0,), (1,), (2,))}
    assert len(keys) == 20 * 3 * 4
    # labels longer than one 64-bit word are read whole
    assert draws.key(5, "triangle-x") != draws.key(5, "triangle-t")
