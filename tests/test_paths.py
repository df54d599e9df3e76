"""Counter-based path generation: determinism, splitting, statistics."""

import io

import numpy as np
import pytest

from sde_lab.paths import (
    TimeGrid,
    _mix64_array,
    brownian_values_batch,
    normals_for_seeds,
    path_seed,
    write_brownian_csv,
)

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLD = 0x9E3779B97F4A7C15


def _mix64_reference(z: int) -> int:
    """Scalar splitmix64 finalizer on Python ints: the reference for _mix64_array."""
    z = (z + _GOLD) & _MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    z ^= z >> 31
    return z


def _path_seed_reference(master: int, index: int) -> int:
    return _mix64_reference(_mix64_reference(master & _MASK) ^ (index & _MASK))


def test_mix64_published_vectors():
    # first three outputs of the reference splitmix64 stream from state 0
    states = [0, _GOLD, (2 * _GOLD) & _MASK]
    published = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert [_mix64_reference(z) for z in states] == published
    assert _mix64_array(np.array(states, dtype=np.uint64)).tolist() == published


def test_path_seed_range_matches_scalar_reference():
    # master and index wrap mod 2^64: a range may cross 0 or 2^64, and
    # simulate --path-index -1 reads index 2^64 - 1
    wide = [0, 1, 2**63 + 5, 2**64 - 1, -3, 2**70 + 9]
    for master in wide:
        for start in wide:
            idx = range(start - 2, start + 3)
            got = path_seed(master, idx)
            assert got.dtype == np.uint64
            assert got.tolist() == [_path_seed_reference(master, i) for i in idx]
            assert path_seed(master, start).tolist() == [_path_seed_reference(master, start)]


def test_path_seed_is_asymmetric():
    assert path_seed(0, 1) != path_seed(1, 0)
    assert path_seed(3, 7) != path_seed(7, 3)


def test_path_seed_no_small_grid_collisions():
    seen = {s for master in range(16) for s in path_seed(master, range(64)).tolist()}
    assert len(seen) == 16 * 64


def test_time_grid_properties():
    grid = TimeGrid(T=1.0, steps=2048)
    assert grid.dt == pytest.approx(1.0 / 2048)
    assert grid.times[0] == 0.0
    assert grid.times[-1] == 1.0
    assert len(grid.times) == 2049


def test_nearest_index():
    grid = TimeGrid(T=1.0, steps=2048)
    assert grid.nearest_index(0.9) == 1843  # 0.9 * 2048 = 1843.2
    assert grid.nearest_index(0.0) == 0
    assert grid.nearest_index(1.0) == 2048
    assert grid.nearest_index(5.0) == 2048  # clamped
    assert grid.nearest_index(-1.0) == 0


def test_time_grid_validation():
    with pytest.raises(ValueError, match="horizon"):
        TimeGrid(T=0.0, steps=4)
    with pytest.raises(ValueError, match="at least one step"):
        TimeGrid(T=1.0, steps=0)


def test_paths_start_at_zero_and_shape():
    grid = TimeGrid(T=2.0, steps=16)
    p = brownian_values_batch(grid, 3, master_seed=11, start_index=5, n_paths=2)
    assert p.shape == (2, 17, 3)
    assert np.all(p[:, 0] == 0.0)


def test_same_pair_same_path():
    grid = TimeGrid(T=1.0, steps=32)
    a = brownian_values_batch(grid, 2, 42, 7, 1)
    b = brownian_values_batch(grid, 2, 42, 7, 1)
    assert np.array_equal(a, b)


def test_distinct_pairs_distinct_paths():
    grid = TimeGrid(T=1.0, steps=32)
    base = brownian_values_batch(grid, 1, 42, 0, 1)
    assert not np.array_equal(base, brownian_values_batch(grid, 1, 42, 1, 1))
    assert not np.array_equal(base, brownian_values_batch(grid, 1, 43, 0, 1))


def test_batch_rows_match_single_paths_exactly():
    grid = TimeGrid(T=1.0, steps=64)
    batch = brownian_values_batch(grid, 2, master_seed=9, start_index=0, n_paths=8)
    for k in range(8):
        single = brownian_values_batch(grid, 2, 9, k, 1)
        assert np.array_equal(batch[k : k + 1], single)


def test_chunked_batches_are_independent_of_chunking():
    grid = TimeGrid(T=1.0, steps=64)
    whole = brownian_values_batch(grid, 1, 5, 0, 10)
    part = brownian_values_batch(grid, 1, 5, 3, 4)
    assert np.array_equal(part, whole[3:7])


def _normals_reference(seeds, count):
    """The whole Box-Muller draw in one pass: cosines of every pair, then sines."""
    npairs = (count + 1) // 2
    ctr = np.arange(1, 2 * npairs + 1, dtype=np.uint64)
    bits = _mix64_array(seeds[:, None] + ctr[None, :] * np.uint64(_GOLD))
    u = (bits >> np.uint64(11)).astype(np.float64) / 2.0**53
    r = np.sqrt(-2.0 * np.log(u[:, :npairs] + 1.0 / 2.0**53))
    theta = (2.0 * np.pi) * u[:, npairs:]
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=1)[:, :count]


def test_normals_prefix_consistency():
    seeds = path_seed(1, range(4))
    longer = normals_for_seeds(seeds, 8)
    shorter = normals_for_seeds(seeds, 7)
    assert np.array_equal(shorter, longer[:, :7])


@pytest.mark.parametrize("count", [1, 2, 3, 16, 17, 257])
def test_normals_keep_is_prefix_of_full_draw(count):
    seeds = path_seed(3, range(5))
    full = normals_for_seeds(seeds, count)
    assert np.array_equal(full, _normals_reference(seeds, count))
    npairs = (count + 1) // 2
    for keep in {1, npairs - 1, npairs, npairs + 1, count} & set(range(1, count + 1)):
        got = normals_for_seeds(seeds, count, keep)
        assert got.shape == (5, keep)
        assert np.array_equal(got, full[:, :keep]), keep
    assert normals_for_seeds(seeds, count, 0).shape == (5, 0)


def test_normals_keep_out_of_range():
    seeds = path_seed(3, range(2))
    for keep in (-1, 9):
        with pytest.raises(ValueError, match="keep"):
            normals_for_seeds(seeds, 8, keep)


@pytest.mark.parametrize("steps", [32, 33])
def test_brownian_keep_is_prefix_of_full_path(steps):
    # m = 2: step k reads normals 2k and 2k+1 of 2 * steps, whose cosines end
    # at normal steps, so for odd steps the boundary falls inside a step
    grid = TimeGrid(T=1.0, steps=steps)
    full = brownian_values_batch(grid, 2, 21, 4, 6)
    mid = steps // 2
    for keep in (1, mid - 1, mid, mid + 1, steps):
        got = brownian_values_batch(grid, 2, 21, 4, 6, keep=keep)
        assert got.shape == (6, keep + 1, 2)
        assert np.array_equal(got, full[:, : keep + 1]), keep


def test_increment_statistics():
    # pooled over 200 paths x 1000 steps: mean ~ 0, variance ~ dt
    grid = TimeGrid(T=1.0, steps=1000)
    vals = brownian_values_batch(grid, 1, master_seed=2026, start_index=0, n_paths=200)
    inc = np.diff(vals[:, :, 0], axis=1).ravel() / np.sqrt(grid.dt)
    n = inc.size
    assert abs(inc.mean()) < 4.0 / np.sqrt(n)
    assert abs(inc.var() - 1.0) < 4.0 * np.sqrt(2.0 / n)


def test_terminal_value_variance():
    grid = TimeGrid(T=1.0, steps=64)
    vals = brownian_values_batch(grid, 1, master_seed=77, start_index=0, n_paths=4000)
    wT = vals[:, -1, 0]
    assert abs(wT.var() - 1.0) < 4.0 * np.sqrt(2.0 / 4000)


def test_csv_round_trip():
    grid = TimeGrid(T=1.0, steps=4)
    p = brownian_values_batch(grid, 2, 1, 0, 1)[0]
    buf = io.StringIO()
    write_brownian_csv(grid, p, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "t,w1,w2"
    back = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
    assert np.array_equal(back[:, 0], grid.times)
    assert np.array_equal(back[:, 1:], p)
