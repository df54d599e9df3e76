"""Brownian paths on uniform grids with counter-based, splittable seeding.

Reproducibility contract: a path is a pure function of
(master_seed, path_index). There is no shared generator state, so paths can
be produced in any order, in chunks, or concurrently, and the bits never
change. Gaussians come from a splitmix-style 64-bit avalanche mix applied to
(path_seed, counter) pairs, pushed through Box-Muller. Their layout depends on
the grid alone, so the first k steps of a path can be drawn on their own, with
the bits of the full path's first k steps and only the work they need.

The draw kernel is built for speed without moving a bit. Its counter table
(counter * GOLD + GOLD, splitmix64's golden-ratio step folded in) depends on
the draw's shape alone, so it is built once per shape and cached; it holds the
radii's counters and the angles' counters as two blocks, so every Box-Muller
stage runs over contiguous memory. The mix shifts into one scratch array. A
mixed word shifted right by 11 is below 2^53, so its int64 view converts to
float64 exactly, and scaling by the power of two 2^-53 is exact too: the
uniforms are those of a division by 2^53, and an angle, one product by
2 pi 2^-53, rounds as the uniform times 2 pi does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLD = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TWO53 = float(2**53)
_TWO_M53 = 2.0**-53


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_steps = T with dt = T/steps."""

    T: float
    steps: int

    def __post_init__(self):
        if not self.T > 0:
            raise ValueError(f"horizon must be positive, got {self.T}")
        if self.steps < 1:
            raise ValueError(f"need at least one step, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.T / self.steps

    @property
    def times(self) -> np.ndarray:
        # linspace pins both endpoints exactly
        return np.linspace(0.0, self.T, self.steps + 1)

    def nearest_index(self, t: float) -> int:
        k = int(round(t / self.dt))
        return min(max(k, 0), self.steps)


def _avalanche_inplace(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """splitmix64's output mix of the uint64 array z, overwriting z and scratch."""
    # uint64 arrays wrap silently (unlike numpy scalars, which warn)
    np.right_shift(z, np.uint64(30), out=scratch)
    z ^= scratch
    z *= np.uint64(_MIX1)
    np.right_shift(z, np.uint64(27), out=scratch)
    z ^= scratch
    z *= np.uint64(_MIX2)
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch
    return z


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer: the output mix of z + GOLD, as a new uint64 array."""
    z = np.array(z, dtype=np.uint64)
    z += np.uint64(_GOLD)
    return _avalanche_inplace(z, np.empty_like(z))


@lru_cache(maxsize=4)
def _counter_table(npairs: int, used: int) -> np.ndarray:
    """counter * GOLD + GOLD, shape (2, 1, used): counters 1..used of the
    radii, then npairs+1..npairs+used of the angles."""
    ctr = np.r_[1 : used + 1, npairs + 1 : npairs + used + 1].astype(np.uint64)
    table = (ctr * np.uint64(_GOLD) + np.uint64(_GOLD)).reshape(2, 1, used)
    table.flags.writeable = False
    return table


def path_seed(master_seed: int, path_index: int | range) -> np.ndarray:
    """Per-path substream seeds for one path index or a range of them.

    Returns one uint64 seed per index: mix(mix(master) ^ index), with master
    and index reduced mod 2^64, so negative and wide Python ints are valid.
    The index enters raw and the master pre-mixed, keeping the map
    asymmetric: swapping the roles of seed and index must not alias two
    experiments onto one path stream. The map is elementwise, so a range
    gives the same seeds as its indices taken one at a time.
    """
    r = path_index if isinstance(path_index, range) else range(path_index, path_index + 1)
    key = _mix64_array(np.array([master_seed & _MASK], dtype=np.uint64))
    step = np.arange(len(r), dtype=np.uint64) * np.uint64(r.step & _MASK)
    return _mix64_array(key ^ (np.uint64(r.start & _MASK) + step))


def _box_muller(seeds, table, bits, scratch, cosines=None, sines=None) -> None:
    """The normals of the Box-Muller pairs whose counters table holds.

    table is (counter * GOLD + GOLD) of the radii, then of the angles, on its
    leading axis of 2 (as _counter_table builds it); seeds broadcast against
    each half. bits and scratch are uint64 arrays of the broadcast shape and
    are overwritten. cosines receives r cos(theta) of every pair, sines
    r sin(theta) of the pairs in its leading columns (last axis). Elementwise
    throughout, so a normal's bits do not depend on the layout it is drawn in.
    """
    np.add(seeds, table, out=bits)
    _avalanche_inplace(bits, scratch)
    bits >>= np.uint64(11)
    words, u = bits.view(np.int64), scratch.view(np.float64)
    r, theta = u
    np.multiply(words[0], _TWO_M53, out=r)
    r += 1.0 / _TWO53  # in (0, 1], log is safe
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    np.multiply(words[1], 2.0 * np.pi * _TWO_M53, out=theta)
    if sines is not None:
        m = sines.shape[-1]
        np.sin(theta[..., :m], out=sines)
        sines *= r[..., :m]
    if cosines is not None:
        np.cos(theta, out=cosines)
        cosines *= r


def normals_for_seeds(seeds: np.ndarray, count: int, keep: int | None = None) -> np.ndarray:
    """The first keep (default count) of count standard normals per seed.

    Returns shape (len(seeds), keep); row i is driven only by seeds[i]. The
    layout depends on count alone: with npairs = ceil(count/2), pair j mixes
    counters j + 1 and npairs + j + 1 with the seed into uniforms (u1, u2),
    and through Box-Muller normal j < npairs is r_j cos(theta_j) and normal
    npairs + j is r_j sin(theta_j). A prefix (keep < count) has the bits of
    the full draw's first keep columns: it mixes only the counters of pairs
    below min(keep, npairs) and takes sines only of pairs below
    keep - npairs. Elementwise throughout, so a row never depends on how
    many other rows were generated alongside it.
    """
    keep = count if keep is None else keep
    if not 0 <= keep <= count:
        raise ValueError(f"need 0 <= keep <= count, got keep={keep}, count={count}")
    seeds = np.asarray(seeds, dtype=np.uint64)
    npairs = (count + 1) // 2
    used = min(keep, npairs)  # every kept normal reads one of these pairs
    bits = np.empty((2, len(seeds), used), dtype=np.uint64)  # radii, then angles
    scratch = np.empty_like(bits)
    out = np.empty((len(seeds), keep))
    sines = out[:, npairs:] if keep > npairs else None
    _box_muller(seeds[:, None], _counter_table(npairs, used), bits, scratch, out[:, :used], sines)
    return out


def brownian_values_batch(
    grid: TimeGrid,
    m: int,
    master_seed: int,
    start_index: int,
    n_paths: int,
    keep: int | None = None,
) -> np.ndarray:
    """Brownian values for path indices start_index..start_index+n_paths-1.

    Returns shape (n_paths, keep+1, m): the values at t_0..t_keep, with keep
    defaulting to grid.steps. The normals' layout depends on grid.steps and
    m only, so a prefix has the bits of the full path's first keep+1 values.
    Row i depends on (master_seed, start_index + i) alone: it is the same in
    every batch that draws it.
    """
    keep = grid.steps if keep is None else keep
    seeds = path_seed(master_seed, range(start_index, start_index + n_paths))
    inc = normals_for_seeds(seeds, grid.steps * m, keep * m)
    inc *= np.sqrt(grid.dt)
    vals = np.empty((n_paths, keep + 1, m))
    vals[:, 0, :] = 0.0
    np.cumsum(inc.reshape(n_paths, keep, m), axis=1, out=vals[:, 1:, :])
    return vals


def write_brownian_csv(grid: TimeGrid, values: np.ndarray, fileobj) -> None:
    """Dump one path, values of shape (steps+1, m), as CSV with header t,w1,...,wm."""
    header = "t," + ",".join(f"w{j+1}" for j in range(values.shape[1]))
    data = np.column_stack([grid.times, values])
    np.savetxt(fileobj, data, fmt="%.17g", delimiter=",", header=header, comments="")
