"""Brownian paths on uniform grids with counter-based, splittable seeding.

Reproducibility contract: a path is a pure function of
(master_seed, path_index). There is no shared generator state, so paths can
be produced in any order, in chunks, or concurrently, and the bits never
change. Gaussians come from a splitmix-style 64-bit avalanche mix applied to
(path_seed, counter) pairs, pushed through Box-Muller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLD = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TWO53 = float(2**53)


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


def _mix64_array(z: np.ndarray) -> np.ndarray:
    # uint64 arrays wrap silently (unlike numpy scalars, which warn)
    z = (z + np.uint64(_GOLD))
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


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


def normals_for_seeds(seeds: np.ndarray, count: int) -> np.ndarray:
    """(len(seeds), count) standard normals, row i driven only by seeds[i].

    Counters 1..2*ceil(count/2) are mixed with each seed and mapped through
    Box-Muller. Elementwise throughout, so a row never depends on how many
    other rows were generated alongside it.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    npairs = (count + 1) // 2
    ctr = np.arange(1, 2 * npairs + 1, dtype=np.uint64)
    state = seeds[:, None] + ctr[None, :] * np.uint64(_GOLD)
    bits = _mix64_array(state)
    u = (bits >> np.uint64(11)).astype(np.float64) / _TWO53
    u1 = u[:, :npairs] + 1.0 / _TWO53  # in (0, 1], log is safe
    u2 = u[:, npairs:]
    r = np.sqrt(-2.0 * np.log(u1))
    theta = (2.0 * np.pi) * u2
    out = np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=1)
    return out[:, :count]


def brownian_values_batch(
    grid: TimeGrid, m: int, master_seed: int, start_index: int, n_paths: int
) -> np.ndarray:
    """Brownian values for path indices start_index..start_index+n_paths-1.

    Returns shape (n_paths, steps+1, m). Row i depends on (master_seed,
    start_index + i) alone: it is the same in every batch that draws it.
    """
    seeds = path_seed(master_seed, range(start_index, start_index + n_paths))
    z = normals_for_seeds(seeds, grid.steps * m)
    inc = z.reshape(n_paths, grid.steps, m) * np.sqrt(grid.dt)
    vals = np.empty((n_paths, grid.steps + 1, m))
    vals[:, 0, :] = 0.0
    np.cumsum(inc, axis=1, out=vals[:, 1:, :])
    return vals


def write_brownian_csv(grid: TimeGrid, values: np.ndarray, fileobj) -> None:
    """Dump one path, values of shape (steps+1, m), as CSV with header t,w1,...,wm."""
    header = "t," + ",".join(f"w{j+1}" for j in range(values.shape[1]))
    data = np.column_stack([grid.times, values])
    np.savetxt(fileobj, data, fmt="%.17g", delimiter=",", header=header, comments="")
