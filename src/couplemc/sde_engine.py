"""Euler-Maruyama simulation of the time-reversed diffusion with
counter-based, partition-invariant randomness: the increment of path p at
step k is a pure function of (seed, p, k), so blocks, tiles and chunks
never change the numbers.

Each mechanism is described where it is implemented: the counter RNG in
``RngStream``, the chunk schedule and row tiles in ``draw_chunks``, the
draw buffer in ``_draw_buffer``, row blocks and threads in
``_on_row_blocks``, the step kernel in ``euler_update``, the path tiles of
a solve in ``path_tile``, the constant-sigma scan in ``_scan_terminal``,
and the divergence rule in ``run_blocks``.  The single-leg drivers are
``simulate_terminal`` and the recorder ``simulate_path``.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

from .coefficients import CoefficientField, sqrt_spd
from .errors import SimulationDivergedError, ValidationError

# draws per chunk, in doubles, for every chunked driver
_CHUNK_BUDGET = 4_000_000
_DEFAULT_BLOCK = 16_384
# doubles per path tile of a scanned solve (path_tile).  On solve-2d
# (2-core VM) tiles of 2^19 doubles ran 13% slower, and tiles of
# _CHUNK_BUDGET doubles peaked 14 MB higher at the same speed
_SCAN_TILE = 1 << 21
# doubles per row tile of a row-wise chunk (draw_chunks), at most _CHUNK_BUDGET
_ROW_TILE = 1 << 19
# the chunk loop's draw buffer, one per thread (_draw_buffer)
_draws = threading.local()
# a map or terminal scan of fewer elements runs in the calling thread:
# about 5 ms of ndtri, below which waking a pool thread, and waiting for
# one the host has descheduled, cost more than half the map saves
_SPLIT_MIN = 1 << 18
# threads that share a map or scan, the calling one included, at most
_MAX_THREADS = 4
# row blocks cut per thread (_on_row_blocks)
_BLOCKS_PER_THREAD = 4
# (pid, threads, executor or None) of the row-block pool (_row_pool)
_pool = None


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, horizon] with the given number of steps."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not 0.0 < self.horizon < np.inf:
            raise ValidationError("grid.horizon must be finite and > 0")
        if isinstance(self.steps, bool) or not isinstance(self.steps, (int, np.integer)):
            raise ValidationError(f"grid.steps must be an integer, got {self.steps!r}")
        if self.steps < 1:
            raise ValidationError("need at least one step")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    def times(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.dt


@dataclass
class SamplePath:
    """One discretized trajectory with the running Feynman-Kac exponent."""

    grid: TimeGrid
    states: np.ndarray      # (steps+1, d)
    weight_log: np.ndarray  # (steps+1,), left-endpoint sum of c(T-t, X) dt


class RngStream:
    """Counter-based uniforms keyed by (seed, path, step).

    Path p reads the Philox4x64 stream with key (seed, p), whose doubles
    [k dim, (k + 1) dim) are step k's.  A call builds one bit generator
    and, for each path, sets its key and its counter (step_lo*dim)//4
    through ``state``, discards the (step_lo*dim) mod 4 leading doubles
    and fills the path's row, so a draw never depends on how the steps are
    split between calls."""

    def __init__(self, seed: int):
        # Philox keys hold 64 bits: a seed outside [0, 2^64) would alias
        # another seed's streams
        if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
                or not 0 <= int(seed) < 2**64):
            raise ValidationError(f"seed must be an integer in [0, 2^64), got {seed!r}")
        self.seed = int(seed)

    def uniforms(self, path_indices, step_lo: int, step_hi: int, dim: int,
                 buf: np.ndarray | None = None) -> np.ndarray:
        """Uniform[0, 1) draws, shape (paths, steps, dim).  With buf, a flat
        float64 array of at least paths * steps * dim entries, the draws
        are written to its leading entries and returned as a view of it."""
        paths = np.asarray(path_indices, dtype=np.uint64).tolist()
        n_steps = step_hi - step_lo
        shape = (len(paths), n_steps * dim)
        # a buf too short fails the reshape
        out = np.empty(shape) if buf is None else buf[:shape[0] * shape[1]].reshape(shape)
        blocks, rem = divmod(step_lo * dim, 4)
        bg = Philox()
        gen = Generator(bg)
        # plain int lists: the state setter reads them element by element,
        # which is several times slower on numpy arrays
        key = [self.seed, 0]
        state = {"bit_generator": "Philox",
                 "state": {"counter": [blocks, 0, 0, 0], "key": key},
                 "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                 "has_uint32": 0, "uinteger": 0}
        fill = gen.random
        for p, row in zip(paths, out):
            key[1] = p
            bg.state = state
            if rem:
                fill(rem)
            fill(out=row)
        return out.reshape(len(paths), n_steps, dim)


def to_open_unit(u: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1) shifted by 2^-54 into (0, 1) in place, for ndtri;
    the top value 1 - 2^-53, which the shift rounds to 1.0, is clamped."""
    u += 2.0**-54
    return np.minimum(u, 1.0 - 2.0**-53, out=u)


def to_increments(u: np.ndarray, dt: float) -> np.ndarray:
    """Uniforms turned into Brownian increments sqrt(dt) ndtri(u) in place,
    element by element, in row blocks (``_on_row_blocks``); returns u.
    Every driver and recorder maps its uniforms here, so an increment has
    the same bytes whichever driver maps it."""
    scale = np.sqrt(dt)

    def increments(lo, hi):
        block = u[lo:hi]
        to_open_unit(block)
        ndtri(block, out=block)
        block *= scale

    _on_row_blocks(increments, u)
    return u


def _on_row_blocks(fn, a: np.ndarray) -> None:
    """fn(lo, hi) over the row blocks [lo, hi) of a's first axis, for an fn
    that works on each row of a on its own with the serial operations, so
    the bytes do not depend on the split.  Below _SPLIT_MIN elements, or
    with one CPU, the calling thread runs fn(0, len(a)); otherwise it and
    the pool's threads (``_row_pool``) pull more blocks than there are
    threads, in order, so a pool thread that is not scheduled stalls no
    one: a helper that has not started when the blocks run out is
    cancelled.  NumPy and SciPy ufuncs release the GIL.  The helpers run
    in a copy of the caller's context, with its NumPy error state."""
    rows = len(a)
    threads, pool = (1, None) if a.size < _SPLIT_MIN or rows < 2 else _row_pool()
    if pool is None:
        fn(0, rows)
        return
    n_blocks = min(rows, _BLOCKS_PER_THREAD * threads)
    edges = [rows * i // n_blocks for i in range(n_blocks + 1)]
    blocks = zip(edges[:-1], edges[1:])
    lock = threading.Lock()

    def pull():
        while True:
            with lock:
                block = next(blocks, None)
            if block is None:
                return
            fn(*block)

    helpers = [pool.submit(contextvars.copy_context().run, pull)
               for _ in range(threads - 1)]
    try:
        pull()
    finally:
        for helper in helpers:
            if not helper.cancel():
                helper.result()


def _row_pool():
    """(threads, executor) that share a large map or scan: as many threads
    as CPUs this process may run on, at most _MAX_THREADS, the calling one
    included, so the executor has one thread fewer; None with one CPU.
    Made on first use and again in a forked child, whose copy of the
    parent's executor has no threads.  Its idle threads block without
    spinning and are joined at interpreter exit."""
    global _pool
    pid = os.getpid()
    if _pool is None or _pool[0] != pid:
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:  # not on every platform
            cpus = os.cpu_count() or 1
        threads = min(cpus, _MAX_THREADS)
        executor = None
        if threads > 1:
            executor = ThreadPoolExecutor(threads - 1, thread_name_prefix="couplemc-rows")
        _pool = (pid, threads, executor)
    return _pool[1], _pool[2]


def sigma_batch(field: CoefficientField, t: float, x: np.ndarray) -> np.ndarray:
    """sigma(t, x) for a batch of points: the scale s as (n, 1) for
    sigma = s I and always in 1D, else the matrices (n, d, d)."""
    if field.sigma is not None:
        sig = np.asarray(field.sigma(t, x), dtype=float)
    else:
        A = np.asarray(field.a(t, x), dtype=float)
        sig = np.sqrt(A) if field.dim == 1 else sqrt_spd(A)
    if field.dim == 1 or sig.ndim == 1:
        return sig.reshape(len(x), 1)
    return sig


def draw_chunks(rng: RngStream, paths, stop: int, dim: int, row_tiles: bool = False):
    """Yields (k, k_hi, u) for consecutive step ranges [k, k_hi) covering
    [0, stop), u the raw uniforms (paths, k_hi - k, dim) of the chunk's
    paths.  paths is an array of path indices, a fixed batch whose chunks
    fill the draw budget (``chunk_steps``), or a callable that returns the
    paths of a shrinking batch, read again for every chunk; the iteration
    stops when it is empty.  A shrinking batch's chunk from node k also
    takes at most max(16, k // 2) steps, half the steps already taken, so
    pairs that meet early leave few draws unused and a batch of many
    pairs (a whole distance ladder) draws its first chunks in little
    memory; it ends on a whole four-double counter block unless it ends
    at stop, so every chunk starts on one and no row pays for discarding
    the doubles before its start.  Every chunk of a call is drawn into one
    buffer (``_draw_buffer``), which the next chunk overwrites.

    With row_tiles, for a consumer that works on each row on its own, it
    yields (k, k_hi, tiles) instead.  The chunk from node k takes max(64, k)
    steps however many paths it has (at most one tile's row, in whole
    counter blocks), and tiles yields (lo, hi, u) for consecutive blocks
    [lo, hi) of the chunk's paths, each drawn when it is reached into the
    first min(_ROW_TILE, _CHUNK_BUDGET) doubles of the kept buffer."""
    shrinking = callable(paths)
    tile = min(_ROW_TILE, _CHUNK_BUDGET)
    buf = _draw_buffer(tile) if row_tiles else None
    k = 0
    while k < stop:
        p = paths() if shrinking else paths
        per_step = len(p) * dim
        if not per_step:
            return
        if row_tiles:
            # rows of whole 4-step blocks keep every chunk start on a
            # four-double counter block
            k_hi = min(stop, k + max(64, k), k + tile // (4 * dim) * 4)
            yield k, k_hi, _row_tiles(rng, p, k, k_hi, dim, buf, tile)
        else:
            if buf is None:
                buf = _draw_buffer(min(per_step * stop, max(_CHUNK_BUDGET, 16 * per_step)))
            k_hi = k + chunk_steps(per_step)
            if shrinking:
                # end on a multiple of 4 steps, a whole counter block in
                # any dim, as k is
                k_hi = min(k_hi, k + max(16, k // 2)) // 4 * 4
            k_hi = min(stop, k_hi)
            yield k, k_hi, rng.uniforms(p, k, k_hi, dim, buf)
        k = k_hi


def _row_tiles(rng: RngStream, paths, k: int, k_hi: int, dim: int,
               buf: np.ndarray, tile: int):
    """(lo, hi, u) for the row tiles [lo, hi) of a chunk: as many paths as
    fit tile doubles over steps [k, k_hi), drawn into buf."""
    n = tile // ((k_hi - k) * dim)
    for lo in range(0, len(paths), n):
        hi = min(len(paths), lo + n)
        yield lo, hi, rng.uniforms(paths[lo:hi], k, k_hi, dim, buf)


def chunk_steps(per_step: int) -> int:
    """At least 16 steps, else about _CHUNK_BUDGET doubles at per_step a step."""
    return max(16, _CHUNK_BUDGET // per_step)


def _draw_buffer(n: int) -> np.ndarray:
    """A float64 array of at least n entries for a call's chunks of draws.
    Up to _CHUNK_BUDGET entries it is the calling thread's buffer of that
    size, kept between calls, so chunked drivers must not nest in a thread.

    The block driver's chunks change size as pairs meet.  A fresh array
    per chunk or per call leaves it to malloc whether a freed chunk is
    reused or the heap grows by another one, which made the peak memory
    of identical runs differ by a chunk; a fresh mapping per call instead
    costs its page faults, about 15 ms per 32 MB on a 2-core VM."""
    if n > _CHUNK_BUDGET:
        return np.empty(n)
    buf = getattr(_draws, "buf", None)
    if buf is None or buf.size != _CHUNK_BUDGET:
        buf = _draws.buf = np.empty(_CHUNK_BUDGET)
    return buf


def path_tile(field: CoefficientField, grid: TimeGrid) -> int:
    """Paths per ``simulate_terminal`` call of a solve.  A scanned field
    (``_scans``) takes as many paths as have their draws for the whole
    horizon fit _SCAN_TILE doubles, at least 1 and at most _DEFAULT_BLOCK,
    so each path is drawn as one row with one Philox re-key and a tile
    of two or more paths holds at most 16 MB of draws.  A step-loop field takes as many as fit
    _CHUNK_BUDGET, when that is between 2048 and _DEFAULT_BLOCK paths;
    otherwise _DEFAULT_BLOCK, with the horizon drawn in chunks when it
    does not fit.  Below 2048 paths the step loop's per-step overhead
    outweighs the longer rows (a 2D step-loop solve in 1024-path tiles is
    slower than in the fixed block); the scan has no per-step Python cost."""
    per_path = grid.steps * field.dim
    if _scans(field):
        return min(_DEFAULT_BLOCK, max(1, _SCAN_TILE // per_path))
    tile = _CHUNK_BUDGET // per_path
    return tile if 2048 <= tile <= _DEFAULT_BLOCK else _DEFAULT_BLOCK


def _scans(field: CoefficientField) -> bool:
    """Whether ``simulate_terminal`` scans the field (``_scan_terminal``)
    rather than stepping it: a declared sigma = s I with b = 0 and c = 0."""
    return field.sigma_scalar is not None and field.b_sup == 0.0 and field.c_sup == 0.0


def path_range(lo: int, hi: int) -> np.ndarray:
    """The path indices [lo, hi) as uint64, the keys ``RngStream`` reads;
    an index outside [0, 2^64) is an error, not a wrapped key."""
    if not 0 <= lo <= hi <= 2**64:
        raise ValidationError(f"path indices [{lo}, {hi}) must lie in [0, 2^64)")
    return np.arange(lo, hi, dtype=np.uint64)


def as_point(x, d: int, name: str = "a point") -> np.ndarray:
    """x as a point of R^d; a point of another length is an error, not
    broadcast."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.shape != (d,):
        raise ValidationError(f"{name} of this field needs {d} entries, got shape {p.shape}")
    return p


def raise_first_nonfinite(bad: np.ndarray, k: int, until=None) -> None:
    """Raise SimulationDivergedError(k + j + 1) for the earliest column j
    set in any row of bad (rows, steps), the non-finite nodes k + 1,
    k + 2, ... of a scan, as the step loop from node k would.  With
    until, row r counts only columns <= until[r]: past them its loop has
    stopped stepping it."""
    first = bad.argmax(axis=1)
    stuck = bad.any(axis=1)
    if until is not None:
        stuck &= first <= until
    if stuck.any():
        raise SimulationDivergedError(k + int(first[stuck].min()) + 1)


def euler_update(field: CoefficientField, t: float, dt: float, X: np.ndarray,
                 sig, dW: np.ndarray) -> np.ndarray:
    """X + sigma dW (+ b dt) for a batch of legs (n, d), with sigma(t, X)
    already evaluated: a scale (the field's declared scalar, or (n, 1)
    from ``sigma_batch``) multiplies dW, matrices (n, d, d) are applied
    row by row.  The drift is skipped for fields that declare b = 0."""
    if np.ndim(sig) == 3:
        X_next = X + np.einsum("nij,nj->ni", sig, dW)
    else:
        X_next = X + sig * dW
    if field.b_sup > 0.0:
        X_next += field.b(t, X) * dt
    return X_next


def euler_step(field: CoefficientField, grid: TimeGrid, k: int, X: np.ndarray,
               dW: np.ndarray) -> np.ndarray:
    """Advance a batch of single legs from node k by the increments dW,
    both of shape (n, d).

    Raises SimulationDivergedError(k + 1) when a state is not finite.
    """
    t = grid.horizon - k * grid.dt
    sig = field.sigma_scalar
    if sig is None:
        sig = sigma_batch(field, t, X)
    X_next = euler_update(field, t, grid.dt, X, sig, dW)
    if not np.isfinite(X_next).all():
        raise SimulationDivergedError(k + 1)
    return X_next


def simulate_terminal(field: CoefficientField, x0: np.ndarray, grid: TimeGrid,
                      rng: RngStream, path_lo: int, path_hi: int):
    """Vectorized Euler-Maruyama over a block of paths.

    Returns (X_T, weight_log) with shapes (n, d) and (n,).  States are not
    recorded; use simulate_path for full trajectories.  A field with a
    declared sigma, b = 0 and c = 0 (``_scans``) is scanned a chunk at a
    time (``_scan_terminal``); a solve's tile of such a field
    (``path_tile``) is one chunk.  The c-integral is skipped when c = 0,
    as adding 0.0 to the +0.0 sum is exact.
    """
    d = field.dim
    paths = path_range(path_lo, path_hi)
    n = len(paths)
    dt, T = grid.dt, grid.horizon
    X = np.tile(as_point(x0, d, "x0"), (n, 1))
    w = np.zeros(n)
    s = field.sigma_scalar
    with_c = field.c_sup > 0.0
    scan = _scans(field)
    # overflow is handled by the finite check, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k, k_hi, u in draw_chunks(rng, paths, grid.steps, d):
            dW = to_increments(u, dt)
            if scan:
                X = _scan_terminal(s, k, X, dW)
            else:
                for j in range(k_hi - k):
                    if with_c:
                        w += field.c(T - (k + j) * dt, X) * dt
                    X = euler_step(field, grid, k + j, X, dW[:, j])
    return X, w


def _scan_terminal(s: float, k: int, X: np.ndarray, dW: np.ndarray) -> np.ndarray:
    """The nodes after X over a chunk of increments dW (n, m, d) from node
    k, for sigma = s and b = 0; returns the last node.

    dW becomes the nodes in place, a row block at a time on every core
    (``_on_row_blocks``): s dW, plus X on the first step, summed strictly
    in step order by np.add.accumulate, which is the step X + s dW of
    ``euler_update`` node by node.  A non-finite node stays non-finite,
    so the last node tells whether any step diverged; the check runs over
    all rows after the blocks, so it names the earliest step of any."""
    def scan(lo, hi):
        block = dW[lo:hi]
        block *= s
        block[:, 0] += X[lo:hi]
        np.add.accumulate(block, axis=1, out=block)

    _on_row_blocks(scan, dW)
    if not np.isfinite(dW[:, -1]).all():
        raise_first_nonfinite(~np.isfinite(dW).all(axis=2), k)
    return dW[:, -1].copy()


def simulate_path(field: CoefficientField, x0, grid: TimeGrid, rng: RngStream,
                  path_index: int = 0) -> SamplePath:
    """Simulate path ``path_index`` of ``rng``, recording every node: a
    batch of one through the same step and the same increments as
    simulate_terminal, so its last node is that path's terminal state."""
    d = field.dim
    dt, T = grid.dt, grid.horizon
    x0 = as_point(x0, d, "x0")
    u = rng.uniforms(path_range(path_index, path_index + 1), 0, grid.steps, d)
    dB = to_increments(u[0], dt)
    states = np.empty((grid.steps + 1, d))
    weight = np.zeros(grid.steps + 1)
    states[0] = x0
    X = x0[None, :]
    for k in range(grid.steps):
        weight[k + 1] = weight[k] + field.c(T - k * dt, X)[0] * dt
        X = euler_step(field, grid, k, X, dB[k][None, :])
        states[k + 1] = X[0]
    return SamplePath(grid=grid, states=states, weight_log=weight)


def simulate_brownian_running_max(t: float, n_paths: int, steps: int,
                                  rng: RngStream, path_offset: int = 0) -> np.ndarray:
    """Exact-in-law samples of sup_{s<=t} B_s for standard 1D Brownian
    motion, via per-step Brownian-bridge maxima.

    Consumes two uniforms per (path, step): one for the endpoint increment
    and one, shifted into (0, 1), for the bridge maximum.
    """
    if t <= 0.0 or steps < 1 or n_paths < 1:
        raise ValidationError("need t > 0, steps >= 1, n_paths >= 1")
    dt = t / steps
    paths = path_range(path_offset, path_offset + n_paths)
    run_max = np.zeros(n_paths)
    endpoint = np.zeros(n_paths)
    for k, k_hi, u in draw_chunks(rng, paths, steps, 2):
        dB = to_increments(u[:, :, 0], dt)
        to_open_unit(u[:, :, 1])
        for j in range(k_hi - k):
            a = endpoint
            b = endpoint + dB[:, j]
            # max of a Brownian bridge from a to b over a step of length dt
            bridge = 0.5 * (a + b + np.sqrt((b - a) ** 2 - 2.0 * dt * np.log(u[:, j, 1])))
            run_max = np.maximum(run_max, bridge)
            endpoint = b
    return run_max


def run_blocks(fn, blocks):
    """fn(*block) for each block of blocks in order, its per-row result
    arrays, or tuples of them, concatenated.  The divergence rule: a block's
    SimulationDivergedError is held until every block has run, then the
    one with the earliest step of any block is raised.  That is the step a
    loop over all the rows at once stops at, so the step reported does not
    depend on how the rows are cut into blocks (path blocks, row tiles)."""
    parts, diverged = [], []
    for block in blocks:
        try:
            parts.append(fn(*block))
        except SimulationDivergedError as exc:
            diverged.append(exc)
    if diverged:
        raise min(diverged, key=lambda exc: exc.step_index)
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(part) for part in zip(*parts))
    return np.concatenate(parts)


def run_path_blocks(n_paths: int, worker, path_offset: int = 0,
                    block_size: int = _DEFAULT_BLOCK):
    """worker(path_lo, path_hi) over consecutive blocks of block_size paths
    (``run_blocks``).  The worker must be a pure function of the path
    range, so the results are byte-identical for any block size."""
    end = path_offset + n_paths
    return run_blocks(worker, ((lo, min(end, lo + block_size))
                               for lo in range(path_offset, end, block_size)))


def mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and standard error (pairwise summation via numpy)."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    mean = float(np.mean(values))
    if n < 2:
        return mean, 0.0
    var = float(np.sum((values - mean) ** 2)) / (n - 1)
    return mean, float(np.sqrt(var / n))
