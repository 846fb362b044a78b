"""Euler-Maruyama simulation of the time-reversed diffusion with
counter-based, partition-invariant randomness: the increment of path p at
step k is a pure function of (seed, p, k), so blocks, tiles, chunks and
threads never change the numbers.

Each mechanism is described where it is implemented: the counter RNG in
``RngStream``, the step loops' chunks in ``draw_chunks``, the scans' tiles
in ``tile_draw``, the draw buffer in ``_draw_buffer``, row blocks and each
dispatch's pool in ``_on_row_blocks``, the step kernel in ``euler_update``,
the path tiles of a solve in ``path_tile``, the constant-sigma scan in
``_scan_terminal``, and the block runner in ``run_blocks``.  The single-leg
drivers are ``simulate_terminal`` and the recorder ``simulate_path``.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

from .coefficients import CoefficientField, sqrt_spd
from .errors import SimulationDivergedError, ValidationError

# draws per chunk, in doubles, for every chunked driver
_CHUNK_BUDGET = 4_000_000
_DEFAULT_BLOCK = 16_384
# doubles per tile of a scan (tile_draw): 2^19 peaked 4 MB higher
_SUB_TILE = 1 << 18
# the chunk loop's draw buffer, one per thread (_draw_buffer)
_draws = threading.local()
# a map or terminal scan of fewer draws runs in the calling thread: about
# 5 ms of ndtri, below which waking a pool thread, and waiting for one the
# host has descheduled, cost more than half the map saves
_SPLIT_MIN = 1 << 18
# threads that share a map or scan, at most
_MAX_THREADS = 4
# row blocks cut per thread (_on_row_blocks)
_BLOCKS_PER_THREAD = 4


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, horizon] with the given number of steps."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not 0.0 < self.horizon < np.inf:
            raise ValidationError("grid.horizon must be finite and > 0")
        _check_count("grid.steps", self.steps)

    @property
    def dt(self) -> float:
        return self.horizon / self.steps


def _is_int(v) -> bool:
    """Whether v is a Python or NumPy integer, not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _check_count(name: str, v, least: int = 1) -> None:
    """Raise ValidationError naming name unless v is an integer >= least."""
    if not _is_int(v) or v < least:
        raise ValidationError(f"{name} must be an integer >= {least}, got {v!r}")


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
        if not _is_int(seed) or not 0 <= int(seed) < 2**64:
            raise ValidationError(f"seed must be an integer in [0, 2^64), got {seed!r}")
        self.seed = int(seed)

    def uniforms(self, path_indices, step_lo: int, step_hi: int, dim: int,
                 buf: np.ndarray | None = None) -> np.ndarray:
        """Uniform[0, 1) draws, shape (paths, steps, dim).  With buf, a flat
        float64 array of at least paths * steps * dim entries, the draws
        are written to its leading entries and returned as a view of it.
        Path indices must be integers in [0, 2^64), the steps integers with
        0 <= step_lo <= step_hi and dim an integer >= 1, else it is a
        ValidationError, not a rounded or wrapped key; a uint64 array of
        path indices (``path_range``) holds only keys and is taken as is."""
        if getattr(path_indices, "dtype", None) != np.uint64:
            for p in path_indices:
                if not (_is_int(p) and 0 <= p < 2**64):
                    raise ValidationError(f"path indices must be integers in [0, 2^64), got {p!r}")
        if not (_is_int(step_lo) and _is_int(step_hi) and 0 <= step_lo <= step_hi):
            raise ValidationError(f"steps [{step_lo!r}, {step_hi!r}) must be an integer "
                                  f"range, 0 <= step_lo <= step_hi")
        _check_count("dim", dim)
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
    """``_increments`` of u in row blocks (``_on_row_blocks``); returns u."""
    def block(lo, hi):
        _increments(u[lo:hi], dt)

    _on_row_blocks(block, len(u), u.size)
    return u


def _increments(u: np.ndarray, dt: float) -> np.ndarray:
    """Uniforms turned into Brownian increments sqrt(dt) ndtri(u) in place
    in the calling thread; returns u.  Every driver maps its uniforms here,
    so an increment has the same bytes whichever driver maps it."""
    to_open_unit(u)
    ndtri(u, out=u)
    u *= np.sqrt(dt)
    return u


def _on_row_blocks(fn, rows: int, work: int) -> None:
    """fn(lo, hi) over the row blocks [lo, hi) of rows rows, for an fn that
    works on each row on its own with the serial operations and returns
    None, so the bytes do not depend on the split.  Below _SPLIT_MIN work
    (draws to map or scan), or with one CPU (``_threads``), the calling
    thread runs fn(0, rows); otherwise a pool opened for this dispatch, and
    shut down before it returns, runs more blocks than it has threads
    (``run_blocks``), so an unscheduled thread stalls no one.  NumPy and
    SciPy ufuncs release the GIL."""
    threads = 1 if work < _SPLIT_MIN or rows < 2 else _threads()
    if threads < 2:
        fn(0, rows)
        return
    n = min(rows, _BLOCKS_PER_THREAD * threads)
    with ThreadPoolExecutor(threads, thread_name_prefix="couplemc-rows") as pool:
        run_blocks(fn, [(rows * i // n, rows * (i + 1) // n) for i in range(n)], pool)


def _threads() -> int:
    """Threads that share a large map or scan: the CPUs this process may
    run on (affinity, else os.cpu_count()), at most _MAX_THREADS."""
    affinity = getattr(os, "sched_getaffinity", None)  # not on every platform
    return min(len(affinity(0)) if affinity else (os.cpu_count() or 1), _MAX_THREADS)


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


def draw_chunks(rng: RngStream, paths, stop: int, dim: int):
    """Yields (k, k_hi, u) for consecutive step ranges [k, k_hi) covering
    [0, stop), u the raw uniforms (paths, k_hi - k, dim) of the chunk's
    paths, for the step loops.  paths is an array of path indices, a fixed
    batch whose chunks fill the draw budget (``chunk_steps``), or a
    callable that returns the paths of a shrinking batch, read again for
    every chunk; the iteration stops when it is empty.  A shrinking
    batch's chunk from node k also takes at most max(16, k // 2) steps,
    half the steps already taken, so pairs that meet early leave few draws
    unused and a batch of many pairs (a whole distance ladder) draws its
    first chunks in little memory; it ends on a whole four-double counter
    block unless it ends at stop, so every chunk starts on one and no row
    pays for discarding the doubles before its start.  Every chunk of a
    call is drawn into one buffer (``_draw_buffer``), which the next chunk
    overwrites."""
    shrinking = callable(paths)
    buf = None
    k = 0
    while k < stop:
        p = paths() if shrinking else paths
        per_step = len(p) * dim
        if not per_step:
            return
        if buf is None:
            buf = _draw_buffer(min(per_step * stop, max(_CHUNK_BUDGET, 16 * per_step)))
        k_hi = k + chunk_steps(per_step)
        if shrinking:
            # end on a multiple of 4 steps, a whole counter block in any dim
            k_hi = min(k_hi, k + max(16, k // 2)) // 4 * 4
        k_hi = min(stop, k_hi)
        yield k, k_hi, rng.uniforms(p, k, k_hi, dim, buf)
        k = k_hi


def tile_draw(rng: RngStream):
    """(tile, draw) of a scan: tile = min(_SUB_TILE, _CHUNK_BUDGET) doubles,
    and draw(paths, k, k_hi, dim), rng's uniforms of steps [k, k_hi), at
    most a tile, into the calling thread's kept ``_draw_buffer``."""
    tile = min(_SUB_TILE, _CHUNK_BUDGET)
    return tile, lambda *args: rng.uniforms(*args, _draw_buffer(tile))


def chunk_steps(per_step: int) -> int:
    """At least 16 steps, else about _CHUNK_BUDGET doubles at per_step a step."""
    return max(16, _CHUNK_BUDGET // per_step)


def _draw_buffer(n: int) -> np.ndarray:
    """A float64 array of at least n entries for a call's chunks of draws.
    Up to _CHUNK_BUDGET entries it is the calling thread's kept buffer, so
    drivers must not nest in a thread, grown to the thread's largest
    request: a scan's 2 MB tile (``tile_draw``) stays on small pages (NumPy
    backs arrays of 4 MB or more with 2 MB pages).

    The block driver's chunks change size as pairs meet.  A fresh array
    per chunk or per call leaves it to malloc whether a freed chunk is
    reused or the heap grows by another one, which made the peak memory
    of identical runs differ by a chunk; a fresh mapping per call instead
    costs its page faults, about 15 ms per 32 MB on a 2-core VM."""
    if n > _CHUNK_BUDGET:
        return np.empty(n)
    buf = getattr(_draws, "buf", None)
    if buf is None or buf.size < n:
        buf = _draws.buf = np.empty(n)
    return buf


def path_tile(field: CoefficientField, grid: TimeGrid) -> int:
    """Paths per ``simulate_terminal`` call of a solve: _DEFAULT_BLOCK for a
    scanned field (``_scans``), whose scan draws in sub-tiles.  A step-loop
    field takes as many as have their horizons' draws fit _CHUNK_BUDGET,
    when that is between 2048 and _DEFAULT_BLOCK paths, else the block,
    its horizon drawn in chunks: below 2048 paths the per-step overhead
    outweighs the longer rows (1024-path tiles of a 2D solve ran slower)."""
    tile = _CHUNK_BUDGET // (grid.steps * field.dim)
    return tile if 2048 <= tile <= _DEFAULT_BLOCK and not _scans(field) else _DEFAULT_BLOCK


def _scans(field: CoefficientField) -> bool:
    """Whether ``simulate_terminal`` scans the field (``_scan_terminal``)
    rather than stepping it: a declared sigma = s I with b = 0 and c = 0."""
    return field.sigma_scalar is not None and field.b_sup == 0.0 and field.c_sup == 0.0


def path_range(lo: int, hi: int) -> np.ndarray:
    """The path indices [lo, hi) as uint64, the keys ``RngStream`` reads;
    an index outside [0, 2^64), or not an integer, is an error, not a
    wrapped or rounded key."""
    if not (_is_int(lo) and _is_int(hi) and 0 <= lo <= hi <= 2**64):
        raise ValidationError(f"path indices [{lo!r}, {hi!r}) must be integers in [0, 2^64)")
    return np.arange(lo, hi, dtype=np.uint64)


def as_point(x, d: int, name: str = "a point") -> np.ndarray:
    """x as a point of R^d; a point of another length is an error, not
    broadcast, and so is a non-finite entry, not a divergence at step 1."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.shape != (d,):
        raise ValidationError(f"{name} of this field needs {d} entries, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise ValidationError(f"{name} must be finite, got {p.tolist()}")
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
    declared sigma, b = 0 and c = 0 (``_scans``) is scanned
    (``_scan_terminal``), any other stepped node by node.  The c-integral
    is skipped when c = 0, as adding 0.0 to the +0.0 sum is exact.
    """
    d = field.dim
    paths = path_range(path_lo, path_hi)
    dt, T = grid.dt, grid.horizon
    X = np.tile(as_point(x0, d, "x0"), (len(paths), 1))
    w = np.zeros(len(paths))
    with_c = field.c_sup > 0.0
    # overflow is handled by the finite check, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if _scans(field):
            return _scan_terminal(field.sigma_scalar, rng, paths, X, grid), w
        for k, k_hi, u in draw_chunks(rng, paths, grid.steps, d):
            dW = to_increments(u, dt)
            for j in range(k_hi - k):
                if with_c:
                    w += field.c(T - (k + j) * dt, X) * dt
                X = euler_step(field, grid, k + j, X, dW[:, j])
    return X, w


def _scan_terminal(s: float, rng: RngStream, paths: np.ndarray, X: np.ndarray,
                   grid: TimeGrid) -> np.ndarray:
    """The nodes at the horizon of the paths started at X (n, d), for
    sigma = s and b = 0, written into X, which is returned.

    Each row block (``_on_row_blocks``, work n steps d) runs its sub-tiles
    of ``tile_draw``'s tile through ``run_blocks``: it draws them under the
    scan's one lock (threads re-keying Philox rows at once hand the GIL
    back and forth), maps them (``_increments``) while another draws, and
    sums s dW, plus X on the first step, in step order by
    np.add.accumulate: the step X + s dW of ``euler_update``.  A longer
    horizon is drawn in chunks."""
    d, steps = X.shape[1], grid.steps
    sub, draw = tile_draw(rng)
    rows, m = max(1, sub // (steps * d)), max(1, sub // d)
    lock = threading.Lock()

    def scan(a, b):
        for k in range(0, steps, m):
            with lock:
                dW = draw(paths[a:b], k, min(steps, k + m), d)
            np.multiply(_increments(dW, grid.dt), s, out=dW)
            dW[:, 0] += X[a:b]
            np.add.accumulate(dW, axis=1, out=dW)
            if not np.isfinite(dW[:, -1]).all():
                raise_first_nonfinite(~np.isfinite(dW).all(axis=2), k)
            X[a:b] = dW[:, -1]

    _on_row_blocks(lambda lo, hi: run_blocks(
        scan, ((a, min(hi, a + rows)) for a in range(lo, hi, rows))), len(X), len(X) * steps * d)
    return X


@np.errstate(over="ignore", invalid="ignore")
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
    if not 0.0 < t < np.inf:
        raise ValidationError(f"t must be finite and > 0, got {t!r}")
    _check_count("steps", steps)
    _check_count("n_paths", n_paths)
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


def run_blocks(fn, blocks, pool=None):
    """fn(*block) for each block, in order as blocks yields them, or in the
    pool, each in a copy of the caller's context (its NumPy error state),
    waiting for all so no block writes on after an error reaches the
    caller.  Returns fn's per-row arrays, or tuples of them, concatenated
    in block order, or None.  The divergence rule: a SimulationDivergedError
    is held until every block has run, then the earliest step of any block
    is raised, the step a loop over all the rows at once stops at, however
    the rows are cut into blocks (path blocks, row blocks, row tiles)."""
    if pool is not None:
        futures = [pool.submit(contextvars.copy_context().run, fn, *block)
                   for block in blocks]
        wait(futures)
        # read each block's result, or its error, in block order
        fn, blocks = Future.result, [(future,) for future in futures]
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
    return None if parts[0] is None else np.concatenate(parts)


def run_path_blocks(n_paths: int, worker, path_offset: int = 0,
                    block_size: int = _DEFAULT_BLOCK):
    """worker(path_lo, path_hi) over consecutive blocks of block_size paths
    (``run_blocks``).  The worker must be a pure function of the path
    range, so the results are byte-identical for any block size."""
    _check_count("n_paths", n_paths)
    _check_count("block_size", block_size)
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


def rung_means(n: int, *samples) -> list[tuple]:
    """``mean_stderr`` of each per-pair sample array over each rung of a
    ladder, rung i the slice [i n, (i + 1) n): one tuple of (mean, stderr)
    pairs per rung, in the order of samples.  A bool array gives the
    fraction of its rung that is True."""
    return [tuple(mean_stderr(s[lo:lo + n]) for s in samples)
            for lo in range(0, len(samples[0]), n)]
