"""Fourier transforms and the Wiener norm on Z_p and Z_p^d.

Conventions, fixed everywhere:

    fhat(xi) = p^{-d} * sum_x f(x) * exp(-2*pi*i * (xi . x) / p)
    f(x)     = sum_xi fhat(xi) * exp(+2*pi*i * (xi . x) / p)
    wiener_norm(f) = sum_xi |fhat(xi)|

The transforms are numpy's pocketfft, at any length.  `dft` is `np.fft.fftn`
bit for bit: the same calls, one `np.fft.fft` per axis from the last to the
first, without its bookkeeping, each in place (`out=`, numpy >= 2.0), so a
transform holds one complex p^d table.  The Wiener norm, spectral T_k and the
separation bound read only |fhat|, and one planner, `_magnitude_stacks`,
picks how it is computed (`magnitudes` is its row for one function).  A
table larger than one slab whose points can fill fewer than half its
last-axis lines takes the slab path, the only one that skips empty lines:
it builds |fhat| one slab of last-axis columns at a time, with no complex p^d
table.  Every other table is transformed whole, those of one group as one
stack (`_dense_tables`): pocketfft transforms each line on its own, so a line
gets the same bits in a stack as alone, and numpy's per-call cost is paid
once a stack, not once a function.
On a machine that lets the process run on two cores, large transforms share
their work with one pool thread (`_claimed`): the slabs of the slab path,
and chunks of the lines of each axis call of a table larger than one slab.
Each line is still one pocketfft call and each |.| is still taken cell by
cell, so every byte is the one the calling thread alone computes.
The quadratic-time transform, tensorized axis by axis, is the oracle
`dft_naive` that tests compare against; it reduces every phase exponent mod p
before touching floating point, so angles stay in (-2*pi, 0].
"""

from __future__ import annotations

import cmath
import os
import threading
from types import MappingProxyType
from typing import Callable, Iterator

import numpy as np

from .config import SLAB_CELLS, ZERO_CLAMP
from .errors import BudgetError
from .groups import GroupContext, Point, _codes


class SparseFunction:
    """Finitely supported complex function on Z_p^d; exact zeros are never stored."""

    def __init__(self, ctx: GroupContext, entries):
        items = entries.items() if hasattr(entries, "items") else entries
        self._fill(ctx, ((ctx.point(x), v) for x, v in items))

    @classmethod
    def _reduced(cls, ctx: GroupContext, items) -> "SparseFunction":
        """The function of (point, value) pairs whose points are already
        reduced tuples, skipping `ctx.point`; values are still checked."""
        f = cls.__new__(cls)
        f._fill(ctx, items)
        return f

    def _fill(self, ctx: GroupContext, items) -> None:
        # a product of finite values can overflow to inf or underflow to 0,
        # so the values of reduced pairs are checked here too
        self.ctx = ctx
        table: dict[Point, complex] = {}
        for pt, v in items:
            z = complex(v)
            if not cmath.isfinite(z):
                raise ValueError(f"non-finite value {z} at point {pt}")
            if z == 0:
                continue
            if pt in table:
                raise ValueError(f"duplicate entry for point {pt}")
            table[pt] = z
        self._entries = table

    @classmethod
    def indicator(cls, ctx: GroupContext, points) -> "SparseFunction":
        # each point is normalised once; the dict keeps first occurrences in order
        return cls._reduced(ctx, dict.fromkeys(map(ctx.point, points), 1.0).items())

    @property
    def entries(self):
        return MappingProxyType(self._entries)

    def __getitem__(self, x) -> complex:
        return self._entries.get(self.ctx.point(x), 0j)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(sorted(self._entries))

    @property
    def support(self) -> frozenset[Point]:
        return frozenset(self._entries)

    @property
    def support_size(self) -> int:
        return len(self._entries)

    @property
    def max_abs(self) -> float:
        return max((abs(v) for v in self._entries.values()), default=0.0)

    @property
    def l2_norm(self) -> float:
        return float(np.sqrt(sum(abs(v) ** 2 for v in self._entries.values())))

    def to_dense(self) -> np.ndarray:
        self.ctx.check_dense_budget()
        arr = np.zeros((self.ctx.p,) * self.ctx.d, dtype=np.complex128)
        for pt, v in self._entries.items():
            arr[pt] = v
        return arr

    def pointwise_mul(self, other: "SparseFunction") -> "SparseFunction":
        if other.ctx != self.ctx:
            raise ValueError("functions live on different groups")
        small, big = sorted((self, other), key=lambda f: f.support_size)
        return SparseFunction._reduced(
            self.ctx,
            ((pt, v * big._entries[pt]) for pt, v in small._entries.items() if pt in big._entries),
        )

    def restrict(self, points) -> "SparseFunction":
        """Q(x) * f(x) for a set Q of points."""
        keep = {self.ctx.point(x) for x in points}
        return SparseFunction._reduced(
            self.ctx, ((pt, v) for pt, v in self._entries.items() if pt in keep)
        )

    def __repr__(self) -> str:
        return (
            f"SparseFunction(p={self.ctx.p}, d={self.ctx.d}, "
            f"support={self.support_size})"
        )


class Spectrum:
    """Dense table of Fourier coefficients over Z_p^d."""

    def __init__(self, ctx: GroupContext, coefficients: np.ndarray):
        coefficients = np.asarray(coefficients, dtype=np.complex128)
        if coefficients.shape != (ctx.p,) * ctx.d:
            raise ValueError(
                f"coefficient table shape {coefficients.shape} does not match {ctx}"
            )
        self.ctx = ctx
        self.coefficients = coefficients

    def __getitem__(self, xi) -> complex:
        return complex(self.coefficients[self.ctx.point(xi)])

    @property
    def l1(self) -> float:
        """The Wiener norm; accumulated in fixed C order for reproducibility."""
        return float(np.abs(self.coefficients.ravel(order="C")).sum())


# ---------------------------------------------------------------------------
# the second core
# ---------------------------------------------------------------------------

# Threads a large transform runs on: the caller and, given a second core, one
# pool thread.  Read once, at import, from the cores the process may run on
# (_CORES, empty where the platform does not tell), so `taskset -c 0` makes
# every transform serial.
_CORES = frozenset(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else frozenset()
_THREADS = min(2, len(_CORES) or os.cpu_count() or 1)

_pool = None  # the job queue the pool thread serves, made on first use
_pool_lock = threading.Lock()
_pool_cores = None  # the cores the pool thread last restricted itself to


def _pool_jobs():
    """The queue of the process's pool thread, started on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from queue import SimpleQueue  # imported here: most runs never thread

            jobs = SimpleQueue()
            threading.Thread(target=_serve, args=(jobs,), name="zpwiener-pool", daemon=True).start()
            _pool = jobs
        return _pool


def _serve(jobs) -> None:
    while True:
        jobs.get()()


def _forget_pool() -> None:
    # a forked child has no pool thread, and the lock may have been held by
    # a thread that is not there either
    global _pool, _pool_lock, _pool_cores
    _pool, _pool_lock, _pool_cores = None, threading.Lock(), None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _run_away_from(caller_cores: frozenset) -> None:
    """Restrict the pool thread, which calls this, to the cores of _CORES
    that the caller may not run on, or to all of _CORES when there are none.

    The scheduler does not move a busy thread off a shared core for tens of
    milliseconds: a caller pinned to the core the pool thread last ran on
    shared it with the pool thread for whole Z_101^3 norms, 73-97 ms each
    against 33-48 ms with the pool thread on the other core.
    """
    global _pool_cores
    cores = _CORES - caller_cores or _CORES
    if cores and cores != _pool_cores:
        try:
            os.sched_setaffinity(0, cores)
        except OSError:  # a core went offline: run where the kernel puts it
            return
        _pool_cores = cores


class _Claims:
    """Tasks 0 ... n-1, each run once by whichever thread claims it first."""

    def __init__(
        self, n: int, make_task: Callable[[], Callable[[int], None]], caller_cores: frozenset
    ):
        self.make_task, self.caller_cores = make_task, caller_cores
        self.fp_errors = np.geterr()  # the caller's np.errstate, which is per thread
        self.lo, self.hi = 0, n  # tasks lo ... hi - 1 are unclaimed
        self.lock = threading.Lock()
        self.started = self.closed = False  # the pool thread's drain
        self.finished = threading.Event()
        self.error: BaseException | None = None

    def drain(self, from_back: bool = False) -> None:
        """Claim and run tasks until none is left, the lowest unclaimed one
        each time (the highest `from_back`); an error stops every thread and
        is raised by the caller."""
        try:
            task = self.make_task()
            while True:
                with self.lock:
                    if self.lo >= self.hi:
                        return
                    if from_back:
                        self.hi -= 1
                        i = self.hi
                    else:
                        i = self.lo
                        self.lo += 1
                task(i)
        except BaseException as exc:
            with self.lock:
                self.lo = self.hi
                if self.error is None:
                    self.error = exc

    def pool_drain(self) -> None:
        """The pool thread's share: nothing once the caller has closed it."""
        with self.lock:
            if self.closed:
                return
            self.started = True
        try:
            _run_away_from(self.caller_cores)
            with np.errstate(**self.fp_errors):
                self.drain(from_back=True)
        finally:
            self.finished.set()


def _claimed(n: int, make_task: Callable[[], Callable[[int], None]]) -> None:
    """Run task(i) for i = 0 ... n-1 on the calling thread and, given two
    cores, the pool thread.

    Each thread calls `make_task()` once, for buffers of its own, and takes
    the next unclaimed index whenever it is free, so a stalled thread holds
    up at most the task it is running.  The caller counts up from 0 and the
    pool thread down from n-1: the two write far-apart parts of an output,
    not the same cache lines (on Z_61^3 norms that took 0.63 of the serial
    time down to 0.58).  The pool thread runs on the cores the caller may
    not, if there are any (`_run_away_from`).  When the caller runs out of
    tasks before the pool thread has begun, the pool's share is cancelled,
    not awaited.  The first error of any task is raised here once both
    threads have stopped.  Tasks must not read the config in force
    (`active()` is per thread): the caller makes every budget check before
    this.
    """
    if _THREADS < 2 or n < 2:
        task = make_task()
        for i in range(n):
            task(i)
        return
    claims = _Claims(n, make_task, frozenset(os.sched_getaffinity(0)) if _CORES else _CORES)
    _pool_jobs().put(claims.pool_drain)
    claims.drain()
    with claims.lock:
        claims.closed = True
        started = claims.started
    if started:
        claims.finished.wait()
    if claims.error is not None:
        raise claims.error


def _fft_axis(arr: np.ndarray, axis: int) -> None:
    """`np.fft.fft(arr, axis=axis, norm="forward", out=arr)`; a table larger
    than one slab (a lone table: a stack holds at most one slab) is cut along
    its longest other axis into chunks of about half a slab, for `_claimed`.

    pocketfft transforms each line on its own, so the bits do not depend on
    the chunk a line is in.
    """
    if _THREADS < 2 or arr.size <= SLAB_CELLS:
        np.fft.fft(arr, axis=axis, norm="forward", out=arr)
        return
    split = max((a for a in range(arr.ndim) if a != axis), key=arr.shape.__getitem__)
    length = arr.shape[split]
    step = -(-length // min(length, max(2, 2 * arr.size // SLAB_CELLS)))
    lead = (slice(None),) * split

    def task(i):
        chunk = arr[lead + (slice(i * step, (i + 1) * step),)]
        np.fft.fft(chunk, axis=axis, norm="forward", out=chunk)

    _claimed(-(-length // step), lambda: task)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def _dft1d_fast(values: np.ndarray) -> np.ndarray:
    """Unnormalized transform along the last axis: X[k] = sum_n v[n] w^{kn}."""
    # Only the acceptance ladder calls this.
    return np.fft.fft(values, axis=-1)


def _dft1d_naive(values: np.ndarray) -> np.ndarray:
    """Quadratic-time transform; exponents are reduced mod p before exp()."""
    p = values.shape[-1]
    omega = np.exp(-2j * np.pi * np.arange(p) / p)
    ns = np.arange(p, dtype=np.int64)
    out = np.empty(values.shape[:-1] + (p,), dtype=np.complex128)
    chunk = max(1, min(p, (1 << 22) // p))
    for lo in range(0, p, chunk):
        ks = np.arange(lo, min(lo + chunk, p), dtype=np.int64)
        w = omega[(ks[:, None] * ns[None, :]) % p]
        out[..., lo : lo + len(ks)] = values @ w.T
    return out


def _dft_naive(arr: np.ndarray) -> np.ndarray:
    """The quadratic oracle tensorized axis by axis (unnormalized)."""
    for axis in range(arr.ndim):
        arr = np.moveaxis(_dft1d_naive(np.moveaxis(arr, axis, -1)), -1, axis)
    return arr


def _occupied_lines(f: SparseFunction) -> tuple[np.ndarray, np.ndarray]:
    """The transforms along the last axis (`norm="forward"`) of the lines of
    f that hold a point, and where they go.

    Row i of the table belongs to the line whose prefix (x_0, ..., x_{d-2})
    has C-order index at[i]; the last row is the transform of a zero line,
    signed zeros and all, which every other line gets.  The rows are
    transformed in place, in one batch.
    """
    ctx = f.ctx
    ctx.check_dense_budget()
    p, d = ctx.p, ctx.d
    lines: dict[Point, int] = {}  # prefix -> row of the table
    table = np.zeros((len(f) + 1, p), dtype=np.complex128)
    for pt, v in f._entries.items():
        table[lines.setdefault(pt[:-1], len(lines)), pt[-1]] = v
    rows = table[: len(lines) + 1]  # row len(lines) is zero
    np.fft.fft(rows, norm="forward", out=rows)
    prefixes = np.array(list(lines), dtype=np.int64).reshape(len(lines), d - 1)
    return rows, prefixes @ (p ** np.arange(d - 2, -1, -1, dtype=np.int64))


def _dense_tables(ctx: GroupContext, functions) -> Iterator[tuple[int, np.ndarray]]:
    """The complex tables of a list of functions of ctx, stacked: yields
    (start, stack), stack[i] the table of functions[start + i].

    A stack holds at most SLAB_CELLS cells, or one function whose table is
    larger.  Its tables are filled from the entries and transformed in place
    along axes d, ..., 1 of the stack, the calls `np.fft.fftn` makes on one
    table: pocketfft transforms each line on its own, so a table's bits do
    not depend on what it is stacked with.
    """
    ctx.check_dense_budget()
    p, d, size = ctx.p, ctx.d, ctx.size
    per = max(1, SLAB_CELLS // size)
    for lo in range(0, len(functions), per):
        chunk = functions[lo : lo + per]
        stack = np.zeros((len(chunk), size), dtype=np.complex128)
        pts = [pt for f in chunk for pt in f._entries]
        if pts:
            rows = np.repeat(np.arange(len(chunk)), [len(f) for f in chunk])
            stack[rows, _codes(ctx, pts)] = [v for f in chunk for v in f._entries.values()]
        stack = stack.reshape((len(chunk),) + (p,) * d)
        for axis in range(d, 0, -1):
            _fft_axis(stack, axis)
        yield lo, stack


def dft(f: SparseFunction) -> Spectrum:
    """Forward transform over all d axes, `np.fft.fftn` bit for bit: the one
    table of `_dense_tables`."""
    return Spectrum(f.ctx, next(_dense_tables(f.ctx, [f]))[1][0])


def magnitudes(f: SparseFunction) -> np.ndarray:
    """|fhat| as a C-order float64 table, `np.abs(dft(f).coefficients)` bit
    for bit: the row `_magnitude_stacks` gives f."""
    return next(_magnitude_stacks([f]))[1].reshape((f.ctx.p,) * f.ctx.d)


def _slab_magnitudes(f: SparseFunction) -> np.ndarray:
    """|fhat| as a (p^{d-1}, p) float64 table, with no complex p^d table.

    Each block of `width` last-axis columns is filled from the occupied
    lines' transforms into a slab of about SLAB_CELLS cells (half that on
    each of two threads, see `_claimed`), stored column by column,
    transformed in place along axes d-2 ... 0 (the per-line calls `fftn`
    makes) and only its magnitudes are kept.
    """
    ctx = f.ctx
    p, d = ctx.p, ctx.d
    lines = ctx.size // p
    rows, at = _occupied_lines(f)
    width = max(1, SLAB_CELLS // _THREADS // lines)  # the threads share one slab's cells
    out = np.empty((lines, p))

    def make_task():
        slab_buf = np.empty(lines * width, dtype=np.complex128)
        mag_buf = np.empty(lines * width)

        def task(i):
            lo = i * width
            w = min(width, p - lo)
            # column-major: slab[j] is the (p,) * (d - 1) cube of last-axis
            # column lo + j, so every transform below runs over contiguous cubes
            slab = slab_buf[: lines * w].reshape(w, lines)
            slab[:] = rows[-1, lo : lo + w, None]
            slab[:, at] = rows[:-1, lo : lo + w].T
            cube = slab.reshape((w,) + (p,) * (d - 1))
            for axis in range(d - 1, 0, -1):
                np.fft.fft(cube, axis=axis, norm="forward", out=cube)
            # |.| between contiguous buffers, as the dense path takes it
            out[:, lo : lo + w] = np.abs(slab, out=mag_buf[: lines * w].reshape(w, lines)).T

        return task

    _claimed(-(-p // width), make_task)
    return out


def _magnitude_stacks(functions: list) -> Iterator[tuple[list[int], np.ndarray]]:
    """|fhat| of each function, as (indices, (n, p^d) float64 array) whose
    row j is `np.abs(dft(functions[indices[j]]).coefficients)` flattened in
    C order, bit for bit; the one place that picks how |fhat| is computed.

    The functions are grouped by their group, in order of first appearance.
    A function whose table is larger than one slab, and whose points can
    fill fewer than half its last-axis lines, takes the slab path
    (`_slab_magnitudes`).  Every other one, empty d = 1 functions included,
    comes in its group's stacks of `_dense_tables`, |.| taken once a stack;
    a group with none makes no stack.  A group's dense-budget check comes
    before any of its transforms.
    """
    groups: dict[GroupContext, list[int]] = {}
    for i, f in enumerate(functions):
        groups.setdefault(f.ctx, []).append(i)
    for ctx, idx in groups.items():
        lines = ctx.size // ctx.p
        sliced = [i for i in idx if ctx.size > SLAB_CELLS and 2 * len(functions[i]) < lines]
        dense = [i for i in idx if i not in sliced]
        if dense:
            for lo, stack in _dense_tables(ctx, [functions[i] for i in dense]):
                yield dense[lo : lo + len(stack)], np.abs(stack).reshape(len(stack), -1)
        for i in sliced:
            yield [i], _slab_magnitudes(functions[i]).reshape(1, -1)


def dft_naive(f: SparseFunction) -> Spectrum:
    """The quadratic-time oracle of `dft`, tensorized axis by axis."""
    return Spectrum(f.ctx, _dft_naive(f.to_dense()) / f.ctx.size)


def dft_direct_sum(f: SparseFunction) -> Spectrum:
    """O(p^{2d}) double-sum oracle, independent of the tensorized paths."""
    ctx = f.ctx
    if ctx.size**2 > 1 << 26:
        raise BudgetError("direct-sum oracle is limited to tiny instances")
    coeffs = np.zeros((ctx.p,) * ctx.d, dtype=np.complex128)
    for xi in ctx.points():
        acc = 0j
        for x in ctx.points():
            v = f[x]
            if v:
                acc += v * np.exp(-2j * np.pi * ctx.dot(xi, x) / ctx.p)
        coeffs[xi] = acc / ctx.size
    return Spectrum(ctx, coeffs)


def inverse_dft(spectrum: Spectrum) -> SparseFunction:
    """Inverse transform; values of magnitude at most ZERO_CLAMP are dropped."""
    ctx = spectrum.ctx
    ctx.check_dense_budget()
    arr = np.fft.ifftn(spectrum.coefficients, norm="forward")
    # in C order; NaN fails `<=` too, so it is kept here and rejected by _fill
    idx = np.argwhere(~(np.abs(arr) <= ZERO_CLAMP))
    values = arr[tuple(idx.T)].tolist()
    return SparseFunction._reduced(ctx, zip(map(tuple, idx.tolist()), values))


def wiener_norm(f: SparseFunction) -> float:
    """l1 norm of the Fourier transform, summed in C order as `Spectrum.l1`."""
    return float(magnitudes(f).ravel(order="C").sum())


def wiener_norms(functions) -> list[float]:
    """`[wiener_norm(f) for f in functions]` bit for bit, one transform a
    stack of `_magnitude_stacks` instead of one a function.

    The functions may live on different groups.  A budget refusal is the
    one `wiener_norm` gives on the first function that refuses.
    """
    functions = list(functions)
    norms = [0.0] * len(functions)
    for at, mags in _magnitude_stacks(functions):
        for i, norm in zip(at, mags.sum(axis=1).tolist()):
            norms[i] = norm
    return norms
