"""Central configuration: budgets and comparison tolerances.

One `ToolConfig` is in force at a time, per thread and per asyncio task:
`active()` returns it (`DEFAULT_CONFIG` outside any block), and `using(config)`
puts one in force for a block.  Each cap is read from it in the one place
that enforces it.
"""

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, fields
from numbers import Integral, Real

from .errors import BudgetError


@dataclass(frozen=True)
class ToolConfig:
    dense_budget: int = 1 << 24       # max p^d allowed for dense spectral tables
    norm_tol: float = 1e-9            # norm identities and norm inequalities
    energy_tol: float = 1e-6          # T_k comparisons
    op_budget: int = 1 << 24          # work cap of T_k and of every search, in element operations

    def __post_init__(self):
        for field in fields(self):
            v = getattr(self, field.name)
            if field.type is int and (not isinstance(v, Integral) or isinstance(v, bool) or v < 1):
                raise ValueError(f"{field.name} must be an integer >= 1, got {v!r}")
            if field.type is float and not (isinstance(v, Real) and math.isfinite(v) and v >= 0):
                raise ValueError(f"{field.name} must be a finite number >= 0, got {v!r}")


DEFAULT_CONFIG = ToolConfig()

_ACTIVE: ContextVar[ToolConfig] = ContextVar("zpwiener_config", default=DEFAULT_CONFIG)


def active() -> ToolConfig:
    """The config in force: the innermost `using` block's, else DEFAULT_CONFIG."""
    return _ACTIVE.get()


@contextmanager
def using(config: ToolConfig):
    """Put config in force for the block; the previous one returns after it.

    Only this thread and the asyncio tasks it creates in the block see it.
    A new thread, a ThreadPoolExecutor worker included, starts with
    DEFAULT_CONFIG: enter `using` there, or run the call in
    `contextvars.copy_context()`.
    """
    if not isinstance(config, ToolConfig):
        raise TypeError(f"using() needs a ToolConfig, got {type(config).__name__}")
    token = _ACTIVE.set(config)
    try:
        yield config
    finally:
        _ACTIVE.reset(token)


def _check_work(work: int, what: str = "T_k convolution") -> None:
    """Refuse work past the op_budget in force."""
    op_budget = active().op_budget
    if work > op_budget:
        raise BudgetError(
            f"{what} work {work} exceeds budget {op_budget} "
            f"by {work - op_budget}; raise op_budget", knob="op_budget"
        )


ZERO_CLAMP = 1e-10          # inverse-transform sparsification threshold
LINE_DENSITY_CONST = 4.0    # line search requires density >= const/p

# elements in one temporary of the chunked array kernels (256 KiB of int64):
# large enough that numpy's per-call cost is amortised, small enough that
# the temporaries do not raise a process's peak memory
ARRAY_CHUNK = 1 << 15

# complex cells in one slab of the |fhat| slab path and in one stack of
# `fourier._dense_tables` (1 MiB): smaller slabs pay numpy's per-call cost
# more often, larger ones raise a process's peak memory.  Tables larger than a
# slab share their axis transforms between two threads (`fourier._fft_axis`);
# on 2 vCPUs that took 0.57-0.68 of the serial time from 3*10^4 cells, and
# 0.8-1.14 at 10^4 cells
SLAB_CELLS = 1 << 16
