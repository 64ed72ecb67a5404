"""Central configuration: budgets and comparison tolerances.

Everything here is a plain default; individual functions accept overrides so
experiments can push past the desk-scale limits deliberately.  `ToolConfig`
holds what the commands pass down; the module constants are keyword defaults
only.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class ToolConfig:
    dense_budget: int = 1 << 24       # max p^d allowed for dense spectral tables
    norm_tol: float = 1e-9            # norm identities and norm inequalities
    energy_tol: float = 1e-6          # T_k comparisons
    exact_dim_cap: int = 16           # max |S| for exact additive dimension
    q_scan_cap: int = 1 << 22         # max modulus for the exhaustive dilation scan
    op_budget: int = 1 << 24          # work cap for T_k convolution tables


DEFAULT_CONFIG = ToolConfig()

ZERO_CLAMP = 1e-10          # inverse-transform sparsification threshold
DISSOCIATION_CAP = 20       # max set size for the sign-pattern search
DIRECTION_CAP = 1 << 22     # max number of enumerated directions
LINE_DENSITY_CONST = 4.0    # line search requires density >= const/p

# elements in one temporary of the chunked array kernels (256 KiB of int64):
# large enough that numpy's per-call cost is amortised, small enough that
# the temporaries do not raise a process's peak memory
ARRAY_CHUNK = 1 << 15
