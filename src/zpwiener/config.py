"""Central configuration: budgets and comparison tolerances.

Everything here is a plain default; individual functions accept overrides so
experiments can push past the desk-scale limits deliberately.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class ToolConfig:
    dense_budget: int = 1 << 24       # max p^d allowed for dense spectral tables
    norm_tol: float = 1e-9            # norm identities and norm inequalities
    energy_tol: float = 1e-6          # T_k comparisons
    zero_clamp: float = 1e-10         # inverse-transform sparsification threshold
    dissociation_cap: int = 20        # max set size for the sign-pattern search
    exact_dim_cap: int = 16           # max |S| for exact additive dimension
    direction_cap: int = 1 << 22      # max number of enumerated directions
    line_density_const: float = 4.0   # line search requires density >= const/p
    q_scan_cap: int = 1 << 22         # max modulus for the exhaustive dilation scan
    op_budget: int = 1 << 24          # work cap for T_k convolution tables


DEFAULT_CONFIG = ToolConfig()

# elements in one temporary of the chunked array kernels (256 KiB of int64):
# large enough that numpy's per-call cost is amortised, small enough that
# the temporaries do not raise a process's peak memory
ARRAY_CHUNK = 1 << 15
