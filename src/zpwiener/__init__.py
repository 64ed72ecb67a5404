"""Wiener norms, Fourier analysis, and additive energies over Z_p^d."""

from .config import DEFAULT_CONFIG, ToolConfig, using
from .errors import BudgetError, FileFormatError
from .groups import (
    AffineMap,
    GroupContext,
    Hyperplane,
    Line,
    canonical_abs,
    enumerate_directions,
    is_odd_prime,
    signed_rep,
)
from .fourier import (
    SparseFunction,
    Spectrum,
    dft,
    dft_direct_sum,
    dft_naive,
    inverse_dft,
    wiener_norm,
    wiener_norms,
)
from .energy import (
    DissociationCertificate,
    LevelSetDecomposition,
    ScatteredFamily,
    additive_dimension,
    build_scattered_family,
    is_dissociated,
    level_sets,
    rudin_ratio,
    scattered_energy_bound,
    t_k_direct,
    t_k_enumerated,
    t_k_int,
    t_k_int_set,
    t_k_spectral,
    verify_witness,
)
from .reduction import (
    BalanceReport,
    DirichletRescaling,
    LineSearchResult,
    RescaleResult,
    SeparatingMap,
    SeparationBound,
    find_balanced_hyperplane,
    find_balanced_line,
    find_dirichlet_q,
    find_separating_map,
    pushforward,
    rescale_to_short_interval,
    restrict_to_line,
    separated_projection_bound,
)
from .verify import (
    CHECKS,
    MONITORS,
    MonitorRecord,
    ScanRow,
    VerificationReport,
    ap_scan,
    check,
    monitor,
    random_instance,
    random_set_scan,
    run_suite,
)

__version__ = "0.1.0"
