"""Desk-scale numerics for oscillatory-kernel operators on periodic grids.

Spectral quantization and adjoints, dyadic kernel probes, growth-allowed
weight and oscillation calculus, critical-cover maximal operators, and the
corpus-ratio experiments tying them together.
"""

from .config import ExperimentConfig, HypothesisViolation, load_config
from .corpus import (
    band_noise,
    gaussian_corpus,
    gaussian_packet,
    mixed_corpus,
)
from .function_classes import (
    ap_theta_characteristic,
    bmo_theta_norm,
    check_john_nirenberg_variant,
    check_monotonicity,
    check_openness,
    preset_bmo,
    preset_weight,
    stabilized_characteristic,
)
from .grid import (
    Ball,
    BallFamily,
    PeriodicGrid,
    SampledFunction,
    ball_indices,
    ball_mask,
    dft,
    idft,
    inner,
    lp_norm,
    make_grid,
    sample,
    sweep_family,
)
from .kernels import (
    adjoint_kernel_bounds,
    band_limited_twin,
    fit_decay_in_k,
    fit_difference_estimate,
    materialize_dyadic_kernel,
)
from .littlewood_paley import (
    evaluate_partition_residual,
    make_lp_family,
)
from .maximal import (
    build_critical_cover,
    check_fs_inequality,
    check_weighted_bounds_maximal,
    g_kappa_p,
    m_loc,
    m_sharp_loc,
    m_tilde_s,
)
from .operators import (
    adjoint_kernel_row,
    apply,
    apply_adjoint,
    commutator,
    kernel_column,
    kernel_row,
    make_operator,
)
from .experiments import (
    VERIFY_TARGETS,
    run_all,
    run_bmo,
    run_boundedness_experiment,
    run_commutator_experiment,
    run_fs,
    run_kernel_decay,
    run_local_average_check,
    run_maximal,
    run_oscillation_check,
    run_weight_calculus,
)
from .symbols import (
    SymbolSpec,
    estimate_class_membership,
    preset_symbol,
)

__version__ = "0.1.0"
