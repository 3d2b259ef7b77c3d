"""Geometry and optimization of linear convolutional networks."""

from .poly_core import (
    Architecture,
    as_filter,
    compose_filters,
    end_to_end,
    pi,
    pi_s,
    toeplitz_matrix,
    circulant_matrix,
    network_matrices,
    compose_tensor_filters,
    materialize_conv_tensor,
    apply_conv_tensor,
)
from .rootlab import (
    INFINITY,
    ProjRoot,
    Rrmp,
    find_roots,
    cluster_roots,
    classify_roots,
    classify_rrmp,
    classify_rrmp_pooled,
    rrmp_classify_by_signs,
    discriminant,
    is_compatible,
    compatible_rrmps,
    all_rrmps,
    real_type_splits,
)
from .funcspace import (
    SpaceRegion,
    reduce_architecture,
    membership,
    region,
    region_of_rrmp,
    is_filling,
    factor_into,
    stride2_membership,
    stride2_factor,
)
from .optim import (
    QuadraticObjective,
    TrainConfig,
    TrainRun,
    gd_train,
    loss_and_gradient,
    gradient_via_matrices,
    tau,
    bombieri_weights,
    bombieri_matrix,
    run_pattern_experiment,
    run_distinct_experiment,
    count_distinct_filters,
)
from .dynamics import (
    squared_norm_gaps,
    balancedness_matrix,
    jacobian_mu,
    mu_rank,
    FiberScales,
    recover_scales,
    scale_sign_patterns,
    integrate_flow,
)
from .critlab import (
    CritPoint,
    StratumReport,
    SpuriousMinimum,
    crit_on_stratum,
    critical_points_for_target,
    match_critical_point,
    cone_lambda_polynomial,
    cone_critical_points,
    cone_region_counts,
    caustic_value,
    ed_degree,
    ed_bound,
    find_spurious_minimum,
)

__version__ = "0.1.0"
