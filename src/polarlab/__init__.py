"""polarlab: polar duality transforms of 1/s-concave and log-concave
functions, integrals of polars, Santalo points and regions, and numerical
verification suites for the associated convexity and duality inequalities.
"""

from .errors import (
    DomainError,
    InputError,
    NumericError,
    PolarLabError,
    SuiteFailure,
)
from .funcmodel import (
    BallIndicator,
    ExpNegNorm,
    FunctionSpec,
    Gaussian,
    GridProfile,
    HhatPower,
    LogConcave,
    PolytopeIndicator,
    SConcave,
    Shifted,
    evaluate,
    evaluate_batch,
    spec_from_json,
    spec_to_json,
    validate_concavity,
)
from .integration import IntegrationConfig, MonteCarloConfig
from .lifting import (
    LiftedBody,
    chords_of_ball,
    chords_of_box,
    chords_of_lifting,
    integer_lift_volume,
    lifted_support,
    mahler_lift_check,
    polar_lifting_check,
    s_volume,
)
from .polar_integrals import (
    default_quadrature,
    integrate_grid,
    kappa,
    phi,
    phi_log,
    phi_oracle,
    phi_sphere,
)
from .regions import (
    RegionBoundary,
    RegionQuery,
    hausdorff_distance,
    make_query,
    region_boundary,
    region_convergence,
    region_membership,
    region_properties,
    sp_region_membership,
    sp_region_value,
)
from .santalo import (
    Hyperplane,
    SantaloResult,
    hyperplane_point,
    level_transform_integral,
    onedim_duality_check,
    s_level_transform,
    santalo_point,
    verify_santalo,
)
from .suites import SUITE_NAMES, run_suite
from .transforms import (
    convergence_study,
    legendre,
    legendre_evaluator,
    log_polar,
    log_polar_batch,
    s_approx,
    s_polar,
    s_polar_batch,
)

__version__ = "0.1.0"
