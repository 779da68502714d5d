"""Numerical toolkit relating Euler-like vector fields, tubular
neighborhood embeddings, and normal exponential maps of constructed
Riemannian metrics."""

from .embeddings import TubularEmbedding, reference_embedding, validate_embedding
from .errors import (
    ConfigError,
    DecompositionFailure,
    DomainError,
    DomainMargin,
    EulertubeError,
    FlowExit,
    HypothesisFailure,
    IoError,
    NoConvergence,
    NotInDomain,
    NotVanishing,
    NoValidRadius,
    RankDeficient,
    SingularJacobian,
    SingularMetric,
    StepUnderflow,
)
from .eulerlike import (
    VectorFieldOracle,
    euler_field,
    is_euler_like,
    linear_approximation,
    pushforward_euler,
    pushforward_field,
    reconstruct_embedding,
    vanishes_on_N,
)
from .extension import (
    BundleRegion,
    bundle_diffeo,
    bundle_diffeo_inverse,
    eta,
    extend_map,
    phi_stereo,
    rho,
    sigma,
    sigma_inverse,
    tau,
)
from .metrics import (
    MetricField,
    christoffel,
    euclidean_metric,
    exp_differential_at_zero,
    exp_map,
    geodesic,
    polar_metric,
    sphere_chart_metric,
    validate_metric,
    velocity_in_domain,
)
from .numerics import DifferentiableMap, Trajectory, jacobian, ode_integrate, solve_inverse
from .realization import (
    ComparisonMap,
    build_chi,
    correction_eta,
    curve_length,
    isometry_geodesic_check,
    point_case_metric,
    pullback_metric,
    verify_main_diagram,
)
from .reports import ResidualReport, emit, parse
from .scenarios import BUILTIN_SCENARIOS, Scenario, run_scenario, scenario_from_config
from .submanifolds import (
    NormalFrame,
    NormalVector,
    ParametrizedSubmanifold,
    RadiusFunction,
    normal_basis_matrix,
    normal_exponential,
    normal_representative,
    normal_space_basis,
    tubular_radius_estimate,
)

__version__ = "0.1.0"
