"""Exception hierarchy shared by all eulertube modules."""


class EulertubeError(Exception):
    """Base class for all errors raised by this package."""


class DomainMargin(EulertubeError):
    """A finite-difference stencil would leave the declared domain."""


class StepUnderflow(EulertubeError):
    """Adaptive step size collapsed below the resolvable scale."""


class NoConvergence(EulertubeError):
    """An iterative solver failed to meet its tolerance."""


class SingularJacobian(EulertubeError):
    """Jacobian condition estimate exceeded the trust limit."""


class SingularMetric(EulertubeError):
    """Metric matrix could not be inverted at the query point."""


class NotInDomain(EulertubeError):
    """A geodesic or sample left the declared domain."""


class RankDeficient(EulertubeError):
    """Submanifold parametrization is numerically rank-deficient."""


class NotEulerLike(EulertubeError):
    """Vector field fails the Euler-like test: it does not vanish on the
    submanifold, or its linearization is not the identity on normal classes."""


class FlowExit(EulertubeError):
    """A flow trajectory left the domain before the requested time."""


class NoValidRadius(EulertubeError):
    """Radius search exhausted all halvings without certification."""


class DegenerateSample(EulertubeError):
    """A sample is too small to resolve in double precision."""


class DecompositionFailure(EulertubeError):
    """A tangent/normal decomposition left a residual above tolerance."""


class HypothesisFailure(EulertubeError):
    """A construction's hypothesis check failed (e.g. non-identity differential)."""


class DomainError(EulertubeError):
    """Scalar-profile argument outside the open interval of definition."""


class ConfigError(EulertubeError):
    """Scenario configuration is invalid; message names the offending field."""


class IoError(EulertubeError):
    """Report file could not be written or read."""
