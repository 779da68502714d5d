"""Numerical toolkit relating Euler-like vector fields, tubular
neighborhood embeddings, and normal exponential maps of constructed
Riemannian metrics.

The modules are the API (``eulertube.scenarios``, ``eulertube.metrics``,
...); the package itself exports only what the command line needs.
"""

from .errors import ConfigError
from .reports import emit
from .scenarios import BUILTIN_SCENARIOS, run_scenario, scenario_from_config

__version__ = "0.1.0"
