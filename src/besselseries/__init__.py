"""Elementary (non-power) series representations for Bessel functions of
the first kind of integer order, with an independent verification stack.

Three series families (A, B, C) express b^n J_n(bx), J_n(bx)/b and
related quantities as sums over k of sin/cos combinations of
phi_k = sqrt(x^2 + (k pi)^2), modulated by a scale parameter b in [0, 1].
The package provides the evaluation engine, the derived sine/cosine
series, quadrature verification of the source integral identities, and a
command-line interface.
"""

from .engine import (SERIES_X_MAX, EvalOptions, EvalResult, SeriesFamily, SeriesSpec,
                     asymptotic_term, bessel_j, eps, eval_at_b1,
                     eval_j0_variant, eval_series, g_a, g_bc, phi,
                     tail_bound, term_a, term_b, term_c)
from .errors import (BoundNotApplicableError, DomainError, NoConvergenceError,
                     QuadratureError)
from .special import OracleConfig, POWER_SERIES_X_MAX, bessel_j_power_series, spherical_jn
from .trig import cos_series, sin_series_1, sin_series_2
from .verify import (ConvergenceRecord, IdentityResidual, check_fourier_coefficient,
                     check_integral_identity, decay_ratio_study, sweep,
                     terms_to_tolerance, uniform_convergence_proxy)

__version__ = "0.1.0"

__all__ = [
    "SERIES_X_MAX", "SeriesFamily", "SeriesSpec", "EvalOptions", "EvalResult",
    "phi", "eps", "g_a", "g_bc", "term_a", "term_b", "term_c",
    "eval_series", "eval_at_b1", "eval_j0_variant", "bessel_j",
    "asymptotic_term", "tail_bound",
    "OracleConfig", "POWER_SERIES_X_MAX", "spherical_jn", "bessel_j_power_series",
    "cos_series", "sin_series_1", "sin_series_2",
    "IdentityResidual", "ConvergenceRecord",
    "check_integral_identity", "check_fourier_coefficient",
    "decay_ratio_study", "terms_to_tolerance", "sweep",
    "uniform_convergence_proxy",
    "DomainError", "NoConvergenceError", "BoundNotApplicableError",
    "QuadratureError",
]
