"""Stable elementary building blocks: spherical Bessel functions j_m,
half-integer-order J, log-gamma, and a Maclaurin power-series evaluator
for J_nu used as the independent reference throughout the package.

All functions are pure and deterministic; identical inputs give
bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .errors import DomainError, NoConvergenceError, as_int, as_real

__all__ = [
    "HalfOrderIndex",
    "OracleConfig",
    "spherical_jn",
    "bessel_j_half",
    "log_gamma",
    "bessel_j_power_series",
    "POWER_SERIES_X_MAX",
]

# The alternating Maclaurin series for J_nu loses roughly 0.4*x decimal
# digits to cancellation; the evaluator compensates with extra working
# precision but the contract is only stated up to this argument.
POWER_SERIES_X_MAX = 50.0


@dataclass(frozen=True)
class HalfOrderIndex:
    """Index m for the half-integer order m + 1/2."""

    m: int

    def __post_init__(self):
        object.__setattr__(self, "m",
                           as_int(self.m, 0, "half-order index must be a nonnegative integer"))

    @property
    def order(self) -> float:
        return self.m + 0.5


@dataclass(frozen=True)
class OracleConfig:
    """Truncation policy for the power-series evaluator."""

    tol: float = 1e-15
    max_terms: int = 500

    def __post_init__(self):
        object.__setattr__(self, "tol", as_real(self.tol, "tol must be positive and finite", gt=0.0))
        object.__setattr__(self, "max_terms",
                           as_int(self.max_terms, 1, "max_terms must be a positive integer"))


# ---------------------------------------------------------------------------
# spherical Bessel j_m
# ---------------------------------------------------------------------------

def _jn_maclaurin(m, z):
    """Series j_m(z) = z^m/(2m+1)!! * sum_i (-z^2/2)^i / (i! prod(2m+2r+1)).

    Used for z < 0.5 where closed forms like (sin z - z cos z)/z^3 cancel
    catastrophically.  Twelve terms leave a relative remainder below 1e-16
    on that range.
    """
    acc = np.zeros_like(z)
    t = np.ones_like(z)
    for i in range(12):
        acc += t
        t = t * (-z * z / 2.0) / ((i + 1) * (2 * m + 2 * i + 3))
    dfact = 1.0
    for odd in range(3, 2 * m + 2, 2):
        dfact *= odd
    return z**m / dfact * acc


def _jn_upward(m, z, sz, cz):
    # stable only for z >= m + 1
    jprev = sz / z
    if m == 0:
        return jprev
    j = (jprev - cz) / z
    for l in range(1, m):
        jprev, j = j, (2 * l + 1) / z * j - jprev
    return j


def _jn_miller(m, z, sz, cz):
    """Downward (Miller) recurrence normalized against j_0 = sin z / z, or
    against j_1 where |j_1| > |j_0| (near and at the zeros of j_0).

    Start order m + 16 + ceil(sqrt(40 m)) keeps the relative seed error
    below 1e-16 after normalization for z in [0.5, m + 1).
    """
    start = m + 16 + math.isqrt(40 * m) + 1
    gp = np.zeros_like(z)
    g = np.full_like(z, 1e-30)
    gm = None
    for l in range(start, 0, -1):
        gp, g = g, (2 * l + 1) / z * g - gp
        if l - 1 == m:
            gm = g.copy()
        big = np.abs(g) > 1e250
        if big.any():
            # homogeneous recurrence: rescaling leaves ratios intact
            gp[big] *= 1e-250
            g[big] *= 1e-250
            if gm is not None:
                gm[big] *= 1e-250
    j0 = sz / z
    j1 = (j0 - cz) / z
    use1 = np.abs(j1) > np.abs(j0)
    return gm * np.where(use1, j1, j0) / np.where(use1, gp, g)


def _spherical_jn_vec(m, z, sin_z=None, cos_z=None):
    """Vectorized j_m over an array of nonnegative arguments.

    Callers that know sin(z) and cos(z) exactly (for instance because
    z = k*pi + delta with tiny delta) may pass them in; otherwise they
    are computed directly.
    """
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    small = z < 0.5
    if small.any():
        out[small] = _jn_maclaurin(m, z[small])
    big = ~small
    if big.any():
        zb = z[big]
        sb = np.sin(zb) if sin_z is None else np.asarray(sin_z, dtype=np.float64)[big]
        cb = np.cos(zb) if cos_z is None else np.asarray(cos_z, dtype=np.float64)[big]
        if m == 0:
            out[big] = sb / zb
        else:
            res = np.empty_like(zb)
            up = zb >= m + 1.0
            if up.any():
                res[up] = _jn_upward(m, zb[up], sb[up], cb[up])
            down = ~up
            if down.any():
                res[down] = _jn_miller(m, zb[down], sb[down], cb[down])
            out[big] = res
    return out


def spherical_jn(m: int, z: float) -> float:
    """Spherical Bessel function j_m(z) for m >= 0, z >= 0.

    j_0(z) = sin z / z with j_0(0) = 1; j_m(0) = 0 for m >= 1.
    Relative accuracy is within 1e-13 for z <= 1e6 and m <= 64 away from
    the zeros of j_m.
    """
    m = as_int(m, 0, "order m must be a nonnegative integer")
    z = as_real(z, "argument must be finite and nonnegative", ge=0.0)
    return float(_spherical_jn_vec(m, np.array([z]))[0])


def bessel_j_half(m, z: float) -> float:
    """J_{m+1/2}(z) = sqrt(2 z / pi) * j_m(z); exactly 0 at z = 0."""
    if isinstance(m, HalfOrderIndex):
        m = m.m
    m = as_int(m, 0, "order m must be a nonnegative integer")
    z = as_real(z, "argument must be finite and nonnegative", ge=0.0)
    if z == 0.0:
        return 0.0
    return math.sqrt(2.0 * z / math.pi) * spherical_jn(m, z)


# ---------------------------------------------------------------------------
# log-gamma
# ---------------------------------------------------------------------------

# Lanczos coefficients, g = 7, 9 terms.
_LANCZOS_G = 7.0
_LANCZOS_P = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

# Stirling-de Moivre correction coefficients B_{2j} / (2j (2j-1)).
_STIRLING_C = tuple(
    np.longdouble(s)
    for s in (
        "0.0833333333333333333333333333333333333",
        "-0.00277777777777777777777777777777777778",
        "0.000793650793650793650793650793650793651",
        "-0.000595238095238095238095238095238095238",
        "0.000841750841750841750841750841750841751",
        "-0.00191752691752691752691752691752691753",
    )
)

_LOG_SQRT_2PI = np.longdouble("0.918938533204672741780329736405617639861")
_PI_L = np.longdouble("3.14159265358979323846264338327950288420")

# Switch point between the Lanczos core and the Stirling tail.  The nine
# double-precision Lanczos coefficients alone cannot hold 1e-13 absolute
# error once ln Gamma grows past ~300; Stirling with six correction terms
# is exact to ~1e-16 for a >= 13.
_STIRLING_SWITCH = 13.0


def _log_gamma_long(a):
    # extended-precision core; a > 0
    if a < 0.5:
        s = np.sin(_PI_L * np.longdouble(a))
        return np.log(_PI_L / s) - _log_gamma_long(1.0 - a)
    if a >= _STIRLING_SWITCH:
        aa = np.longdouble(a)
        r = (aa - 0.5) * np.log(aa) - aa + _LOG_SQRT_2PI
        inv = 1.0 / aa
        inv2 = inv * inv
        p = inv
        for c in _STIRLING_C:
            r = r + c * p
            p = p * inv2
        return r
    aa = np.longdouble(a) - 1.0
    s = np.longdouble(_LANCZOS_P[0])
    for i, p in enumerate(_LANCZOS_P[1:], start=1):
        s = s + np.longdouble(p) / (aa + i)
    t = aa + np.longdouble(_LANCZOS_G + 0.5)
    return _LOG_SQRT_2PI + (aa + 0.5) * np.log(t) - t + np.log(s)


def log_gamma(a: float) -> float:
    """ln Gamma(a) for a > 0, absolute error within 1e-13 on (0, 170]."""
    return float(_log_gamma_long(as_real(a, "log_gamma requires a > 0", gt=0.0)))


# ---------------------------------------------------------------------------
# Maclaurin power series for J_nu
# ---------------------------------------------------------------------------

def bessel_j_power_series(nu: float, x: float, cfg: OracleConfig | None = None) -> float:
    """J_nu(x) = sum_j (-1)^j (x/2)^(nu+2j) / (j! Gamma(nu+j+1)).

    Summed in extended precision (working digits grow with x to absorb
    the alternating cancellation), truncated once the next term magnitude
    drops below cfg.tol.  Absolute error is within 2*cfg.tol for
    0 <= x <= POWER_SERIES_X_MAX.

    Raises NoConvergenceError if cfg.max_terms is exhausted first.
    """
    if cfg is None:
        cfg = OracleConfig()
    nu = as_real(nu, "order must satisfy nu > -1", gt=-1.0)
    x = as_real(x, f"argument must lie in [0, {POWER_SERIES_X_MAX}]", ge=0.0,
                le=POWER_SERIES_X_MAX)
    if x == 0.0:
        return 1.0 if nu == 0 else 0.0
    digits = 25 + int(0.45 * x)
    with mp.workdps(digits):
        half = mp.mpf(x) / 2
        h2 = half * half
        term = mp.power(half, nu) / mp.gamma(mp.mpf(nu) + 1)
        total = term
        for j in range(cfg.max_terms):
            term = -term * h2 / ((j + 1) * (nu + j + 1))
            if abs(term) < cfg.tol:
                return float(total)
            total += term
        raise NoConvergenceError(
            f"power series for J_{nu}({x}) needs more than {cfg.max_terms} terms "
            f"to reach tol={cfg.tol}")


def _bessel_j_series_vec(nu, x, tol=1e-17, max_terms=120):
    """Double-precision vectorized Maclaurin J_nu over small arguments.

    Intended for quadrature integrands where x <= 8; there the leading
    term dominates and no working-precision boost is needed.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size and float(np.max(x)) > 8.0:
        raise DomainError("vectorized power series is restricted to x <= 8")
    half = x / 2.0
    with np.errstate(divide="ignore"):
        # 0^0 = 1 handles nu == 0 at x = 0
        term = half**nu / math.exp(log_gamma(nu + 1.0))
    total = term.copy()
    h2 = half * half
    for j in range(max_terms):
        term = -term * h2 / ((j + 1) * (nu + j + 1))
        total += term
        if not np.any(np.abs(term) >= tol):
            return total
    raise NoConvergenceError("vectorized power series did not converge")
