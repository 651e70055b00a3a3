"""Stable elementary building blocks: spherical Bessel functions j_m,
half-integer-order J, log-gamma (mpmath's, within 1 ulp on (0, 170]),
and a Maclaurin power-series evaluator for J_nu (the reference of the
uniform-convergence proxy; verify and the CLI use mpmath.besselj).

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
    w = -z * z / 2.0
    for i in range(12):
        acc += t
        t = t * w / ((i + 1) * (2 * m + 2 * i + 3))
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


_MACLAURIN_Z = 0.5  # j_m by Maclaurin below it, else upward or Miller
_MILLER_SEED, _MILLER_HUGE = 1e-30, 1e250  # Miller's start and rescale level


def _miller_start(m):
    # m + 16 + ceil(sqrt(40 m)), see _jn_miller
    return m + 16 + math.isqrt(40 * m) + 1


def _lowest_rescaling_order():
    """Lowest m at which Miller can pass _MILLER_HUGE: |g_(l-1)| <= ((2l+1)/z + 1)
    max(|g_l|, |g_(l+1)|), so for z >= _MACLAURIN_Z every g stays below
    _MILLER_SEED * prod_(l <= start) ((2l+1)/_MACLAURIN_Z + 1), rising in m."""
    m = 0
    while _MILLER_SEED * math.prod((2 * l + 1) / _MACLAURIN_Z + 1
                                   for l in range(1, _miller_start(m) + 1)) <= _MILLER_HUGE:
        m += 1
    return m


_MILLER_RESCALE_M = _lowest_rescaling_order()


# Largest Miller subset run element by element on Python floats; above it
# the numpy loop wins.  Per call, floats against arrays, for m = 1, 4, 9, 30
# (2-vCPU Xeon, Python 3.11.7, numpy 2.4.6, best of 5 x 200 calls):
# 7-18 us against 78-304 us for 1 element, 93-251 against 105-276 for 16,
# 161-385 against 96-274 for 32.
_MILLER_FLOAT_MAX = 16


def _miller_g(m, z):
    """(g_m, g_1, g_0) of the downward recurrence g_(l-1) = (2l+1)/z g_l - g_(l+1),
    started at _miller_start(m) from (0, _MILLER_SEED).  z is a Python float
    or a numpy array: IEEE +, -, *, / round alike on both, so they agree bit
    for bit.  The overflow scan runs on arrays only, and only for m >=
    _MILLER_RESCALE_M; below it no g can fire it."""
    scan = m >= _MILLER_RESCALE_M
    gp, g, gm = 0.0, _MILLER_SEED, None
    for l in range(_miller_start(m), 0, -1):
        gp, g = g, (2 * l + 1) / z * g - gp
        if l - 1 == m:
            gm = g
        if scan and (big := np.abs(g) > _MILLER_HUGE).any():
            # homogeneous recurrence: rescaling leaves ratios intact
            gp, g = np.where(big, gp * 1e-250, gp), np.where(big, g * 1e-250, g)
            if gm is not None:
                gm = np.where(big, gm * 1e-250, gm)
    return gm, gp, g


def _jn_miller(m, z, sz, cz):
    """Downward (Miller) recurrence normalized against j_0 = sin z / z, or
    against j_1 where |j_1| > |j_0| (near and at the zeros of j_0).

    Start order m + 16 + ceil(sqrt(40 m)) keeps the relative seed error
    below 1e-16 after normalization for z in [0.5, m + 1).  Up to
    _MILLER_FLOAT_MAX arguments below the rescaling order run the
    recurrence one Python float at a time, with the same bits.
    """
    j0 = sz / z
    j1 = (j0 - cz) / z
    if len(z) <= _MILLER_FLOAT_MAX and m < _MILLER_RESCALE_M:
        out = []
        for zi, a0, a1 in zip(z.tolist(), j0.tolist(), j1.tolist()):
            gm, g1, g0 = _miller_g(m, zi)
            out.append(gm * a1 / g1 if abs(a1) > abs(a0) else gm * a0 / g0)
        return np.array(out)
    gm, g1, g0 = _miller_g(m, z)
    use1 = np.abs(j1) > np.abs(j0)
    return gm * np.where(use1, j1, j0) / np.where(use1, g1, g0)


def _spherical_jn_vec(m, z, sin_z=None, cos_z=None):
    """Vectorized j_m over an array of nonnegative arguments.

    Callers that know sin(z) and cos(z) exactly (for instance because
    z = k*pi + delta with tiny delta) may pass them in; otherwise they
    are computed directly.
    """
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    small = z < _MACLAURIN_Z
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

def log_gamma(a: float) -> float:
    """ln Gamma(a) for a > 0, from mpmath at a fixed 80-bit working
    precision that the caller's global mpmath setting does not change.
    Within 1 ulp of the exact value on (0, 170], and exactly 0.0 at
    a = 1 and a = 2."""
    a = as_real(a, "log_gamma requires a > 0", gt=0.0)
    with mp.workprec(80):
        return float(mp.loggamma(a))


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
        term = half**nu / math.gamma(nu + 1.0)
    total = term.copy()
    h2 = half * half
    for j in range(max_terms):
        term = -term * h2 / ((j + 1) * (nu + j + 1))
        total += term
        if not np.any(np.abs(term) >= tol):
            return total
    raise NoConvergenceError("vectorized power series did not converge")
