"""Stable elementary building blocks: spherical Bessel functions j_m and
a Maclaurin power-series evaluator for J_nu (the reference of the
uniform-convergence proxy; verify and the CLI use mpmath.besselj).

All functions are pure and deterministic; identical inputs give
bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, NoConvergenceError, as_int, as_real

__all__ = [
    "OracleConfig",
    "spherical_jn",
    "bessel_j_power_series",
    "POWER_SERIES_X_MAX",
]

# The alternating Maclaurin series for J_nu loses roughly 0.4*x decimal
# digits to cancellation; the evaluator compensates with extra working
# precision but the contract is only stated up to this argument.
POWER_SERIES_X_MAX = 50.0


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

@lru_cache(maxsize=64)
def _maclaurin_consts(m):
    # (2m+1)!! as the float product 1.0 * 3 * 5 * ..., and the divisors (i+1)(2m+2i+3)
    return (math.prod(range(3, 2 * m + 2, 2), start=1.0),
            tuple(float((i + 1) * (2 * m + 2 * i + 3)) for i in range(12)))


def _jn_maclaurin(m, z, *_):
    """Series j_m(z) = z^m/(2m+1)!! * sum_i (-z^2/2)^i / (i! prod(2m+2r+1)).

    Used for z < 0.5 where closed forms like (sin z - z cos z)/z^3 cancel
    catastrophically.  Twelve terms leave a relative remainder below 1e-16
    on that range.  The sum stops early once the next term at the largest
    z, which bounds every later term, is below 2^-55: the sum stays above
    0.95, so those terms would round away and the bits are the twelve-term
    ones.  z is a Python float or a numpy array (sin z and cos z, if
    passed, are not needed); np.power rounds a float as it rounds an array
    element, where z**m on a float does not.
    """
    dfact, divs = _maclaurin_consts(m)
    top = z if type(z) is float else float(z.max())
    acc, t, w, bound, wtop = 0.0, 1.0, -z * z / 2.0, 1.0, top * top / 2.0
    for d in divs:
        acc += t
        bound = bound * wtop / d
        if bound < 2.0**-55:
            break
        t = t * w / d
    return np.power(z, m) / dfact * acc


def _jn_upward(m, z, sz, cz):
    # stable only for z >= m + 1; j_0 = sin z / z at any z
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


# Largest array run element by element on Python floats (below the
# rescaling order, where the floats skip the overflow scan); above it the
# numpy loops win.  Miller per call, floats against arrays, for m = 1, 4, 9,
# 30 (2-vCPU Xeon, Python 3.11.7, numpy 2.4.6, best of 5 x 200 calls):
# 7-18 us against 78-304 us for 1 element, 93-251 against 105-276 for 16,
# 161-385 against 96-274 for 32.
_MILLER_FLOAT_MAX = 16


@lru_cache(maxsize=64)
def _miller_steps(m):
    # the factors 2l + 1 as floats, for l = _miller_start(m)..m+1 and l = m..1
    steps = tuple(float(2 * l + 1) for l in range(_miller_start(m), 0, -1))
    return steps[:len(steps) - m], steps[len(steps) - m:]


def _miller_g(m, z):
    """(g_m, g_1, g_0) of the downward recurrence g_(l-1) = (2l+1)/z g_l - g_(l+1),
    started at _miller_start(m) from (0, _MILLER_SEED).  z is a Python float
    or a numpy array: IEEE +, -, *, / round alike on both, so they agree bit
    for bit.  The overflow scan runs on arrays only, and only for m >=
    _MILLER_RESCALE_M; below it no g can fire it."""
    scan = m >= _MILLER_RESCALE_M
    gp, g, gm = 0.0, _MILLER_SEED, None
    for i, factors in enumerate(_miller_steps(m)):
        if i:
            gm = g
        for f in factors:
            gp, g = g, f / z * g - gp
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
    below 1e-16 after normalization for z in [0.5, m + 1).  z is a Python
    float or a numpy array; up to _MILLER_FLOAT_MAX array arguments below
    the rescaling order run through _jn_floats, with the same bits.
    """
    if type(z) is not float and _on_floats(m, z):
        return _jn_floats(m, z, sz, cz)
    j0 = sz / z
    j1 = (j0 - cz) / z
    gm, g1, g0 = _miller_g(m, z)
    if type(z) is float:
        return gm * j1 / g1 if abs(j1) > abs(j0) else gm * j0 / g0
    use1 = np.abs(j1) > np.abs(j0)
    return gm * np.where(use1, j1, j0) / np.where(use1, g1, g0)


def _on_floats(m, z):
    return len(z) <= _MILLER_FLOAT_MAX and m < _MILLER_RESCALE_M


def _jn_floats(m, z, sz, cz):
    """j_m over a short array, one Python float at a time through the same
    branch bodies as the array path of _spherical_jn_vec."""
    return np.array([_jn_maclaurin(m, zi) if zi < _MACLAURIN_Z
                     else _jn_upward(m, zi, si, ci) if m == 0 or zi >= m + 1.0
                     else _jn_miller(m, zi, si, ci)
                     for zi, si, ci in zip(z.tolist(), sz.tolist(), cz.tolist())])


def _spherical_jn_vec(m, z, sin_z=None, cos_z=None):
    """Vectorized j_m over an array of nonnegative arguments.

    Callers that know sin(z) and cos(z) exactly (for instance because
    z = k*pi + delta with tiny delta) may pass them in; otherwise they
    are computed directly.  An array splits once into its upward,
    Maclaurin and Miller parts; a part of up to _MILLER_FLOAT_MAX arguments
    below the rescaling order runs on Python floats (_jn_floats), and so
    does such an array as a whole.
    """
    z = np.asarray(z, dtype=np.float64)
    s = np.sin(z) if sin_z is None else np.asarray(sin_z, dtype=np.float64)
    c = np.cos(z) if cos_z is None else np.asarray(cos_z, dtype=np.float64)
    if _on_floats(m, z):
        return _jn_floats(m, z, s, c)
    up = z >= (m + 1.0 if m else _MACLAURIN_Z)
    if up.all():
        return _jn_upward(m, z, s, c)
    small = z < _MACLAURIN_Z
    out = np.empty_like(z)
    for part, branch in ((up, _jn_upward), (small, _jn_maclaurin), (~(up | small), _jn_miller)):
        if part.any():
            zp, sp, cp = z[part], s[part], c[part]
            out[part] = (_jn_floats if _on_floats(m, zp) else branch)(m, zp, sp, cp)
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
    import mpmath as mp  # on first use: importing the package does not load it
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


_SERIES_VEC_TOL = 1e-17
_SERIES_VEC_MAX_TERMS = 120


def _bessel_j_series_vec(nu, x):
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
    for j in range(_SERIES_VEC_MAX_TERMS):
        term = -term * h2 / ((j + 1) * (nu + j + 1))
        total += term
        if not np.abs(term).max() >= _SERIES_VEC_TOL:
            return total
    raise NoConvergenceError("vectorized power series did not converge")
