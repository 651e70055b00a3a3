"""Independent numerical verification: quadrature checks of the source
integral identities, Fourier-coefficient checks, term-decay studies, and
benchmark sweeps, all against one reference outside the package,
mpmath.besselj (_reference_j).

The three identities being checked, for b > 0, real y, nu > -1, with
B = sqrt(b^2 + y^2):

  (A) int_0^1 x^(nu+1) J_nu(bx) sin(y sqrt(1-x^2)) dx
        = sqrt(pi/2) y b^nu B^(-nu-3/2) J_{nu+3/2}(B)
  (B) int_0^1 J_nu(bx) / sqrt(1-x^2) cos(y sqrt(1-x^2)) dx
        = (pi/2) J_{nu/2}((B-y)/2) J_{nu/2}((B+y)/2)
  (C) int_0^1 x^(nu+1) J_nu(bx) / sqrt(1-x^2) cos(y sqrt(1-x^2)) dx
        = sqrt(pi/2) b^nu B^(-nu-1/2) J_{nu+1/2}(B)

With t = sqrt(1-x^2) and s = sqrt(1-t^2), each left side is the real
part of the half-range Fourier integral int_0^1 F_nu(b, t) e^(i y t) dt,
where F_nu(b, t) is -i t s^nu J_nu(bs) (A), J_nu(bs) / s (B) or
s^nu J_nu(bs) (C).  Over t in [-1, 1] the same integral is the Fourier
coefficient at y = k pi, twice the identity's right side.  One function
computes it on either range, so the identity, Fourier and parity checks
share a single integrand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp
import numpy as np

from .engine import (EvalOptions, SeriesFamily, SeriesSpec, _as_family, _family_row,
                     _series_value, asymptotic_term, eval_series, tail_bound, term_a, term_b,
                     term_c)
from .errors import (BoundNotApplicableError, DomainError, NoConvergenceError, QuadratureError,
                     as_int, as_real)
from .special import POWER_SERIES_X_MAX, OracleConfig, _bessel_j_series_vec, bessel_j_power_series

__all__ = [
    "IdentityResidual",
    "ConvergenceRecord",
    "check_integral_identity",
    "check_fourier_coefficient",
    "decay_ratio_study",
    "terms_to_tolerance",
    "sweep",
    "uniform_convergence_proxy",
]


# Gauss-Legendre order per panel, starting panel count, and the target and
# budget of the panel-doubling self-check
_QUAD_NODES = 32
_QUAD_PANELS = 2
_QUAD_TOL = 1e-11
_QUAD_MAX_REFINEMENTS = 12


@dataclass(frozen=True)
class IdentityResidual:
    """One identity or Fourier-coefficient check: |lhs - rhs|."""

    family: SeriesFamily
    nu: float
    b: float
    y: float
    lhs: float
    rhs: float
    residual: float


@dataclass
class ConvergenceRecord:
    """One row of a benchmark sweep."""

    family: SeriesFamily
    n: int
    b: float
    x: float
    K: int
    value: float | None = None
    bessel_value: float | None = None
    oracle: float | None = None
    abs_error: float | None = None
    tail_bound: float | None = None
    terms_used: int | None = None
    converged: bool | None = None
    error: str | None = None


# ---------------------------------------------------------------------------
# composite Gauss-Legendre quadrature
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _gl_nodes(order):
    xs, ws = np.polynomial.legendre.leggauss(order)
    return xs, ws


def _panel_quad(f, a, b, nodes, panels):
    xs, ws = _gl_nodes(nodes)
    edges = np.linspace(a, b, panels + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = (mids[:, None] + half[:, None] * xs[None, :]).ravel()
    vals = f(pts).reshape(panels, nodes)
    return np.sum(half * (vals * ws[None, :]).sum(axis=1)).item()


def _refine_quad(f, a, b, panel_scale: int):
    """Double the panel count until two successive estimates agree to
    _QUAD_TOL; returns the finer estimate."""
    panels = _QUAD_PANELS * panel_scale
    prev = _panel_quad(f, a, b, _QUAD_NODES, panels)
    for _ in range(_QUAD_MAX_REFINEMENTS):
        panels *= 2
        cur = _panel_quad(f, a, b, _QUAD_NODES, panels)
        if abs(cur - prev) < _QUAD_TOL:
            return cur
        prev = cur
    raise QuadratureError(
        f"panel refinement stalled at {panels} panels without reaching "
        f"{_QUAD_TOL}")


# ---------------------------------------------------------------------------
# closed right-hand sides
# ---------------------------------------------------------------------------

def _reference_j(nu, z):
    """J_nu(z) from mpmath.besselj at 80 bits, whatever the caller's global
    mpmath precision, and up to 100000 bits inside mpmath (J_10000(10000)
    takes about 0.4 s); signed z is fine for integer nu.  mpmath's failures
    surface as a one-line NoConvergenceError."""
    try:
        with mp.workprec(80):
            return float(mp.besselj(nu, z, maxprec=100000))
    except (ValueError, mp.libmp.NoConvergence) as exc:
        msg = " ".join(str(exc).split())
        raise NoConvergenceError(f"oracle J_{nu}({z}) failed in mpmath: {msg}") from exc


def _identity_rhs(family, nu, b, y):
    B = math.hypot(b, y)
    if family is SeriesFamily.A:
        return math.sqrt(math.pi / 2.0) * y * b**nu * B ** (-nu - 1.5) * _reference_j(nu + 1.5, B)
    if family is SeriesFamily.C:
        return math.sqrt(math.pi / 2.0) * b**nu * B ** (-nu - 0.5) * _reference_j(nu + 0.5, B)
    ya = abs(y)
    u_small = b * b / (2.0 * (B + ya))  # (B - |y|) / 2 without cancellation
    u_big = (B + ya) / 2.0
    return (math.pi / 2.0) * _reference_j(nu / 2.0, u_small) * _reference_j(nu / 2.0, u_big)


# ---------------------------------------------------------------------------
# identity and Fourier checks: one coefficient integral
# ---------------------------------------------------------------------------

def _coefficient_integral(family, nu, b, y, hi):
    """Complex integral of F_nu(b, t) e^(i y t) dt after t = cos(theta),
    theta in [0, hi]: hi = pi/2 gives the identity (t in [0, 1]; its left
    side is the real part), hi = pi the Fourier coefficient (t in [-1, 1]).

    With s = sin(theta), the integrand is s^(nu+1) J_nu(bs) e^(iyt) for
    family C and the same times -i t for family A; both are smooth, since
    s^(nu+1) J_nu(bs) = s^(2nu+1) * entire(s^2) and 2nu+1 is integral on
    the supported grid.  Family B's integrand J_nu(bs) e^(iyt) keeps a
    bare s^nu factor, so for fractional nu a second substitution
    theta = hi sin^2(u) clusters quadratically at both ends and restores
    spectral convergence.
    """
    scale = max(1, math.ceil(abs(y) / math.pi))

    def f(theta):
        s = np.sin(theta)
        t = np.cos(theta)
        v = _bessel_j_series_vec(nu, b * s) * np.exp(1j * y * t)
        if family is SeriesFamily.B:
            return v
        v = s ** (nu + 1.0) * v
        return -1j * t * v if family is SeriesFamily.A else v

    if family is SeriesFamily.B:
        return _refine_quad(lambda u: f(hi * np.sin(u) ** 2) * hi * np.sin(2.0 * u),
                            0.0, math.pi / 2.0, scale)
    return _refine_quad(f, 0.0, hi, scale)


def check_integral_identity(family, nu: float, b: float, y: float) -> IdentityResidual:
    """Residual |LHS - RHS| of the family's source integral identity, 0 < b <= 8."""
    fam = _as_family(family)
    nu = as_real(nu, "identity requires nu > -1", gt=-1.0)
    # the integrand's J_nu(b s), 0 <= s <= 1, comes from _bessel_j_series_vec
    b = as_real(b, "identity requires 0 < b <= 8 (J_nu(b s) by power series)", gt=0.0, le=8.0)
    y = as_real(y, "identity requires finite y")
    lhs = _coefficient_integral(fam, nu, b, y, math.pi / 2.0).real
    rhs = _identity_rhs(fam, nu, b, y)
    return IdentityResidual(fam, nu, b, y, lhs, rhs, abs(lhs - rhs))


def _fourier_args(family, nu, b, k):
    fam = _as_family(family)
    k = as_int(k, 0, "k must be a nonnegative integer")
    nu = as_real(nu, "Fourier check requires nu > -1", gt=-1.0)
    b = as_real(b, "Fourier check requires 0 < b <= 8 (J_nu(b s) by power series)",
                gt=0.0, le=8.0)
    return fam, nu, b, k * math.pi


def check_fourier_coefficient(family, nu: float, b: float, k: int) -> IdentityResidual:
    """Residual between int_{-1}^{1} F_nu(b,t) e^(i k pi t) dt and the
    closed coefficient f_nu(b, k pi) (twice the single-interval identity
    right side)."""
    fam, nu, b, y = _fourier_args(family, nu, b, k)
    full = _coefficient_integral(fam, nu, b, y, math.pi)
    rhs = 2.0 * _identity_rhs(fam, nu, b, y)
    return IdentityResidual(fam, nu, b, y, full.real, rhs, abs(full - rhs))


def fourier_parity_residual(family, nu: float, b: float, k: int) -> float:
    """|full-interval integral - 2 * half-interval integral| for the even
    part (families B, C) or the odd-coupled real part (family A); checks
    numerically that extending the integration interval doubles the
    coefficient."""
    fam, nu, b, y = _fourier_args(family, nu, b, k)
    full = _coefficient_integral(fam, nu, b, y, math.pi)
    half = _coefficient_integral(fam, nu, b, y, math.pi / 2.0)
    return abs(full.real - 2.0 * half.real)


# ---------------------------------------------------------------------------
# decay studies and benchmarks
# ---------------------------------------------------------------------------

_TERM_SCALAR = {SeriesFamily.A: term_a, SeriesFamily.B: term_b, SeriesFamily.C: term_c}


def decay_ratio_study(family, n: int, x: float, k_list) -> list[tuple[int, float]]:
    """(k, term(k) / asymptotic_term(k)) for each requested k."""
    fam = _as_family(family)
    out = []
    for k in k_list:
        t = _TERM_SCALAR[fam](n, x, k)
        a = asymptotic_term(fam, n, x, k)
        if a == 0.0:
            raise DomainError(f"the leading term of {fam.value}, n = {n} is 0 at x = {x!r}, "
                              f"k = {k}; the decay ratio is undefined")
        out.append((k, t / a))
    return out


def terms_to_tolerance(spec: SeriesSpec, tol: float, k_cap: int = 10**7) -> int:
    """Smallest last-included index K whose bound |t_{K+1}| is <= tol
    (the family-A partial sum then holds K terms, families B/C hold K+1).

    Scans K geometrically and bisects; K values whose 8-term lookahead is
    not in the alternating regime are treated as insufficient.  Raises
    NoConvergenceError past k_cap, and BoundNotApplicableError if even the
    largest probed K has no valid bound.
    """
    tol = as_real(tol, "tol must be positive and finite", gt=0.0)
    k_cap = as_int(k_cap, 0, "k_cap must be a nonnegative integer")

    def bound_ok(K):
        try:
            return tail_bound(spec, K) <= tol
        except BoundNotApplicableError:
            return None

    if bound_ok(0):
        return 0
    hi = 1
    while hi <= k_cap:
        if bound_ok(hi):
            break
        hi *= 2
    else:
        if bound_ok(k_cap) is None:
            raise BoundNotApplicableError(
                f"no alternating-regime K <= {k_cap} found for {spec}")
        raise NoConvergenceError(
            f"tail bound stays above {tol} for all probed K <= {k_cap}")
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bound_ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def sweep(grid, opts: EvalOptions | None = None) -> list[ConvergenceRecord]:
    """One ConvergenceRecord per spec, in input order.  Failures are
    captured in the record's error field instead of aborting the sweep.
    The oracle column is J_n(bx) from _reference_j."""
    if opts is None:
        opts = EvalOptions()
    records = []
    for spec in grid:
        rec = ConvergenceRecord(spec.family, spec.n, spec.b, spec.x, K=opts.k_max)
        try:
            res = eval_series(spec, opts)
            rec.value = res.value
            rec.bessel_value = res.bessel_value
            rec.tail_bound = res.tail_bound
            rec.terms_used = res.terms_used
            rec.converged = res.converged
            rec.oracle = _reference_j(spec.n, spec.b * spec.x)
            # family B at b = 0 recovers the b -> 0 limit, not J_n(0)
            if not (spec.family is SeriesFamily.B and spec.b == 0.0):
                rec.abs_error = abs(res.bessel_value - rec.oracle)
        except (DomainError, NoConvergenceError) as exc:
            rec.error = str(exc)
        records.append(rec)
    return records


def uniform_convergence_proxy(family, n: int, x: float, b_grid, k_list,
                              oracle_cfg: OracleConfig | None = None) -> list[float]:
    """sup over b of |partial sum after K terms - series limit| for each K.

    The limit is the series' own left-hand side built from the
    power-series reference, so the sequence is a direct numerical proxy
    for uniform-in-b convergence of the partial sums.  x must be >= 0,
    every b x must lie within the reference's range POWER_SERIES_X_MAX,
    and for family B, whose limit divides by b, every b must be > 0.
    """
    fam = _as_family(family)
    if oracle_cfg is None:
        oracle_cfg = OracleConfig(tol=1e-14)
    x = as_real(x, "uniform_convergence_proxy requires x >= 0", ge=0.0)
    if fam is SeriesFamily.B:
        b_grid = [as_real(b, "uniform_convergence_proxy for family B requires every b in "
                          "b_grid > 0", gt=0.0) for b in b_grid]
    specs = [SeriesSpec(fam, n, b, x) for b in b_grid]
    b_top = max((spec.b for spec in specs), default=0.0)
    if b_top * x > POWER_SERIES_X_MAX:
        raise DomainError(f"uniform_convergence_proxy requires b x <= {POWER_SERIES_X_MAX} "
                          f"for its power-series limit, got x = {x!r}, b = {b_top!r}")
    k_list = [as_int(K, 0, "K must be a nonnegative integer") for K in k_list]
    k_top = max(k_list, default=0)
    sups = [0.0] * len(k_list)
    raw = None
    for spec in specs:
        row = _family_row(spec, x)
        if raw is None:  # the unmodulated terms do not depend on b: one kernel pass serves all b
            ks = np.arange(row.lo, row.lo + k_top, dtype=np.float64)
            raw = row.kernel(ks)
        # the terms are elementwise and fsum is exact, so each prefix sum
        # equals the K-term partial sum summed on its own
        terms = (row.weight(ks) * raw).tolist()
        limit = _series_value(spec, bessel_j_power_series(spec.n, spec.b * spec.x, oracle_cfg))
        sups = [max(worst, abs(math.fsum(terms[:K]) - limit)) for worst, K in zip(sups, k_list)]
    return sups
