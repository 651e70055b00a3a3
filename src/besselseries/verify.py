"""Independent numerical verification: quadrature checks of the source
integral identities, Fourier-coefficient checks, term-decay studies, and
benchmark sweeps against the power-series reference.

The three identities being checked, for b > 0, real y, nu > -1, with
B = sqrt(b^2 + y^2):

  (A) int_0^1 x^(nu+1) J_nu(bx) sin(y sqrt(1-x^2)) dx
        = sqrt(pi/2) y b^nu B^(-nu-3/2) J_{nu+3/2}(B)
  (B) int_0^1 J_nu(bx) / sqrt(1-x^2) cos(y sqrt(1-x^2)) dx
        = (pi/2) J_{nu/2}((B-y)/2) J_{nu/2}((B+y)/2)
  (C) int_0^1 x^(nu+1) J_nu(bx) / sqrt(1-x^2) cos(y sqrt(1-x^2)) dx
        = sqrt(pi/2) b^nu B^(-nu-1/2) J_{nu+1/2}(B)

and their doubled forms on t in [-1, 1], which read as Fourier
coefficients at y = k pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .engine import (EvalOptions, SeriesFamily, SeriesSpec, _as_family,
                     _weighted_terms, asymptotic_term, eval_series,
                     tail_bound, term_a, term_b, term_c)
from .errors import (BoundNotApplicableError, DomainError, NoConvergenceError, QuadratureError,
                     as_int, as_real)
from .special import (OracleConfig, POWER_SERIES_X_MAX, _bessel_j_series_vec,
                      bessel_j_half, bessel_j_power_series)

__all__ = [
    "QuadratureOptions",
    "IdentityResidual",
    "ConvergenceRecord",
    "check_integral_identity",
    "check_fourier_coefficient",
    "decay_ratio_study",
    "terms_to_tolerance",
    "sweep",
    "uniform_convergence_proxy",
]


@dataclass(frozen=True)
class QuadratureOptions:
    """Gauss-Legendre order per panel, starting panel count, and the
    refinement target for the panel-doubling self-check."""

    nodes: int = 32
    panels: int = 2
    target_tol: float = 1e-11
    max_refinements: int = 12

    def __post_init__(self):
        object.__setattr__(self, "nodes", as_int(self.nodes, 8, "nodes must be an integer >= 8"))
        object.__setattr__(self, "panels",
                           as_int(self.panels, 1, "panels must be a positive integer"))
        object.__setattr__(self, "target_tol",
                           as_real(self.target_tol, "target_tol must be positive and finite",
                                   gt=0.0))
        object.__setattr__(self, "max_refinements",
                           as_int(self.max_refinements, 0,
                                  "max_refinements must be a nonnegative integer"))


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
    terms_to_tol: int | None = None
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
    return float(np.sum(half * (vals * ws[None, :]).sum(axis=1)))


def _refine_quad(f, a, b, q: QuadratureOptions, panel_scale: int = 1):
    """Double the panel count until two successive estimates agree to
    target_tol; returns the finer estimate."""
    panels = q.panels * max(1, panel_scale)
    prev = _panel_quad(f, a, b, q.nodes, panels)
    for _ in range(q.max_refinements):
        panels *= 2
        cur = _panel_quad(f, a, b, q.nodes, panels)
        if abs(cur - prev) < q.target_tol:
            return cur
        prev = cur
    raise QuadratureError(
        f"panel refinement stalled at {panels} panels without reaching "
        f"{q.target_tol}")


# ---------------------------------------------------------------------------
# closed right-hand sides
# ---------------------------------------------------------------------------

def _j_general(order, z, cfg=None):
    # half-integer orders take the elementary path; everything else goes
    # through the power-series reference
    twice = 2.0 * order
    if twice == round(twice) and int(round(twice)) % 2 == 1 and order > 0:
        return bessel_j_half(int(round(order - 0.5)), z)
    return bessel_j_power_series(order, z, cfg or OracleConfig())


def _identity_rhs(family, nu, b, y):
    B = math.hypot(b, y)
    if family is SeriesFamily.A:
        return math.sqrt(math.pi / 2.0) * y * b**nu * B ** (-nu - 1.5) * _j_general(nu + 1.5, B)
    if family is SeriesFamily.C:
        return math.sqrt(math.pi / 2.0) * b**nu * B ** (-nu - 0.5) * _j_general(nu + 0.5, B)
    ya = abs(y)
    u_small = b * b / (2.0 * (B + ya))  # (B - |y|) / 2 without cancellation
    u_big = (B + ya) / 2.0
    return (math.pi / 2.0) * _j_general(nu / 2.0, u_small) * _j_general(nu / 2.0, u_big)


# ---------------------------------------------------------------------------
# integral identities
# ---------------------------------------------------------------------------

def _identity_lhs(family, nu, b, y, q):
    """Quadrature of the left side after x = sin(theta).

    The substitution removes the 1/sqrt(1-x^2) endpoint factor and makes
    the A/C integrands smooth (they contain x^(nu+1) J_nu(bx)
    = x^(2nu+1) * entire(x^2), and 2nu+1 is integral on the supported
    grid).  Family B keeps a sin(theta)^nu factor, so for fractional nu a
    second substitution theta = (pi/2) sin^2(u) is applied; it clusters
    quadratically at both ends and restores spectral convergence.
    """
    scale = max(1, math.ceil(abs(y) / math.pi))
    if family is SeriesFamily.A:
        def f(theta):
            s = np.sin(theta)
            return (s ** (nu + 1.0) * _bessel_j_series_vec(nu, b * s)
                    * np.sin(y * np.cos(theta)) * np.cos(theta))
        return _refine_quad(f, 0.0, math.pi / 2.0, q, scale)
    if family is SeriesFamily.C:
        def f(theta):
            s = np.sin(theta)
            return (s ** (nu + 1.0) * _bessel_j_series_vec(nu, b * s)
                    * np.cos(y * np.cos(theta)))
        return _refine_quad(f, 0.0, math.pi / 2.0, q, scale)

    def f(u):
        theta = (math.pi / 2.0) * np.sin(u) ** 2
        jac = (math.pi / 2.0) * np.sin(2.0 * u)
        s = np.sin(theta)
        return _bessel_j_series_vec(nu, b * s) * np.cos(y * np.cos(theta)) * jac
    return _refine_quad(f, 0.0, math.pi / 2.0, q, scale)


def check_integral_identity(family, nu: float, b: float, y: float,
                            q: QuadratureOptions | None = None) -> IdentityResidual:
    """Residual |LHS - RHS| of the family's source integral identity."""
    fam = _as_family(family)
    if q is None:
        q = QuadratureOptions()
    nu = as_real(nu, "identity requires nu > -1", gt=-1.0)
    b = as_real(b, "identity requires finite b > 0", gt=0.0)
    y = as_real(y, "identity requires finite y")
    lhs = _identity_lhs(fam, nu, b, y, q)
    rhs = _identity_rhs(fam, nu, b, y)
    return IdentityResidual(fam, nu, b, y, lhs, rhs, abs(lhs - rhs))


# ---------------------------------------------------------------------------
# Fourier coefficients
# ---------------------------------------------------------------------------

def _fourier_integral(family, nu, b, y, q, half_range=False):
    """Complex integral of F_nu(b, t) e^(i y t) over t in [-1, 1] via
    t = cos(theta); family B additionally clusters theta = pi sin^2(u).

    half_range integrates t in [0, 1] only (used to verify the symmetry
    factor between the single- and doubled-interval forms).
    """
    scale = max(1, math.ceil(abs(y) / math.pi))
    hi = math.pi / 2.0 if half_range else math.pi

    if family is SeriesFamily.B:
        def parts(u):
            theta = np.pi * np.sin(u) ** 2 if not half_range else (np.pi / 2.0) * np.sin(u) ** 2
            jac = (np.pi if not half_range else np.pi / 2.0) * np.sin(2.0 * u)
            s = np.sin(theta)
            base = _bessel_j_series_vec(nu, b * s) * jac
            t = np.cos(theta)
            return base * np.cos(y * t), base * np.sin(y * t)
        dom_hi = math.pi / 2.0
    else:
        def parts(theta):
            s = np.sin(theta)
            t = np.cos(theta)
            if family is SeriesFamily.A:
                # F = -i t (sqrt(1-t^2))^nu J_nu(b sqrt(1-t^2));
                # real part couples to sin(y t), imaginary to -cos(y t)
                base = t * s**nu * _bessel_j_series_vec(nu, b * s) * s
                return base * np.sin(y * t), -base * np.cos(y * t)
            base = s**nu * _bessel_j_series_vec(nu, b * s) * s
            return base * np.cos(y * t), base * np.sin(y * t)
        dom_hi = hi

    re = _refine_quad(lambda v: parts(v)[0], 0.0, dom_hi, q, scale)
    im = _refine_quad(lambda v: parts(v)[1], 0.0, dom_hi, q, scale)
    return re, im


def check_fourier_coefficient(family, nu: float, b: float, k: int,
                              q: QuadratureOptions | None = None) -> IdentityResidual:
    """Residual between int_{-1}^{1} F_nu(b,t) e^(i k pi t) dt and the
    closed coefficient f_nu(b, k pi) (twice the single-interval identity
    right side)."""
    fam = _as_family(family)
    if q is None:
        q = QuadratureOptions()
    k = as_int(k, 0, "k must be a nonnegative integer")
    nu = as_real(nu, "Fourier check requires nu > -1", gt=-1.0)
    b = as_real(b, "Fourier check requires finite b > 0", gt=0.0)
    y = k * math.pi
    re, im = _fourier_integral(fam, nu, b, y, q)
    rhs = 2.0 * _identity_rhs(fam, nu, b, y)
    return IdentityResidual(fam, nu, b, y, re, rhs, math.hypot(re - rhs, im))


def fourier_parity_residual(family, nu: float, b: float, k: int,
                            q: QuadratureOptions | None = None) -> float:
    """|full-interval integral - 2 * half-interval integral| for the even
    part (families B, C) or the odd-coupled real part (family A); checks
    numerically that extending the integration interval doubles the
    coefficient."""
    fam = _as_family(family)
    if q is None:
        q = QuadratureOptions()
    y = k * math.pi
    full_re, _ = _fourier_integral(fam, float(nu), float(b), y, q)
    half_re, _ = _fourier_integral(fam, float(nu), float(b), y, q, half_range=True)
    return abs(full_re - 2.0 * half_re)


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


def _oracle_for(spec: SeriesSpec, oracle_cfg: OracleConfig):
    arg = spec.b * abs(spec.x)
    if arg > POWER_SERIES_X_MAX:
        raise DomainError(f"oracle argument {arg} exceeds {POWER_SERIES_X_MAX}")
    sign = -1.0 if (spec.x < 0 and spec.n % 2 == 1) else 1.0
    return sign * bessel_j_power_series(spec.n, arg, oracle_cfg)


def sweep(grid, opts: EvalOptions | None = None,
          oracle_cfg: OracleConfig | None = None) -> list[ConvergenceRecord]:
    """One ConvergenceRecord per spec, in input order.  Failures are
    captured in the record's error field instead of aborting the sweep."""
    if opts is None:
        opts = EvalOptions()
    if oracle_cfg is None:
        oracle_cfg = OracleConfig(tol=1e-14)
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
            oracle = _oracle_for(spec, oracle_cfg)
            rec.oracle = oracle
            if spec.family is SeriesFamily.B and spec.b == 0.0:
                # recovered value is the b -> 0 limit, not J_n(0)
                rec.abs_error = None
            else:
                rec.abs_error = abs(res.bessel_value - oracle)
        except (DomainError, NoConvergenceError) as exc:
            rec.error = str(exc)
        try:
            rec.terms_to_tol = terms_to_tolerance(spec, opts.tol, k_cap=10**6)
        except (BoundNotApplicableError, NoConvergenceError, DomainError):
            rec.terms_to_tol = None
        records.append(rec)
    return records


def uniform_convergence_proxy(family, n: int, x: float, b_grid, k_list,
                              oracle_cfg: OracleConfig | None = None) -> list[float]:
    """sup over b of |partial sum after K terms - series limit| for each K.

    The limit is the series' own left-hand side built from the
    power-series reference, so the sequence is a direct numerical proxy
    for uniform-in-b convergence of the partial sums.
    """
    fam = _as_family(family)
    if oracle_cfg is None:
        oracle_cfg = OracleConfig(tol=1e-14)
    k_list = [as_int(K, 0, "K must be a nonnegative integer") for K in k_list]
    k_top = max(k_list, default=0)
    sups = [0.0] * len(k_list)
    for b in b_grid:
        spec = SeriesSpec(fam, n, b, x)
        # one pass per b: the terms are elementwise and fsum is exact, so
        # each prefix sum equals the K-term partial sum summed on its own
        terms = _weighted_terms(spec, 1, k_top + 1)
        j = bessel_j_power_series(spec.n, spec.b * spec.x, oracle_cfg)
        if fam is SeriesFamily.B:
            limit = j / spec.b if spec.n % 2 == 1 else (2.0 * spec.n) / (spec.b * spec.b) * j
        else:
            limit = spec.b**spec.n * j
        sups = [max(worst, abs(math.fsum(terms[:K]) - limit)) for worst, K in zip(sups, k_list)]
    return sups
