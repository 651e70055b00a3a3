"""Evaluation of the three elementary series families for integer-order
Bessel functions of the first kind.

Every term is built from sin, cos and inverse powers of

    phi_k = sqrt(x^2 + (k pi)^2),

with the k-th term modulated by a scale factor depending on b in [0, 1]:

    family A:  b^n J_n(bx)        = sum_{k>=1} gA(b,k) * termA(n,x,k)
    family B:  J_n(bx)/b          = sum_{k>=0} eps(k) gBC(b,k) * termB(n,x,k)   (n odd)
               (4m/b^2) J_2m(bx)  = same sum with termB at n = 2m             (n even)
    family C:  b^n J_n(bx)        = sum_{k>=0} eps(k) gBC(b,k) * termC(n,x,k)

Sums run in ascending k and are reduced with exact (Shewchuk) compensated
summation, so identical inputs give bit-identical results.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from dataclasses import dataclass, field
from enum import Enum
from functools import partial

import numpy as np

from .errors import BoundNotApplicableError, DomainError, as_int, as_real
from .special import _spherical_jn_vec

__all__ = [
    "SERIES_X_MAX",
    "SeriesFamily",
    "SeriesSpec",
    "EvalOptions",
    "EvalResult",
    "phi",
    "eps",
    "g_a",
    "g_bc",
    "term_a",
    "term_b",
    "term_c",
    "eval_series",
    "eval_at_b1",
    "eval_j0_variant",
    "bessel_j",
    "asymptotic_term",
    "tail_bound",
]

_BLOCK = 16384
_WINDOW = 48  # forward differences available to the Euler-Abel tail

# Largest |x| the series accept: the J_0 variant's psi^3 overflows from about 4.9e102
SERIES_X_MAX = 1e100
_X_RULE = f"argument x must be finite with |x| <= {SERIES_X_MAX:g}"


class SeriesFamily(str, Enum):
    A = "A"
    B = "B"
    C = "C"


def _as_family(family) -> SeriesFamily:
    if isinstance(family, SeriesFamily):
        return family
    try:
        return SeriesFamily(str(family).upper())
    except ValueError:
        raise DomainError(f"unknown series family {family!r}") from None


@dataclass(frozen=True)
class SeriesSpec:
    """One evaluation request: family, integer order n, scale b, argument x.

    x may be negative; evaluation applies J_n(-x) = (-1)^n J_n(x)
    internally.
    """

    family: SeriesFamily
    n: int
    b: float
    x: float

    def __post_init__(self):
        object.__setattr__(self, "family", _as_family(self.family))
        object.__setattr__(self, "n", as_int(self.n, 0, "order n must be a nonnegative integer"))
        object.__setattr__(self, "b", as_real(self.b, "scale b must lie in [0, 1]", ge=0.0, le=1.0))
        object.__setattr__(self, "x", as_real(self.x, _X_RULE, ge=-SERIES_X_MAX, le=SERIES_X_MAX))
        if self.family is SeriesFamily.A:
            if self.b == 0.0:
                raise DomainError("family A requires b > 0")
            if self.b == 1.0 and self.n == 0:
                raise DomainError(
                    "family A at b = 1, n = 0 diverges (terms approach +-2); "
                    "use family C for order 0")
        if self.family is SeriesFamily.B and self.n == 0:
            raise DomainError(
                "family B has no elementary order-0 representation; n >= 1 required")


@dataclass(frozen=True)
class EvalOptions:
    """Truncation policy: fixed term count or adaptive stopping."""

    mode: str = "adaptive"
    k_max: int = 10**6
    tol: float = 1e-10

    def __post_init__(self):
        if self.mode not in ("adaptive", "fixed_k"):
            raise DomainError(f"mode must be 'adaptive' or 'fixed_k', got {self.mode!r}")
        object.__setattr__(self, "k_max", as_int(self.k_max, 1, "k_max must be a positive integer"))
        object.__setattr__(self, "tol", as_real(self.tol, "tol must be positive and finite", gt=0.0))


@dataclass
class EvalResult:
    """Series value, the recovered J_n(bx), and truncation diagnostics.

    value is the series' own left-hand side (b^n J_n(bx), J_n(bx)/b or
    (4m/b^2) J_2m(bx) by family and parity).  tail_bound, in the units of
    value, is the Euler-Abel tail transform's error estimate for a
    converged adaptive result, and the magnitude of the first omitted term
    for a fixed_k result or an adaptive one that ran out of k_max.
    converged = True implies tail_bound <= the requested tol.
    condition_warning flags recoveries that divide by b^n < 1e-6.
    """

    value: float
    bessel_value: float
    terms_used: int
    tail_bound: float
    converged: bool
    condition_warning: bool = field(default=False)


# ---------------------------------------------------------------------------
# scalar building blocks
# ---------------------------------------------------------------------------

def phi(x: float, k: int) -> float:
    """phi_k = sqrt(x^2 + (k pi)^2), bit for bit the phi_k that _phase gives the series."""
    x = as_real(x, "phi requires finite x >= 0", ge=0.0)
    k = as_int(k, 0, "phi requires integer k >= 0")
    return float(_phase(x, np.array([float(k)]))[1][0])


def eps(k: int) -> float:
    """Half weight for the k = 0 term: 1/2 at k = 0, else 1."""
    k = as_int(k, 0, "eps requires integer k >= 0")
    return 0.5 if k == 0 else 1.0


def _c_of_b(b):
    # sqrt(1 - b^2), clipped against rounding at b = 1
    return math.sqrt(max(0.0, 1.0 - b * b))


def g_a(b: float, k: int) -> float:
    """Family A's k-th weight sin(k pi c)/(k pi c), c = sqrt(1 - b^2), bit for bit as summed."""
    b = as_real(b, "g_a requires 0 < b <= 1", gt=0.0, le=1.0)
    k = as_int(k, 1, "g_a requires integer k >= 1")
    return float(_weights_vec(SeriesFamily.A, b, np.array([float(k)]))[0])


def g_bc(b: float, k: int) -> float:
    """cos(k pi sqrt(1 - b^2)); eps(k) g_bc is B's and C's k-th weight, bit for bit as summed."""
    b = as_real(b, "g_bc requires 0 <= b <= 1", ge=0.0, le=1.0)
    k = as_int(k, 0, "g_bc requires integer k >= 0")
    return float(_weights_vec(SeriesFamily.B, b, np.array([float(k)]))[0]) / eps(k)


# ---------------------------------------------------------------------------
# vectorized term kernels
# ---------------------------------------------------------------------------

def _alt(ks):
    """(-1)^k over an array of integer-valued floats k."""
    return 1.0 - 2.0 * (ks.astype(np.int64) & 1)


def _phase(x, ks):
    """(k pi, phi_k, delta_k, (-1)^k) for the exact decomposition

        phi_k = sqrt(x^2 + (k pi)^2) = k pi + delta_k,   delta_k = x^2/(phi_k + k pi),

    with delta_k = 0 at x = 0.  Every series in the package takes its phase
    from here: sin(phi_k) = (-1)^k sin(delta_k) and cos(phi_k) =
    (-1)^k cos(delta_k) need no large-argument trig reduction, and delta_k
    is phi_k - k pi without its cancellation.
    """
    kpi = np.pi * ks
    ph = np.hypot(x, kpi)
    delta = x * x / (ph + kpi) if x else np.zeros_like(ph)
    return kpi, ph, delta, _alt(ks)


def _phi_parts(x, ks):
    """(k pi, phi_k, sin(phi_k), cos(phi_k)) through _phase; sin(phi_k),
    which is O(x^2 / k pi) near k pi, keeps full relative accuracy."""
    kpi, ph, delta, sgn = _phase(x, ks)
    return kpi, ph, sgn * np.sin(delta), sgn * np.cos(delta)


def _term_a_vec(n, x, ks):
    # (k pi) f_n^A(x, k pi) = 2 (k pi)^2 x^n j_{n+1}(phi) / phi^(n+1)
    kpi, ph, s, c = _phi_parts(x, ks)  # k >= 1, so phi > 0
    return 2.0 * kpi * kpi * (x / ph)**n * _spherical_jn_vec(n + 1, ph, s, c) / ph


def _term_c_vec(n, x, ks):
    # f_n^C(x, k pi) = 2 x^n j_n(phi) / phi^n, with (x/phi)^n -> 1 at phi = 0
    _, ph, s, c = _phi_parts(x, ks)
    j = _spherical_jn_vec(n, ph, s, c)
    if n == 0:
        return 2.0 * j
    ratio = x / ph if x else np.where(ph > 0.0, 0.0, 1.0)  # phi = 0 only at x = k = 0
    return 2.0 * ratio**n * j


def _term_b_vec(n, x, ks):
    """f_n^B(x, k pi) through spherical Bessel products at the half-sum and
    half-difference arguments

        u- = x^2 / (2 (phi + k pi)),   u+ = (phi + k pi) / 2.

    u- is the cancellation-free form of (phi - k pi)/2.  Odd n = 2m+1:
    x j_m(u-) j_m(u+).  Even n = 2m: x^2 [ j_{m-1}(u-) j_{m-1}(u+)
    + j_m(u-) j_m(u+) ].  Each order takes one j_m pass over u- and u+
    together.
    """
    kpi, ph, delta, sgn = _phase(x, ks)
    um = delta / 2.0
    # u+ = k pi + u-, so sin/cos of u+ follow from sin/cos of the tiny u-
    sm, cm = np.sin(um), np.cos(um)
    u = np.concatenate((um, (ph + kpi) / 2.0))
    su, cu = np.concatenate((sm, sgn * sm)), np.concatenate((cm, sgn * cm))
    size = len(ks)

    def pair(m):
        j = _spherical_jn_vec(m, u, su, cu)
        return j[:size], j[size:]

    if n % 2 == 1:
        jm, jp = pair((n - 1) // 2)
        return x * jm * jp
    (am, ap), (bm, bp) = pair(n // 2 - 1), pair(n // 2)
    return x * x * (am * ap + bm * bp)


_TERM_VEC = {
    SeriesFamily.A: _term_a_vec,
    SeriesFamily.B: _term_b_vec,
    SeriesFamily.C: _term_c_vec,
}


def _weights_vec(family, b, ks):
    c = _c_of_b(b)
    if family is SeriesFamily.A:
        if c == 0.0:
            return np.ones_like(ks)
        arg = ks * (np.pi * c)  # k >= 1 and c > 0, so arg > 0
        return np.sin(arg) / arg
    w = np.cos(ks * (np.pi * c))
    if len(ks) and ks[0] == 0.0:  # ks ascends, so k = 0 leads
        w[0] *= 0.5
    return w


def _term(term_vec, n, x, k, n_min, k_min, op):
    n = as_int(n, n_min, f"{op} requires integer n >= {n_min}")
    x = as_real(x, f"{op} requires 0 <= x <= {SERIES_X_MAX:g}", ge=0.0, le=SERIES_X_MAX)
    k = as_int(k, k_min, f"{op} requires integer k >= {k_min}")
    return float(term_vec(n, x, np.array([float(k)]))[0])


def term_a(n: int, x: float, k: int) -> float:
    """(k pi) f_n^A(x, k pi), the unmodulated k-th term of family A."""
    return _term(_term_a_vec, n, x, k, 0, 1, "term_a")


def term_b(n: int, x: float, k: int) -> float:
    """f_n^B(x, k pi), the unmodulated k-th term of family B (n >= 1)."""
    return _term(_term_b_vec, n, x, k, 1, 0, "term_b")


def term_c(n: int, x: float, k: int) -> float:
    """f_n^C(x, k pi), the unmodulated k-th term of family C."""
    return _term(_term_c_vec, n, x, k, 0, 0, "term_c")


# ---------------------------------------------------------------------------
# summation
# ---------------------------------------------------------------------------

# One series as _sum reads it: the term at index k = lo, lo + 1, ... is
# weight(k) * kernel(k); the tail takes z = -e^(i phi), and Im for Re if imag
_Row = namedtuple("_Row", "kernel weight lo phi imag")


def _terms(row: _Row, i0: int, i1: int):
    """(ks, raw, weight * raw) for 0-based term numbers [i0, i1) of row."""
    ks = np.arange(row.lo + i0, row.lo + i1, dtype=np.float64)
    raw = row.kernel(ks)
    return ks, raw, row.weight(ks) * raw


def _family_row(spec: SeriesSpec, xa: float) -> _Row:
    """The family's row at |x| = xa, with phi = pi c: family A's weight
    sin(k phi)/(k phi) is Im(z^k) (-1)^k/(k phi), B's and C's cos(k phi) is
    Re(z^k) (-1)^k.  A modulation slower than phi = 1/16 is folded into the
    terms with phi = 0 instead, so that g does not grow like 1/c."""
    fam, b = spec.family, spec.b
    phi = math.pi * _c_of_b(b)
    phi = phi if phi >= 1.0 / 16.0 else 0.0
    return _Row(partial(_TERM_VEC[fam], spec.n, xa), partial(_weights_vec, fam, b),
                1 if fam is SeriesFamily.A else 0, phi, fam is SeriesFamily.A and phi > 0.0)


def _weighted_terms(spec: SeriesSpec, i0: int, i1: int):
    """Modulated terms (weight * raw) for term numbers [i0, i1), 1-based."""
    return _terms(_family_row(spec, abs(spec.x)), i0 - 1, i1 - 1)[2]


def _sum(row: _Row, opts: EvalOptions, x: float, thr: float):
    """(value, terms_used, tail, converged) of the sum of the row's terms t_i,
    i >= 0, at index k = lo + i.  Adaptive mode writes t_i = Re(z^k) g_i (Im
    when imag), z = -e^(i phi), with g_i the raw term, or t_i at phi = 0,
    times (-1)^k, and over k phi when imag; it sums t_i for i < K0 and adds
    the Euler-Abel tail

        sum_{i>=K0} z^(lo+i) g_i = z^(lo+K0)/(1-z) sum_p r^p Delta^p g_K0,  r = z/(1-z),

    cut after three consecutive terms, scaled by |z^(lo+K0)/(1-z)|, below
    thr; their sum is the tail estimate.  Otherwise K0 (first past 4x/pi,
    where g is smooth) doubles.  k_max caps every term evaluated, the
    _WINDOW differences included; past it, or at z = 1, the raw partial
    sum of k_max terms is returned as in fixed_k mode, with |t_k_max|, from
    the same kernel pass, as tail, and adaptive mode reports converged = False.
    """
    lo, phi, imag = row.lo, row.phi, row.imag
    smooth = opts.mode == "adaptive" and phi < math.pi
    ts, gs = [], []

    def upto(count):
        have = sum(map(len, ts))
        while have < count:
            ks, raw, t = _terms(row, have, min(have + _BLOCK, count))
            ts.append(t)
            if smooth:
                g = (raw if phi else t) * _alt(ks)
                gs.append(g / (ks * phi) if imag else g)
            have += len(t)
        return ts[0] if len(ts) == 1 else np.concatenate(ts)

    k0 = max(64, int(4.0 * x / math.pi) + 8)
    if smooth:
        # 1 - z = 2 cos(phi/2) e^(i phi/2), accurate as z -> 1
        half = cmath.exp(0.5j * phi)
        one_minus_z = 2.0 * math.cos(0.5 * phi) * half
        r = -half / (2.0 * math.cos(0.5 * phi))
        while k0 + _WINDOW <= opts.k_max:
            t = upto(k0 + _WINDOW)
            m = lo + k0
            pre = (-1.0) ** m * cmath.exp(1j * (m * phi)) / one_minus_z
            d, rp, acc, run, est = np.concatenate(gs)[k0:], 1.0, 0j, 0, 0.0
            for _ in range(_WINDOW):
                e = rp * float(d[0])
                acc += e
                size = abs(pre * e)
                run, est = (run + 1, est + size) if size < thr else (0, 0.0)
                if run == 3:
                    tail = pre * acc
                    return (math.fsum(t[:k0].tolist()) + (tail.imag if imag else tail.real),
                            k0 + _WINDOW, est, True)
                d = d[1:] - d[:-1]
                rp *= r
            k0 *= 2
    t = upto(opts.k_max + 1)
    tail = abs(float(t[opts.k_max]))
    return (math.fsum(t[:opts.k_max].tolist()), opts.k_max, tail,
            opts.mode == "fixed_k" and tail <= opts.tol)


def _recover_bessel(spec: SeriesSpec, value: float) -> float:
    fam, n, b = spec.family, spec.n, spec.b
    if fam is SeriesFamily.B:
        return value * b if n % 2 == 1 else value * b * b / (2.0 * n)
    return value / b**n


def _series_value(spec: SeriesSpec, j: float) -> float:
    """The left-hand side at J_n(bx) = j; 2n/b^2 is inf where b * b underflows."""
    n, b = spec.n, spec.b
    if spec.family is not SeriesFamily.B:
        return b**n * j
    if n % 2 == 1:
        return j / b
    return (2.0 * n) / (b * b) * j if b * b else math.copysign(math.inf, j)


def eval_series(spec: SeriesSpec, opts: EvalOptions | None = None) -> EvalResult:
    """Sum the requested series with exact compensated summation.

    fixed_k mode returns the raw partial sum of k_max terms, and tail_bound
    is the magnitude of the first omitted term.  Adaptive mode writes the
    terms as Re(z^k) F_k, or Im(z^k) F_k / (k pi c) for family A, with
    z = exp(-i pi (1 - c)), c = sqrt(1 - b^2) and F_k the term without its
    (-1)^k, and sums the tail by the Euler-Abel transformation (see _sum).
    It converges once the transform settles below 0.1 tol times b^n
    (families A, C) or tol (B), and tail_bound is then the transform's
    error estimate; when it cannot settle within k_max terms, the window
    included, the raw partial sum of k_max terms has converged = False.
    """
    if opts is None:
        opts = EvalOptions()
    fam, n, b = spec.family, spec.n, spec.b
    sign = -1.0 if (spec.x < 0 and n % 2 == 1) else 1.0
    xa = abs(spec.x)

    if fam is SeriesFamily.C and b == 0.0 and (n >= 1 or opts.mode == "adaptive"):
        # b^n J_n(0): 1 at n = 0, else 0 (z = 1 leaves no transform to sum by)
        v = 1.0 if n == 0 else 0.0
        return EvalResult(v, v, 0, 0.0, True)
    if fam is SeriesFamily.B and b == 0.0:
        # the left side exists only as its b -> 0 limit, and the (-1)^k
        # modulation at b = 0 leaves a one-signed tail: return the exact limit
        if n % 2 == 1:
            limit = xa / 2.0 if n == 1 else 0.0  # lim J_n(bx)/b
        else:
            limit = xa * xa / 2.0 if n == 2 else 0.0  # lim (4m/b^2) J_2m(bx)
        return EvalResult(sign * limit, sign * limit, 0, 0.0, True)

    # left side per unit J, capped at 1, so that thr holds in both units
    scale = min(1.0, _series_value(spec, 1.0))
    value, used, tail, converged = _sum(_family_row(spec, xa), opts, xa, 0.1 * opts.tol * scale)
    return EvalResult(sign * value, sign * _recover_bessel(spec, value), used, tail, converged,
                      scale < 1e-6)


def eval_at_b1(n: int, x: float, opts: EvalOptions | None = None) -> EvalResult:
    """Family A at the termwise limit b = 1 (g = 1): J_n(x) directly.

    Defined for n >= 1; the order-0 series diverges at b = 1.
    """
    n = as_int(n, 1, "the b = 1 series requires n >= 1 (order 0 diverges)")
    return eval_series(SeriesSpec(SeriesFamily.A, n, 1.0, x), opts)


def eval_j0_variant(x: float, opts: EvalOptions | None = None) -> EvalResult:
    """Order-0 series at scale sqrt(3)/2 with the argument rescaled so the
    sum equals J_0(x) itself:

        J_0(x) = 4 sum_{i>=1} (-1)^i (2i-1) pi (psi_i cos psi_i - sin psi_i) / psi_i^3,
        psi_i  = sqrt(4 x^2 / 3 + ((2i-1) pi)^2).

    Only every other Fourier index survives the scale factor, which is why
    the odd multiples (2i-1) pi appear.  The raw partial sums converge
    conditionally at O(1/K); adaptive mode sums the alternating tail by
    the Euler-Abel transformation at z = -1 (see eval_series).
    """
    if opts is None:
        opts = EvalOptions()
    x = as_real(x, _X_RULE, ge=-SERIES_X_MAX, le=SERIES_X_MAX)
    xs = math.sqrt(4.0 / 3.0 * x * x)  # 2|x|/sqrt(3)

    def kernel(idx):
        opi, psi, spsi, cpsi = _phi_parts(xs, 2.0 * idx - 1.0)
        return 4.0 * opi * (psi * cpsi - spsi) / psi**3

    v, used, tail, converged = _sum(_Row(kernel, _alt, 1, 0.0, False), opts, xs, 0.1 * opts.tol)
    return EvalResult(v, v, used, tail, converged)


def bessel_j(n: int, x: float, family, b: float = 1.0,
             opts: EvalOptions | None = None) -> float:
    """J_n(x) evaluated through the chosen family at scale b.

    The engine runs at argument x/b so that b * (x/b) = x, and applies
    J_n(-x) = (-1)^n J_n(x) for negative arguments.
    """
    fam = _as_family(family)
    b = as_real(b, "bessel_j requires 0 < b <= 1", gt=0.0, le=1.0)
    x = as_real(x, "argument x must be finite")
    if abs(x / b) > SERIES_X_MAX:
        raise DomainError(f"bessel_j requires |x / b| <= {SERIES_X_MAX:g}, "
                          f"got x = {x!r}, b = {b!r}")
    return eval_series(SeriesSpec(fam, n, b, x / b), opts).bessel_value


# ---------------------------------------------------------------------------
# large-k term behaviour
# ---------------------------------------------------------------------------

def _lead(nu: int, s: float, y: float) -> float:
    """Leading DLMF 10.49.2 form of (-1)^k y j_nu(k pi + s), y = k pi, s = O(1/y):
    -sin(nu pi/2) for odd nu, cos(nu pi/2) (s + nu(nu+1)/(2y)) for even nu."""
    sign = (-1.0) ** (nu // 2)  # sin(nu pi/2) for odd nu, cos(nu pi/2) for even
    return -sign if nu % 2 else sign * (s + nu * (nu + 1) / (2.0 * y))


def asymptotic_term(family, n: int, x: float, k: int) -> float:
    """Leading order of the unmodulated k-th term as k -> infinity: each
    kernel with j_nu(phi_k) replaced by _lead at y = k pi, u = x^2/(4y):

        A:  2 (-1)^k (x/y)^n _lead(n+1, 2u, y)
        C:  2 (-1)^k (x/y)^n _lead(n, 2u, y) / y
        B:  x P(m) for n = 2m+1, x^2 [P(m-1) + P(m)] for n = 2m, with
            P(m) = u^m/(2m+1)!! (-1)^k _lead(m, u, y) / y for j_m(u-) j_m(u+).

    Raises DomainError where the value overflows a float.
    """
    fam = _as_family(family)
    lo = 1 if fam is SeriesFamily.B else 0
    n = as_int(n, lo, f"family {fam.value} terms require integer n >= {lo}")
    k = as_int(k, 1, "asymptotic_term requires integer k >= 1")
    x = as_real(x, "asymptotic_term requires finite x >= 0", ge=0.0)
    y, sgn = k * math.pi, (-1.0) ** k
    u = x * x / (4.0 * y)

    def p(m):
        return u**m / math.prod(range(1, 2 * m + 2, 2)) * sgn * _lead(m, u, y) / y

    try:
        if fam is SeriesFamily.B:
            # for even m = n/2, P(m) is two orders below P(m-1): leave it out
            m = n // 2
            v = x * p(m) if n % 2 else x * x * (p(m - 1) + (p(m) if m % 2 else 0.0))
        else:
            lead = _lead(n + 1, 2.0 * u, y) if fam is SeriesFamily.A else _lead(n, 2.0 * u, y) / y
            v = 2.0 * sgn * (x / y) ** n * lead
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise DomainError(f"asymptotic_term({fam.value}, {n}, {x!r}, {k}) overflows a float")
    return v


def tail_bound(spec: SeriesSpec, K: int) -> float:
    """|t_{K+1}| as the truncation bound for the partial sum through
    index k = K (so the family-A sum holds K terms and the B/C sums K+1).

    Valid only when the next eight terms alternate strictly in sign with
    non-increasing magnitudes (then |S - S_K| <= |t_{K+1}|); otherwise
    BoundNotApplicableError reports what failed.  An all-zero window
    yields the exact bound 0.
    """
    K = as_int(K, 0, "K must be a nonnegative integer")
    row = _family_row(spec, abs(spec.x))
    window = _terms(row, K + 1 - row.lo, K + 9 - row.lo)[2]
    if np.all(window == 0.0):
        return 0.0
    signs = np.sign(window)
    if np.any(signs[:-1] * signs[1:] != -1.0):
        raise BoundNotApplicableError(
            f"terms {K + 1}..{K + 8} of {spec.family.value}(n={spec.n}, b={spec.b}, "
            f"x={spec.x}) do not alternate in sign; the first-omitted-term bound "
            "does not apply")
    mags = np.abs(window)
    if np.any(mags[:-1] < mags[1:]):
        raise BoundNotApplicableError(
            f"term magnitudes {K + 1}..{K + 8} of {spec.family.value}(n={spec.n}, "
            f"b={spec.b}, x={spec.x}) are not monotonically decaying; the "
            "first-omitted-term bound does not apply")
    return float(mags[0])
