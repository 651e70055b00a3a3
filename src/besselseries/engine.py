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
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import BoundNotApplicableError, DomainError, as_int, as_real
from .special import _spherical_jn_vec

__all__ = [
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
_FOUR_THIRDS = 4.0 / 3.0


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
        object.__setattr__(self, "x", as_real(self.x, "argument x must be finite"))
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
    """phi_k = sqrt(x^2 + (k pi)^2)."""
    x = as_real(x, "phi requires finite x >= 0", ge=0.0)
    k = as_int(k, 0, "phi requires integer k >= 0")
    return math.hypot(x, k * math.pi)


def eps(k: int) -> float:
    """Half weight for the k = 0 term: 1/2 at k = 0, else 1."""
    k = as_int(k, 0, "eps requires integer k >= 0")
    return 0.5 if k == 0 else 1.0


def _c_of_b(b):
    # sqrt(1 - b^2), clipped against rounding at b = 1
    return math.sqrt(max(0.0, 1.0 - b * b))


def g_a(b: float, k: int) -> float:
    """sin(k pi c)/(k pi c) with c = sqrt(1 - b^2); 1 at b = 1 (sinc limit)."""
    b = as_real(b, "g_a requires 0 < b <= 1", gt=0.0, le=1.0)
    k = as_int(k, 1, "g_a requires integer k >= 1")
    c = _c_of_b(b)
    if c == 0.0:
        return 1.0
    arg = k * math.pi * c
    return math.sin(arg) / arg


def g_bc(b: float, k: int) -> float:
    """cos(k pi sqrt(1 - b^2))."""
    b = as_real(b, "g_bc requires 0 <= b <= 1", ge=0.0, le=1.0)
    k = as_int(k, 0, "g_bc requires integer k >= 0")
    return math.cos(k * math.pi * _c_of_b(b))


# ---------------------------------------------------------------------------
# vectorized term kernels
# ---------------------------------------------------------------------------

def _alt(ks):
    """(-1)^k over an array of integer-valued floats k."""
    return np.where(ks.astype(np.int64) % 2 == 0, 1.0, -1.0)


def _phase(x, ks):
    """(k pi, phi_k, delta_k, (-1)^k) for the exact decomposition

        phi_k = sqrt(x^2 + (k pi)^2) = k pi + delta_k,   delta_k = x^2/(phi_k + k pi),

    with delta_0 = 0 at x = 0.  Every series in the package takes its phase
    from here: sin(phi_k) = (-1)^k sin(delta_k) and cos(phi_k) =
    (-1)^k cos(delta_k) need no large-argument trig reduction, and delta_k
    is phi_k - k pi without its cancellation.
    """
    kpi = np.pi * ks
    ph = np.hypot(x, kpi)
    den = ph + kpi
    delta = np.where(den > 0.0, x * x / np.where(den > 0.0, den, 1.0), 0.0)
    return kpi, ph, delta, _alt(ks)


def _phi_parts(x, ks):
    """(k pi, phi_k, sin(phi_k), cos(phi_k)) through _phase; sin(phi_k),
    which is O(x^2 / k pi) near k pi, keeps full relative accuracy."""
    kpi, ph, delta, sgn = _phase(x, ks)
    return kpi, ph, sgn * np.sin(delta), sgn * np.cos(delta)


def _term_a_vec(n, x, ks):
    # (k pi) f_n^A(x, k pi) = 2 (k pi)^2 x^n j_{n+1}(phi) / phi^(n+1)
    kpi, ph, s, c = _phi_parts(x, ks)
    ratio = np.where(ph > 0.0, x / np.where(ph > 0.0, ph, 1.0), 1.0)
    return 2.0 * kpi * kpi * ratio**n * _spherical_jn_vec(n + 1, ph, s, c) / ph


def _term_c_vec(n, x, ks):
    # f_n^C(x, k pi) = 2 x^n j_n(phi) / phi^n, with (x/phi)^n -> 1 at k = 0
    _, ph, s, c = _phi_parts(x, ks)
    j = _spherical_jn_vec(n, ph, s, c)
    if n == 0:
        return 2.0 * j
    ratio = np.where(ph > 0.0, x / np.where(ph > 0.0, ph, 1.0), 1.0)
    return 2.0 * ratio**n * j


def _term_b_vec(n, x, ks):
    """f_n^B(x, k pi) through spherical Bessel products at the half-sum and
    half-difference arguments

        u- = x^2 / (2 (phi + k pi)),   u+ = (phi + k pi) / 2.

    u- is the cancellation-free form of (phi - k pi)/2.  Odd n = 2m+1:
    x j_m(u-) j_m(u+).  Even n = 2m: x^2 [ j_{m-1}(u-) j_{m-1}(u+)
    + j_m(u-) j_m(u+) ].
    """
    kpi, ph, delta, sgn = _phase(x, ks)
    um = delta / 2.0
    up = (ph + kpi) / 2.0
    # u+ = k pi + u-, so sin/cos of u+ follow from sin/cos of the tiny u-
    sm, cm = np.sin(um), np.cos(um)
    sp, cp = sgn * sm, sgn * cm
    if n % 2 == 1:
        m = (n - 1) // 2
        return x * _spherical_jn_vec(m, um, sm, cm) * _spherical_jn_vec(m, up, sp, cp)
    m = n // 2
    return x * x * (
        _spherical_jn_vec(m - 1, um, sm, cm) * _spherical_jn_vec(m - 1, up, sp, cp)
        + _spherical_jn_vec(m, um, sm, cm) * _spherical_jn_vec(m, up, sp, cp))


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
        arg = ks * (np.pi * c)
        return np.where(ks > 0, np.sin(arg) / np.where(arg > 0, arg, 1.0), 1.0)
    w = np.cos(ks * (np.pi * c))
    return np.where(ks == 0, 0.5 * w, w)


def _term(term_vec, n, x, k, n_min, k_min, op):
    n = as_int(n, n_min, f"{op} requires integer n >= {n_min}")
    x = as_real(x, f"{op} requires finite x >= 0", ge=0.0)
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

def _k_start(family):
    return 1 if family is SeriesFamily.A else 0


def _family_block(spec: SeriesSpec, xa: float):
    """The family's terms as block(i0, i1, smooth) -> (t, g) for 0-based
    term numbers [i0, i1), and the (phi, imag) that _sum reads: phi = pi c, g is
    the raw term without its (-1)^k, divided by k pi c for family A.  A
    modulation slower than phi = 1/16 is folded into g = (-1)^k t_k with
    phi = 0 instead, so that g does not grow like 1/c."""
    fam, n, b = spec.family, spec.n, spec.b
    lo, term_vec = _k_start(fam), _TERM_VEC[fam]
    phi = math.pi * _c_of_b(b)
    fold = phi < 1.0 / 16.0
    imag = fam is SeriesFamily.A and not fold

    def block(i0, i1, smooth):
        ks = np.arange(lo + i0, lo + i1, dtype=np.float64)
        raw = term_vec(n, xa, ks)
        t = _weights_vec(fam, b, ks) * raw
        if not smooth:
            return t, None
        g = (t if fold else raw) * _alt(ks)
        if imag:
            g /= ks * phi
        return t, g
    return block, (0.0 if fold else phi), imag


def _weighted_terms(spec: SeriesSpec, i0: int, i1: int):
    """Modulated terms (weight * raw) for term numbers [i0, i1), 1-based."""
    return _family_block(spec, abs(spec.x))[0](i0 - 1, i1 - 1, False)[0]


def _sum(block, opts: EvalOptions, x: float, lo: int, thr: float,
         phi: float = 0.0, imag: bool = False):
    """(value, terms_used, tail, converged) of the sum of the terms t_i,
    i >= 0, of block(i0, i1, smooth) -> (t, g); g is needed only if smooth.

    Adaptive mode writes t_i = Re(z^(lo+i)) g_i (Im when imag), z = -e^(i phi)
    and g smooth, sums t_i for i < K0 and adds the Euler-Abel tail

        sum_{i>=K0} z^(lo+i) g_i = z^(lo+K0)/(1-z) sum_p r^p Delta^p g_K0,  r = z/(1-z),

    cut after three consecutive terms, scaled by |z^(lo+K0)/(1-z)|, below
    thr; their sum is the tail estimate.  Otherwise K0 (first past 4x/pi,
    where g is smooth) doubles.  k_max caps every term evaluated, the
    _WINDOW differences included; past it, or at z = 1, the raw partial
    sum of k_max terms is returned as in fixed_k mode, with |t_k_max| as
    tail, and adaptive mode reports converged = False.
    """
    smooth = opts.mode == "adaptive" and phi < math.pi
    ts, gs = [], []

    def upto(count):
        have = sum(map(len, ts))
        while have < count:
            t, g = block(have, min(have + _BLOCK, count), smooth)
            ts.append(t)
            gs.append(g)
            have += len(t)
        return np.concatenate(ts)

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
                    return (math.fsum(t[:k0]) + (tail.imag if imag else tail.real),
                            k0 + _WINDOW, est, True)
                d = np.diff(d)
                rp *= r
            k0 *= 2
    t = upto(opts.k_max)
    tail = abs(float(block(opts.k_max, opts.k_max + 1, False)[0][0]))
    return math.fsum(t), opts.k_max, tail, opts.mode == "fixed_k" and tail <= opts.tol


def _recover_bessel(spec: SeriesSpec, value: float) -> float:
    fam, n, b = spec.family, spec.n, spec.b
    if fam is SeriesFamily.B:
        if b == 0.0:
            # left side exists only as the b -> 0 limit; the sum equals it
            return value
        return value * b if n % 2 == 1 else value * b * b / (2.0 * n)
    return value / b**n


def _amplification_scale(spec: SeriesSpec) -> float:
    # value-space truncation error maps to J-space scaled by 1/b^n for
    # families A and C; tighten the stop threshold accordingly
    if spec.family is SeriesFamily.B:
        return 1.0
    return spec.b**spec.n


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
        # the left side exists only as the b -> 0 limit, and at b = 0 the
        # modulation degenerates to (-1)^k, leaving a one-signed tail for
        # which the first-omitted-term diagnostics are meaningless; return
        # the exact limit instead of summing
        if n % 2 == 1:
            limit = xa / 2.0 if n == 1 else 0.0  # lim J_n(bx)/b
        else:
            limit = xa * xa / 2.0 if n == 2 else 0.0  # lim (4m/b^2) J_2m(bx)
        return EvalResult(sign * limit, sign * limit, 0, 0.0, True)

    block, phi, imag = _family_block(spec, xa)
    value, used, tail, converged = _sum(
        block, opts, xa, _k_start(fam), 0.1 * opts.tol * _amplification_scale(spec),
        phi, imag)
    bessel = _recover_bessel(spec, value)
    warn = fam is not SeriesFamily.B and n >= 1 and b**n < 1e-6
    return EvalResult(sign * value, sign * bessel, used, tail, converged, warn)


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
    x = as_real(x, "argument x must be finite")
    xs = math.sqrt(_FOUR_THIRDS * x * x)  # 2|x|/sqrt(3)

    def block(i0, i1, smooth):
        idx = np.arange(i0 + 1, i1 + 1, dtype=np.float64)
        opi, psi, spsi, cpsi = _phi_parts(xs, 2.0 * idx - 1.0)
        g = 4.0 * opi * (psi * cpsi - spsi) / psi**3
        return _alt(idx) * g, g

    value, used, tail, converged = _sum(block, opts, xs, 1, 0.1 * opts.tol)
    return EvalResult(value, value, used, tail, converged)


def bessel_j(n: int, x: float, family, b: float = 1.0,
             opts: EvalOptions | None = None) -> float:
    """J_n(x) evaluated through the chosen family at scale b.

    The engine runs at argument x/b so that b * (x/b) = x, and applies
    J_n(-x) = (-1)^n J_n(x) for negative arguments.
    """
    fam = _as_family(family)
    b = as_real(b, "bessel_j requires 0 < b <= 1", gt=0.0, le=1.0)
    x = as_real(x, "argument x must be finite")
    return eval_series(SeriesSpec(fam, n, b, x / b), opts).bessel_value


# ---------------------------------------------------------------------------
# large-k term behaviour
# ---------------------------------------------------------------------------

def asymptotic_term(family, n: int, x: float, k: int) -> float:
    """Closed asymptotic form of the unmodulated k-th term as k -> infinity.

    Family A, odd n: both the sin part (through delta ~ x^2/(2 k pi)) and
    the curvature correction (n+1)(n+2)/(2 phi) of j_{n+1} enter at the
    same order, giving coefficient 1 on
    (-1)^(k+m+1) (x/(k pi))^(2m+1) [x^2 + (2m+2)(2m+3)] / (k pi).
    """
    fam = _as_family(family)
    n = as_int(n, 0, "order n must be a nonnegative integer")
    k = as_int(k, 1, "asymptotic_term requires integer k >= 1")
    x = as_real(x, "asymptotic_term requires finite x >= 0", ge=0.0)
    y = k * math.pi
    if fam is SeriesFamily.A:
        if n % 2 == 0:
            m = n // 2
            return 2.0 * (-1.0) ** (k + m + 1) * (x / y) ** (2 * m)
        m = (n - 1) // 2
        return ((-1.0) ** (k + m + 1) / y * (x / y) ** (2 * m + 1)
                * (x * x + (2 * m + 2) * (2 * m + 3)))
    if fam is SeriesFamily.C:
        if n % 2 == 0:
            m = n // 2
            return ((-1.0) ** (k + m) / (y * y) * (x / y) ** (2 * m)
                    * (x * x + 2 * m * (2 * m + 1)))
        m = (n - 1) // 2
        return 2.0 * (-1.0) ** (k + m + 1) / y * (x / y) ** (2 * m + 1)
    if n == 0:
        raise DomainError("family B terms require n >= 1")
    if n % 4 == 1:
        m = (n - 1) // 4
        return ((-1.0) ** (k + m) * x ** (2 * m - 1) / 2.0 ** (2 * m + 1)
                * (x / y) ** (2 * m + 2)
                * math.factorial(2 * m + 1) / math.factorial(4 * m + 2)
                * (x * x + 4 * m * (2 * m + 1)))
    if n % 4 == 2:
        m = (n - 2) // 4
        return ((-1.0) ** (k + m) * x ** (2 * m) / 2.0 ** (2 * m)
                * (x / y) ** (2 * m + 2)
                * (2 * m + 1) * math.factorial(2 * m + 1)
                / ((4 * m + 3) * math.factorial(4 * m + 2))
                * (x * x + 2 * m * (4 * m + 3)))
    if n % 4 == 3:
        m = (n - 3) // 4
        return ((-1.0) ** (k + m + 1) * x ** (2 * m + 1) / 2.0 ** (2 * m)
                * (x / y) ** (2 * m + 2)
                * math.factorial(2 * m + 2) / math.factorial(4 * m + 4))
    m = (n - 4) // 4
    return ((-1.0) ** (k + m + 1) * x ** (2 * m + 2) / 2.0 ** (2 * m)
            * (x / y) ** (2 * m + 2)
            * math.factorial(2 * m + 2) / math.factorial(4 * m + 4))


def tail_bound(spec: SeriesSpec, K: int) -> float:
    """|t_{K+1}| as the truncation bound for the partial sum through
    index k = K (so the family-A sum holds K terms and the B/C sums K+1).

    Valid only when the next eight terms alternate strictly in sign with
    non-increasing magnitudes (then |S - S_K| <= |t_{K+1}|); otherwise
    BoundNotApplicableError reports what failed.  An all-zero window
    yields the exact bound 0.
    """
    K = as_int(K, 0, "K must be a nonnegative integer")
    pos = K + 1 if spec.family is SeriesFamily.A else K + 2  # index -> term number
    window = _weighted_terms(spec, pos, pos + 8)
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
