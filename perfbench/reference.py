"""Correctness checks against references outside the package.

- J_n values: ``mpmath.besselj`` at 40 digits, with the criterion-1
  allowance ``max(1e-7, 2 * tail_bound)``.
- Fixed-K partial sums: the same K terms rebuilt here from
  ``scipy.special.spherical_jn`` (or, for the J_0 variant, from elementary
  functions) and summed with ``math.fsum``.
- Trigonometric series: the analytic left-hand sides under the criterion-9
  envelopes.
- Integral identities and Fourier coefficients: their closed right-hand
  sides in mpmath.
- CLI runs: exit code, the ``suite ...: PASS`` lines, and the printed
  numbers, checked as above.

Nothing here calls ``besselseries``; the checks run outside the timed region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy.special import spherical_jn

from workloads import PROXY_B, PROXY_K, PROXY_X, Op, Raised

DPS = 40
ADAPTIVE_TOL = 1e-10  # GRID_OPTS and the CLI default
SUM_REL = 1e-9  # fixed-K sums: allowance per unit of summed term magnitude
VERIFY_THRESHOLD = 1e-8  # the CLI's identity/Fourier suite threshold


@dataclass
class Check:
    """Verdict on one operation's output."""

    failure: str | None = None
    adaptive: bool = False  # an adaptive J_n evaluation
    kmax_exhausted: bool = False  # adaptive, returned converged=False
    bound_miss: bool = False  # converged, error above both tol and tail_bound
    quadrature_error: bool = False

    def fail(self, why):
        if self.failure is None:
            self.failure = why


def _besselj_product(n, b, x) -> float:
    with mp.workdps(DPS):
        return float(mp.besselj(n, mp.mpf(b) * mp.mpf(x)))


def first_k(fam) -> int:
    return 1 if fam == "A" else 0


def series_terms(fam, n, b, x, ks):
    """Modulated terms of family A, B or C at indices ks, from scipy's
    spherical Bessel functions and the plain formulas of the paper."""
    ks = np.asarray(ks, dtype=np.float64)
    kpi = ks * math.pi
    ph = np.hypot(x, kpi)
    c = math.sqrt(max(0.0, 1.0 - b * b))
    ratio = np.divide(x, ph, out=np.ones_like(ph), where=ph > 0)
    if fam == "A":
        raw = 2.0 * kpi**2 * ratio**n * spherical_jn(n + 1, ph) / ph
        w = np.ones_like(ks) if c == 0.0 else np.sin(kpi * c) / (kpi * c)
        return w * raw
    w = np.cos(kpi * c) * np.where(ks == 0, 0.5, 1.0)
    if fam == "C":
        return w * 2.0 * ratio**n * spherical_jn(n, ph)
    s = ph + kpi
    um = np.divide(x * x, 2.0 * s, out=np.zeros_like(s), where=s > 0)  # (phi - k pi)/2
    up = s / 2.0
    if n % 2:
        m = (n - 1) // 2
        raw = x * spherical_jn(m, um) * spherical_jn(m, up)
    else:
        m = n // 2
        raw = x * x * (spherical_jn(m - 1, um) * spherical_jn(m - 1, up)
                       + spherical_jn(m, um) * spherical_jn(m, up))
    return w * raw


def j0_variant_terms(x, K):
    i = np.arange(1, K + 1, dtype=np.float64)
    opi = (2.0 * i - 1.0) * math.pi
    psi = np.hypot(2.0 * x / math.sqrt(3.0), opi)
    return 4.0 * (-1.0) ** i * opi * (psi * np.cos(psi) - np.sin(psi)) / psi**3


def _partial_sum_miss(value, terms):
    """Why ``value`` is not the partial sum of ``terms``, or None."""
    ref = math.fsum(terms)
    allowance = SUM_REL * math.fsum(np.abs(terms)) + 1e-13
    if abs(value - ref) > allowance:
        return f"partial sum {value!r} vs reference {ref!r} (allowance {allowance:.1e})"
    return None


def _fixed_sum_miss(fam, n, b, x, K, value):
    if fam == "j0var":
        return _partial_sum_miss(value, j0_variant_terms(x, K))
    if fam == "b1":
        fam, b = "A", 1.0
    ks = np.arange(first_k(fam), first_k(fam) + K)
    sign = -1.0 if (x < 0 and n % 2 == 1) else 1.0
    return _partial_sum_miss(value, sign * series_terms(fam, n, b, abs(x), ks))


def _adaptive(chk, n, b, x, bessel_value, tail, converged, tol=ADAPTIVE_TOL):
    """Criterion-1 check of an adaptive J_n(bx) and its honesty flags."""
    err = abs(bessel_value - _besselj_product(n, b, x))
    allowance = max(1e-7, 2.0 * tail)
    if err > allowance:
        chk.fail(f"J_{n}({b}*{x}) error {err:.3e} above allowance {allowance:.3e}")
    chk.adaptive = True
    chk.kmax_exhausted = not converged
    chk.bound_miss = converged and err > tol and err > tail


def trig_envelope(which, x, K) -> float:
    """Criterion-9 error envelopes of the three trigonometric series."""
    if which == "cos":
        return x**4 / (2.0 * math.pi**2 * K)
    if which == "sin1":
        return 2.0 * x * x / (math.pi**2 * K)
    return 2.0 * x * x * (1 + x * x / 8.0) / (math.pi * K) ** 2


def trig_lhs(which, x) -> float:
    """cos x - 1 + x^2/2 or 1 - sin x / x, in mpmath: in double precision
    both lose every digit to cancellation at small x."""
    if x == 0:
        return 0.0
    with mp.workdps(DPS):
        x = mp.mpf(x)
        return float(mp.cos(x) - 1 + x * x / 2 if which == "cos" else 1 - mp.sin(x) / x)


def _trig_miss(which, x, K, value):
    err = abs(value - trig_lhs(which, x))
    if err > trig_envelope(which, x, K):
        return f"{which}(x={x}, K={K}) error {err:.3e} outside the criterion-9 envelope"
    return None


def identity_rhs(fam, nu, b, y) -> float:
    """Closed right-hand side of the family's integral identity."""
    with mp.workdps(DPS):
        nu, b, y = mp.mpf(nu), mp.mpf(b), mp.mpf(y)
        B = mp.sqrt(b * b + y * y)
        if fam == "A":
            v = mp.sqrt(mp.pi / 2) * y * b**nu * B ** (-nu - 1.5) * mp.besselj(nu + 1.5, B)
        elif fam == "C":
            v = mp.sqrt(mp.pi / 2) * b**nu * B ** (-nu - 0.5) * mp.besselj(nu + 0.5, B)
        else:
            v = mp.pi / 2 * mp.besselj(nu / 2, (B - abs(y)) / 2) * mp.besselj(nu / 2, (B + abs(y)) / 2)
        return float(v)


def _series_limit(fam, n, b, x) -> float:
    j = _besselj_product(n, b, x)
    if fam == "B":
        return j / b if n % 2 else 2.0 * n / (b * b) * j
    return b**n * j


def _proxy_reference(fam, n):
    """sup over b of |partial sum - limit| for each K, with the allowance
    the reference sums carry."""
    sups, slack = [], []
    limits = [_series_limit(fam, n, b, PROXY_X) for b in PROXY_B]
    k0 = first_k(fam)
    for K in PROXY_K:
        worst, mass = 0.0, 0.0
        for b, lim in zip(PROXY_B, limits):
            t = series_terms(fam, n, b, PROXY_X, np.arange(k0, k0 + K))
            worst = max(worst, abs(math.fsum(t) - lim))
            mass = max(mass, math.fsum(np.abs(t)))
        sups.append(worst)
        slack.append(SUM_REL * mass + 1e-13)
    return sups, slack


def _tail_term_miss(fam, n, x, tol, K):
    """terms_to_tolerance's K must leave a next term (index K + 1) <= tol."""
    nxt = abs(float(series_terms(fam, n, 1.0, x, [K + 1])[0]))
    if nxt > tol * (1.0 + 1e-9):
        return f"{fam} n={n} x={x}: K={K} leaves next term {nxt:.3e} > tol {tol}"
    return None


# ---------------------------------------------------------------------------
# CLI output
# ---------------------------------------------------------------------------

def _arg(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _kv(text):
    out = {}
    for line in text.splitlines():
        key, sep, val = line.partition(" = ")
        if sep:
            out[key] = val
    return out


def _check_cli(argv, output, chk):
    code, out, _ = output
    sub = argv[0]
    expected = 0
    if sub == "eval" and _arg(argv, "--family") == "A" and _arg(argv, "--n") == "0" \
            and float(_arg(argv, "--b")) == 1.0:
        expected = 2
    if code != expected:
        chk.fail(f"exit code {code}, expected {expected}")
        return
    if expected != 0:
        return
    if sub == "verify":
        for suite in ("identity", "fourier", "decay"):
            if f"suite {suite}: PASS" not in out:
                chk.fail(f"suite {suite} did not print PASS")
    elif sub == "eval":
        kv = _kv(out)
        fam, n, x = _arg(argv, "--family"), int(_arg(argv, "--n")), float(_arg(argv, "--x"))
        b = float(_arg(argv, "--b", "1.0"))
        K = _arg(argv, "--K")
        if K is not None:
            miss = _fixed_sum_miss(fam, n, b, x, int(K), float(kv["value"]))
            if miss:
                chk.fail(miss)
        else:
            if fam == "b1":
                b = 1.0
            _adaptive(chk, n, b, x, float(kv["bessel_value"]), float(kv["tail_bound"]),
                      kv["converged"] == "true")
    elif sub == "trig":
        kv = _kv(out)
        miss = _trig_miss(kv["which"], float(kv["x"]), int(kv["K"]), float(kv["value"]))
        if miss:
            chk.fail(miss)
    elif sub == "table":
        rows = out.splitlines()[1:]
        want = 3 * len(_arg(argv, "--n-list").split(",")) \
            * len(_arg(argv, "--b-list").split(",")) * len(_arg(argv, "--x-list").split(","))
        if len(rows) != want:
            chk.fail(f"table printed {len(rows)} rows, expected {want}")
        for row in rows:
            f = row.split(",")
            miss = _fixed_sum_miss(f[0], int(f[1]), float(f[2]), float(f[3]), int(f[4]),
                                   float(f[5]))
            if miss:
                chk.fail(miss)
    elif sub == "bench":
        rows = out.splitlines()[1:]
        for row in rows:
            fam, n, b, x, tol, K = row.split(",")
            if K == "NA":
                chk.fail(f"bench row without a term count: {row}")
                continue
            miss = _tail_term_miss(fam, int(n), float(x), float(tol), int(K))
            if miss:
                chk.fail(miss)
    else:
        chk.fail(f"no check for subcommand {sub!r}")


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def check(op: Op, output) -> Check:
    """Verdict on ``output``, the result ``execute(op, ...)`` returned."""
    chk = Check()
    if isinstance(output, Raised):
        chk.fail(f"raised {output.text}")
        return chk
    kind, p = op.kind, op.params
    if kind == "grid":
        fam, n, b, x = p
        res, ps = output
        _adaptive(chk, n, b, x, res.bessel_value, res.tail_bound, res.converged)
        ref = _besselj_product(n, b, x)
        if abs(ps - ref) > 1e-12:
            chk.fail(f"bessel_j_power_series({n}, {b * x}) off by {abs(ps - ref):.3e}")
    elif kind in ("eval_series", "eval_at_b1", "eval_j0_variant"):
        if kind == "eval_series":
            fam, n, b, x, K = p
        elif kind == "eval_at_b1":
            (n, x, K), fam, b = p, "b1", 1.0
        else:
            (x, K), fam, n, b = p, "j0var", 0, 1.0
        if output.terms_used != K:
            chk.fail(f"summed {output.terms_used} terms, asked for {K}")
        miss = _fixed_sum_miss(fam, n, b, x, K, output.value)
        if miss:
            chk.fail(miss)
    elif kind == "trig":
        which, x, K = p
        miss = _trig_miss(which, x, K, output)
        if miss:
            chk.fail(miss)
    elif kind == "cli":
        _check_cli(op.params, output, chk)
    elif kind == "uniform_convergence_proxy":
        sups, slack = _proxy_reference(*p)
        for K, got, want, tol in zip(PROXY_K, output, sups, slack):
            if not abs(got - want) <= tol:
                chk.fail(f"proxy {p} at K={K}: {got!r} vs reference {want!r}")
        if len(output) != len(PROXY_K):
            chk.fail(f"proxy returned {len(output)} values for {len(PROXY_K)} K")
    elif kind in ("check_integral_identity", "check_fourier_coefficient"):
        fam, nu, b, _ = p
        rhs = identity_rhs(fam, nu, b, output.y)
        if kind == "check_fourier_coefficient":
            rhs *= 2.0
        if not (abs(output.lhs - rhs) < VERIFY_THRESHOLD and output.residual < VERIFY_THRESHOLD):
            chk.quadrature_error = True
            chk.fail(f"{kind}{p}: lhs {output.lhs!r} vs closed form {rhs!r}, "
                     f"residual {output.residual:.3e}")
    elif kind == "terms_to_tolerance":
        fam, n, x, tol = p
        miss = _tail_term_miss(fam, n, x, tol, output)
        if miss:
            chk.fail(miss)
    else:
        chk.fail(f"no check for operation kind {kind!r}")
    return chk
