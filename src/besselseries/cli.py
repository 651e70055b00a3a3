"""Command-line front end: single evaluations, grid tables, verification
suites, terms-to-tolerance benchmarks, and the trigonometric series.

Exit codes: 0 success, 1 no-convergence (including quadrature stalls),
2 domain error, 64 usage error.  Numbers are printed with repr, the
shortest decimal that round-trips, so output is byte-stable across runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import mpmath as mp

from .engine import (EvalOptions, SeriesFamily, SeriesSpec, eval_at_b1,
                     eval_j0_variant, eval_series)
from .errors import (BoundNotApplicableError, DomainError, NoConvergenceError,
                     QuadratureError)
from .trig import cos_series, sin_series_1, sin_series_2
from . import verify as _verify

EX_OK = 0
EX_NOCONV = 1
EX_DOMAIN = 2
EX_USAGE = 64

_SQ32 = math.sqrt(3.0) / 2.0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _float_list(text):
    return [float(tok) for tok in text.split(",") if tok != ""]


def _int_list(text):
    return [int(tok) for tok in text.split(",") if tok != ""]


def _family_list(text):
    fams = text.split(",")
    if not set(fams) <= {"A", "B", "C"}:
        raise argparse.ArgumentTypeError(f"families must be among A, B, C, got {text!r}")
    return fams


def _opts_from(args):
    K = getattr(args, "K", None)
    mode = "adaptive" if K is None else "fixed_k"
    k_max = args.max_terms if K is None else K
    return EvalOptions(mode=mode, k_max=k_max, tol=args.tol)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    opts = _opts_from(args)
    if args.family == "b1":
        res = eval_at_b1(args.n, args.x, opts)
        b = 1.0
    elif args.family == "j0var":
        if args.n != 0:
            raise DomainError("the j0var series is an order-0 representation")
        res = eval_j0_variant(args.x, opts)
        b = _SQ32
    else:
        res = eval_series(SeriesSpec(SeriesFamily(args.family), args.n, args.b, args.x), opts)
        b = args.b

    fields = [
        ("family", args.family), ("n", args.n), ("b", b), ("x", args.x),
        ("value", res.value), ("bessel_value", res.bessel_value),
        ("terms_used", res.terms_used), ("tail_bound", res.tail_bound),
        ("converged", res.converged),
    ]
    if res.condition_warning:
        print("warning: recovering J_n divides by b^n < 1e-6; "
              "expect amplified error", file=sys.stderr)
    if args.check:
        target = args.x if args.family in ("b1", "j0var") else b * args.x
        oracle = _verify._reference_j(0 if args.family == "j0var" else args.n, target)
        # family B at b = 0 recovers the b -> 0 limit, not J_n(0)
        err = None if (args.family == "B" and b == 0.0) else abs(res.bessel_value - oracle)
        fields += [("oracle", oracle), ("abs_error", err)]

    if args.format == "json":
        print(json.dumps({k: v for k, v in fields}, default=_fmt))
    elif args.format == "csv":
        print(",".join(k for k, _ in fields))
        print(",".join(_fmt(v) for _, v in fields))
    else:
        for k, v in fields:
            print(f"{k} = {_fmt(v)}")
    if opts.mode == "adaptive" and not res.converged:
        # a fixed-K request is fulfilled by construction; only the
        # adaptive stop rule can fail to fire
        print("did not converge within the term budget", file=sys.stderr)
        return EX_NOCONV
    return EX_OK


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

_TABLE_COLUMNS = ("family,n,b,x,K,value,bessel_value,oracle,abs_error,"
                  "tail_bound,terms_used,converged")


def cmd_table(args) -> int:
    opts = _opts_from(args)
    grid = []
    for fam in args.families:
        for n in args.n_list:
            for b in args.b_list:
                for x in args.x_list:
                    try:
                        grid.append(SeriesSpec(SeriesFamily(fam), n, b, x))
                    except DomainError as exc:
                        print(f"skipping {fam} n={n} b={b} x={x}: {exc}",
                              file=sys.stderr)
    records = _verify.sweep(grid, opts)
    print(_TABLE_COLUMNS)
    for r in records:
        row = [r.family.value, r.n, r.b, r.x, r.K, r.value, r.bessel_value,
               r.oracle, r.abs_error, r.tail_bound, r.terms_used, r.converged]
        print(",".join(_fmt(v) for v in row))
        if r.error:
            print(f"note: {r.family.value} n={r.n} b={r.b} x={r.x}: {r.error}",
                  file=sys.stderr)
    return EX_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_identity():
    rows = []
    for fam in ("A", "B", "C"):
        for nu in (0.0, 0.5, 1.0, 2.5):
            for b in (0.5, 1.0, 2.0):
                for y in (0.0, 1.0, math.pi, 5.0):
                    r = _verify.check_integral_identity(fam, nu, b, y)
                    rows.append((r.residual, f"identity {fam} nu={nu} b={b} y={_fmt(y)}"))
    return rows


def _verify_fourier():
    rows = []
    for fam in ("A", "B", "C"):
        for nu in (0.0, 1.0, 2.5):
            for b in (0.3, 0.7, 1.0):
                for k in range(0, 9):
                    r = _verify.check_fourier_coefficient(fam, nu, b, k)
                    rows.append((r.residual, f"fourier {fam} nu={nu} b={b} k={k}"))
    return rows


def _verify_decay():
    rows = []
    k = 10**4
    for fam in ("A", "B", "C"):
        for n in range(0, 6):
            if fam == "B" and n == 0:
                continue
            for x in (1.0, 5.0):
                for kk, ratio in _verify.decay_ratio_study(fam, n, x, [k]):
                    rows.append((abs(ratio - 1.0), f"decay {fam} n={n} x={x} k={kk}"))
    return rows


def cmd_verify(args) -> int:
    suites = {
        "identity": (_verify_identity, 1e-8),
        "fourier": (_verify_fourier, 1e-8),
        "decay": (_verify_decay, 1e-2),
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    failures = 0
    for name in names:
        fn, threshold = suites[name]
        rows = fn()
        worst = sorted(rows, reverse=True)[:5]
        bad = [r for r in rows if r[0] >= threshold]
        failures += len(bad)
        status = "PASS" if not bad else "FAIL"
        print(f"suite {name}: {status} ({len(rows)} checks, threshold {threshold})")
        for value, label in worst:
            print(f"  worst: {label}: {_fmt(value)}")
    return EX_OK if failures == 0 else EX_NOCONV


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def cmd_bench(args) -> int:
    print("family,n,b,x,tol,terms_to_tolerance")
    for fam in args.families:
        for n in args.n_list:
            for x in args.x_list:
                for tol in args.tol_list:
                    try:
                        spec = SeriesSpec(SeriesFamily(fam), n, args.b, x)
                        k = _verify.terms_to_tolerance(spec, tol)
                        out = str(k)
                    except (DomainError, BoundNotApplicableError, NoConvergenceError) as exc:
                        out = "NA"
                        print(f"note: {fam} n={n} x={x} tol={tol}: {exc}", file=sys.stderr)
                    print(",".join([fam, str(n), _fmt(args.b), _fmt(x), _fmt(tol), out]))
    return EX_OK


# ---------------------------------------------------------------------------
# trig
# ---------------------------------------------------------------------------

def _trig_lhs(which, x):
    """cos x - 1 + x^2/2 (cos) or 1 - sin x / x (sin1, sin2).  In double
    precision these cancel about 4 and 2 times log10(1/|x|) digits, so
    they are formed in mpmath with that many digits to spare."""
    if x == 0:
        return 0.0
    with mp.workdps(20 + 4 * max(0, -math.floor(math.log10(abs(x))))):
        x = mp.mpf(x)
        return float(mp.cos(x) - 1 + x * x / 2 if which == "cos" else 1 - mp.sin(x) / x)


def cmd_trig(args) -> int:
    series = {"cos": cos_series, "sin1": sin_series_1, "sin2": sin_series_2}[args.which]
    value = series(args.x, args.K)
    lhs = _trig_lhs(args.which, args.x)
    for key, v in (("which", args.which), ("x", args.x), ("K", args.K),
                   ("value", value), ("analytic", lhs),
                   ("abs_error", abs(value - lhs))):
        print(f"{key} = {_fmt(v)}")
    return EX_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser():
    p = _Parser(prog="bessel-series",
                description="Elementary series representations of integer-order "
                            "Bessel functions: evaluation, verification, benchmarks.")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate one series")
    pe.add_argument("--family", required=True, choices=["A", "B", "C", "b1", "j0var"],
                    help="series family; b1 is family A at the b=1 limit, "
                         "j0var the rescaled order-0 variant")
    pe.add_argument("--n", type=int, default=0, help="Bessel order (default 0)")
    pe.add_argument("--b", type=float, default=1.0, help="scale in [0,1] (default 1)")
    pe.add_argument("--x", type=float, required=True, help="argument")
    pe.add_argument("--tol", type=float, default=1e-10)
    pe.add_argument("--max-terms", type=int, default=10**6, dest="max_terms")
    pe.add_argument("--K", type=int, default=None, help="sum exactly K terms")
    pe.add_argument("--check", action="store_true",
                    help="compare against mpmath.besselj")
    pe.add_argument("--format", choices=["json", "csv", "plain"], default="plain")
    pe.set_defaults(func=cmd_eval)

    pt = sub.add_parser("table", help="CSV sweep over a grid")
    pt.add_argument("--families", type=_family_list, default=["A", "B", "C"])
    pt.add_argument("--n-list", type=_int_list, default=[0, 1, 2], dest="n_list")
    pt.add_argument("--b-list", type=_float_list, default=[0.5, 1.0], dest="b_list")
    pt.add_argument("--x-list", type=_float_list, default=[1.0, 5.0], dest="x_list")
    pt.add_argument("--tol", type=float, default=1e-10)
    pt.add_argument("--max-terms", type=int, default=10**6, dest="max_terms")
    pt.add_argument("--K", type=int, default=None)
    pt.set_defaults(func=cmd_table)

    pv = sub.add_parser("verify", help="run residual suites")
    pv.add_argument("--suite", choices=["identity", "fourier", "decay", "all"],
                    default="all")
    pv.set_defaults(func=cmd_verify)

    pb = sub.add_parser("bench", help="terms needed to reach a tolerance")
    pb.add_argument("--families", type=_family_list, default=["A", "B", "C"])
    pb.add_argument("--n-list", type=_int_list, default=[1, 2], dest="n_list")
    pb.add_argument("--x-list", type=_float_list, default=[1.0, 5.0], dest="x_list")
    pb.add_argument("--tol-list", type=_float_list, default=[1e-6, 1e-8], dest="tol_list")
    pb.add_argument("--b", type=float, default=1.0)
    pb.set_defaults(func=cmd_bench)

    pg = sub.add_parser("trig", help="evaluate the derived sine/cosine series")
    pg.add_argument("--which", choices=["cos", "sin1", "sin2"], required=True)
    pg.add_argument("--x", type=float, required=True)
    pg.add_argument("--K", type=int, default=10**4)
    pg.set_defaults(func=cmd_trig)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EX_DOMAIN
    except (NoConvergenceError, QuadratureError, BoundNotApplicableError) as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return EX_NOCONV


if __name__ == "__main__":
    sys.exit(main())
