"""Benchmark of besselseries: one workload per run, one process, one
thread, a closed loop with one caller.

    python3 perfbench/run.py --workload grid --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  ``--trace 0`` prints every end-to-end metric;
``--trace 1`` repeats the workload with spans recorded and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Results, spans and the digest ledger go to ``.perfbench_out/``.  See
``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 5
WARMUP_OPS = 8
# No p98: a grid run fits one or two passes (448 or 896 samples) depending
# on machine speed, and both then report p97.5.
TAIL_LADDER = (99.0, 97.5, 95.0, 90.0, 75.0, 50.0)
VERIFY_FUNCS = ("check_integral_identity", "check_fourier_coefficient",
                "terms_to_tolerance", "uniform_convergence_proxy")
CLI_SUBCOMMANDS = ("eval", "table", "bench", "verify", "trig")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("grid", "calls", "cli_session"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_package():
    """Import besselseries from this checkout's src, and nowhere else."""
    if not (SRC / "besselseries" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'besselseries'}; "
                 "run from the root of a besselseries checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import besselseries
    if Path(besselseries.__file__).resolve().parent != (SRC / "besselseries").resolve():
        sys.exit(f"perfbench: imported besselseries from {besselseries.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

def measure_setup(workload):
    """Median wall time of a fresh interpreter that imports the package and
    makes the workload's first kind of evaluation; one unmeasured probe
    first, so every measured one finds the bytecode cache written."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload]
    times = []
    for i in range(SETUP_PROBES + 1):
        t0 = perf_counter_ns()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        elapsed = (perf_counter_ns() - t0) / 1e9
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        if i:
            times.append(elapsed)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# timed passes
# ---------------------------------------------------------------------------

class Pass:
    """One timed pass: its wall time, per-operation latencies, outputs (kept
    for the first pass only), output digest, and the operations whose output
    differs from the first pass."""

    def __init__(self, wall_ns, latencies, outputs, traced):
        self.wall_ns = wall_ns
        self.latencies = latencies
        self.outputs = outputs
        self.traced = traced
        self.digest = None
        self.changed = set()


def run_pass(ops, call, tracer=None, op_base=0):
    from workloads import Raised, execute
    lat = [0] * len(ops)
    outs = [None] * len(ops)
    gc.collect()
    start = perf_counter_ns()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(op_base + i)
        t0 = perf_counter_ns()
        try:
            out = execute(op, call)
        except Exception as exc:  # an unexpected raise is a failed operation
            out = Raised(exc)
        t1 = perf_counter_ns()
        if tracer is not None:
            tracer.end_op(op.kind, t0, t1)
        lat[i] = t1 - t0
        outs[i] = out
    return Pass(perf_counter_ns() - start, lat, outs, tracer is not None)


def run_timed(ops, seconds, trace):
    """Untraced passes, then (with trace) traced ones, each phase going on
    while another pass as long as the last still fits its time budget.

    Between passes, outside the timed region, each pass's outputs are
    reduced to a digest and compared op by op with the first pass."""
    import tracing
    tracer = tracing.Tracer() if trace else None
    phases = [(seconds / 2, None), (seconds, tracer)] if trace else [(seconds, None)]
    passes, first = [], None
    t_begin = perf_counter_ns()
    for budget_s, tr in phases:
        end = t_begin + int(budget_s * 1e9)
        call = tracing.direct if tr is None else tr.call
        while True:
            p = run_pass(ops, call, tr, op_base=len(passes) * len(ops))
            if not passes:
                # after one pass, before any bookkeeping: later passes only
                # add fragmentation from the digest work between passes
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            reprs = [repr(o) for o in p.outputs]
            p.digest = hashlib.sha256("\n".join(reprs).encode()).hexdigest()
            if first is None:
                first = (reprs, p.outputs)
            else:
                p.changed = {i for i, (a, b) in enumerate(zip(reprs, first[0])) if a != b}
            p.outputs = None
            passes.append(p)
            if perf_counter_ns() + p.wall_ns > end:
                break
    return passes, first[1], tracer, peak_rss_mb


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

def pass_wall(passes):
    """Wall time of one pass in ns, as the sum over operations of each
    operation's median latency across the passes.  It equals the pass time
    when passes agree; when the machine runs fast or slow for a few seconds
    of one pass, each operation still takes its typical time."""
    per_op = zip(*(p.latencies for p in passes))
    return sum(statistics.median(lats) for lats in per_op)


def tail_percentile(samples):
    """Highest percentile of the ladder with at least 10 samples beyond it."""
    n = len(samples)
    for q in TAIL_LADDER:
        if n * (1.0 - q / 100.0) >= 10:
            return q
    return 50.0


def percentile(sorted_vals, q):
    # linear interpolation between closest ranks
    pos = (len(sorted_vals) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def environment(args):
    import mpmath
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "machine": {"nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform()},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "scipy": scipy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def code_fingerprint(env):
    h = hashlib.sha256()
    for path in sorted((SRC / "besselseries").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    h.update(json.dumps([env["python"], env["numpy"], env["mpmath"], env["scipy"]]).encode())
    return h.hexdigest()[:16]


def ledger_check(key, record):
    """Compare digest and exact counts with an earlier run of the same code
    and seed; returns a list of mismatches (empty on the first run)."""
    OUT.mkdir(exist_ok=True)
    path = OUT / "ledger.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    earlier = ledger.get(key)
    if earlier is None:
        ledger[key] = record
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        tmp.replace(path)
        return []
    return [f"{k}: {earlier.get(k)!r} earlier, {v!r} now"
            for k, v in record.items() if earlier.get(k) != v]


def exact_counts(ops, outputs, verdicts):
    """Counts that must repeat exactly for the same code and seed."""
    from workloads import Raised
    engine_terms = trig_terms = nonzero = 0
    for op, out in zip(ops, outputs):
        if isinstance(out, Raised):
            continue  # already a failure
        if op.kind == "grid":
            engine_terms += out[0].terms_used
        elif op.kind in ("eval_series", "eval_at_b1", "eval_j0_variant"):
            engine_terms += out.terms_used
        elif op.kind == "trig":
            trig_terms += op.params[2]
        elif op.kind == "cli":
            nonzero += out[0] != 0
    adaptive = sum(v.adaptive for v in verdicts)
    kmax = sum(v.kmax_exhausted for v in verdicts)
    misses = sum(v.bound_miss for v in verdicts)
    return {
        "engine.terms": engine_terms,
        "engine.kmax_exhausted": kmax,
        "engine.bound_misses": misses,
        "engine.adaptive_evals": adaptive,
        "trig.terms": trig_terms,
        "verify.quadrature_errors": sum(v.quadrature_error for v in verdicts),
        "cli.nonzero_exit": nonzero,
        "untrusted": kmax + misses,
    }


def untrusted_frac(counts):
    adaptive = counts["engine.adaptive_evals"]
    return counts["untrusted"] / adaptive if adaptive else 0.0


def layer_metrics(spans, traced, untraced, counts):
    """Per-layer metrics per pass, from the spans of the traced passes."""
    import tracing
    by_name = tracing.busy_by_name(spans)
    npass = len(traced)

    def layer(prefix):
        calls = sum(c for name, (c, _) in by_name.items() if name.startswith(prefix))
        busy = sum(b for name, (_, b) in by_name.items() if name.startswith(prefix))
        return calls / npass, busy / npass  # busy in ns per pass

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    calls, busy = layer("engine.")
    terms = counts["engine.terms"]
    m["engine.calls"] = (calls, "count")
    m["engine.busy_s"] = (busy / 1e9, "s")
    m["engine.terms"] = (terms, "count")
    m["engine.ns_per_term"] = (ratio(busy, terms), "ns")
    m["engine.us_per_call"] = (ratio(busy, calls) / 1e3, "us")
    m["engine.kmax_exhausted"] = (counts["engine.kmax_exhausted"], "count")
    m["engine.bound_misses"] = (counts["engine.bound_misses"], "count")
    m["engine.adaptive_evals"] = (counts["engine.adaptive_evals"], "count")
    m["engine.untrusted_frac"] = (untrusted_frac(counts), "ratio")
    calls, busy = layer("special.")
    m["special.calls"] = (calls, "count")
    m["special.busy_s"] = (busy / 1e9, "s")
    m["special.ms_per_call"] = (ratio(busy, calls) / 1e6, "ms")
    calls, busy = layer("trig.")
    m["trig.calls"] = (calls, "count")
    m["trig.busy_s"] = (busy / 1e9, "s")
    m["trig.terms"] = (counts["trig.terms"], "count")
    m["trig.ns_per_term"] = (ratio(busy, counts["trig.terms"]), "ns")
    for fn in VERIFY_FUNCS:
        calls, busy = layer(f"verify.{fn}")
        m[f"verify.{fn}.calls"] = (calls, "count")
        m[f"verify.{fn}.busy_s"] = (busy / 1e9, "s")
    calls, busy = layer("verify.")
    m["verify.ms_per_check"] = (ratio(busy, calls) / 1e6, "ms")
    m["verify.quadrature_errors"] = (counts["verify.quadrature_errors"], "count")
    for sub in CLI_SUBCOMMANDS:
        calls, busy = layer(f"cli.{sub}")
        m[f"cli.{sub}.calls"] = (calls, "count")
        m[f"cli.{sub}.busy_s"] = (busy / 1e9, "s")
        m[f"cli.{sub}.ms_per_call"] = (ratio(busy, calls) / 1e6, "ms")
    m["cli.nonzero_exit"] = (counts["cli.nonzero_exit"], "count")
    m["trace.overhead_s"] = ((pass_wall(traced) - pass_wall(untraced)) / 1e9, "s")
    m["trace.spans"] = (len(spans) / npass, "count")
    return m


def safe_check(op, output):
    import reference
    try:
        return reference.check(op, output)
    except Exception as exc:  # output the check could not read is a failure
        chk = reference.Check()
        chk.fail(f"check raised {type(exc).__name__}: {exc}")
        return chk


def main(argv=None):
    args = _parse_args(argv)
    _import_package()
    import tracing
    import workloads

    setup_s = measure_setup(args.workload)
    ops = workloads.build(args.workload, args.seed)
    for op in ops[:WARMUP_OPS]:
        workloads.execute(op, tracing.direct)
    passes, outputs, tracer, peak_rss_mb = run_timed(ops, args.seconds, args.trace)

    # everything below is outside the timed region
    verdicts = [safe_check(op, out) for op, out in zip(ops, outputs)]
    bad = {i for i, v in enumerate(verdicts) if v.failure}
    attempted = len(ops) * len(passes)
    failed = sum(len(bad | p.changed) for p in passes)
    counts = exact_counts(ops, outputs, verdicts)
    env = environment(args)
    digest = passes[0].digest
    key = f"{args.workload}/seed={args.seed}/code={code_fingerprint(env)}"
    drift = ledger_check(key, {"digest": digest, "ops_per_pass": len(ops),
                               **{k: v for k, v in counts.items() if k != "untrusted"}})

    untraced = [p for p in passes if not p.traced]
    wall_s = pass_wall(untraced) / 1e9
    lat = sorted(x for p in untraced for x in p.latencies)
    q = tail_percentile(lat)
    e2e = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "calls_per_s": (len(ops) / wall_s, "1/s"),
        "latency_p50_ms": (percentile(lat, 50.0) / 1e6, "ms"),
        "latency_tail_ms": (percentile(lat, q) / 1e6, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    layers = None
    if args.trace:
        layers = layer_metrics(tracer.spans, [p for p in passes if p.traced], untraced, counts)

    correct = failed == 0 and not drift
    info = {
        "environment": env,
        "digest": digest,
        "ledger_key": key,
        "passes": {"untraced": len(untraced), "traced": len(passes) - len(untraced),
                   "ops_per_pass": len(ops), "walls_s": [p.wall_ns / 1e9 for p in passes]},
        "latency_tail": {"percentile": q, "samples": len(lat),
                         "beyond": round(len(lat) * (1 - q / 100.0), 1)},
        "fail_frac": failed / attempted,
        "untrusted_frac": untrusted_frac(counts),
        "exact_counts": counts,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "per_layer": None if layers is None else
        {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "failures": [f"{ops[i].kind}{ops[i].params}: {verdicts[i].failure}"
                     for i in sorted(bad)][:50],
        "digest_drift": drift,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(info, indent=1))
    if args.trace:
        tracing.write_jsonl(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", tracer.spans)

    print(f"# {args.workload} seed={args.seed}: {len(passes)} passes "
          f"({info['passes']['traced']} traced) of {len(ops)} ops; "
          f"python {env['python']}, numpy {env['numpy']}, mpmath {env['mpmath']}, "
          f"nproc {env['machine']['nproc']}, {env['machine']['cpu']}")
    for name, (value, unit) in e2e.items():
        print(f"{name} = {value!r} {unit}")
    print(f"# latency_tail_ms is p{q:g} over {len(lat)} samples "
          f"({info['latency_tail']['beyond']} beyond it)")
    print(f"# fail_frac = {failed}/{attempted}; untrusted_frac = "
          f"{counts['untrusted']}/{counts['engine.adaptive_evals']}")
    print("# exact counts: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    print(f"# digest {digest} ({key})")
    if layers is not None:
        for name, (value, unit) in layers.items():
            print(f"{name} = {value!r} {unit}")
    for line in info["failures"][:10]:
        print(f"FAILED {line}", file=sys.stderr)
    for line in drift:
        print(f"DIGEST DRIFT {line}", file=sys.stderr)

    shown = layers if args.trace else e2e
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
