"""Set-up cost as a user pays it: a fresh interpreter imports besselseries
from the checkout's ``src`` and makes one evaluation of the kind the named
workload starts with.  ``run.py`` times this script from the outside.

    python3 perfbench/setup_probe.py grid|calls|cli_session
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import besselseries as bs  # noqa: E402


def main(workload):
    if workload == "grid":
        res = bs.eval_series(bs.SeriesSpec("A", 1, 0.25, 2.0), bs.EvalOptions(tol=1e-10))
        ref = bs.bessel_j_power_series(1, 0.5, bs.OracleConfig(tol=1e-14))
        return abs(res.bessel_value - ref) < 1e-7
    if workload == "calls":
        res = bs.eval_series(bs.SeriesSpec("C", 2, 0.5, 3.0),
                             bs.EvalOptions(mode="fixed_k", k_max=32))
        return res.terms_used == 32 and bs.sin_series_2(3.0, 64) > 0.0
    if workload == "cli_session":
        import contextlib
        import io
        from besselseries import cli
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["eval", "--family", "C", "--n", "1", "--b", "0.5",
                             "--x", "1.5", "--check"]) == 0
    raise SystemExit(f"unknown workload {workload!r}")


if __name__ == "__main__":
    sys.exit(0 if main(sys.argv[1]) else 1)
