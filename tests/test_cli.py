"""Command-line interface tests: flags, formats, exit codes, byte
stability."""

import json

import mpmath
import pytest

from besselseries.cli import EX_DOMAIN, EX_NOCONV, EX_OK, EX_USAGE, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_trivial_value(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--family", "C", "--n", "0",
                               "--b", "1", "--x", "0")
        assert code == EX_OK
        assert "value = 1.0" in out

    def test_divergent_family_a_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--family", "A", "--n", "0",
                               "--b", "1", "--x", "1")
        assert code == EX_DOMAIN
        assert "diverges" in err

    def test_j0var_rejects_nonzero_order(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--family", "j0var", "--n", "1", "--x", "1")
        assert code == EX_DOMAIN
        assert out == ""
        assert "the j0var series is an order-0 representation" in err

    def test_small_b_power_warns(self, capsys):
        # C at n = 8, b = 0.1 recovers J_8 by dividing by b^8 = 1e-8
        code, out, err = run_cli(capsys, "eval", "--family", "C", "--n", "8", "--b", "0.1",
                                 "--x", "1", "--K", "10")
        assert code == EX_OK
        assert "value = " in out
        assert "warning: recovering J_n divides by b^n < 1e-6" in err

    def test_check_against_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--family", "C", "--n", "1",
                               "--b", "1", "--x", "2", "--check", "--format", "json")
        assert code == EX_OK
        payload = json.loads(out)
        assert payload["bessel_value"] == pytest.approx(0.5767248077568734, abs=1e-7)
        assert payload["abs_error"] < 1e-7

    def test_check_beyond_power_series_range(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--family", "C", "--n", "0",
                               "--b", "1", "--x", "60", "--K", "100", "--check",
                               "--format", "json")
        assert code == EX_OK
        with mpmath.workdps(40):
            assert json.loads(out)["oracle"] == float(mpmath.besselj(0, 60))

    def test_check_reference_failure_exits_1(self, capsys):
        # mpmath.besselj gives up on J_50000(50000), even at maxprec 100000
        code, out, err = run_cli(capsys, "eval", "--family", "C", "--n", "50000",
                                 "--b", "1", "--x", "50000", "--K", "10", "--check")
        assert code == EX_NOCONV
        assert out == ""
        assert "did not converge" in err and "oracle" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_check_family_b_at_b0_has_no_error(self, capsys, fmt):
        # the recovered value is the b -> 0 limit x/2, not J_1(0)
        code, out, _ = run_cli(capsys, "eval", "--family", "B", "--n", "1",
                               "--b", "0", "--x", "2", "--check", "--format", fmt)
        assert code == EX_OK
        if fmt == "json":
            payload = json.loads(out)
            assert payload["bessel_value"] == 1.0 and payload["abs_error"] is None
        elif fmt == "csv":
            header, row = out.strip("\n").splitlines()
            assert header.endswith(",oracle,abs_error")
            assert row.endswith(",0.0,")
        else:
            assert out.splitlines()[-1] == "abs_error = "

    def test_no_convergence_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--family", "C", "--n", "0",
                                 "--b", "1", "--x", "5", "--max-terms", "40",
                                 "--tol", "1e-12")
        assert code == EX_NOCONV
        assert "converged = false" in out
        assert "did not converge" in err

    def test_fixed_k(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--family", "b1", "--n", "1",
                               "--x", "1", "--K", "10000", "--check",
                               "--format", "json")
        assert code == EX_OK
        payload = json.loads(out)
        assert payload["terms_used"] == 10000
        assert payload["abs_error"] < 1e-6

    @pytest.mark.parametrize("K", ["0", "-3"])
    def test_nonpositive_K_exits_2(self, capsys, K):
        # --K 0 asks for a fixed sum of no terms, not for adaptive mode
        code, out, err = run_cli(capsys, "eval", "--family", "C", "--n", "1",
                                 "--b", "0.5", "--x", "2", "--K", K)
        assert code == EX_DOMAIN
        assert out == ""
        assert "k_max must be a positive integer" in err

    def test_j0var(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--family", "j0var", "--x", "1",
                               "--K", "100000", "--check", "--format", "json")
        assert code == EX_OK
        payload = json.loads(out)
        assert payload["abs_error"] < 1e-4

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--family", "C", "--n", "0",
                               "--b", "0.5", "--x", "1", "--format", "csv")
        assert code == EX_OK
        header, row = out.strip().splitlines()
        assert header.startswith("family,n,b,x,value")
        assert row.startswith("C,0,0.5,1.0,")


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--family", "C", "--x", "1", "--bogus"])
        assert exc.value.code == EX_USAGE

    def test_missing_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--family", "C"])
        assert exc.value.code == EX_USAGE

    def test_bad_family_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--family", "Q", "--x", "1"])
        assert exc.value.code == EX_USAGE

    @pytest.mark.parametrize("argv", [("table", "--families", "D"),
                                      ("bench", "--families", "A,x")])
    def test_unknown_family_list_entry(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == EX_USAGE
        assert "--families" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "eval" in out and "verify" in out


class TestTable:
    def test_columns_and_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--families", "C",
                               "--n-list", "0,1", "--b-list", "1.0",
                               "--x-list", "1.0", "--K", "2000")
        assert code == EX_OK
        lines = out.strip().splitlines()
        assert lines[0] == ("family,n,b,x,K,value,bessel_value,oracle,"
                            "abs_error,tail_bound,terms_used,converged")
        assert len(lines) == 3
        assert lines[1].startswith("C,0,1.0,1.0,2000,")

    @pytest.mark.parametrize("K", ["0", "-3"])
    def test_nonpositive_K_exits_2(self, capsys, K):
        code, out, err = run_cli(capsys, "table", "--families", "C",
                                 "--n-list", "1", "--b-list", "1.0",
                                 "--x-list", "1.0", "--K", K)
        assert code == EX_DOMAIN
        assert out == ""
        assert "k_max must be a positive integer" in err

    def test_invalid_combinations_skipped(self, capsys):
        code, out, err = run_cli(capsys, "table", "--families", "A,B",
                                 "--n-list", "0", "--b-list", "1.0",
                                 "--x-list", "1.0", "--K", "100")
        assert code == EX_OK
        assert len(out.strip().splitlines()) == 1  # header only
        assert "skipping" in err

    def test_byte_stability(self, capsys):
        args = ["table", "--families", "A,C", "--n-list", "1,2",
                "--b-list", "0.5,1.0", "--x-list", "2.0", "--K", "500"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestBench:
    def test_terms_to_tolerance_table(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--families", "C",
                               "--n-list", "0", "--x-list", "1.0",
                               "--tol-list", "1e-6,1e-8")
        assert code == EX_OK
        lines = out.strip().splitlines()
        assert lines[0] == "family,n,b,x,tol,terms_to_tolerance"
        assert len(lines) == 3
        k6 = int(lines[1].rsplit(",", 1)[1])
        k8 = int(lines[2].rsplit(",", 1)[1])
        assert k6 < k8

    def test_not_applicable_marked(self, capsys):
        code, out, err = run_cli(capsys, "bench", "--families", "C",
                                 "--n-list", "0", "--x-list", "1.0",
                                 "--tol-list", "1e-6", "--b", "0.5")
        assert code == EX_OK
        assert out.strip().splitlines()[1].endswith("NA")


class TestTrig:
    def test_cos(self, capsys):
        code, out, _ = run_cli(capsys, "trig", "--which", "cos", "--x", "1",
                               "--K", "10000")
        assert code == EX_OK
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(values["abs_error"]) < 1e-4

    @pytest.mark.parametrize("which,ref", [
        # cos x - 1 + x^2/2 and 1 - sin x / x at x = 0.001, 50-digit mpmath
        ("cos", 4.1666665277777806e-14),
        ("sin1", 1.6666665833333353e-07),
    ])
    def test_analytic_at_small_x(self, capsys, which, ref):
        code, out, _ = run_cli(capsys, "trig", "--which", which, "--x", "0.001",
                               "--K", "100000")
        assert code == EX_OK
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(values["analytic"]) == pytest.approx(ref, rel=1e-15, abs=0.0)
        assert float(values["abs_error"]) == pytest.approx(
            abs(float(values["value"]) - ref), rel=1e-6, abs=0.0)

    def test_sin2_beats_sin1(self, capsys):
        _, out1, _ = run_cli(capsys, "trig", "--which", "sin1", "--x", "5", "--K", "1000")
        _, out2, _ = run_cli(capsys, "trig", "--which", "sin2", "--x", "5", "--K", "1000")
        e1 = float(dict(l.split(" = ") for l in out1.strip().splitlines())["abs_error"])
        e2 = float(dict(l.split(" = ") for l in out2.strip().splitlines())["abs_error"])
        assert e2 < e1


class TestVerifyCommand:
    def test_decay_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "decay")
        assert code == EX_OK
        assert "suite decay: PASS" in out

    def test_identity_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "identity")
        assert code == EX_OK
        assert "suite identity: PASS" in out

    def test_fourier_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "fourier")
        assert code == EX_OK
        assert "suite fourier: PASS (243 checks, threshold 1e-08)" in out
