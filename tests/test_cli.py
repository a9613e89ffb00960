"""Tests for the command-line interface and its exit-code contract."""

import contextlib
import io
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hamcert.cli import entrypoint, main
from hamcert.oracle import EvolutionOracle
from hamcert.trotter import TROTTER_STEP_CAP, steps_from_bound
from hamcert.verification import suite_names


@pytest.fixture
def files(tmp_path):
    h0 = tmp_path / "h0.txt"
    h_same = tmp_path / "h_same.txt"
    h_far = tmp_path / "h_far.txt"
    direction = tmp_path / "dir.txt"
    h0.write_text("-0.2 X\n")
    h_same.write_text("-0.2 X\n")
    h_far.write_text("0.2 X\n")
    direction.write_text("1.0 X\n")
    return tmp_path


def certify_args(files, h, **extra):
    args = [
        "certify",
        "--h0", str(files / "h0.txt"),
        "--h", str(files / h),
        "--epsilon", "0.2",
        "--delta", "0.2",
        "--k", "1",
        "--seed", "7",
    ]
    for key, value in extra.items():
        args += [f"--{key}", str(value)]
    return args


class TestCertifyCommand:
    def test_identical_files_accept(self, files, capsys):
        assert main(certify_args(files, "h_same.txt")) == 0
        assert "verdict: ACCEPT" in capsys.readouterr().out

    def test_separated_pair_rejects(self, files, capsys):
        assert main(certify_args(files, "h_far.txt")) == 1
        assert "verdict: REJECT" in capsys.readouterr().out

    def test_malformed_coefficient_is_a_usage_error(self, files, capsys):
        bad = files / "bad.txt"
        bad.write_text("0.1 X\noops Z\n")
        code = main(certify_args(files, "bad.txt"))
        assert code == 2
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_overflowing_duplicate_label_is_a_usage_error(self, files, capsys):
        (files / "huge.txt").write_text("1e308 X\n1e308 X\n")
        assert main(certify_args(files, "huge.txt")) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {files / 'huge.txt'}: ")
        assert "'X'" in captured.err and "not finite" in captured.err
        assert "Traceback" not in captured.err

    def test_missing_file_is_a_usage_error(self, files, capsys):
        assert main(certify_args(files, "nope.txt")) == 2

    def test_inconsistent_config_is_a_usage_error(self, files, capsys):
        assert main(certify_args(files, "h_same.txt", c2="1")) == 2
        assert "shallow" in capsys.readouterr().err

    def test_report_file_written(self, files, tmp_path):
        out = tmp_path / "report.txt"
        assert main(certify_args(files, "h_far.txt", out=out)) == 1
        text = out.read_text()
        assert text.startswith("hamcert certification report\n")
        assert "round,axes,transcript_digest,time,identity_fraction,flagged" in text


    def test_an_unwritable_report_path_is_an_input_error(self, files, tmp_path, capsys):
        out = tmp_path / "missing" / "report.txt"
        assert main(certify_args(files, "h_far.txt", out=out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(out) in err
        assert "unexpected" not in err


class TestSweepCommand:
    def sweep_args(self, files, out=None, eps="0.4,0.2"):
        args = [
            "sweep",
            "--h0", str(files / "h0.txt"),
            "--direction", str(files / "dir.txt"),
            "--eps-list", eps,
            "--repeats", "2",
            "--delta", "0.2",
            "--k", "1",
            "--seed", "3",
        ]
        if out is not None:
            args += ["--out", str(out)]
        return args

    def test_csv_shape_and_footer(self, files, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(self.sweep_args(files, out=out)) == 0
        lines = out.read_text().splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        data = [ln for ln in lines if not ln.startswith("#")]
        assert data[0] == "epsilon,total_time,queries,verdict,seed"
        assert len(data) == 1 + 4
        assert lines[-1].startswith("# loglog_slope = ")
        # The header comments echo enough configuration to reproduce the run.
        assert any(ln.startswith("# seed = ") for ln in comments)
        assert any(ln.startswith("# k = ") for ln in comments)
        assert any(ln.startswith("# eps_list = ") for ln in comments)

    def test_an_unwritable_csv_path_is_an_input_error(self, files, tmp_path, capsys):
        out = tmp_path / "missing" / "sweep.csv"
        assert main(self.sweep_args(files, out=out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(out) in err
        assert "unexpected" not in err

    def test_non_unit_direction_is_a_usage_error(self, files, capsys):
        (files / "dir.txt").write_text("0.5 X\n")
        assert main(self.sweep_args(files)) == 2
        assert "unit" in capsys.readouterr().err

    def test_malformed_eps_list_is_a_usage_error(self, files, capsys):
        assert main(self.sweep_args(files, eps="0.4,abc")) == 2

    @pytest.mark.parametrize("eps", ["0.4,0.4", "0.4,0.2,0.40"])
    def test_repeated_epsilon_is_a_usage_error(self, files, capsys, eps):
        assert main(self.sweep_args(files, eps=eps)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "distinct" in captured.err
        assert "Traceback" not in captured.err


class TestOutOfRangeNumbers:
    """Inputs that used to crash with OverflowError and exit 1 (REJECT)."""

    @pytest.mark.parametrize(
        "extra",
        [
            {"epsilon": "nan"},
            {"epsilon": "1e-320"},
            {"epsilon": "1", "c4": "inf", "allow-weak-constants": None},
            {"c2": "nan"},
            {"delta": "5e-324"},
            {"k": "400"},
            {"k": "100000000"},
            {"c2": "1e300"},
        ],
        ids=["epsilon-nan", "epsilon-subnormal", "c4-inf", "c2-nan",
             "delta-subnormal", "k-400", "k-1e8", "c2-1e300"],
    )
    def test_exit_2_without_traceback(self, files, capsys, extra):
        args = certify_args(files, "h_same.txt")
        for key, value in extra.items():
            flag = f"--{key}"
            if flag in args:
                args[args.index(flag) + 1] = value
            else:
                args += [flag] if value is None else [flag, value]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "unexpected" not in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("flag", ["--c1", "--c3", "--c0", "--eps-trott"])
    @pytest.mark.parametrize("command", ["certify", "sweep"])
    def test_a_fixed_constant_has_no_flag(self, files, capsys, command, flag):
        # c1, c3, c0 and the error budget are the paper's constants; a
        # lower c1 or c3 would accept a pair epsilon apart.
        if command == "certify":
            args = certify_args(files, "h_far.txt")
        else:
            args = TestSweepCommand().sweep_args(files)
        assert main(args + [flag, "0.01"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} 0.01" in captured.err
        assert "Traceback" not in captured.err

    def test_unexpected_exception_is_an_error_not_a_reject(
        self, files, capsys, monkeypatch
    ):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("hamcert.cli.certify", broken)
        assert main(certify_args(files, "h_same.txt")) == 2
        assert capsys.readouterr().err == "error: unexpected RuntimeError: boom\n"


class TestTrotterModeCommand:
    def test_reduced_depth_trotter_run(self, files, capsys):
        (files / "h0.txt").write_text("-1.0 X\n")
        (files / "h_same.txt").write_text("-1.0 X\n")
        code = main([
            "certify",
            "--h0", str(files / "h0.txt"),
            "--h", str(files / "h_same.txt"),
            "--epsilon", "2.0", "--delta", "0.8", "--k", "1",
            "--mode", "trotter",
            "--c2", "2", "--c4", "2",
            "--allow-weak-constants",
            "--seed", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "mode: trotter" in out
        assert "verdict: ACCEPT" in out

    @pytest.mark.parametrize("h,code", [("h_same.txt", 0), ("h_far.txt", 1)])
    def test_the_default_depth_runs_at_the_step_cap(self, files, capsys, h, code):
        # Twirl depth 17 and the budget 1/1152 saturate the step count
        # whenever t >= 0.061; fewer shots keep the run short.
        args = certify_args(files, h, mode="trotter", c4=2)
        assert main(args + ["--allow-weak-constants"]) == code
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert f"verdict: {('ACCEPT', 'REJECT')[code]}" in captured.out
        times = [float(line.split(",")[3]) for line in captured.out.splitlines()
                 if line[:1].isdigit()]
        assert times
        assert all(steps_from_bound(17, t, 1 / 1152) == TROTTER_STEP_CAP for t in times)

    @pytest.mark.parametrize("h,code", [("h_same.txt", 0), ("h_far.txt", 1)])
    def test_default_constants_run_in_trotter_mode(self, files, capsys, h, code):
        assert main(certify_args(files, h, mode="trotter")) == code
        out = capsys.readouterr().out
        assert "twirl_steps: 17" in out
        assert "allow_weak_constants: False" in out

    def test_a_query_count_beyond_a_float_is_a_config_error(self, files, capsys):
        code = main(certify_args(files, "h_same.txt", mode="trotter", c2=1000))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert "unexpected" not in err
        assert "more queries than a float holds" in err


def _single_site_terms(n, letters, coeffs):
    return "".join(
        f"{c} " + "I" * i + letters[i % len(letters)] + "I" * (n - 1 - i) + "\n"
        for i, c in enumerate(coeffs)
    )


class TestExactModeResidualRounds:
    def test_residual_beyond_the_dense_cap_follows_the_verdict(self, files, capsys):
        # With one twirl draw the off-subspace X term survives a round with
        # probability 1/2 when its site's axis is not X; at seed 1 such a
        # round comes before any verdict, and the coset blocks evaluate it
        # beyond the dense cap.
        n = 12
        terms = _single_site_terms(n, "XYZ", [f"0.{i + 1}" for i in range(n)])
        (files / "h12.txt").write_text(terms)
        (files / "h12_far.txt").write_text(terms.replace("0.1 X", "-0.4 X"))
        args = [
            "certify", "--h0", str(files / "h12.txt"), "--h", str(files / "h12_far.txt"),
            "--epsilon", "0.2", "--delta", "0.2", "--k", "1", "--seed", "1",
            "--c2", "1", "--allow-weak-constants",
        ]
        code = main(args)
        captured = capsys.readouterr()
        assert captured.err == ""
        assert code == (0 if "verdict: ACCEPT" in captured.out else 1)

    def test_twenty_qubit_run_with_residual_rounds_completes(
        self, files, capsys, monkeypatch
    ):
        # The difference is a single X term; a round keeps it as a residual
        # when the axis at site 0 is not X and the one draw commutes with it.
        # At seed 0 several such rounds pass before the verdict.
        n = 20
        terms = _single_site_terms(n, "Z", [f"0.{i + 1}" for i in range(n)])
        (files / "h20.txt").write_text(terms)
        (files / "h20_far.txt").write_text(terms + "0.001 X" + "I" * (n - 1) + "\n")
        seen = []
        twirl_drawn = EvolutionOracle._twirl_drawn

        def recording(self, *args):
            seen.append(twirl_drawn(self, *args))
            return seen[-1]

        monkeypatch.setattr(EvolutionOracle, "_twirl_drawn", recording)
        args = [
            "certify", "--h0", str(files / "h20.txt"), "--h", str(files / "h20_far.txt"),
            "--epsilon", "0.2", "--delta", "0.2", "--k", "1", "--seed", "0",
            "--c2", "1", "--allow-weak-constants",
        ]
        code = main(args)
        captured = capsys.readouterr()
        assert captured.err == ""
        assert code == (0 if "verdict: ACCEPT" in captured.out else 1)
        assert sum(bool(tr.residual) for tr in seen[:-1]) >= 2


GOLDEN = Path(__file__).parent / "golden"


class TestLargeSystems:
    @pytest.mark.parametrize("h, code", [("chain-n64.h0", 0), ("chain-n64-xx.h", 1)])
    def test_64_qubit_chain_files_in_exact_mode(self, capsys, h, code):
        args = ["certify", "--h0", str(GOLDEN / "chain-n64.h0"), "--h", str(GOLDEN / h),
                "--epsilon", "0.2", "--delta", "0.2", "--k", "2", "--seed", "1"]
        assert main(args) == code
        captured = capsys.readouterr()
        assert captured.err == ""
        assert f"verdict: {('ACCEPT', 'REJECT')[code]}" in captured.out

    @pytest.mark.parametrize("h, code", [("fields-n24.h0", 0), ("fields-n24-far.h", 1)])
    def test_24_qubit_fields_in_trotter_mode(self, capsys, h, code):
        args = ["certify", "--h0", str(GOLDEN / "fields-n24.h0"), "--h", str(GOLDEN / h),
                "--epsilon", "0.2", "--delta", "0.2", "--k", "1", "--seed", "1",
                "--mode", "trotter", "--c2", "2", "--allow-weak-constants"]
        assert main(args) == code
        assert f"verdict: {('ACCEPT', 'REJECT')[code]}" in capsys.readouterr().out

    def test_a_linked_chain_above_the_dense_cap_exits_2_in_trotter_mode(
        self, files, capsys
    ):
        n = 12
        chain = "".join(f"0.3 {'I' * j}ZZ{'I' * (n - 2 - j)}\n" for j in range(n - 1))
        (files / "chain12.txt").write_text(chain)
        args = ["certify", "--h0", str(files / "chain12.txt"),
                "--h", str(files / "chain12.txt"), "--epsilon", "0.2", "--delta", "0.2",
                "--k", "2", "--mode", "trotter", "--c2", "2", "--allow-weak-constants"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert "links 12 sites" in captured.err
        assert "Traceback" not in captured.err


class TestLedgerCeiling:
    def _args(self, epsilon):
        h0 = str(Path(__file__).parent / "golden" / "k2n6.h0")
        return ["certify", "--h0", h0, "--h", h0, "--epsilon", epsilon,
                "--delta", "0.2", "--k", "2", "--seed", "3"]

    def test_overflowing_ceiling_is_a_usage_error(self, capsys):
        assert main(self._args("1e-305")) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ceiling" in captured.err

    def test_largest_finite_ceilings_still_run(self, capsys):
        assert main(self._args("1e-300")) == 0
        out = capsys.readouterr().out
        assert "ledger_total_time: inf" not in out
        assert "verdict: ACCEPT" in out


#: Finite ranges of the certify flags.  At ``k = 1`` they keep a valid run
#: small: at most 100 rounds and a twirl depth of at most 64.
_FLAG_RANGES = {
    "epsilon": (1e-300, 1e3),
    "delta": (0.01, 0.99),
    "c2": (1e-3, 64.0),
    "c4": (1e-3, 1e15),
}
_BAD_VALUES = [0.0, -0.0, -1.0, float("nan"), float("inf"), float("-inf"), 1e308]


class TestCertifyConfigFuzz:
    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        h=st.sampled_from(["h_same.txt", "h_far.txt"]),
        seed=st.integers(-2, 2**70),
        flags=st.fixed_dictionaries({
            name: (st.floats(*bounds) if name in ("epsilon", "delta")
                   else st.none() | st.floats(*bounds))
            for name, bounds in _FLAG_RANGES.items()
        }),
        # At most one flag takes a bad or huge value.
        bad=st.none() | st.tuples(
            st.sampled_from(sorted(_FLAG_RANGES)), st.sampled_from(_BAD_VALUES)
        ),
    )
    def test_exit_code_matches_the_output(self, files, h, seed, flags, bad):
        if bad is not None:
            flags[bad[0]] = bad[1]
        args = ["certify", "--h0", str(files / "h0.txt"), "--h", str(files / h),
                "--k=1", f"--seed={seed}", "--allow-weak-constants"]
        args += [f"--{name}={value!r}" for name, value in flags.items() if value is not None]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2)
        assert (code == 1) == ("verdict: REJECT" in out)
        assert (code == 0) == ("verdict: ACCEPT" in out)
        if code == 2:
            assert out == ""
            assert err and "Traceback" not in err


class TestVerifyCommand:
    def test_single_suite_passes(self, capsys):
        assert main(["verify", "--suite", "gapbound", "--trials", "10"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("[PASS] gapbound")

    def test_unknown_suite_is_a_usage_error(self, capsys):
        assert main(["verify", "--suite", "nosuch"]) == 2

    @pytest.mark.parametrize("suite", suite_names() + ["all"])
    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_is_a_usage_error(self, capsys, suite, trials):
        assert main(["verify", "--suite", suite, "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: Trial count must be at least 1, got {trials}.\n"

    def test_every_suite_minimum_is_checked_before_any_suite_runs(self, capsys):
        # bell and gapbound run at 50; basis needs 100.
        assert main(["verify", "--trials", "50"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "at least 100" in captured.err

    def test_a_suite_without_a_higher_minimum_runs_at_fifty(self, capsys):
        assert main(["verify", "--suite", "bell", "--trials", "50"]) == 0
        assert capsys.readouterr().out.startswith("[PASS] bell")


class TestSeedResolution:
    def test_env_var_provides_the_default_seed(self, files, tmp_path, monkeypatch):
        monkeypatch.setenv("HAMCERT_SEED", "7")
        out_env = tmp_path / "env.txt"
        args = [a for a in certify_args(files, "h_far.txt") if a != "--seed" and a != "7"]
        main(args + ["--out", str(out_env)])
        out_flag = tmp_path / "flag.txt"
        main(certify_args(files, "h_far.txt", out=out_flag))
        assert out_env.read_bytes() == out_flag.read_bytes()

    def test_flag_takes_precedence_over_env(self, files, tmp_path, monkeypatch):
        monkeypatch.setenv("HAMCERT_SEED", "99")
        out = tmp_path / "flag_wins.txt"
        main(certify_args(files, "h_far.txt", out=out))
        assert "seed: 7" in out.read_text()


class TestInputErrorsNameTheInput:
    """Each bad input exits 2 at once with one error line that names it."""

    @staticmethod
    def _run(argv):
        start = time.perf_counter()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert time.perf_counter() - start < 1.0
        return code, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize(
        "extra, env, named",
        [
            # Exact mode takes trotter mode's bound on the twirl depth.
            (["--c2", "1e300"], None, "c2=1e+300"),
            (["--c2", "1e7"], None, "c2=10000000.0"),
            (["--seed", "-1"], None, "seed must be a non-negative integer, got -1"),
            ([], "abc", "HAMCERT_SEED must be an integer, got 'abc'"),
            ([], "-5", "seed must be a non-negative integer, got -5"),
        ],
        ids=["c2-1e300", "c2-1e7", "seed-negative", "env-seed-malformed", "env-seed-negative"],
    )
    def test_certify(self, files, monkeypatch, extra, env, named):
        args = [a for a in certify_args(files, "h_same.txt") if a not in ("--seed", "7")]
        if env is not None:
            monkeypatch.setenv("HAMCERT_SEED", env)
        code, out, err = self._run(args + extra)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err
        assert "unexpected" not in err

    @pytest.mark.parametrize(
        "extra, env, named",
        [
            (["--seed", "-1"], None, "seed must be a non-negative integer, got -1"),
            ([], "abc", "HAMCERT_SEED must be an integer, got 'abc'"),
            ([], "-5", "seed must be a non-negative integer, got -5"),
        ],
        ids=["seed-negative", "env-seed-malformed", "env-seed-negative"],
    )
    def test_verify_prints_no_suite(self, monkeypatch, extra, env, named):
        if env is not None:
            monkeypatch.setenv("HAMCERT_SEED", env)
        code, out, err = self._run(["verify", *extra])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err
        assert "unexpected" not in err


class TestDeterminism:
    def test_certify_reports_are_byte_identical(self, files, tmp_path):
        out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        main(certify_args(files, "h_far.txt", out=out1))
        main(certify_args(files, "h_far.txt", out=out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_sweep_csvs_are_byte_identical(self, files, tmp_path):
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        sweeper = TestSweepCommand()
        main(sweeper.sweep_args(files, out=out1))
        main(sweeper.sweep_args(files, out=out2))
        assert out1.read_bytes() == out2.read_bytes()


def test_console_script_runs_main(monkeypatch):
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert '\n[project.scripts]\nhamcert = "hamcert.cli:entrypoint"\n' in pyproject
    monkeypatch.setattr(sys, "argv", ["hamcert", "verify", "--trials", "50"])
    with pytest.raises(SystemExit) as exc:
        entrypoint()
    assert exc.value.code == 2


def test_module_entrypoint_smoke(files):
    proc = subprocess.run(
        [sys.executable, "-m", "hamcert"] + certify_args(files, "h_same.txt"),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "verdict: ACCEPT" in proc.stdout


class TestFileEncoding:
    """Hamiltonian files are read as UTF-8 under any locale."""

    @staticmethod
    def run_ascii_locale(args, cwd):
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "hamcert"] + args,
                              capture_output=True, cwd=cwd, env=env)

    def test_a_utf8_comment_is_accepted_under_an_ascii_locale(self):
        # The golden report was pinned under a UTF-8 locale from fields-n24.h0,
        # which holds the same terms without the comments.
        args = ["certify", "--h0", "fields-n24-utf8.h0", "--h", "fields-n24.h0",
                "--epsilon", "0.2", "--delta", "0.2", "--k", "1", "--seed", "1",
                "--mode", "trotter", "--c2", "2", "--allow-weak-constants"]
        proc = self.run_ascii_locale(args, GOLDEN)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == (GOLDEN / "trotter-n24-equal-seed1.report").read_bytes()

    def test_an_invalid_byte_exits_2_naming_the_file(self, files):
        path = files / "h0_latin1.txt"
        path.write_bytes("# café\n-0.2 X\n".encode("latin-1"))
        args = certify_args(files, "h_same.txt")
        args[args.index("--h0") + 1] = str(path)
        proc = self.run_ascii_locale(args, files)
        assert (proc.returncode, proc.stdout) == (2, b"")
        err = proc.stderr.decode("ascii")
        assert err.startswith(f"error: {path}: not valid UTF-8: ")
        assert "Traceback" not in err
