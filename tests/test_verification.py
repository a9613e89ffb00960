"""Tests for the verification-suite plumbing itself."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hamcert
from hamcert.cli import main
from hamcert.verification import (
    SUITES,
    SuiteResult,
    chi_square_pvalue,
    chi_square_tail,
    run_suite,
    suite_names,
)


class TestSuiteResult:
    def test_summary_formats_pass(self):
        result = SuiteResult("demo", details={"trials": 5})
        assert result.summary() == "[PASS] demo: trials=5"

    def test_summary_formats_failures(self):
        result = SuiteResult("demo")
        result.fail("first problem")
        result.fail("second problem")
        assert result.passed is False
        text = result.summary()
        assert text.startswith("[FAIL] demo")
        assert "first problem" in text and "second problem" in text

    def test_failure_recording_is_capped(self):
        result = SuiteResult("demo")
        for i in range(50):
            result.fail(f"issue {i}")
        assert len(result.failures) == 10


class TestRunSuite:
    def test_all_names_are_runnable(self):
        assert set(suite_names()) == set(SUITES)

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            run_suite("nosuch")

    def test_trials_floor_on_moment_suites(self):
        with pytest.raises(ValueError, match="at least 100"):
            run_suite("twirl", trials=5)
        with pytest.raises(ValueError, match="at least 100"):
            run_suite("basis", trials=5)

    @pytest.mark.parametrize("trials", [True, False, 2.5, 100.0, "5", np.int64(5)])
    def test_a_trial_count_that_is_not_an_integer_is_refused(self, monkeypatch, trials):
        calls = []
        monkeypatch.setitem(SUITES, "bell", (lambda **kw: calls.append(kw), "instances", 1))
        message = f"Trial count must be an integer, got {trials!r}."
        with pytest.raises(ValueError, match=re.escape(message)):
            run_suite("bell", trials=trials)
        assert calls == []

    def test_a_boolean_trial_count_is_not_one_repeat(self):
        with pytest.raises(ValueError, match="must be an integer, got True"):
            run_suite("heisenberg", trials=True)
        with pytest.raises(ValueError, match="must be an integer, got 2.5"):
            run_suite("heisenberg", trials=2.5)

    def test_trials_floor_maps_to_usage_error_in_cli(self, capsys):
        assert main(["verify", "--suite", "twirl", "--trials", "5"]) == 2
        assert "at least 100" in capsys.readouterr().err

    def test_a_negative_seed_is_refused_before_the_suite_runs(self, monkeypatch):
        calls = []
        monkeypatch.setitem(SUITES, "bell", (lambda **kw: calls.append(kw), "trials", 1))
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            run_suite("bell", seed=-1)
        assert calls == []

    def test_seed_changes_sampled_details(self):
        a = run_suite("bell", trials=8, seed=1)
        b = run_suite("bell", trials=8, seed=2)
        assert a.passed and b.passed
        assert a.details["chi2_pvalue"] != b.details["chi2_pvalue"]


def test_twirl_suite_measures_the_shipped_survival_rule(monkeypatch):
    # A survival test that keeps every term breaks the twirl itself and must
    # also fail the suite that checks its contraction.
    from hamcert import twirl
    from hamcert.pauli import PauliSum

    assert run_suite("twirl").passed

    def keep_all(bits, starts, sites, off):
        return np.ones((*bits.shape[:-2], len(starts)), dtype=bool)

    monkeypatch.setattr(twirl, "_survives", keep_all)
    result = run_suite("twirl")
    assert not result.passed
    assert "residual mean" in result.failures[0]
    h = PauliSum(2, {"XI": 0.5, "ZZ": 0.25})
    tr = twirl.apply_twirl(h, twirl.DiagonalSubspace(("Z", "Z")), ("ZI", "ZZ", "ZI"))
    assert tr.residual == PauliSum(2, {"XI": 0.5})


def test_cli_verify_reports_failures_with_exit_one(capsys, monkeypatch):
    def failing_suite(seed=0):
        result = SuiteResult("synthetic")
        result.fail("forced for the exit-code contract")
        return result

    import hamcert.verification as verification

    monkeypatch.setitem(verification.SUITES, "gapbound", (failing_suite, None, 1))
    assert main(["verify", "--suite", "gapbound"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("[FAIL] synthetic")


class TestLedgerArithmetic:
    def test_round_charges_are_shots_times_sampled_times(self):
        from hamcert.certifier import CertificationConfig, certify
        from hamcert.oracle import EvolutionOracle, OracleMode
        from hamcert.pauli import PauliSum

        h0 = PauliSum(1, {"X": -0.1})
        cfg = CertificationConfig(epsilon=0.2, delta=0.2, k=1, seed=21)
        oracle = EvolutionOracle(PauliSum(1, {"X": 0.1}), OracleMode.EXACT_EFFECTIVE)
        report = certify(h0, oracle, cfg)
        expected = cfg.shots_per_round * sum(r.time for r in report.records)
        assert report.ledger_total_time == pytest.approx(expected, rel=1e-12)
        assert report.ledger_query_count == cfg.shots_per_round * report.rounds_run


def test_chi_square_pvalue_matches_scipy_stats():
    from scipy import stats

    observed = np.array([18.0, 25.0, 31.0, 9.0, 17.0])
    expected = np.array([20.0, 22.5, 27.5, 12.5, 17.5])
    assert chi_square_pvalue(observed, expected) == float(
        stats.chisquare(observed, expected).pvalue
    )


class TestChiSquareTail:
    DOFS = range(1, 16)

    def test_matches_scipy_chdtrc(self):
        from scipy.special import chdtrc

        for dof in self.DOFS:
            for stat in np.linspace(0.0, 200.0, 2001):
                want = float(chdtrc(dof, stat))
                if want > 1e-300:
                    assert chi_square_tail(dof, float(stat)) == pytest.approx(
                        want, rel=1e-13, abs=0.0
                    ), (dof, stat)

    def test_matches_scipy_chdtrc_where_the_scale_is_subnormal(self):
        """``e^{-stat/2}`` underflows above a statistic of about 1417."""
        from scipy.special import chdtrc

        for dof, stat in [(1400, 1420.0), (1501, 1500.0), (2000, 2000.0), (2000, 2150.0)]:
            want = float(chdtrc(dof, stat))
            assert chi_square_tail(dof, stat) == pytest.approx(want, rel=1e-12)
        assert chi_square_tail(3, 1e300) == 0.0
        assert chi_square_tail(4, 1e300) == 0.0

    def test_is_one_at_a_zero_statistic(self):
        for dof in self.DOFS:
            assert chi_square_tail(dof, 0.0) == 1.0
        counts = np.array([3.0, 5.0, 7.0])
        assert chi_square_pvalue(counts, counts) == 1.0

    def test_does_not_increase_with_the_statistic(self):
        stats = np.linspace(0.0, 200.0, 4001)
        for dof in self.DOFS:
            values = np.array([chi_square_tail(dof, float(s)) for s in stats])
            assert np.all(np.diff(values) <= 0.0), dof
            assert np.all((values >= 0.0) & (values <= 1.0)), dof

    @pytest.mark.parametrize(
        "observed, expected, match",
        [
            ([1.0, 2.0, 3.0], [2.0, 2.0], "differ in length"),
            ([4.0], [4.0], "two bins or more"),
            ([], [], "two bins or more"),
            ([1.0, 2.0], [3.0, 0.0], "must be positive"),
            ([1.0, 2.0], [3.0, -1.0], "must be positive"),
            ([1.0, 2.0], [3.0, float("nan")], "must be positive"),
            ([1.0, float("nan")], [3.0, 3.0], "not finite"),
            ([1.0, float("inf")], [3.0, 3.0], "not finite"),
            ([1.0, 2.0], [3.0, float("inf")], "not finite"),
            ([1e200, 2.0], [3.0, 3.0], "not finite"),
        ],
    )
    def test_refuses_bad_counts(self, observed, expected, match):
        with pytest.raises(ValueError, match=match):
            chi_square_pvalue(np.array(observed), np.array(expected))


def _run_python(code: str) -> subprocess.CompletedProcess:
    src = str(Path(hamcert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", code],
        capture_output=True,
        env=env,
    )


def test_cli_import_leaves_scipy_stats_out():
    code = (
        "import sys, hamcert.cli; "
        "print('scipy.stats' in sys.modules, 'scipy.special' in sys.modules); "
        "from hamcert.verification import run_suite; run_suite('bell'); "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().splitlines() == ["False False", "[]"]


def test_importing_the_suites_loads_only_numpy_and_the_standard_library():
    # A fresh interpreter compiles every module it loads; the import that
    # starts the verify suites brings in nothing else.
    code = (
        "import sys; before = set(sys.modules); import hamcert.verification; "
        "loaded = {m.partition('.')[0] for m in set(sys.modules) - before}; "
        "print(*sorted(loaded - set(sys.stdlib_module_names)))"
    )
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().split() == ["hamcert", "numpy"]


def test_verify_all_runs_with_scipy_blocked():
    """``hamcert verify --suite all`` needs numpy alone at run time."""
    code = (
        "import sys; sys.modules['scipy'] = None; "
        "from hamcert.cli import main; "
        "raise SystemExit(main(['verify', '--suite', 'all']))"
    )
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr.decode()
    golden = Path(__file__).resolve().parent / "golden" / "verify-all.txt"
    assert proc.stdout == golden.read_bytes()
