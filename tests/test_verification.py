"""Tests for the verification-suite plumbing itself."""

import os
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

    def test_trials_floor_maps_to_usage_error_in_cli(self, capsys):
        assert main(["verify", "--suite", "twirl", "--trials", "5"]) == 2
        assert "at least 100" in capsys.readouterr().err

    def test_seed_changes_sampled_details(self):
        a = run_suite("bell", trials=8, seed=1)
        b = run_suite("bell", trials=8, seed=2)
        assert a.passed and b.passed
        assert a.details["chi2_pvalue"] != b.details["chi2_pvalue"]


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


def test_cli_import_leaves_scipy_stats_out():
    src = str(Path(hamcert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, hamcert.cli; "
        "print('scipy.stats' in sys.modules, 'scipy.special' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"
