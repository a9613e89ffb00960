"""Acceptance criteria, one test per criterion.

Every test runs the corresponding verification suite at its full trial
count and stated tolerance, prints a single pass/fail line, and asserts.
Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion
listing.
"""

import time

from hamcert.cli import main
from hamcert.verification import run_suite


def check(result, criterion, started):
    elapsed = time.time() - started
    status = "PASS" if result.passed else "FAIL"
    detail = " ".join(f"{k}={v}" for k, v in result.details.items())
    print(f"[{status}] criterion {criterion} ({result.name}): {detail} "
          f"[{elapsed:.1f}s]")
    assert result.passed, f"criterion {criterion} failed: {result.failures}"


def test_criterion_01_spectral_bell_identity():
    """Spectral and trace routes agree to 1e-10; sampler matches at 3 sigma."""
    started = time.time()
    check(run_suite("bell", seed=101), 1, started)


def test_criterion_02_diagonal_gap_bound():
    """500 diagonal instances per locality in {1,2,3}: zero violations."""
    started = time.time()
    check(run_suite("gapbound", seed=102), 2, started)


def test_criterion_03_random_basis_selection():
    """Survival frequencies at 3^-w and retention probability, 3 sigma."""
    started = time.time()
    check(run_suite("basis", seed=103), 3, started)


def test_criterion_04_random_twirling():
    """Residual-norm mean matches 2^-T closed form; Markov tail >= 3/4."""
    started = time.time()
    check(run_suite("twirl", trials=100_000, seed=104), 4, started)


def test_criterion_05_displacement_and_stability():
    """Eigenvalue displacement and gap-fraction stability: zero violations."""
    started = time.time()
    check(run_suite("stability", seed=105), 5, started)


def test_criterion_06_drop_time_search():
    """Dip measure >= 1/3 and finder failure rate <= delta + 3 sigma."""
    started = time.time()
    check(run_suite("droptime", seed=106), 6, started)


def test_criterion_07_product_formula():
    """Second-order error decay, exact time charge, trace-bound domination."""
    started = time.time()
    check(run_suite("trotter", seed=107), 7, started)


def test_criterion_08_end_to_end_protocol():
    """Completeness 100/100, soundness >= 80/100, ledger under the budget."""
    started = time.time()
    check(run_suite("endtoend", seed=0), 8, started)


def test_criterion_09_heisenberg_scaling():
    """Ledger total versus epsilon fits a slope in [-1.2, -0.8]."""
    started = time.time()
    check(run_suite("heisenberg", seed=109), 9, started)


def test_criterion_10_fourth_moment_bound():
    """1000 random low-degree functions: hypercontractive bound holds."""
    started = time.time()
    check(run_suite("bonami", seed=110), 10, started)


def test_criterion_11_byte_determinism(tmp_path):
    """Identical flags and seed reproduce output files byte for byte."""
    started = time.time()
    h0 = tmp_path / "h0.txt"
    h = tmp_path / "h.txt"
    direction = tmp_path / "dir.txt"
    h0.write_text("-0.1 X\n")
    h.write_text("0.1 X\n")
    direction.write_text("1.0 X\n")
    certify_outs = []
    for name in ("c1.txt", "c2.txt"):
        out = tmp_path / name
        code = main([
            "certify", "--h0", str(h0), "--h", str(h),
            "--epsilon", "0.2", "--delta", "0.2", "--k", "1",
            "--seed", "11", "--out", str(out),
        ])
        assert code in (0, 1)
        certify_outs.append(out.read_bytes())
    sweep_outs = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        code = main([
            "sweep", "--h0", str(h0), "--direction", str(direction),
            "--eps-list", "0.4,0.2", "--repeats", "2",
            "--delta", "0.2", "--k", "1",
            "--seed", "11", "--out", str(out),
        ])
        assert code == 0
        sweep_outs.append(out.read_bytes())
    passed = certify_outs[0] == certify_outs[1] and sweep_outs[0] == sweep_outs[1]
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion 11 (determinism): byte-identical re-runs "
          f"[{time.time() - started:.1f}s]")
    assert passed
