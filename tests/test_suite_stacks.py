"""The stacked verify suites against their per-instance loops.

``suite_stability``, ``suite_gapbound`` and ``suite_bonami`` draw all of
their instances first and evaluate them in stacks of equal size;
``suite_droptime`` takes its dip measure from one grid product.  The
reference loops below draw and evaluate one instance at a time, with the
per-instance functions, as the suites did before they were stacked.  A
suite must give the same ``passed``, ``details`` and ``failures`` as its
loop, also when a bound is forced to fail everywhere, so that the first
recorded failures come in the same order.
"""

import math

import numpy as np
import pytest

from hamcert import gaps, moments, verification
from hamcert.bell import identity_probs_spectral
from hamcert.dense import hoffman_wielandt_gap
from hamcert.gaps import GapStatConfig, find_drop_times, lambda_stat, verify_stability
from hamcert.instances import random_diagonal_sum, random_hermitian, random_pauli_sum
from hamcert.moments import verify_gap_bound, walsh_eigenvalues
from hamcert.pauli import frobenius_norm, scale
from hamcert.verification import SuiteResult


def reference_gapbound(trials_per_k, seed):
    rng = np.random.default_rng(seed)
    result = SuiteResult("gapbound")
    checked = 0
    for k in (1, 2, 3):
        for _ in range(trials_per_k):
            n = int(rng.integers(max(2, k), 9))
            h = random_diagonal_sum(n, k, rng)
            checked += 1
            if not verify_gap_bound(h, k):
                result.fail(f"gap bound violated at n={n}, k={k}: {h!r}")
    result.details["instances"] = checked
    return result


def reference_stability(pairs, seed):
    stability_trials, diag_trials = 500, 100
    rng = np.random.default_rng(seed)
    result = SuiteResult("stability")
    for _ in range(pairs):
        n = int(rng.integers(1, 5))
        a = random_hermitian(2**n, rng)
        b = random_hermitian(2**n, rng)
        gap = hoffman_wielandt_gap(a, b)
        # Looked up at call time, so that a test can patch the bound.
        bound = verification.normalized_frobenius(a - b) ** 2
        if gap > bound + 1e-9:
            result.fail(f"displacement {gap:.6e} exceeds {bound:.6e} at n={n}")
    for _ in range(stability_trials):
        n = int(rng.integers(1, 5))
        a = random_pauli_sum(n, min(n, 2), rng)
        b_raw = random_pauli_sum(n, min(n, 2), rng)
        eps = frobenius_norm(a)
        target = float(rng.uniform(0.0, eps / 8.0))
        b = scale(b_raw, target / frobenius_norm(b_raw))
        if not verify_stability(a, b, eps):
            result.fail(f"stability bound violated at n={n}")
    for _ in range(diag_trials):
        n = int(rng.integers(2, 5))
        a = random_diagonal_sum(n, 2, rng)
        b_raw = random_pauli_sum(n, min(n, 2), rng, letters="XY")
        eps = frobenius_norm(a)
        target = float(rng.uniform(0.0, eps / 8.0))
        b = scale(b_raw, target / frobenius_norm(b_raw))
        if not verify_stability(a, b, eps):
            result.fail(f"stability bound violated on diagonal instance, n={n}")
    result.details["hermitian_pairs"] = pairs
    result.details["perturbation_trials"] = stability_trials + diag_trials
    return result


def reference_bonami(trials, seed):
    rng = np.random.default_rng(seed)
    result = SuiteResult("bonami")
    checked = 0
    worst_ratio = 0.0
    for i in range(trials):
        k = 1 + i % 3
        v = int(rng.integers(max(2, k), 13))
        masks = set()
        for _ in range(int(rng.integers(1, 13))):
            w = int(rng.integers(1, k + 1))
            sites = rng.choice(v, size=w, replace=False)
            masks.add(int(sum(1 << int(s) for s in sites)))
        table = np.zeros(2**v)
        for mask in masks:
            table[mask] = rng.normal()
        # Through the module, so a patched stacked form reaches it too.
        (m2,), (m4,) = moments.function_moments_stack(table[None])
        if m2 <= 0.0:
            continue
        checked += 1
        ratio = m4 / (9.0**k * m2 * m2)
        worst_ratio = max(worst_ratio, ratio)
        if ratio > 1.0 + 1e-9:
            result.fail(f"fourth-moment bound violated: ratio {ratio:.4f} at k={k}")
    result.details["checked"] = checked
    result.details["worst_moment_ratio"] = f"{worst_ratio:.4f}"
    return result


def reference_droptime(reps, seed):
    grid_points = 200_001
    rng = np.random.default_rng(seed)
    result = SuiteResult("droptime")
    cases = [
        (np.array([-0.5, 0.5]), 1.0),
        (np.array([-1.0, 1.0]), 1.0),
        (np.array([-2.0, -1.0, 1.0, 2.0]), 1.0),
    ]
    for n in (4, 5, 6):
        h = random_diagonal_sum(n, 2, rng)
        cases.append((walsh_eigenvalues(h), frobenius_norm(h)))
    delta = 0.1
    min_measure = math.inf
    max_fail_rate = 0.0
    for spec, eps in cases:
        d = lambda_stat(spec, eps)
        if d <= 0.0:
            result.fail(f"degenerate case: pair fraction 0 at eps={eps}")
            continue
        target = 1.0 - d / 4.0
        ivals = identity_probs_spectral(spec, np.linspace(0.0, 2.0 / eps, grid_points))
        measure = int((ivals <= target).sum()) / grid_points
        min_measure = min(min_measure, measure)
        if measure < 1.0 / 3.0 - 1e-3:
            result.fail(f"dip measure {measure:.4f} below 1/3")
        cfg = GapStatConfig(epsilon=eps, d=d, delta=delta)
        misses = find_drop_times(spec, cfg, rng, reps).count(None)
        rate = misses / reps
        max_fail_rate = max(max_fail_rate, rate)
        if rate > delta + 3.0 * math.sqrt(delta * (1.0 - delta) / reps):
            result.fail(f"finder failure rate {rate:.4f} above delta={delta}")
    result.details["cases"] = len(cases)
    result.details["min_dip_measure"] = f"{min_measure:.4f}"
    result.details["max_finder_failure_rate"] = f"{max_fail_rate:.4f}"
    return result


REFERENCES = {
    "gapbound": reference_gapbound,
    "stability": reference_stability,
    "bonami": reference_bonami,
    "droptime": reference_droptime,
}


def _outcome(result):
    return result.passed, result.details, result.failures


def _assert_same(name, trials, seed):
    got = verification.run_suite(name, trials=trials, seed=seed)
    want = REFERENCES[name](trials, seed)
    assert _outcome(got) == _outcome(want)
    return got


@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("name, trials", [("gapbound", 60), ("stability", 80), ("bonami", 150)])
def test_reduced_trials_equal_the_loop(name, trials, seed):
    assert _assert_same(name, trials, seed).passed


@pytest.mark.parametrize("name", sorted(REFERENCES))
@pytest.mark.parametrize("seed", [0, 5])
def test_one_trial_equals_the_loop(name, seed):
    # One instance per size group, and most sizes never occur.
    _assert_same(name, 1, seed)


def test_droptime_equals_the_loop_at_other_seeds():
    for seed in (1, 2):
        _assert_same("droptime", 300, seed)


def test_stacks_cut_into_windows_equal_the_loop(monkeypatch):
    # Windows of a few instances each: many stacks of one and of two.
    monkeypatch.setattr(verification, "_STACK_BYTES", 1500)
    for name, trials in (("gapbound", 20), ("stability", 30), ("bonami", 40)):
        _assert_same(name, trials, 4)


def _forced(monkeypatch, name):
    """Make every instance of ``name`` violate its bound, in both routes."""
    if name == "gapbound":
        monkeypatch.setattr(moments, "lambda_stat", lambda spectrum, eps: 0.0)
    elif name == "stability":
        # Both parts: the displacement bound and the stability bound.
        monkeypatch.setattr(verification, "normalized_frobenius", lambda m: 0.0)
        monkeypatch.setattr(gaps, "stability_bound", lambda p, q: 2.0)
    else:
        stacked = moments.function_moments_stack

        def inflated(tables):
            m2, m4 = stacked(tables)
            return m2, 1e3 * m4

        monkeypatch.setattr(moments, "function_moments_stack", inflated)
        monkeypatch.setattr(verification, "function_moments_stack", inflated)


@pytest.mark.parametrize("name, trials", [("gapbound", 8), ("stability", 12), ("bonami", 30)])
def test_forced_failures_come_in_loop_order(monkeypatch, name, trials):
    _forced(monkeypatch, name)
    got = _assert_same(name, trials, 2)
    assert not got.passed
    assert len(got.failures) == verification._MAX_RECORDED_FAILURES


def test_forced_stability_failures_cover_every_part(monkeypatch):
    # Few displacement pairs, so the recorded failures reach the
    # perturbation trials too.
    _forced(monkeypatch, "stability")
    got = _assert_same("stability", 3, 6)
    assert sum(f.startswith("displacement") for f in got.failures) == 3
    assert any("at n=" in f and f.startswith("stability") for f in got.failures)
