"""The verify suites against their per-instance loops.

``suite_stability``, ``suite_gapbound`` and ``suite_bonami`` draw all of
their instances first and evaluate them in stacks of equal size;
``suite_droptime`` takes its dip measure from one grid product and its
miss count from the drop-time array core; ``suite_bell`` counts outcome
indices and ``suite_basis`` gathers per-subspace tables by each draw's
code.  The reference loops below draw and evaluate one instance at a time,
with the per-instance functions and one Python object per shot, search,
draw or coefficient, as the suites did before.  A suite must give the same
``passed``, ``details`` and ``failures`` as its loop, also when a bound is
forced to fail everywhere, so that the first recorded failures come in the
same order.
"""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from hamcert import bell, gaps, moments, verification
from hamcert.bell import (
    bell_measure_choi,
    identity_prob_spectral,
    outcome_pauli_label,
)
from hamcert.dense import eigenvalues, evolve, hoffman_wielandt_gap, pauli_matrix, to_dense
from hamcert.gaps import GapStatConfig, find_drop_times, lambda_stat, verify_stability
from hamcert.instances import random_diagonal_sum, random_hermitian, random_pauli_sum
from hamcert.moments import verify_gap_bound, walsh_eigenvalues
from hamcert.pauli import PauliSum, frobenius_norm, scale
from hamcert.twirl import _AXES
from hamcert.verification import SUITES, SuiteResult


def reference_bell(instances, seed):
    mc_shots = 100_000
    rng = np.random.default_rng(seed)
    result = SuiteResult("bell")
    worst = 0.0
    for i in range(instances):
        n = 1 + i % 4
        h = random_pauli_sum(n, min(n, 2), rng)
        t = float(rng.uniform(0.0, 20.0))
        spec = eigenvalues(to_dense(h))
        u = evolve(h, t)
        # Looked up at call time, so that a test can patch the trace route.
        dev = abs(identity_prob_spectral(spec, t) - verification.identity_prob_trace(u))
        worst = max(worst, dev)
        if dev > 1e-10:
            result.fail(f"spectral/trace deviation {dev:.2e} at n={n}, t={t:.3f}")
    result.details["instances"] = instances
    result.details["max_route_deviation"] = f"{worst:.2e}"
    for n in (1, 2, 3):
        h = random_pauli_sum(n, min(n, 2), rng)
        t = float(rng.uniform(0.0, 20.0))
        u = evolve(h, t)
        p = verification.identity_prob_trace(u)
        outcomes = bell_measure_choi(u, rng, shots=mc_shots)
        freq = outcomes.count("0" * (2 * n)) / mc_shots
        sigma = math.sqrt(max(p * (1.0 - p) / mc_shots, 0.0))
        if abs(freq - p) > 3.0 * sigma + 1e-9:
            result.fail(
                f"identity frequency {freq:.5f} vs p={p:.5f} "
                f"outside 3 sigma at n={n}"
            )
    n = 2
    h = random_pauli_sum(n, 2, rng)
    t = float(rng.uniform(0.0, 20.0))
    u = evolve(h, t)
    histogram = Counter(bell_measure_choi(u, rng, shots=mc_shots))
    counts = {outcome_pauli_label(o): c for o, c in histogram.items()}
    observed, expected = [], []
    pooled_obs, pooled_exp = 0.0, 0.0
    for label in ("".join(p) for p in itertools.product("IXYZ", repeat=n)):
        exp = abs(np.trace(pauli_matrix(label) @ u)) ** 2 / 4**n * mc_shots
        obs = counts.get(label, 0)
        if exp >= 5.0:
            observed.append(obs)
            expected.append(exp)
        else:
            pooled_obs += obs
            pooled_exp += exp
    if pooled_exp > 0:
        observed.append(pooled_obs)
        expected.append(pooled_exp)
    expected_arr = np.asarray(expected, dtype=float)
    observed_arr = np.asarray(observed, dtype=float)
    expected_arr *= observed_arr.sum() / expected_arr.sum()
    pvalue = verification.chi_square_pvalue(observed_arr, expected_arr)
    result.details["chi2_pvalue"] = f"{pvalue:.4f}"
    if pvalue < 0.01:
        result.fail(f"chi-square p-value {pvalue:.4f} below the 1% level")
    return result


def reference_basis(draws, seed):
    rng = np.random.default_rng(seed)
    result = SuiteResult("basis")
    n = 4

    def members(h, axes_draws):
        # One boolean array over all draws per term.
        for label, coeff in h.items():
            support = [(i, _AXES.index(ch)) for i, ch in enumerate(label) if ch != "I"]
            survive = np.ones(draws, dtype=bool)
            for site, code in support:
                survive &= axes_draws[:, site] == code
            yield coeff, len(support), survive

    fixed = PauliSum(n, {"ZIII": 0.5, "XYII": 0.4, "XYZI": 0.3})
    axes_draws = rng.integers(0, 3, size=(draws, n))
    for _, w, survive in members(fixed, axes_draws):
        p = 3.0 ** (-w)
        sigma = math.sqrt(p * (1.0 - p) / draws)
        freq = float(survive.mean())
        if abs(freq - p) > 3.0 * sigma:
            result.fail(f"survival of weight-{w} term: {freq:.5f} vs 3^-{w}={p:.5f}")
    min_margin = math.inf
    for k in (1, 2):
        for _ in range(5):
            h = random_pauli_sum(n, k, rng)
            axes_draws = rng.integers(0, 3, size=(draws, n))
            retained_sq = np.zeros(draws)
            exact_mean = 0.0
            for coeff, w, survive in members(h, axes_draws):
                retained_sq += (coeff * coeff) * survive
                exact_mean += coeff * coeff * 3.0 ** (-w)
            sigma_mean = float(retained_sq.std(ddof=1)) / math.sqrt(draws)
            if abs(float(retained_sq.mean()) - exact_mean) > 3.0 * sigma_mean:
                result.fail(f"mean retained norm off closed form at k={k}")
            # Looked up at call time, so that a test can patch the norm.
            threshold_sq = verification.frobenius_norm(h) ** 2 / (2.0 * 3.0**k)
            freq = float((retained_sq >= threshold_sq).mean())
            bound = 1.0 / (4.0 * 3.0**k)
            sigma_f = math.sqrt(max(freq * (1.0 - freq) / draws, 1e-18))
            min_margin = min(min_margin, freq - bound)
            if freq < bound - 3.0 * sigma_f - 1e-12:
                result.fail(
                    f"retention probability {freq:.5f} below bound {bound:.5f} at k={k}"
                )
    result.details["draws"] = draws
    result.details["min_retention_margin"] = f"{min_margin:.4f}"
    return result


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
        # Through the module, so that a test can patch the dip route.
        ivals = bell.identity_probs_spectral(spec, np.linspace(0.0, 2.0 / eps, grid_points))
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
    "bell": reference_bell,
    "basis": reference_basis,
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
    # The least trial count a suite takes (one, except basis): one instance
    # per size group, and most sizes never occur.
    _assert_same(name, SUITES[name][2], seed)


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("name, trials", [("bell", 9), ("basis", 3000), ("droptime", 1500)])
def test_counted_suites_equal_the_loop(name, trials, seed):
    _assert_same(name, trials, seed)


def test_droptime_equals_the_loop_at_other_seeds():
    for seed in (1, 2):
        _assert_same("droptime", 300, seed)


def test_stacks_cut_into_windows_equal_the_loop(monkeypatch):
    # Windows of a few instances each: many stacks of one and of two.
    monkeypatch.setattr(verification, "_STACK_BYTES", 1500)
    for name, trials in (("gapbound", 20), ("stability", 30), ("bonami", 40)):
        _assert_same(name, trials, 4)


def _never_dips(spectrum, times):
    return np.ones(len(times))


def _forced(monkeypatch, name):
    """Make every instance of ``name`` violate its bound, in both routes."""
    if name == "gapbound":
        monkeypatch.setattr(moments, "lambda_stat_stack",
                            lambda spectra, epsilons: np.zeros(len(spectra)))
    elif name == "stability":
        # Both parts: the displacement bound and the stability bound.
        monkeypatch.setattr(verification, "normalized_frobenius", lambda m: 0.0)
        monkeypatch.setattr(gaps, "stability_bound", lambda p, q: 2.0)
    elif name == "bell":
        # Every part: the route deviation, the frequency and the chi-square.
        monkeypatch.setattr(verification, "identity_prob_trace", lambda u: -1.0)
        monkeypatch.setattr(verification, "chi_square_pvalue", lambda obs, exp: 0.0)
    elif name == "basis":
        # Every retention check; the survival and mean checks stay exact.
        monkeypatch.setattr(verification, "frobenius_norm", lambda h: 1e3)
    elif name == "droptime":
        # Both parts: the dip measure (grid and loop routes) and the finder.
        monkeypatch.setattr(bell, "identity_probs_spectral", _never_dips)
        monkeypatch.setattr(gaps, "identity_probs_spectral", _never_dips)
        monkeypatch.setattr(verification, "identity_probs_grid",
                            lambda spectrum, stop, points: np.ones(points))
    else:
        stacked = moments.function_moments_stack

        def inflated(tables):
            m2, m4 = stacked(tables)
            return m2, 1e3 * m4

        monkeypatch.setattr(moments, "function_moments_stack", inflated)
        monkeypatch.setattr(verification, "function_moments_stack", inflated)


@pytest.mark.parametrize("name, trials", [
    ("gapbound", 8), ("stability", 12), ("bonami", 30),
    ("bell", 20), ("basis", 100), ("droptime", 50),
])
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


def test_forced_bell_failures_cover_every_part(monkeypatch):
    # Few instances, so the recorded failures reach the sampled parts too.
    _forced(monkeypatch, "bell")
    got = _assert_same("bell", 3, 6)
    assert [f.split()[0] for f in got.failures] == ["spectral/trace"] * 3 + [
        "identity"] * 3 + ["chi-square"]


def test_forced_droptime_failures_cover_both_parts(monkeypatch):
    _forced(monkeypatch, "droptime")
    got = _assert_same("droptime", 20, 1)
    assert [f.split()[0] for f in got.failures] == ["dip", "finder"] * 5
