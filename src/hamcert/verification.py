"""Numerical verification suites for every statistical guarantee.

Each suite draws seeded random instances, checks one guarantee at its
stated tolerance, and returns a :class:`SuiteResult`.  Monte Carlo checks
use three-sigma envelopes around exact closed forms; exact inequalities
(theorems) must hold in every trial.  The command-line ``verify``
subcommand and the acceptance test module both run these functions.

``stability``, ``gapbound`` and ``bonami`` draw their instances in the
order a one-at-a-time loop would, since no draw depends on a computed
value, and evaluate them in stacks of equal size (:func:`_in_stacks`,
with the stacked forms in :mod:`hamcert.dense`, :mod:`hamcert.gaps` and
:mod:`hamcert.moments`).  Each instance gets the bits it would get alone,
and failures are recorded in draw order, so every summary is that of the
loop.  ``twirl`` filters its transcripts with the twirl's own survival
test, so it measures the rule the certifier runs.  ``droptime`` takes its
dip measure from :func:`~hamcert.bell.identity_probs_grid` and its miss
count from :func:`~hamcert.gaps.find_drop_indices`.  ``bell`` counts
outcome indices (:func:`~hamcert.bell.bell_outcome_indices`) and takes
its chi-square p-value from a closed form (:func:`chi_square_tail`), so
no suite imports scipy.  ``basis`` tabulates each term's survival over
the ``3^n`` subspaces and gathers it by each draw's code.  No suite
builds one Python object per shot, search or draw.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections.abc import Callable, Hashable, Iterable, Iterator
from dataclasses import dataclass, field
from typing import TypeVar

import numpy as np

from . import certifier as cert
from . import twirl
from .bell import (
    bell_outcome_indices,
    identity_prob_spectral,
    identity_prob_trace,
    identity_probs_grid,
    outcome_bits,
    outcome_pauli_label,
)
from .dense import (
    eigenvalues,
    evolve,
    hoffman_wielandt_gap_stack,
    normalized_frobenius,
    pauli_matrix,
    to_dense,
)
from .gaps import GapStatConfig, find_drop_indices, lambda_stat, verify_stability_stack
from .instances import random_diagonal_sum, random_hermitian, random_pauli_sum
from .moments import function_moments_stack, verify_gap_bound_stack, walsh_eigenvalues
from .oracle import EvolutionOracle, OracleMode
from .pauli import PauliSum, frobenius_norm, scale, subtract
from .trotter import TrotterPlan, trotter_error, trotter_evolve, twirl_conjugators
from .twirl import apply_twirl, project_effective, sample_subspace, sample_twirl_paulis

__all__ = ["SUITES", "SuiteResult", "check_trials", "run_suite", "suite_names"]

_MAX_RECORDED_FAILURES = 10

#: Bytes of stacked arrays that :func:`_in_stacks` lets one window take (2 MiB).
_STACK_BYTES = 2**21

_Item = TypeVar("_Item")
_Value = TypeVar("_Value")


@dataclass
class SuiteResult:
    """Outcome of one verification suite."""

    name: str
    passed: bool = True
    details: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.passed = False
        if len(self.failures) < _MAX_RECORDED_FAILURES:
            self.failures.append(message)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        body = " ".join(f"{k}={v}" for k, v in self.details.items())
        line = f"[{status}] {self.name}: {body}" if body else f"[{status}] {self.name}"
        if self.failures:
            line += " | " + "; ".join(self.failures)
        return line


def _in_stacks(
    instances: Iterable[_Item],
    key: Callable[[_Item], Hashable],
    nbytes: Callable[[_Item], int],
    evaluate: Callable[[list[_Item]], Iterable[_Value]],
) -> Iterator[tuple[_Item, _Value]]:
    """Each instance with its value, in the order of ``instances``.

    ``instances`` may draw each instance as it is taken.  They are taken
    in windows whose stacked arrays take about :data:`_STACK_BYTES`
    (``nbytes`` of each, at least one instance), and ``evaluate`` gets the
    instances of a window that share a ``key``, in order, and returns one
    value each.  ``evaluate`` must draw nothing, so the draws are those of
    a loop that evaluates one instance at a time.
    """
    window: list[_Item] = []
    size = 0
    for item in instances:
        window.append(item)
        size += nbytes(item)
        if size >= _STACK_BYTES:
            yield from _evaluate_window(window, key, evaluate)
            window, size = [], 0
    yield from _evaluate_window(window, key, evaluate)


def _evaluate_window(
    window: list[_Item],
    key: Callable[[_Item], Hashable],
    evaluate: Callable[[list[_Item]], Iterable[_Value]],
) -> Iterator[tuple[_Item, _Value]]:
    groups: dict[Hashable, list[int]] = {}
    for i, item in enumerate(window):
        groups.setdefault(key(item), []).append(i)
    values: list = [None] * len(window)
    for indices in groups.values():
        for i, value in zip(indices, evaluate([window[i] for i in indices])):
            values[i] = value
    return zip(window, values)


def chi_square_pvalue(observed: np.ndarray, expected: np.ndarray) -> float:
    """Pearson chi-square goodness-of-fit p-value with ``len - 1`` degrees of freedom.

    The same statistic as ``scipy.stats.chisquare``, with its upper tail
    from :func:`chi_square_tail`.

    Raises:
        ValueError: If the two count vectors differ in length, there are
            fewer than two bins, an expected count is not positive, or the
            statistic is not finite.
    """
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if len(observed) != len(expected):
        raise ValueError(
            f"observed and expected counts differ in length "
            f"({len(observed)} vs {len(expected)})"
        )
    if len(observed) < 2:
        raise ValueError(f"a chi-square test needs two bins or more, got {len(observed)}")
    if not np.all(expected > 0.0):
        raise ValueError("every expected count must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        stat = float(np.sum((observed - expected) ** 2 / expected))
    if not math.isfinite(stat):
        raise ValueError(f"chi-square statistic is not finite ({stat})")
    return chi_square_tail(len(observed) - 1, stat)


def chi_square_tail(dof: int, stat: float) -> float:
    """Upper tail ``Q(dof/2, stat/2)`` of the chi-square law, for integer ``dof >= 1``.

    With ``h = stat / 2`` and ``m = dof // 2`` the tail is a finite sum:

    - even ``dof``: ``e^{-h} * sum(h^i / i!, i = 0..m-1)``;
    - odd ``dof``: ``erfc(sqrt(h)) + e^{-h} * sum(h^(j-1/2) / Gamma(j+1/2), j = 1..m)``.

    One running term carries each sum, ``e^{-h}`` included, so every term
    is positive and at most 1: nothing cancels and nothing overflows.
    For dof 1..15 and statistics up to 120 this is within 7e-15 relative
    of 40-digit ``mpmath`` values (``scipy.special.chdtrc`` is within
    3e-14).  Where ``e^{-h}`` is subnormal (``h`` above about 708) the
    terms are taken from their logarithms instead, which held to 3e-13
    relative at ``h = 1000``.
    """
    h = 0.5 * stat
    m, odd = divmod(dof, 2)
    first = 0.5 if odd else 0.0  # the sum runs over h^a / Gamma(a + 1), a = first + i
    tail = math.erfc(math.sqrt(h)) if odd else 0.0
    scale = math.exp(-h)
    if scale < sys.float_info.min:
        log_h = math.log(h)
        return tail + math.fsum(
            math.exp((first + i) * log_h - h - math.lgamma(first + i + 1.0))
            for i in range(m)
        )
    term = scale * math.sqrt(h) * (2.0 / math.sqrt(math.pi)) if odd else scale
    total = 0.0
    for i in range(1, m + 1):
        total += term
        term *= h / (first + i)
    return tail + total


def suite_bell(instances: int = 100, seed: int = 0) -> SuiteResult:
    """Identity-outcome probability: spectral form vs trace form vs sampling.

    The spectral and trace routes must agree to 1e-10 on random local
    instances, the identity frequency of 100,000 shots must sit within
    three binomial sigmas of the trace value, and the full outcome histogram
    must pass a 1% chi-square test against the trace-formula weights.
    The shots are counted as outcome indices; only the ``4^n`` possible
    outcomes get names.
    """
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
        dev = abs(identity_prob_spectral(spec, t) - identity_prob_trace(u))
        worst = max(worst, dev)
        if dev > 1e-10:
            result.fail(f"spectral/trace deviation {dev:.2e} at n={n}, t={t:.3f}")
    result.details["instances"] = instances
    result.details["max_route_deviation"] = f"{worst:.2e}"

    for n in (1, 2, 3):
        h = random_pauli_sum(n, min(n, 2), rng)
        t = float(rng.uniform(0.0, 20.0))
        u = evolve(h, t)
        p = identity_prob_trace(u)
        outcomes = bell_outcome_indices(u, rng, shots=mc_shots)
        freq = np.count_nonzero(outcomes == 0) / mc_shots
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
    histogram = np.bincount(bell_outcome_indices(u, rng, shots=mc_shots), minlength=4**n)
    counts = {outcome_pauli_label(outcome_bits(i, n)): c
              for i, c in enumerate(histogram.tolist())}
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
    pvalue = chi_square_pvalue(observed_arr, expected_arr)
    result.details["chi2_pvalue"] = f"{pvalue:.4f}"
    if pvalue < 0.01:
        result.fail(f"chi-square p-value {pvalue:.4f} below the 1% level")
    return result


def suite_gapbound(trials_per_k: int = 500, seed: int = 0) -> SuiteResult:
    """Diagonal gap guarantee: pair fraction at the norm is >= 9^-k / 4.

    The instances are drawn in order and checked in stacks of one ``k``
    and size (see :func:`_in_stacks`).
    """
    rng = np.random.default_rng(seed)
    result = SuiteResult("gapbound")

    def draws() -> Iterator[tuple[int, PauliSum]]:
        for k in (1, 2, 3):
            for _ in range(trials_per_k):
                n = int(rng.integers(max(2, k), 9))
                yield k, random_diagonal_sum(n, k, rng)

    checked = 0
    for (k, h), holds in _in_stacks(
        draws(),
        key=lambda item: (item[0], item[1].n),
        nbytes=lambda item: 8 * 2 ** item[1].n,
        evaluate=lambda group: verify_gap_bound_stack([h for _, h in group], group[0][0]),
    ):
        checked += 1
        if not holds:
            result.fail(f"gap bound violated at n={h.n}, k={k}: {h!r}")
    result.details["instances"] = checked
    return result


def suite_basis(draws: int = 100_000, seed: int = 0) -> SuiteResult:
    """Random subspace selection: survival rates and norm retention.

    A weight-w term survives into the subspace with probability 3^-w; the
    retained squared norm matches its closed-form mean; and the retained
    norm of five instances per k clears the anti-concentration threshold
    with probability at least 1/(4*3^k).  All checks at three sigma.
    """
    rng = np.random.default_rng(seed)
    result = SuiteResult("basis")
    n = 4
    # Row c holds the axis codes (those of sample_subspace) of subspace code
    # c = sum(axes[i] * 3^(n-1-i)); a draw is gathered by its code.
    subspaces = np.array(list(itertools.product(range(3), repeat=n)))
    weights = 3 ** np.arange(n - 1, -1, -1)

    def members(h: PauliSum) -> Iterator[tuple[float, int, np.ndarray]]:
        # Each term's coefficient, weight, and whether it lies in each of
        # the 3^n subspaces, from the sites and axis codes of its support.
        starts, sites, letters = h._support()
        terms = zip(np.split(sites, starts[1:]), np.split(letters - ord("X"), starts[1:]))
        for coeff, (on, codes) in zip(h._terms.values(), terms):
            yield coeff, len(on), (subspaces[:, on] == codes).all(axis=1)

    fixed = PauliSum(n, {"ZIII": 0.5, "XYII": 0.4, "XYZI": 0.3})
    drawn = rng.integers(0, 3, size=(draws, n)) @ weights
    for _, w, survives in members(fixed):
        p = 3.0 ** (-w)
        sigma = math.sqrt(p * (1.0 - p) / draws)
        freq = float(survives[drawn].mean())
        if abs(freq - p) > 3.0 * sigma:
            result.fail(
                f"survival of weight-{w} term: {freq:.5f} vs 3^-{w}={p:.5f}"
            )
    min_margin = math.inf
    for k in (1, 2):
        for _ in range(5):
            h = random_pauli_sum(n, k, rng)
            drawn = rng.integers(0, 3, size=(draws, n)) @ weights
            # Per subspace in term order, then per draw: a draw adds the
            # same doubles in the same order (an exact 0.0 for a term that
            # does not survive) as a sum over its own terms.
            retained_by_code = np.zeros(subspaces.shape[0])
            exact_mean = 0.0
            for coeff, w, survives in members(h):
                retained_by_code += (coeff * coeff) * survives
                exact_mean += coeff * coeff * 3.0 ** (-w)
            retained_sq = retained_by_code[drawn]
            sigma_mean = float(retained_sq.std(ddof=1)) / math.sqrt(draws)
            if abs(float(retained_sq.mean()) - exact_mean) > 3.0 * sigma_mean:
                result.fail(f"mean retained norm off closed form at k={k}")
            threshold_sq = frobenius_norm(h) ** 2 / (2.0 * 3.0**k)
            freq = float((retained_sq >= threshold_sq).mean())
            bound = 1.0 / (4.0 * 3.0**k)
            sigma_f = math.sqrt(max(freq * (1.0 - freq) / draws, 1e-18))
            min_margin = min(min_margin, freq - bound)
            if freq < bound - 3.0 * sigma_f - 1e-12:
                result.fail(
                    f"retention probability {freq:.5f} below bound {bound:.5f} "
                    f"at k={k}"
                )
    result.details["draws"] = draws
    result.details["min_retention_margin"] = f"{min_margin:.4f}"
    return result


def suite_twirl(transcripts: int = 20_000, seed: int = 0) -> SuiteResult:
    """Twirl contraction: residual norm mean and its Markov tail.

    For each depth ``T = 1..6``, the off-subspace squared norm surviving
    ``T`` steps has exact mean
    ``2^-T`` times the initial off-subspace squared norm, and stays below
    twice ``2^-T/2`` of the full initial norm with probability >= 3/4.
    Each transcript's survivors come from the twirl's own survival test
    (:func:`hamcert.twirl._survives`), for all off-subspace terms at once.
    """
    rng = np.random.default_rng(seed)
    result = SuiteResult("twirl")
    n = 3
    h1 = random_pauli_sum(n, 2, rng, num_terms=6)
    for _ in range(11):
        subspace = sample_subspace(n, rng)
        _, off = project_effective(h1, subspace)
        if off:
            break
    else:
        result.fail("could not find a subspace with off-subspace terms")
        return result
    support = twirl._mismatch(off, subspace)
    off_norm_sq = frobenius_norm(off) ** 2
    h1_norm_sq = frobenius_norm(h1) ** 2
    max_steps = 6
    for steps in range(1, max_steps + 1):
        bits = rng.integers(0, 2, size=(transcripts, steps, n))
        residual_sq = np.zeros(transcripts)
        for coeff, survive in zip(off._terms.values(), twirl._survives(bits, *support).T):
            residual_sq += (coeff * coeff) * survive
        exact = 2.0 ** (-steps) * off_norm_sq
        sigma = float(residual_sq.std(ddof=1)) / math.sqrt(transcripts)
        if abs(float(residual_sq.mean()) - exact) > 3.0 * sigma:
            result.fail(
                f"residual mean {residual_sq.mean():.5e} vs exact {exact:.5e} "
                f"at T={steps}"
            )
        threshold_sq = 4.0 * 2.0 ** (-steps) * h1_norm_sq
        freq = float((residual_sq <= threshold_sq).mean())
        sigma_f = math.sqrt(max(freq * (1.0 - freq) / transcripts, 1e-18))
        if freq < 0.75 - 3.0 * sigma_f - 1e-12:
            result.fail(f"Markov tail {freq:.4f} below 3/4 at T={steps}")
    result.details["transcripts"] = transcripts
    result.details["steps_checked"] = max_steps
    return result


def suite_stability(pairs: int = 1000, seed: int = 0) -> SuiteResult:
    """Eigenvalue displacement bound and the gap-fraction stability bound.

    Sorted-pairing mean-square displacement never exceeds the squared
    normalized Frobenius distance, and the half-threshold pair fraction
    of 500 general and 100 diagonal perturbed operators never falls below
    the quadratic degradation bound.  Both are exact inequalities: zero
    violations allowed.  The instances are drawn in order and evaluated in
    stacks of one size (see :func:`_in_stacks`).
    """
    stability_trials, diag_trials = 500, 100
    rng = np.random.default_rng(seed)
    result = SuiteResult("stability")

    def hermitian_pairs() -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        for _ in range(pairs):
            n = int(rng.integers(1, 5))
            yield n, random_hermitian(2**n, rng), random_hermitian(2**n, rng)

    def displacements(group: list[tuple[int, np.ndarray, np.ndarray]]) -> Iterable:
        a = np.stack([a for _, a, _ in group])
        b = np.stack([b for _, _, b in group])
        bounds = [normalized_frobenius(m) ** 2 for m in a - b]
        return zip(hoffman_wielandt_gap_stack(a, b).tolist(), bounds)

    for (n, _, _), (gap, bound) in _in_stacks(
        hermitian_pairs(),
        key=lambda pair: pair[0],
        nbytes=lambda pair: 2 * 16 * 4 ** pair[0],
        evaluate=displacements,
    ):
        if gap > bound + 1e-9:
            result.fail(f"displacement {gap:.6e} exceeds {bound:.6e} at n={n}")

    def perturbed() -> Iterator[tuple[str, PauliSum, PauliSum, float]]:
        for _ in range(stability_trials):
            n = int(rng.integers(1, 5))
            a = random_pauli_sum(n, min(n, 2), rng)
            b_raw = random_pauli_sum(n, min(n, 2), rng)
            eps = frobenius_norm(a)
            target = float(rng.uniform(0.0, eps / 8.0))
            yield "at", a, scale(b_raw, target / frobenius_norm(b_raw)), eps
        for _ in range(diag_trials):
            n = int(rng.integers(2, 5))
            a = random_diagonal_sum(n, 2, rng)
            b_raw = random_pauli_sum(n, min(n, 2), rng, letters="XY")
            eps = frobenius_norm(a)
            target = float(rng.uniform(0.0, eps / 8.0))
            yield "on diagonal instance,", a, scale(b_raw, target / frobenius_norm(b_raw)), eps

    for (where, a, _, _), holds in _in_stacks(
        perturbed(),
        key=lambda case: case[1].n,
        nbytes=lambda case: 2 * 16 * 4 ** case[1].n,
        evaluate=lambda group: verify_stability_stack([case[1:] for case in group]),
    ):
        if not holds:
            result.fail(f"stability bound violated {where} n={a.n}")
    result.details["hermitian_pairs"] = pairs
    result.details["perturbation_trials"] = stability_trials + diag_trials
    return result


def suite_droptime(reps: int = 10_000, seed: int = 0) -> SuiteResult:
    """Drop-time search: dip measure and randomized-finder failure rate.

    Whenever the pair fraction at ``eps`` is ``d``, the times in
    ``[0, 2/eps]`` where the identity probability falls to ``1 - d/4``
    fill at least a third of the interval (resolved on a grid of 200,001
    points, with a small grid slack), and the randomized finder misses
    with probability at most delta.
    """
    grid_points = 200_001
    rng = np.random.default_rng(seed)
    result = SuiteResult("droptime")
    cases: list[tuple[np.ndarray, float]] = [
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
        ivals = identity_probs_grid(spec, 2.0 / eps, grid_points)
        measure = int((ivals <= target).sum()) / grid_points
        min_measure = min(min_measure, measure)
        if measure < 1.0 / 3.0 - 1e-3:
            result.fail(f"dip measure {measure:.4f} below 1/3")
        cfg = GapStatConfig(epsilon=eps, d=d, delta=delta)
        at, _, _ = find_drop_indices(spec, cfg, rng, reps)
        misses = np.count_nonzero(at < 0)
        rate = misses / reps
        max_fail_rate = max(max_fail_rate, rate)
        if rate > delta + 3.0 * math.sqrt(delta * (1.0 - delta) / reps):
            result.fail(f"finder failure rate {rate:.4f} above delta={delta}")
    result.details["cases"] = len(cases)
    result.details["min_dip_measure"] = f"{min_measure:.4f}"
    result.details["max_finder_failure_rate"] = f"{max_fail_rate:.4f}"
    return result


def suite_trotter(seed: int = 0) -> SuiteResult:
    """Product-formula quality: second-order decay, exact time accounting.

    Over 8, 16, 32 and 64 steps of a shot of duration 1, the operator-norm
    error must fall roughly fourfold per step doubling (log-log slope in
    [-2.4, -1.6]), the ledger charge per shot must equal the shot duration
    exactly, and the trace deviation can never exceed the operator-norm
    error.
    """
    steps_list, t = (8, 16, 32, 64), 1.0
    rng = np.random.default_rng(seed)
    result = SuiteResult("trotter")
    n = 3
    h0 = random_pauli_sum(n, 2, rng, num_terms=5)
    hidden = random_pauli_sum(n, 2, rng, num_terms=5)
    subspace = sample_subspace(n, rng)
    paulis = sample_twirl_paulis(subspace, 3, rng)
    transcript = apply_twirl(subtract(hidden, h0), subspace, paulis)
    draws = twirl_conjugators(subspace, paulis)
    op_errors = []
    for steps in steps_list:
        oracle = EvolutionOracle(hidden, OracleMode.TROTTERIZED)
        plan = TrotterPlan(draws, steps, t)
        v = trotter_evolve(oracle, h0, plan)
        if oracle.ledger.total_time != t:
            result.fail(f"ledger charge {oracle.ledger.total_time!r} is not {t} at steps={steps}")
        err = trotter_error(v, transcript.twirled, t)
        if err.bell_deviation > err.op_norm + 1e-12:
            result.fail(f"trace deviation exceeds operator norm at steps={steps}")
        op_errors.append(err.op_norm)
    for i in range(len(op_errors) - 1):
        ratio = op_errors[i] / op_errors[i + 1]
        if not 2.5 <= ratio <= 5.5:
            result.fail(
                f"error ratio {ratio:.2f} outside [2.5, 5.5] between "
                f"steps {steps_list[i]} and {steps_list[i + 1]}"
            )
    slope = float(np.polyfit(np.log(steps_list), np.log(op_errors), 1)[0])
    result.details["loglog_slope"] = f"{slope:.3f}"
    result.details["errors"] = "[" + ", ".join(f"{e:.3e}" for e in op_errors) + "]"
    if not -2.4 <= slope <= -1.6:
        result.fail(f"convergence slope {slope:.3f} outside [-2.4, -1.6]")
    return result


def suite_endtoend(runs: int = 100, seed: int = 0) -> SuiteResult:
    """Full protocol: completeness, soundness, and the ledger ceiling.

    With equal Hamiltonians every seeded run must accept with all-ones
    identity fractions; with a normalized-Frobenius separation at the
    threshold the reject rate must reach 1 - delta; and the ledger can
    never exceed rounds * shots * time_cap.
    """
    result = SuiteResult("endtoend")
    h0 = PauliSum(1, {"X": -0.1})
    same = PauliSum(1, {"X": -0.1})
    far = PauliSum(1, {"X": 0.1})

    def reports(hidden: PauliSum, offset: int) -> Iterator[cert.CertificationReport]:
        # Each run's report, its ledger checked against the ceiling.
        for s in range(runs):
            cfg = cert.CertificationConfig(epsilon=0.2, delta=0.2, k=1, seed=seed + offset + s)
            report = cert.certify(h0, EvolutionOracle(hidden, OracleMode.EXACT_EFFECTIVE), cfg)
            ceiling = cfg.rounds * cfg.shots_per_round * cfg.time_cap
            if report.ledger_total_time > ceiling * (1 + 1e-12):
                result.fail(f"ledger {report.ledger_total_time} above ceiling {ceiling}")
            yield report

    accepts = sum(
        report.verdict == "ACCEPT"
        and all(rec.identity_fraction == 1.0 for rec in report.records)
        for report in reports(same, 0)
    )
    rejects = sum(report.verdict == "REJECT" for report in reports(far, 10_000))
    result.details["accept_rate"] = f"{accepts}/{runs}"
    result.details["reject_rate"] = f"{rejects}/{runs}"
    if accepts != runs:
        result.fail(f"completeness: only {accepts}/{runs} accepted")
    if rejects < math.ceil(0.8 * runs):
        result.fail(f"soundness: only {rejects}/{runs} rejected (need >= 80%)")
    return result


def suite_heisenberg(repeats: int = 8, seed: int = 0) -> SuiteResult:
    """Total-time scaling: ledger total fits a 1/epsilon power law."""
    result = SuiteResult("heisenberg")
    h0 = PauliSum(1, {"Z": 0.3})
    direction = PauliSum(1, {"X": 1.0})
    cfg = cert.CertificationConfig(epsilon=0.4, delta=0.2, k=1, seed=seed)
    eps_list = [0.4, 0.2, 0.1, 0.05]
    sweep = cert.sweep_epsilon(h0, direction, eps_list, cfg, repeats=repeats)
    result.details["loglog_slope"] = f"{sweep.loglog_slope:.4f}"
    if not -1.2 <= sweep.loglog_slope <= -0.8:
        result.fail(f"slope {sweep.loglog_slope:.4f} outside [-1.2, -0.8]")
    for eps in eps_list:
        rows = [r for r in sweep.rows if r.epsilon == eps]
        rate = sum(1 for r in rows if r.verdict == "REJECT") / len(rows)
        if rate < 0.8:
            result.fail(f"reject rate {rate:.2f} below 1-delta at eps={eps}")
    result.details["rows"] = len(sweep.rows)
    return result


def suite_bonami(trials: int = 1000, seed: int = 0) -> SuiteResult:
    """Fourth-moment bound for random low-degree multilinear functions.

    Each function is drawn as its nonzero coefficients, in order, and the
    moments are taken in stacks of one table size (see :func:`_in_stacks`).
    """
    rng = np.random.default_rng(seed)
    result = SuiteResult("bonami")

    def functions() -> Iterator[tuple[int, int, list[int], list[float]]]:
        for i in range(trials):
            k = 1 + i % 3
            v = int(rng.integers(max(2, k), 13))
            masks: set[int] = set()
            for _ in range(int(rng.integers(1, 13))):
                w = int(rng.integers(1, k + 1))
                sites = rng.choice(v, size=w, replace=False)
                masks.add(sum(1 << s for s in sites.tolist()))
            # One call gives the values and generator state of one
            # rng.normal() per mask: Generator.normal keeps no cache.
            yield k, v, list(masks), rng.normal(size=len(masks)).tolist()

    def moments(group: list[tuple[int, int, list[int], list[float]]]) -> Iterable:
        tables = np.zeros((len(group), 2 ** group[0][1]))
        for table, (_, _, masks, coeffs) in zip(tables, group):
            table[masks] = coeffs
        m2, m4 = function_moments_stack(tables)
        return zip(m2.tolist(), m4.tolist())

    checked = 0
    worst_ratio = 0.0
    for (k, _, _, _), (m2, m4) in _in_stacks(
        functions(),
        key=lambda function: function[1],
        nbytes=lambda function: 8 * 2 ** function[1],
        evaluate=moments,
    ):
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


#: Suite name -> (suite function, keyword of its main trial count or None,
#: the least trial count its envelopes hold for).
SUITES: dict[str, tuple[Callable[..., SuiteResult], str | None, int]] = {
    "bell": (suite_bell, "instances", 1),
    "gapbound": (suite_gapbound, "trials_per_k", 1),
    "basis": (suite_basis, "draws", 100),
    "twirl": (suite_twirl, "transcripts", 100),
    "stability": (suite_stability, "pairs", 1),
    "droptime": (suite_droptime, "reps", 1),
    "trotter": (suite_trotter, None, 1),
    "endtoend": (suite_endtoend, "runs", 1),
    "heisenberg": (suite_heisenberg, "repeats", 1),
    "bonami": (suite_bonami, "trials", 1),
}


def suite_names() -> list[str]:
    return list(SUITES)


def check_trials(name: str, trials: int | None) -> None:
    """Raise ``KeyError`` for an unknown suite and ``ValueError`` for a
    given trial count that is not an integer (a boolean is not), below 1
    or below the suite's minimum."""
    if name not in SUITES:
        raise KeyError(f"Unknown suite {name!r}; choose from {suite_names()}.")
    if trials is not None and (isinstance(trials, bool) or not isinstance(trials, int)):
        raise ValueError(f"Trial count must be an integer, got {trials!r}.")
    if trials is not None and trials < 1:
        raise ValueError(f"Trial count must be at least 1, got {trials}.")
    _, knob, minimum = SUITES[name]
    if trials is not None and trials < minimum:
        raise ValueError(
            f"{name} suite needs at least {minimum} {knob} for its envelopes, "
            f"got {trials}."
        )


def run_suite(name: str, trials: int | None = None, seed: int = 0) -> SuiteResult:
    """Run a suite by name, optionally overriding its main trial count.

    Raises:
        KeyError, ValueError: As :func:`check_trials`, and ValueError for
            a negative seed.
    """
    check_trials(name, trials)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}.")
    suite, knob, _ = SUITES[name]
    kwargs: dict[str, int] = {"seed": seed}
    if trials is not None and knob is not None:
        kwargs[knob] = trials
    return suite(**kwargs)
