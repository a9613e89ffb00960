"""Tests for the twirl draws and the symmetric product formula."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamcert.bell import identity_prob_trace
from hamcert.certifier import CertificationConfig
from hamcert.dense import evolve, pauli_matrix
from hamcert.instances import random_pauli_sum
from hamcert.oracle import EvolutionOracle, OracleMode, OracleModeError
from hamcert.pauli import PauliSum, conjugate, scale, subtract
from hamcert.trotter import (
    TROTTER_STEP_CAP,
    TrotterPlan,
    calibrate_steps,
    steps_from_bound,
    trotter_error,
    trotter_evolve,
    twirl_conjugators,
)
from hamcert.twirl import (
    DiagonalSubspace,
    apply_twirl,
    sample_subspace,
    sample_twirl_paulis,
)


def _member(subspace, bits):
    """The subspace member that holds the site's axis wherever ``bits`` is set."""
    return "".join(ax if bit else "I" for ax, bit in zip(subspace.axes, bits))


def _sectors(s, paulis):
    """The ``2^T`` subset products of the draws, in subset-mask order.

    Within one subspace a product's inclusion bits are the XOR of its
    factors' bits."""
    bits = [np.zeros(s.n, dtype=bool)]
    for p in paulis:
        drawn = np.array([ch != "I" for ch in p])
        bits += [b ^ drawn for b in bits]
    return tuple(_member(s, b) for b in bits)


def _sector_matrices(paulis, dim):
    """Dense products of the draws over every subset, in subset-mask order."""
    mats = [np.eye(dim, dtype=complex)]
    for p in paulis:
        pm = pauli_matrix(p)
        mats += [m @ pm for m in mats]
    return mats


class TestUnroll:
    def test_single_draw_gives_identity_and_the_draw(self):
        s = DiagonalSubspace(("Z",))
        assert twirl_conjugators(s, ("Z",)) == ("Z",)
        assert _sectors(s, ("Z",)) == ("I", "Z")

    def test_one_step_average_kills_anticommuting_terms(self):
        s = DiagonalSubspace(("Z",))
        h1 = PauliSum(1, {"X": 0.8, "Z": 0.5})
        sectors = _sectors(s, twirl_conjugators(s, ("Z",)))
        averaged = scale(
            sum((conjugate(h1, q) for q in sectors[1:]), conjugate(h1, sectors[0])),
            1.0 / len(sectors),
        )
        assert averaged == PauliSum(1, {"Z": 0.5})

    def test_average_matches_twirl_filter_exactly(self):
        rng = np.random.default_rng(60)
        h1 = random_pauli_sum(3, 2, rng, num_terms=7)
        s = sample_subspace(3, rng)
        paulis = sample_twirl_paulis(s, 2, rng)
        sectors = _sectors(s, twirl_conjugators(s, paulis))
        assert len(sectors) == 4
        averaged = scale(
            sum((conjugate(h1, q) for q in sectors[1:]), conjugate(h1, sectors[0])),
            1.0 / len(sectors),
        )
        assert averaged == apply_twirl(h1, s, paulis).twirled

    def test_identity_draws_leave_everything(self):
        s = DiagonalSubspace(("Z", "Z"))
        assert twirl_conjugators(s, ("II", "II")) == ("II", "II")
        assert _sectors(s, ("II", "II")) == ("II", "II", "II", "II")

    def test_sector_products_are_phase_free(self):
        rng = np.random.default_rng(62)
        s = sample_subspace(3, rng)
        paulis = sample_twirl_paulis(s, 3, rng)
        mats = [pauli_matrix(p) for p in paulis]
        for mask, q in enumerate(_sectors(s, twirl_conjugators(s, paulis))):
            expected = np.eye(8, dtype=complex)
            for i in range(3):
                if mask >> i & 1:
                    expected = expected @ mats[i]
            assert np.array_equal(pauli_matrix(q), expected)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(1, 4), draws=st.integers(0, 4))
    def test_sectors_are_dense_products_of_random_draws(self, data, n, draws):
        # At n <= 4 identity draws and repeated draws are frequent.
        axes = data.draw(st.lists(st.sampled_from("XYZ"), min_size=n, max_size=n))
        s = DiagonalSubspace(tuple(axes))
        bits = st.lists(st.booleans(), min_size=n, max_size=n)
        member = bits.map(lambda b: _member(s, b))
        paulis = tuple(data.draw(st.lists(member, min_size=draws, max_size=draws)))
        mats = [pauli_matrix(p) for p in paulis]
        assert twirl_conjugators(s, paulis) == paulis
        sectors = _sectors(s, paulis)
        assert len(sectors) == 2**draws
        for mask, q in enumerate(sectors):
            expected = np.eye(2**n, dtype=complex)
            for i in range(draws):
                if mask >> i & 1:
                    expected = expected @ mats[i]
            assert np.array_equal(pauli_matrix(q), expected)

    def test_draw_cap(self):
        s = DiagonalSubspace(("Z",))
        with pytest.raises(ValueError, match="unroll"):
            twirl_conjugators(s, ("Z",) * 9)


@pytest.mark.parametrize("total_time", [-1.0, float("nan")])
def test_plan_rejects_a_duration_that_is_not_nonnegative(total_time):
    with pytest.raises(ValueError, match="nonnegative"):
        TrotterPlan(("I",), 1, total_time)


class TestStepsFromBound:
    def test_formula(self):
        assert steps_from_bound(3, 1.0, 1e-4) == 800
        assert steps_from_bound(0, 0.0, 1e-4) == 1

    def test_clamped_to_cap(self):
        assert steps_from_bound(8, 100.0, 1e-12) == 2**16

    def test_tiny_budget_saturates_instead_of_overflowing(self):
        assert steps_from_bound(2, 1.0, 5e-324) == TROTTER_STEP_CAP

    def test_huge_duration_saturates_instead_of_overflowing(self):
        assert steps_from_bound(2, 1e200, 1e-3) == TROTTER_STEP_CAP
        assert steps_from_bound(2, math.inf, 1e-3) == TROTTER_STEP_CAP


class TestTrotterEvolve:
    def _setup(self, seed, draws=2):
        rng = np.random.default_rng(seed)
        h0 = random_pauli_sum(2, 2, rng, num_terms=4)
        hidden = random_pauli_sum(2, 2, rng, num_terms=4)
        s = sample_subspace(2, rng)
        paulis = twirl_conjugators(s, sample_twirl_paulis(s, draws, rng))
        h_t = apply_twirl(subtract(hidden, h0), s, paulis).twirled
        return h0, hidden, paulis, h_t

    def test_mode_gate(self):
        h0, hidden, paulis, _ = self._setup(1)
        oracle = EvolutionOracle(hidden, OracleMode.EXACT_EFFECTIVE)
        with pytest.raises(OracleModeError):
            trotter_evolve(oracle, h0, TrotterPlan(paulis, 4, 1.0))

    def test_equal_hamiltonians_compile_to_identity(self):
        rng = np.random.default_rng(2)
        h = random_pauli_sum(2, 2, rng, num_terms=4)
        s = sample_subspace(2, rng)
        paulis = twirl_conjugators(s, sample_twirl_paulis(s, 2, rng))
        oracle = EvolutionOracle(h, OracleMode.TROTTERIZED)
        for steps in (1, 8, 64):
            v = trotter_evolve(oracle, h, TrotterPlan(paulis, steps, 1.5))
            assert np.max(np.abs(v - np.eye(4))) <= 1e-10

    def test_commuting_sectors_exact_at_one_step(self):
        rng = np.random.default_rng(3)
        h0 = random_pauli_sum(3, 2, rng, letters="Z", num_terms=4)
        hidden = random_pauli_sum(3, 2, rng, letters="Z", num_terms=4)
        s = sample_subspace(3, rng)
        paulis = twirl_conjugators(s, sample_twirl_paulis(s, 2, rng))
        h_t = apply_twirl(subtract(hidden, h0), s, paulis).twirled
        oracle = EvolutionOracle(hidden, OracleMode.TROTTERIZED)
        v = trotter_evolve(oracle, h0, TrotterPlan(paulis, 1, 2.0))
        assert np.max(np.abs(v - evolve(h_t, 2.0))) <= 1e-9

    def test_ledger_charge_equals_duration(self):
        h0, hidden, paulis, _ = self._setup(4)
        for steps in (1, 8, 33, 128):
            oracle = EvolutionOracle(hidden, OracleMode.TROTTERIZED)
            trotter_evolve(oracle, h0, TrotterPlan(paulis, steps, 1.7))
            assert abs(oracle.ledger.total_time - 1.7) <= 1e-12
            assert oracle.ledger.query_count == steps * 2 * 2 ** len(paulis)

    def test_shots_scale_the_ledger(self):
        h0, hidden, paulis, _ = self._setup(5)
        oracle = EvolutionOracle(hidden, OracleMode.TROTTERIZED)
        trotter_evolve(oracle, h0, TrotterPlan(paulis, 8, 0.9), shots=5)
        assert oracle.ledger.total_time == pytest.approx(4.5, abs=1e-12)
        assert oracle.ledger.query_count == 5 * 8 * 2 * 2 ** len(paulis)

    def test_second_order_convergence(self):
        h0, hidden, paulis, h_t = self._setup(6)
        errors = []
        for steps in (8, 16, 32, 64):
            oracle = EvolutionOracle(hidden, OracleMode.TROTTERIZED)
            v = trotter_evolve(oracle, h0, TrotterPlan(paulis, steps, 1.0))
            errors.append(trotter_error(v, h_t, 1.0).op_norm)
        slope = float(np.polyfit(np.log([8, 16, 32, 64]), np.log(errors), 1)[0])
        assert -2.4 <= slope <= -1.6


def _loop_reference(hidden, h0, plan):
    """The step operator built from dense sandwiches, multiplied out one
    step at a time."""
    half = plan.total_time * plan.sector_weight / (2 * plan.steps)
    forward = evolve(hidden, half)
    compiled = evolve(h0, -half)
    mats = _sector_matrices(plan.draws, forward.shape[0])
    step = np.eye(forward.shape[0], dtype=complex)
    for qm in mats:
        step = step @ (qm @ (forward @ compiled) @ qm)
    for qm in reversed(mats):
        step = step @ (qm @ (compiled @ forward) @ qm)
    out = np.eye(forward.shape[0], dtype=complex)
    for _ in range(plan.steps):
        out = out @ step
    return out


@pytest.mark.parametrize("steps", [1, 2, 7, 64, 1000])
def test_matches_step_loop_reference(steps):
    rng = np.random.default_rng(40 + steps)
    h0 = random_pauli_sum(3, 2, rng, num_terms=5)
    hidden = random_pauli_sum(3, 2, rng, num_terms=5)
    s = sample_subspace(3, rng)
    plan = TrotterPlan(twirl_conjugators(s, sample_twirl_paulis(s, 3, rng)), steps, 1.3)
    oracle = EvolutionOracle(hidden, OracleMode.TROTTERIZED)
    v = trotter_evolve(oracle, h0, plan, shots=3)
    assert np.max(np.abs(v - _loop_reference(hidden, h0, plan))) <= 1e-12
    assert oracle.ledger.query_count == 3 * steps * 2 * 2 ** len(plan.draws)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    data=st.data(),
    n=st.integers(1, 3),
    draws=st.integers(0, 4),
    steps=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_doubling_matches_the_flat_product_over_all_sectors(data, n, draws, steps, seed):
    """The step operator equals the flat Strang product over the ``2^T``
    mask-ordered sector matrices, identity and repeated draws included."""
    axes = data.draw(st.lists(st.sampled_from("XYZ"), min_size=n, max_size=n))
    s = DiagonalSubspace(tuple(axes))
    bits = st.lists(st.booleans(), min_size=n, max_size=n)
    member = bits.map(lambda b: _member(s, b))
    paulis = tuple(data.draw(st.lists(member, min_size=draws, max_size=draws)))
    rng = np.random.default_rng(seed)
    h0 = random_pauli_sum(n, min(n, 2), rng, num_terms=3)
    hidden = random_pauli_sum(n, min(n, 2), rng, num_terms=3)
    plan = TrotterPlan(twirl_conjugators(s, paulis), steps, 1.1)
    half = plan.total_time * 2.0**-draws / (2 * steps)
    forward, compiled = evolve(hidden, half), evolve(h0, -half)
    step = np.eye(2**n, dtype=complex)
    mats = _sector_matrices(paulis, 2**n)
    for qm in mats:
        step = step @ qm @ forward @ compiled @ qm
    for qm in reversed(mats):
        step = step @ qm @ compiled @ forward @ qm
    oracle = EvolutionOracle(hidden, OracleMode.TROTTERIZED)
    v = trotter_evolve(oracle, h0, plan)
    assert np.max(np.abs(v - np.linalg.matrix_power(step, steps))) <= 1e-12
    assert oracle.ledger.query_count == steps * 2 * 2**draws


class TestAgainstLiteralProduct:
    def test_matches_explicit_strang_composition(self):
        """Independent reference: exponentiate every sector generator with
        scipy and form the literal symmetric product."""
        from scipy.linalg import expm

        from hamcert.dense import to_dense

        rng = np.random.default_rng(14)
        h0 = random_pauli_sum(2, 2, rng, num_terms=4)
        hidden = random_pauli_sum(2, 2, rng, num_terms=4)
        s = sample_subspace(2, rng)
        paulis = twirl_conjugators(s, sample_twirl_paulis(s, 2, rng))
        sectors = _sector_matrices(paulis, 4)
        t, steps = 0.9, 7
        weight = 1.0 / len(sectors)
        h_mat = to_dense(hidden)
        h0_mat = to_dense(h0)
        factors = []
        for qm in sectors:
            factors.append(expm(-1j * (t / (2 * steps)) * weight * (qm @ h_mat @ qm)))
            factors.append(expm(1j * (t / (2 * steps)) * weight * (qm @ h0_mat @ qm)))
        step = np.eye(4, dtype=complex)
        for f in factors:
            step = step @ f
        for f in reversed(factors):
            step = step @ f
        reference = np.linalg.matrix_power(step, steps)
        oracle = EvolutionOracle(hidden, OracleMode.TROTTERIZED)
        v = trotter_evolve(oracle, h0, TrotterPlan(paulis, steps, t))
        assert np.max(np.abs(v - reference)) <= 1e-10


class TestTrotterError:
    def test_exact_evolution_has_zero_error(self):
        rng = np.random.default_rng(7)
        h_t = random_pauli_sum(2, 2, rng)
        err = trotter_error(evolve(h_t, 1.3), h_t, 1.3)
        assert err.op_norm <= 1e-12
        assert err.bell_deviation <= 1e-12

    def test_trace_deviation_never_exceeds_op_norm(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            h_t = random_pauli_sum(2, 2, rng)
            v = evolve(random_pauli_sum(2, 2, rng), float(rng.uniform(0, 3)))
            err = trotter_error(v, h_t, float(rng.uniform(0, 3)))
            assert err.bell_deviation <= err.op_norm + 1e-12

    def test_identity_probability_shift_bounded_by_trace_deviation(self):
        """The amplitude |Tr|/2^n moves by at most the trace deviation, so
        the squared statistic moves by at most twice it."""
        rng = np.random.default_rng(18)
        for _ in range(200):
            h_t = random_pauli_sum(2, 2, rng)
            t = float(rng.uniform(0, 3))
            v = evolve(random_pauli_sum(2, 2, rng), float(rng.uniform(0, 3)))
            err = trotter_error(v, h_t, t)
            shift = abs(
                identity_prob_trace(v) - identity_prob_trace(evolve(h_t, t))
            )
            assert shift <= 2.0 * err.bell_deviation + 1e-12


def test_calibrate_steps_reaches_lemma_budget():
    """Doubling lands under 1/(128 * 9^k) and barely moves the Bell statistic."""
    rng = np.random.default_rng(9)
    h0 = random_pauli_sum(2, 1, rng, num_terms=2)
    hidden = random_pauli_sum(2, 1, rng, num_terms=2)
    s = sample_subspace(2, rng)
    paulis = twirl_conjugators(s, sample_twirl_paulis(s, 2, rng))
    h_t = apply_twirl(subtract(hidden, h0), s, paulis).twirled
    target = 1.0 / (128.0 * 9.0)
    plan = TrotterPlan(paulis, 4, 0.8)
    steps, err = calibrate_steps(hidden, h0, plan, h_t, target)
    assert err <= target
    oracle = EvolutionOracle(hidden, OracleMode.TROTTERIZED)
    v = trotter_evolve(oracle, h0, TrotterPlan(paulis, steps, 0.8))
    shift = abs(identity_prob_trace(v) - identity_prob_trace(evolve(h_t, 0.8)))
    assert shift <= target


@pytest.mark.parametrize("draws", [2, 8])
def test_step_count_from_the_bound_meets_the_lemma_budget(draws):
    """The step count a trotter round uses, at k=1 and n=3 near the
    epsilon=0.2 time cap, stays within 1/(128 * 9)."""
    cfg = CertificationConfig(epsilon=0.2, delta=0.2, k=1)
    budget = cfg.trotter_tolerance
    rng = np.random.default_rng(70 + draws)
    for _ in range(4):
        h0 = random_pauli_sum(3, 1, rng)
        hidden = random_pauli_sum(3, 1, rng)
        s = sample_subspace(3, rng)
        paulis = twirl_conjugators(s, sample_twirl_paulis(s, draws, rng))
        t = float(rng.uniform(0.9, 1.0)) * cfg.time_cap
        steps = steps_from_bound(draws, t, budget)
        oracle = EvolutionOracle(hidden, OracleMode.TROTTERIZED)
        v = trotter_evolve(oracle, h0, TrotterPlan(paulis, steps, t))
        h_t = apply_twirl(subtract(hidden, h0), s, paulis).twirled
        assert trotter_error(v, h_t, t).op_norm <= budget
