"""Tests for the twirl draws and the symmetric product formula."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamcert.bell import identity_prob_factors, identity_prob_trace
from hamcert.certifier import CertificationConfig, run_round
from hamcert.dense import _letter_phases, eig_decompose, evolve, pauli_matrix, to_dense
from hamcert.instances import random_pauli_sum
from hamcert.oracle import EvolutionLedger, EvolutionOracle, OracleMode, OracleModeError
from hamcert.pauli import PauliSum, _codes, conjugate, partition, scale, subtract
from hamcert.trotter import (
    TROTTER_STEP_CAP,
    TrotterPlan,
    _trotter_blocks,
    steps_from_bound,
    trotter_blocks,
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


def _cut(h, sites):
    """The terms of ``h`` that act only on ``sites``, each label cut to them."""
    outside = set(range(h.n)) - set(sites)
    inside = [(p, c) for p, c in h.items() if all(p[i] == "I" for i in outside)]
    return PauliSum(len(sites), [("".join(p[i] for i in sites), c) for p, c in inside])


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

    @pytest.mark.parametrize(
        "draws, match",
        [
            (("ZI", "XZ"), "'XZ' is not in the subspace"),
            (("ZZ", "YI", "IZ"), "'YI' is not in the subspace"),
            (("ZZ", "Z"), "'Z' does not act on n=2 qubits"),
            (("ZZZ",), "'ZZZ' does not act on n=2 qubits"),
        ],
    )
    def test_a_foreign_draw_is_refused(self, draws, match):
        with pytest.raises(ValueError, match=match):
            twirl_conjugators(DiagonalSubspace(("Z", "Z")), draws)

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
            assert oracle.ledger.total_time == 1.7
            assert oracle.ledger.query_count == steps * 2 * 2 ** len(paulis)

    def test_shots_scale_the_ledger(self):
        h0, hidden, paulis, _ = self._setup(5)
        oracle = EvolutionOracle(hidden, OracleMode.TROTTERIZED)
        trotter_evolve(oracle, h0, TrotterPlan(paulis, 8, 0.9), shots=5)
        assert oracle.ledger.total_time == 5 * 0.9
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


def _deviation(h, t):
    """``exp(-i t H) - I`` on the spectrum of ``H``, each phase as
    ``-2 sin^2(theta/2) - i sin theta``."""
    w, v = eig_decompose(to_dense(h))
    theta = w * t
    return (v * (-2.0 * np.sin(theta / 2) ** 2 - 1j * np.sin(theta))) @ v.conj().T


def _expm1_deviation(h, t):
    """``exp(-i t H) - I`` with each phase from ``np.expm1``, as the oracle
    takes it."""
    w, v = eig_decompose(to_dense(h))
    return (v * np.expm1(-1j * (w * t))) @ v.conj().T


def _compose(a, b):
    """``(I + a)(I + b) - I``, summed as ``a @ b + a + b``."""
    return a @ b + a + b


def _loop_reference(hidden, h0, plan):
    """The step operator built from dense sandwiches, multiplied out one
    step at a time; every product is carried as its difference from the
    identity, which is added once at the end."""
    half = plan.total_time * plan.sector_weight / (2 * plan.steps)
    forward = _deviation(hidden, half)
    compiled = _deviation(h0, -half)
    mats = _sector_matrices(plan.draws, forward.shape[0])
    step = np.zeros_like(forward)
    for qm in mats:
        step = _compose(step, qm @ _compose(forward, compiled) @ qm)
    for qm in reversed(mats):
        step = _compose(step, qm @ _compose(compiled, forward) @ qm)
    out = np.zeros_like(step)
    for _ in range(plan.steps):
        out = _compose(out, step)
    return out + np.eye(out.shape[0])


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


def _signed_permutation(label):
    """Flip mask ``x`` and phases ``ph`` with ``P|j> = ph[j] |j ^ x>``: row 0
    of :func:`hamcert.dense._letter_phases` on the one string."""
    flip, phase = _letter_phases(np.frombuffer(label.encode("ascii"), dtype=np.uint8)[None])
    return int(flip[0]), phase[0]


def _ix_conjugate(m, label):
    """``P @ m @ P`` through ``np.ix_``, as one matrix was conjugated before
    the conjugation took stacks."""
    flip, phase = _signed_permutation(label)
    index = np.arange(2 ** len(label)) ^ flip
    return phase[index][:, None] * m[np.ix_(index, index)] * phase


def _full_matrix_doubling(hidden, h0, plan):
    """The product formula on the full ``2^n`` matrices, as it was computed
    before it was factored over blocks."""
    half = plan.total_time * plan.sector_weight / (2 * plan.steps)
    forward, compiled = evolve(hidden, half), evolve(h0, -half)
    first_half, second_half = forward @ compiled, compiled @ forward
    for p in plan.draws:
        first_half = first_half @ _ix_conjugate(first_half, p)
        second_half = _ix_conjugate(second_half, p) @ second_half
    return np.linalg.matrix_power(first_half @ second_half, plan.steps)


def _check_factored(hidden, h0, plan, shots=1):
    """The factored round against the full-matrix doubling; returns the
    sites of each group's blocks."""
    oracle = EvolutionOracle(hidden, OracleMode.TROTTERIZED)
    groups = trotter_blocks(oracle, h0, plan, shots=shots)
    reference = _full_matrix_doubling(hidden, h0, plan)
    got = identity_prob_factors([u for _, u in groups])
    assert abs(got - identity_prob_trace(reference)) <= 1e-12
    queries = shots * plan.steps * 2 * 2 ** len(plan.draws)
    assert oracle.ledger == EvolutionLedger(shots * plan.total_time, queries)
    dense = trotter_evolve(EvolutionOracle(hidden, OracleMode.TROTTERIZED), h0, plan)
    assert np.max(np.abs(dense - reference)) <= 1e-12
    return [sites for sites, _ in groups]


@st.composite
def _local_sum(draw, n):
    """Up to four terms of weight 1 or 2 on ``n`` sites."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        label = ["I"] * n
        for site in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2)):
            label[site] = draw(st.sampled_from("XYZ"))
        terms["".join(label)] = draw(st.floats(-1.0, 1.0))
    return PauliSum(n, terms)


class TestFactoredRound:
    """A round over the blocks of hidden + h0 against the full matrices."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(1, 6), draws=st.integers(0, 3),
           steps=st.integers(1, 8), t=st.floats(0.0, 3.0))
    def test_matches_the_full_matrix_doubling(self, data, n, draws, steps, t):
        hidden, h0 = data.draw(_local_sum(n)), data.draw(_local_sum(n))
        axes = data.draw(st.lists(st.sampled_from("XYZ"), min_size=n, max_size=n))
        s = DiagonalSubspace(tuple(axes))
        bits = st.lists(st.booleans(), min_size=n, max_size=n)
        paulis = tuple(_member(s, b) for b in data.draw(
            st.lists(bits, min_size=draws, max_size=draws)))
        _check_factored(hidden, h0, TrotterPlan(twirl_conjugators(s, paulis), steps, t))

    @pytest.mark.parametrize(
        "n, hidden, h0, blocks",
        [
            # Sites 2 to 4 are idle.
            (5, {"XZIII": 0.3}, {"ZIIII": 0.2, "IXIII": 0.4}, [((0, 1),)]),
            # h0 alone splits into three blocks; the hidden XX links two,
            # so the two one-site blocks form a second group.
            (4, {"XXII": 0.3, "IIZI": 0.2}, {"XIII": 0.2, "IZII": 0.1, "IIIY": 0.5},
             [((0, 1),), ((2,), (3,))]),
            # One block over every site.
            (3, {"XYI": 0.3, "IZZ": -0.4}, {"ZZI": 0.2, "IXY": 0.7}, [((0, 1, 2),)]),
            # No term at all.
            (2, {}, {}, []),
        ],
    )
    def test_blocks_idle_sites_and_links(self, n, hidden, h0, blocks):
        s = DiagonalSubspace(("X", "Z", "Y", "Z", "X")[:n])
        rows = [(1, 1, 0, 0, 1), (0, 1, 1, 0, 0), (1, 0, 0, 1, 1)]
        paulis = tuple(_member(s, bits[:n]) for bits in rows)
        plan = TrotterPlan(twirl_conjugators(s, paulis), 5, 1.7)
        got = _check_factored(PauliSum(n, hidden), PauliSum(n, h0), plan, shots=3)
        assert got == blocks

    def test_a_batch_is_charged_once(self, monkeypatch):
        hidden = PauliSum(3, {"XII": 0.3, "IYI": 0.2, "IIZ": 0.1})
        oracle = EvolutionOracle(hidden, OracleMode.TROTTERIZED)
        charges = []
        charge = oracle.ledger.charge
        monkeypatch.setattr(oracle.ledger, "charge",
                            lambda d, queries=1: (charges.append(queries), charge(d, queries)))
        plan = TrotterPlan(("ZIZ", "IZI"), 6, 1.1)
        groups = trotter_blocks(oracle, hidden, plan, shots=7)
        assert [sites for sites, _ in groups] == [((0,), (1,), (2,))]
        assert charges == [7 * 6 * 2 * 4]
        assert oracle.ledger.query_count == 7 * 6 * 2 * 4

    def test_a_refused_block_charges_nothing(self):
        # Each sum alone has blocks of two sites; together they link eleven.
        n = 11
        hidden = PauliSum(n, {"I" * j + "XX" + "I" * (n - 2 - j): 0.2
                              for j in range(0, n - 1, 2)})
        h0 = PauliSum(n, {"I" * j + "ZZ" + "I" * (n - 2 - j): 0.1
                          for j in range(1, n - 1, 2)})
        oracle = EvolutionOracle(hidden, OracleMode.TROTTERIZED)
        plan = TrotterPlan(("I" * n,), 4, 0.5)
        with pytest.raises(ValueError, match="link 11 sites"):
            trotter_blocks(oracle, h0, plan, shots=2)
        with pytest.raises(ValueError, match="n=11 exceeds the dense cap"):
            trotter_evolve(oracle, hidden, plan)
        assert oracle.ledger == EvolutionLedger()


def _per_block_round(hidden, h0, plan):
    """A trotter round as it ran one block at a time, before equal-size
    blocks were stacked: per block, its own two propagators less the
    identity, the Strang doubling in that form with the draws cut to its
    sites, the identity added back and ``matrix_power``; then the list
    form of the unitarity bound and the product.  The blocks run in the
    oracle's group order: sizes in the order they first occur, sites in
    order within a size.

    Returns ``([(sites, u)], probability, bound)``.
    """
    half = plan.total_time * plan.sector_weight / (2 * plan.steps)
    in_site_order = [sites for sites, _ in partition(hidden, h0)]
    sizes = list(dict.fromkeys(map(len, in_site_order)))
    blocks = []
    for sites in sorted(in_site_order, key=lambda sites: sizes.index(len(sites))):
        forward = _expm1_deviation(_cut(hidden, sites), half)
        compiled = _expm1_deviation(_cut(h0, sites), -half)
        first_half, second_half = _compose(forward, compiled), _compose(compiled, forward)
        for p in plan.draws:
            cut = "".join([p[i] for i in sites])
            first_half = _compose(first_half, _ix_conjugate(first_half, cut))
            second_half = _compose(_ix_conjugate(second_half, cut), second_half)
        step = _compose(first_half, second_half) + np.eye(first_half.shape[0])
        blocks.append((sites, np.linalg.matrix_power(step, plan.steps)))
    bound = 0.0
    for _, u in blocks:
        defect = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
        bound += defect + bound * defect
    prob = math.prod(
        (min(float(abs(np.trace(u)) ** 2) / u.shape[0] ** 2, 1.0) for _, u in blocks),
        start=1.0,
    )
    return blocks, prob, bound


@st.composite
def _blocky_sum(draw, n):
    """Up to five terms of weight 1 to 3 on ``n`` sites: blocks of mixed
    sizes, idle sites, a single block or no term at all."""
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        label = ["I"] * n
        for site in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)):
            label[site] = draw(st.sampled_from("XYZ"))
        terms["".join(label)] = draw(st.floats(-1.0, 1.0))
    return PauliSum(n, terms)


@st.composite
def _k2_pair(draw, n):
    """A hidden sum and a reference of terms of weight 1 or 2, each inside
    one of a run of consecutive chunks of 1 to 3 sites: blocks of 1 to 3
    sites in mixed order, as in a k=2 instance."""
    chunks, start = [], 0
    while start < n:
        size = draw(st.integers(1, min(3, n - start)))
        chunks.append(range(start, start + size))
        start += size
    sums = []
    for _ in range(2):
        terms = {}
        for chunk in chunks:
            for _ in range(draw(st.integers(0, 2))):
                label = ["I"] * n
                for site in draw(st.lists(st.sampled_from(chunk), min_size=1, max_size=2)):
                    label[site] = draw(st.sampled_from("XYZ"))
                terms["".join(label)] = draw(st.floats(-1.0, 1.0))
        sums.append(PauliSum(n, terms))
    return sums


def _drawn_plan(data, n, draws, steps, t):
    """A plan of ``draws`` members of a drawn subspace on ``n`` sites."""
    axes = data.draw(st.lists(st.sampled_from("XYZ"), min_size=n, max_size=n))
    s = DiagonalSubspace(tuple(axes))
    bits = st.lists(st.booleans(), min_size=n, max_size=n)
    paulis = tuple(_member(s, b) for b in data.draw(
        st.lists(bits, min_size=draws, max_size=draws)))
    return TrotterPlan(twirl_conjugators(s, paulis), steps, t)


def _check_stacked(hidden, h0, plan, shots=1):
    """The stacked round bit for bit against the per-block loop, and the
    codes core against the label route; returns the sites of each group's
    blocks."""
    oracle = EvolutionOracle(hidden, OracleMode.TROTTERIZED)
    groups = trotter_blocks(oracle, h0, plan, shots=shots)
    blocks, prob, bound = _per_block_round(hidden, h0, plan)
    got = [(sites[b], u[b]) for sites, u in groups for b in range(len(sites))]
    assert [sites for sites, _ in got] == [sites for sites, _ in blocks]
    for (sites, u), (_, want) in zip(got, blocks):
        assert np.array_equal(u, want), sites
    queries = shots * plan.steps * 2 * 2 ** len(plan.draws)
    assert oracle.ledger == EvolutionLedger(shots * plan.total_time, queries)
    # The core that a round reaches with its draws' letter codes: the same
    # stacks, bit for bit, and the same charge.
    codes = _codes(("".join(plan.draws),), hidden.n)
    core = EvolutionOracle(hidden, OracleMode.TROTTERIZED)
    cored = _trotter_blocks(core, h0, codes, plan.steps, plan.total_time, shots)
    assert [sites for sites, _ in cored] == [sites for sites, _ in groups]
    for (_, a), (_, b) in zip(cored, groups):
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())
    assert core.ledger == oracle.ledger
    if bound <= 1e-8 * plan.steps:
        # As a round takes it, with a bound of 1e-8 per step.
        assert identity_prob_factors([u for _, u in cored], atol=1e-8 * plan.steps) == prob
    # The bound accumulates in group order too: it passes at itself and
    # fails just below.
    stacks = [u for _, u in groups]
    assert identity_prob_factors(stacks, atol=bound) == prob
    with pytest.raises(ValueError, match="not unitary"):
        identity_prob_factors(stacks, atol=np.nextafter(bound, -1.0))
    return [sites for sites, _ in groups]


class TestStackedRound:
    """A round on stacks of equal-size blocks against the per-block loop."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(1, 8), draws=st.integers(0, 3),
           steps=st.integers(1, 40), t=st.floats(0.0, 3.0))
    def test_equals_the_per_block_loop(self, data, n, draws, steps, t):
        hidden, h0 = data.draw(_blocky_sum(n)), data.draw(_blocky_sum(n))
        _check_stacked(hidden, h0, _drawn_plan(data, n, draws, steps, t))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(1, 9), draws=st.integers(0, 34),
           steps=st.integers(1, 69), t=st.floats(0.0, 3.0))
    def test_deep_twirls_equal_the_per_block_loop(self, data, n, draws, steps, t):
        hidden, h0 = data.draw(_k2_pair(n))
        _check_stacked(hidden, h0, _drawn_plan(data, n, draws, steps, t))

    @pytest.mark.parametrize("draws", [0, 1, 17, 34])
    def test_the_paper_depths_on_mixed_blocks(self, draws):
        # Blocks of 1, 2, 3, 1 and 2 sites, as the mixed-n9 golden pair.
        rng = np.random.default_rng(draws)
        hidden = PauliSum(9, {"XIIIIIIII": 0.3, "IXYIIIIII": -0.4, "IIIZXIIII": 0.2,
                              "IIIIYZIII": 0.5, "IIIIIIXII": -0.1, "IIIIIIIYX": 0.7})
        h0 = PauliSum(9, {"ZIIIIIIII": 0.6, "IIZIIIIII": 0.2, "IIIIIIIZI": -0.3})
        s = sample_subspace(9, rng)
        paulis = sample_twirl_paulis(s, draws, rng) if draws else ()
        plan = TrotterPlan(paulis, 5, 1.7)
        assert _check_stacked(hidden, h0, plan, shots=3) == [
            ((0,), (6,)), ((1, 2), (7, 8)), ((3, 4, 5),)]

    @pytest.mark.parametrize(
        "n, hidden, h0, groups",
        [
            # Sizes 1, 2, 3, 1, 2 in site order; sites 9 and 10 are idle.
            (11, {"XIIIIIIIIII": 0.3, "IXXIIIIIIII": 0.4, "IIIZYXIIIII": -0.2},
             {"IIIIIIZIIII": 0.5, "IIIIIIIYZII": 0.1, "IIIZIIIIIII": 0.6},
             [((0,), (6,)), ((1, 2), (7, 8)), ((3, 4, 5),)]),
            # One block over every site.
            (4, {"XYII": 0.3, "IZZI": -0.4}, {"IIXY": 0.7}, [((0, 1, 2, 3),)]),
            # No term at all.
            (3, {}, {}, []),
        ],
    )
    def test_groups_idle_sites_and_a_single_block(self, n, hidden, h0, groups):
        s = DiagonalSubspace(("X", "Z", "Y", "Z", "X", "Y", "Y", "Z", "X", "Z", "Y")[:n])
        rows = [(1, 1, 0, 0, 1, 1, 0, 1, 0, 1, 1), (0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 1)]
        paulis = tuple(_member(s, bits[:n]) for bits in rows)
        plan = TrotterPlan(twirl_conjugators(s, paulis), 9, 2.3)
        assert _check_stacked(PauliSum(n, hidden), PauliSum(n, h0), plan, shots=2) == groups


@pytest.mark.parametrize("draw", ["QX", "xZ", "XZZ", "X", "XÉ"])
def test_a_draw_off_the_qubits_is_refused_before_any_charge(draw):
    h = PauliSum(2, {"XI": 0.3, "IZ": 0.2})
    oracle = EvolutionOracle(h, OracleMode.TROTTERIZED)
    with pytest.raises(ValueError):
        trotter_blocks(oracle, h, TrotterPlan((draw,), 2, 1.0))
    assert oracle.ledger == EvolutionLedger()


@pytest.mark.parametrize("draws", [1, 2, 5, 17])
def test_a_batch_charges_its_shots_exact_time_at_any_step_count(draws):
    # steps * 2 * 2^T queries of t * 2^-T / (2 * steps) each add up to t
    # only to rounding when steps is not a power of 2; the charge is
    # shots * t bit for bit, the time an exact-mode batch charges.
    rng = np.random.default_rng(90 + draws)
    hidden, h0 = PauliSum(2, {"XI": 0.3, "ZZ": 0.2}), PauliSum(2, {"XI": 0.3})
    paulis = sample_twirl_paulis(sample_subspace(2, rng), draws, rng)
    rounded = 0
    for steps in (3, 5, 6, 7, 33, 100, 1000):
        for _ in range(4):
            shots, t = int(rng.integers(1, 20_000)), float(rng.uniform(0.0, 50.0))
            oracle = EvolutionOracle(hidden, OracleMode.TROTTERIZED)
            trotter_blocks(oracle, h0, TrotterPlan(paulis, steps, t), shots=shots)
            queries = shots * steps * 2 * 2**draws
            assert oracle.ledger == EvolutionLedger(shots * t, queries), (steps, shots, t)
            rounded += queries * (t * 2.0**-draws / (2 * steps)) != shots * t
    # The sum of the query durations misses shots * t somewhere on this grid.
    assert rounded


def test_a_trotter_round_charges_its_shots_exact_time():
    cfg = CertificationConfig(epsilon=0.2, delta=0.2, k=1, c2=2.0, mode=OracleMode.TROTTERIZED,
                              allow_weak_constants=True)
    hidden, h0 = PauliSum(2, {"XI": 0.3, "ZZ": 0.2}), PauliSum(2, {"XI": 0.3})
    odd = 0
    for seed in range(8):
        oracle = EvolutionOracle(hidden, cfg.mode)
        record = run_round(h0, oracle, cfg, np.random.default_rng(seed))
        assert oracle.ledger.total_time == cfg.shots_per_round * record.time
        steps = steps_from_bound(cfg.twirl_steps, record.time, cfg.trotter_tolerance)
        odd += steps & (steps - 1) != 0
    assert odd


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


@pytest.mark.parametrize("draws", [2, 8, 17, 34])
def test_step_count_from_the_bound_meets_the_lemma_budget(draws):
    """The step count a trotter round uses, at n=3 near the epsilon=0.2
    time cap, stays within 1/(128 * 9^k).  ``k`` is the least locality
    whose default twirl depth ``17 k`` reaches ``draws``, so 17 and 34 are
    the default depths of k=1 and k=2, where the step count is capped."""
    k = math.ceil(draws / 17)
    cfg = CertificationConfig(epsilon=0.2, delta=0.2, k=k)
    budget = cfg.trotter_tolerance
    assert budget == 1.0 / (128.0 * 9**k)
    rng = np.random.default_rng(70 + draws)
    for _ in range(4):
        h0 = random_pauli_sum(3, k, rng)
        hidden = random_pauli_sum(3, k, rng)
        s = sample_subspace(3, rng)
        paulis = twirl_conjugators(s, sample_twirl_paulis(s, draws, rng))
        t = float(rng.uniform(0.9, 1.0)) * cfg.time_cap
        steps = steps_from_bound(draws, t, budget)
        oracle = EvolutionOracle(hidden, OracleMode.TROTTERIZED)
        v = trotter_evolve(oracle, h0, TrotterPlan(paulis, steps, t))
        h_t = apply_twirl(subtract(hidden, h0), s, paulis).twirled
        assert trotter_error(v, h_t, t).op_norm <= budget
