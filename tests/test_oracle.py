"""Tests for the forward-only oracle and the evolution-time ledger."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamcert import oracle as oracle_module
from hamcert.bell import identity_prob_spectral, identity_prob_trace
from hamcert.dense import QUBIT_CAP, eig_decompose, evolve, to_dense
from hamcert.instances import random_pauli_sum
from hamcert.moments import walsh_table, walsh_transform
from hamcert.oracle import (
    AccessModelError,
    EvolutionLedger,
    EvolutionOracle,
    OracleMode,
    OracleModeError,
)
from hamcert.pauli import PauliSum, subtract
from hamcert.twirl import (
    DiagonalSubspace,
    apply_twirl,
    run_twirl,
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


class TestLedger:
    def test_charges_accumulate(self):
        ledger = EvolutionLedger()
        ledger.charge(0.3)
        ledger.charge(0.5, queries=2)
        assert ledger.total_time == pytest.approx(0.8)
        assert ledger.query_count == 3

    def test_negative_duration_rejected(self):
        with pytest.raises(AccessModelError):
            EvolutionLedger().charge(-0.1)

    @pytest.mark.parametrize(
        "duration, queries, error",
        [(float("nan"), 1, AccessModelError), (1.0, 2.5, TypeError)],
    )
    def test_rejected_charge_leaves_the_ledger_unchanged(self, duration, queries, error):
        ledger = EvolutionLedger()
        ledger.charge(0.3)
        with pytest.raises(error):
            ledger.charge(duration, queries=queries)
        assert ledger == EvolutionLedger(0.3, 1)


class TestQueryForward:
    def test_zero_time_identity_and_zero_charge(self):
        oracle = EvolutionOracle(PauliSum(1, {"X": 0.4}), OracleMode.EXACT_EFFECTIVE)
        u = oracle.query_forward(0.0)
        assert np.allclose(u, np.eye(2), atol=1e-12)
        assert oracle.ledger.total_time == 0.0
        assert oracle.ledger.query_count == 1

    def test_forward_only_contract(self):
        oracle = EvolutionOracle(PauliSum(1, {"X": 0.4}), OracleMode.TROTTERIZED)
        with pytest.raises(AccessModelError):
            oracle.query_forward(-1.0)
        assert oracle.ledger.total_time == 0.0

    def test_charge_additivity(self):
        oracle = EvolutionOracle(PauliSum(1, {"Z": 1.0}), OracleMode.TROTTERIZED)
        oracle.query_forward(0.3)
        oracle.query_forward(0.5)
        assert oracle.ledger.total_time == pytest.approx(0.8)
        assert oracle.ledger.query_count == 2

    def test_matches_direct_evolution(self):
        hidden = PauliSum(2, {"XZ": 0.3, "YI": -0.2})
        oracle = EvolutionOracle(hidden, OracleMode.TROTTERIZED)
        assert np.max(np.abs(oracle.query_forward(1.7) - evolve(hidden, 1.7))) <= 1e-12

    def test_batched_charge_counts_every_query(self):
        oracle = EvolutionOracle(PauliSum(1, {"Z": 1.0}), OracleMode.TROTTERIZED)
        single = oracle.query_forward(0.1)
        batch = oracle.query_forward(0.1, count=1_000_000)
        assert batch is single
        assert oracle.ledger.query_count == 1_000_001
        assert oracle.ledger.total_time == 0.1 + 1_000_000 * 0.1

    @pytest.mark.parametrize(
        "t, count, error",
        [(0.5, 0, ValueError), (0.5, -3, ValueError), (-0.5, 4, AccessModelError),
         (float("nan"), 1, AccessModelError), (float("inf"), 1, AccessModelError),
         (0.5, 2.5, TypeError)],
    )
    def test_rejected_batch_charges_nothing(self, t, count, error):
        oracle = EvolutionOracle(PauliSum(1, {"Z": 1.0}), OracleMode.TROTTERIZED)
        oracle.query_forward(0.2, count=3)
        with pytest.raises(error):
            oracle.query_forward(t, count=count)
        assert oracle.ledger == EvolutionLedger(3 * 0.2, 3)

    def test_a_block_over_every_site_is_decomposed_as_the_whole_sum(self):
        hidden = PauliSum(3, {"XYI": 0.3, "IZZ": -0.4})
        h0 = PauliSum(3, {"ZZI": 0.2, "IXY": 0.7})
        oracle = EvolutionOracle(hidden, OracleMode.TROTTERIZED)
        [(sites, index, w, v, vh)] = oracle._group_spectra(h0)
        assert sites == ((0, 1, 2),)
        assert index.dtype == np.intp and index.tolist() == [[0, 1, 2]]
        assert w.shape == (2, 1, 8) and v.shape == (2, 1, 8, 8)
        assert np.array_equal(vh, v.conj().swapaxes(-1, -2))
        for h, row_w, row_v in zip((hidden, h0), w[:, 0], v[:, 0]):
            want_w, want_v = eig_decompose(to_dense(h))
            assert row_w.tobytes() == want_w.tobytes()
            assert row_v.tobytes() == want_v.tobytes()

    def test_each_row_of_a_group_is_decomposed_as_its_own_sum(self):
        # Blocks (0, 1), (2,), (3, 4) and (5,): two groups of two blocks.
        hidden = PauliSum(6, {"XYIIII": 0.3, "IIZIII": -0.4, "IIIXYI": 0.2})
        h0 = PauliSum(6, {"ZIIIII": 0.2, "IIIIIX": 0.7, "IIIZZI": 0.5})
        oracle = EvolutionOracle(hidden, OracleMode.TROTTERIZED)
        groups = oracle._group_spectra(h0)
        assert [sites for sites, *_ in groups] == [((0, 1), (3, 4)), ((2,), (5,))]
        for sites, index, w, v, _ in groups:
            assert index.tolist() == [list(block) for block in sites]
            for i, h in enumerate((hidden, h0)):
                for b, block in enumerate(sites):
                    want_w, want_v = eig_decompose(to_dense(_cut(h, block)))
                    assert w[i, b].tobytes() == want_w.tobytes()
                    assert v[i, b].tobytes() == want_v.tobytes()

    def test_only_the_last_propagator_is_kept(self):
        hidden = PauliSum(2, {"XZ": 0.3, "YI": -0.2})
        oracle = EvolutionOracle(hidden, OracleMode.TROTTERIZED)
        first = oracle.query_forward(0.4)
        assert oracle.query_forward(0.4) is first
        assert not first.flags.writeable
        oracle.query_forward(0.9)
        again = oracle.query_forward(0.4)
        assert again is not first
        assert np.array_equal(again, first)

    def test_no_public_hidden_accessor(self):
        oracle = EvolutionOracle(PauliSum(1, {"X": 0.4}), OracleMode.EXACT_EFFECTIVE)
        public = [name for name in dir(oracle) if not name.startswith("_")]
        assert "hidden" not in public


class TestEffectiveShot:
    def test_mode_gate(self):
        oracle = EvolutionOracle(PauliSum(1, {"X": 0.4}), OracleMode.TROTTERIZED)
        with pytest.raises(OracleModeError):
            oracle.effective_shot(PauliSum(1, {"X": 0.1}), 1.0)

    def test_zero_time_zero_charge(self):
        oracle = EvolutionOracle(PauliSum(1, {"X": 0.4}), OracleMode.EXACT_EFFECTIVE)
        u = oracle.effective_shot(PauliSum(1, {"X": 0.1}), 0.0)
        assert np.allclose(u, np.eye(2), atol=1e-12)
        assert oracle.ledger.total_time == 0.0

    def test_zero_generator_identity_but_charged(self):
        oracle = EvolutionOracle(PauliSum(1, {"X": 0.4}), OracleMode.EXACT_EFFECTIVE)
        u = oracle.effective_shot(PauliSum(1), 2.5)
        assert np.array_equal(u, np.eye(2))
        assert oracle.ledger.total_time == pytest.approx(2.5)

    def test_shots_multiply_the_charge(self):
        oracle = EvolutionOracle(PauliSum(1, {"X": 0.4}), OracleMode.EXACT_EFFECTIVE)
        oracle.effective_shot(PauliSum(1, {"X": 0.1}), 0.75, shots=8)
        assert oracle.ledger.total_time == pytest.approx(6.0)
        assert oracle.ledger.query_count == 8

    def test_negative_time_rejected(self):
        oracle = EvolutionOracle(PauliSum(1, {"X": 0.4}), OracleMode.EXACT_EFFECTIVE)
        with pytest.raises(AccessModelError):
            oracle.effective_shot(PauliSum(1, {"X": 0.1}), -0.5)


def test_sample_twirl_matches_direct_twirl():
    hidden = PauliSum(2, {"XZ": 0.3, "ZZ": 0.4, "YI": -0.1})
    h0 = PauliSum(2, {"ZZ": 0.4})
    oracle = EvolutionOracle(hidden, OracleMode.EXACT_EFFECTIVE)
    subspace = DiagonalSubspace(("Z", "Z"))
    got = oracle.sample_twirl(h0, subspace, 5, np.random.default_rng(42))
    expected = run_twirl(
        subtract(hidden, h0), subspace, 5, np.random.default_rng(42)
    )
    assert got.paulis == expected.paulis
    assert got.twirled == expected.twirled
    assert got.effective == expected.effective
    assert got.residual == expected.residual


def _frame_diagonal_sum(subspace, rng, terms):
    """Random coefficients on non-identity members of the subspace."""
    members = {
        _member(subspace, rng.integers(0, 2, size=subspace.n)) for _ in range(terms)
    }
    members.discard("I" * subspace.n)
    return PauliSum(subspace.n, {m: float(rng.normal()) for m in members})


def _exact(hidden):
    return EvolutionOracle(hidden, OracleMode.EXACT_EFFECTIVE)


def _trotter(hidden):
    return EvolutionOracle(hidden, OracleMode.TROTTERIZED)


def _twins(hidden):
    return _exact(hidden), _exact(hidden)


class TestEffectiveIdentityProb:
    """The spectral channel against the dense route it replaces."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_axis_mix_agrees_with_the_dense_route(self, n):
        rng = np.random.default_rng(100 + n)
        for axes in itertools.product("XYZ", repeat=n):
            subspace = DiagonalSubspace(axes)
            h = _frame_diagonal_sum(subspace, rng, 2 * n)
            tr = apply_twirl(h, subspace, sample_twirl_paulis(subspace, 4, rng))
            assert not tr.residual
            t = float(rng.uniform(0.0, 30.0))
            spectral, dense = _twins(PauliSum(n, {"X" * n: 1.0}))
            got = spectral.effective_identity_prob(tr, t, shots=3)
            want = identity_prob_trace(dense.effective_shot(tr.twirled, t, shots=3))
            assert abs(got - want) <= 1e-12
            assert spectral.ledger == dense.ledger

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_random_twirled_differences_agree_with_the_dense_route(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(6):
            hidden = random_pauli_sum(n, 2, rng, num_terms=3 * n)
            h0 = random_pauli_sum(n, 2, rng, num_terms=3 * n)
            spectral, dense = _twins(hidden)
            tr = spectral.sample_twirl(h0, sample_subspace(n, rng), 30, rng)
            assert not tr.residual and tr.effective
            t = float(rng.uniform(0.0, 30.0))
            got = spectral.effective_identity_prob(tr, t, shots=5)
            want = identity_prob_trace(dense.effective_shot(tr.twirled, t, shots=5))
            assert abs(got - want) <= 1e-12
            assert spectral.ledger == dense.ledger

    def test_empty_difference_gives_exactly_one(self):
        h = PauliSum(3, {"XYZ": 0.5})
        oracle = _exact(h)
        tr = oracle.sample_twirl(h, DiagonalSubspace(("Z", "Z", "Z")), 17,
                                 np.random.default_rng(0))
        assert oracle.effective_identity_prob(tr, 7.5, shots=4) == 1.0
        assert oracle.ledger.total_time == 30.0
        assert oracle.ledger.query_count == 4

    @pytest.mark.parametrize("n", [1, 6, 12])
    def test_empty_difference_matches_the_walsh_route(self, n):
        h = PauliSum(n, {"X" * n: 0.5})
        oracle = _exact(h)
        tr = oracle.sample_twirl(h, DiagonalSubspace(("Y",) * n), 5,
                                 np.random.default_rng(n))
        assert not tr.effective and not tr.residual
        for t in (0.0, 1e-3, 2.75, 1e6):
            walsh = identity_prob_spectral(walsh_transform(walsh_table(tr.effective)), t)
            assert oracle.effective_identity_prob(tr, t, shots=3) == walsh == 1.0
        assert oracle.ledger.query_count == 12

    def test_residuals_agree_with_the_dense_reference(self):
        # One twirl step (a weak c2) lets off-subspace terms survive.
        rng = np.random.default_rng(5)
        residuals = 0
        for n in (2, 3, 4, 5):
            hidden = random_pauli_sum(n, 2, rng, num_terms=3 * n)
            h0 = random_pauli_sum(n, 2, rng, num_terms=3 * n)
            blocks, dense = _twins(hidden)
            for _ in range(10):
                tr = blocks.sample_twirl(h0, sample_subspace(n, rng), 1, rng)
                residuals += bool(tr.residual)
                t = float(rng.uniform(0.0, 30.0))
                got = blocks.effective_identity_prob(tr, t, shots=6)
                want = identity_prob_trace(dense.effective_shot(tr.twirled, t, shots=6))
                assert abs(got - want) <= 1e-12
            assert blocks.ledger == dense.ledger
        assert residuals >= 20

    @pytest.mark.parametrize("n, ranks", [(4, range(5)), (7, range(8)), (10, [10])])
    def test_forced_residuals_of_every_rank(self, n, ranks):
        # Every off-subspace term survives a twirl with no draws.  Term j
        # leaves the axis at site j only, so the flip masks have rank r.
        rng = np.random.default_rng(300 + n)
        subspace = sample_subspace(n, rng)
        for r in ranks:
            terms = dict(_frame_diagonal_sum(subspace, rng, 2 * n).items())
            for j in range(r):
                letters = list(_member(subspace, rng.integers(0, 2, size=n)))
                letters[j] = rng.choice([a for a in "XYZ" if a != subspace.axes[j]])
                terms["".join(letters)] = float(rng.normal())
            tr = apply_twirl(PauliSum(n, terms), subspace, ())
            assert len(tr.residual) == r
            blocks, dense = _twins(PauliSum(n, {"X" * n: 1.0}))
            t = float(rng.uniform(0.0, 30.0))
            got = blocks.effective_identity_prob(tr, t, shots=2)
            want = identity_prob_trace(dense.effective_shot(tr.twirled, t, shots=2))
            assert abs(got - want) <= 1e-12
            assert blocks.ledger == dense.ledger

    def test_checks_run_before_any_charge(self):
        oracle = _exact(PauliSum(2, {"XX": 0.3}))
        tr = oracle.sample_twirl(PauliSum(2, {"ZZ": 0.1}), DiagonalSubspace(("X", "X")),
                                 10, np.random.default_rng(1))
        with pytest.raises(AccessModelError):
            oracle.effective_identity_prob(tr, -1.0)
        with pytest.raises(ValueError):
            oracle.effective_identity_prob(tr, 1.0, shots=0)
        other = _exact(PauliSum(3, {"XXX": 0.3}))
        with pytest.raises(ValueError, match="size"):
            other.effective_identity_prob(tr, 1.0)
        trotter = EvolutionOracle(PauliSum(2, {"XX": 0.3}), OracleMode.TROTTERIZED)
        with pytest.raises(OracleModeError):
            trotter.effective_identity_prob(tr, 1.0)
        for o in (oracle, other, trotter):
            assert o.ledger == EvolutionLedger()

    @pytest.mark.parametrize(
        "t, shots, error",
        [(float("nan"), 1, AccessModelError), (float("inf"), 1, AccessModelError),
         (1.0, 2.5, TypeError)],
    )
    def test_non_finite_time_and_fractional_shots_charge_nothing(self, t, shots, error):
        oracle = _exact(PauliSum(2, {"XX": 0.3}))
        tr = oracle.sample_twirl(PauliSum(2, {"ZZ": 0.1}), DiagonalSubspace(("X", "X")),
                                 10, np.random.default_rng(1))
        oracle.effective_identity_prob(tr, 0.5, shots=2)
        with pytest.raises(error):
            oracle.effective_identity_prob(tr, t, shots=shots)
        with pytest.raises(error):
            oracle.effective_shot(tr.twirled, t, shots=shots)
        assert oracle.ledger == EvolutionLedger(2 * 0.5, 2)


@st.composite
def transcripts(draw, max_n=6):
    """A random Pauli sum twirled by 0-2 draws from a random subspace."""
    n = draw(st.integers(1, max_n))
    axes = draw(st.lists(st.sampled_from("XYZ"), min_size=n, max_size=n))
    subspace = DiagonalSubspace(tuple(axes))
    labels = st.text("IXYZ", min_size=n, max_size=n).filter(lambda s: s.strip("I"))
    coeffs = st.floats(-1.0, 1.0, allow_subnormal=False)
    terms = draw(st.dictionaries(labels, coeffs, max_size=3 * n))
    bits = st.lists(st.booleans(), min_size=n, max_size=n)
    paulis = tuple(_member(subspace, b) for b in draw(st.lists(bits, max_size=2)))
    return apply_twirl(PauliSum(n, terms), subspace, paulis)


class TestBlockSpectrumProperties:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(tr=transcripts(), t=st.floats(0.0, 30.0), shots=st.integers(1, 4))
    def test_agrees_with_the_dense_reference(self, tr, t, shots):
        blocks, dense = _twins(PauliSum(tr.subspace.n, {"X" * tr.subspace.n: 1.0}))
        got = blocks.effective_identity_prob(tr, t, shots=shots)
        want = identity_prob_trace(dense.effective_shot(tr.twirled, t, shots=shots))
        assert abs(got - want) <= 1e-12
        assert blocks.ledger == dense.ledger

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(tr=transcripts())
    def test_the_encoding_span_changes_no_bit(self, tr):
        # Residual terms encoded one per call and two per call, against
        # the whole block's terms in one call.
        for block in oracle_module._twirled_blocks(tr):
            want = oracle_module._block_spectrum(*block)
            for entries in (1, 2 * 2 ** block[0].n):
                with mock.patch.object(oracle_module, "_CHUNK_ENTRIES", entries):
                    got = oracle_module._block_spectrum(*block)
                assert got.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(tr=transcripts(), t=st.floats(0.0, 1e4))
    def test_no_residual_gives_the_walsh_value_bit_for_bit(self, tr, t):
        tr = apply_twirl(tr.effective, tr.subspace, tr.paulis)
        assert not tr.residual
        oracle = _exact(PauliSum(tr.subspace.n, {"X" * tr.subspace.n: 1.0}))
        walsh = identity_prob_spectral(walsh_transform(walsh_table(tr.effective)), t)
        assert oracle.effective_identity_prob(tr, t) == walsh


def _chain(n, field=None):
    """Nearest-neighbour ZZ bonds of 0.3 on ``n`` sites, with an optional
    single-site ``field`` of 0.5 on every site."""
    terms = {"I" * j + "ZZ" + "I" * (n - 2 - j): 0.3 for j in range(n - 1)}
    if field:
        terms.update({"I" * j + field + "I" * (n - 1 - j): 0.5 for j in range(n)})
    return PauliSum(n, terms)


@st.composite
def local_transcripts(draw, max_n=8):
    """Terms of weight 1 or 2 on up to 8 sites, twirled by 0-2 draws, so the
    twirled generator falls into blocks and leaves sites idle."""
    n = draw(st.integers(1, max_n))
    axes = draw(st.lists(st.sampled_from("XYZ"), min_size=n, max_size=n))
    subspace = DiagonalSubspace(tuple(axes))
    terms = {}
    for _ in range(draw(st.integers(0, 2 * n))):
        label = ["I"] * n
        for site in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2)):
            label[site] = draw(st.sampled_from("XYZ"))
        terms["".join(label)] = draw(st.floats(-1.0, 1.0))
    bits = st.lists(st.booleans(), min_size=n, max_size=n)
    paulis = tuple(_member(subspace, b) for b in draw(st.lists(bits, max_size=2)))
    return apply_twirl(PauliSum(n, terms), subspace, paulis)


class TestComponentRoute:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(tr=local_transcripts(), t=st.floats(0.0, 30.0), shots=st.integers(1, 4))
    def test_agrees_with_the_dense_effective_shot(self, tr, t, shots):
        blocks, dense = _twins(PauliSum(tr.subspace.n, {"X" * tr.subspace.n: 1.0}))
        got = blocks.effective_identity_prob(tr, t, shots=shots)
        want = identity_prob_trace(dense.effective_shot(tr.twirled, t, shots=shots))
        assert abs(got - want) <= 1e-12
        assert blocks.ledger == dense.ledger


class TestSizeLimits:
    def test_exact_mode_caps_no_system_size(self):
        n = 128
        oracle = _exact(_chain(n, field="X"))
        assert oracle.n_qubits == n

    def test_trotter_mode_caps_each_hidden_block(self):
        # At n=24, a block of QUBIT_CAP linked sites is accepted; one more is not.
        for linked in (QUBIT_CAP, QUBIT_CAP + 1):
            chain = dict(_chain(linked).items())
            hidden = PauliSum(24, {p + "I" * (24 - linked): c for p, c in chain.items()})
            if linked <= QUBIT_CAP:
                assert _trotter(hidden).n_qubits == 24
            else:
                with pytest.raises(ValueError, match=f"links {linked} sites.*cap"):
                    _trotter(hidden)

    def test_dense_forward_query_refuses_a_large_system_before_charging(self):
        oracle = _trotter(PauliSum(12, {"X" + "I" * 11: 1.0}))
        with pytest.raises(ValueError, match="n=12 exceeds the dense cap"):
            oracle.query_forward(0.5, count=3)
        assert oracle.ledger == EvolutionLedger()

    def test_a_joint_block_above_the_cap_is_refused_before_any_charge(self):
        # Each sum alone splits into blocks of two sites; together they
        # link all twelve.
        n = 12
        hidden = PauliSum(n, {"I" * j + "XX" + "I" * (n - 2 - j): 0.2
                              for j in range(0, n - 1, 2)})
        h0 = PauliSum(n, {"I" * j + "ZZ" + "I" * (n - 2 - j): 0.1
                          for j in range(1, n - 1, 2)})
        oracle = _trotter(hidden)
        oracle.query_forward_blocks(hidden, 0.5, count=2)
        with pytest.raises(ValueError, match="link 12 sites"):
            oracle.query_forward_blocks(h0, 0.5, count=3)
        assert oracle.ledger == EvolutionLedger(2 * 0.5, 2)

    @pytest.mark.parametrize("mode", list(OracleMode))
    def test_a_reference_of_another_size_is_refused_before_any_charge(self, mode):
        hidden = PauliSum(3, {"XZI": 0.3, "IZZ": 0.2})
        oracle = EvolutionOracle(hidden, mode)
        h0 = PauliSum(2, {"ZZ": 0.1})
        with pytest.raises(ValueError, match="Reference size 2 does not match the oracle's 3"):
            oracle.query_forward_blocks(h0, 0.5, count=3)
        assert oracle.ledger == EvolutionLedger()
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="Reference size 2 does not match the oracle's 3"):
            oracle.sample_twirl(h0, DiagonalSubspace(("Z",) * 3), 4, rng)
        assert rng.bit_generator.state == state
        assert oracle.ledger == EvolutionLedger()

    def test_spectral_route_beyond_the_dense_cap(self):
        n = 14
        hidden = PauliSum(n, {"Z" * 2 + "I" * (n - 2): 0.7, "I" * (n - 1) + "Z": 0.2})
        oracle = _exact(hidden)
        tr = oracle.sample_twirl(PauliSum(n, {"I" * (n - 1) + "Z": 0.2}),
                                 DiagonalSubspace(("Z",) * n), 3, np.random.default_rng(2))
        # Only ZZ..I remains, with eigenvalues +-0.7 in equal numbers.
        t = 1.3
        assert oracle.effective_identity_prob(tr, t) == pytest.approx(
            np.cos(0.7 * t) ** 2, abs=1e-12
        )

    def test_single_x_residual_beyond_the_dense_cap(self):
        n = 12
        hidden = PauliSum(n, {"X" + "I" * (n - 1): 0.5})
        oracle = _exact(hidden)
        subspace = DiagonalSubspace(("Z",) * n)
        tr = apply_twirl(hidden, subspace, ("I" * n,))
        assert tr.residual and not tr.effective
        for t in (0.0, 1.0, 2.5, 40.0):
            got = oracle.effective_identity_prob(tr, t, shots=2)
            assert got == pytest.approx(np.cos(0.5 * t) ** 2, abs=1e-12)
        assert oracle.ledger == EvolutionLedger(total_time=87.0, query_count=8)

    def test_oversized_blocks_are_refused_before_any_charge(self):
        # Rank 4 on a block of 20 sites asks for 2^24 entries; rank 3
        # (2^23) is the limit.  The Z string links all 20 sites.
        n = 20
        hidden = PauliSum(n, {"I" * j + "X" + "I" * (n - 1 - j): 0.1 for j in range(4)})
        hidden = hidden + PauliSum(n, {"Z" * n: 0.2})
        oracle = _exact(hidden)
        tr = apply_twirl(hidden, DiagonalSubspace(("Z",) * n), ())
        with pytest.raises(ValueError, match="n=20 has flip rank r=4"):
            oracle.effective_identity_prob(tr, 1.0, shots=3)
        assert oracle.ledger == EvolutionLedger()

    def test_the_guard_applies_per_block(self):
        # Four unlinked X terms are four blocks of rank 1, not one of rank 4.
        n = 20
        hidden = PauliSum(n, {"I" * j + "X" + "I" * (n - 1 - j): 0.1 for j in range(4)})
        oracle = _exact(hidden)
        tr = apply_twirl(hidden, DiagonalSubspace(("Z",) * n), ())
        got = oracle.effective_identity_prob(tr, 1.0, shots=3)
        assert got == pytest.approx(np.cos(0.1) ** 8, abs=1e-14)
        assert oracle.ledger == EvolutionLedger(3.0, 3)

    def test_a_large_block_without_residual_is_refused_before_any_charge(self):
        n = 24
        hidden = PauliSum(n, {"Z" * n: 0.3})
        oracle = _exact(hidden)
        tr = apply_twirl(hidden, DiagonalSubspace(("Z",) * n), ())
        with pytest.raises(ValueError, match="n=24 has flip rank r=0"):
            oracle.effective_identity_prob(tr, 1.0)
        assert oracle.ledger == EvolutionLedger()


class TestDifferenceMemo:
    def test_same_reference_subtracts_once(self, monkeypatch):
        calls = []
        real = oracle_module.subtract

        def counting(a, b):
            calls.append(b)
            return real(a, b)

        monkeypatch.setattr(oracle_module, "subtract", counting)
        hidden = PauliSum(2, {"XZ": 0.3, "ZZ": 0.4})
        h0, other = PauliSum(2, {"ZZ": 0.4}), PauliSum(2, {"XX": 0.1})
        oracle = _exact(hidden)
        rng = np.random.default_rng(3)
        subspace = DiagonalSubspace(("Z", "Z"))
        first = oracle.sample_twirl(h0, subspace, 4, rng)
        oracle.sample_twirl(PauliSum(2, {"ZZ": 0.4}), subspace, 4, rng)
        assert len(calls) == 1
        switched = oracle.sample_twirl(other, subspace, 4, rng)
        assert len(calls) == 2
        assert not first.effective
        assert switched.effective == PauliSum(2, {"ZZ": 0.4})
