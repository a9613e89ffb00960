"""Tests for the forward-only oracle and the evolution-time ledger."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamcert import dense as dense_module
from hamcert import oracle as oracle_module
from hamcert.bell import identity_prob_spectral, identity_prob_trace
from hamcert.dense import evolve
from hamcert.instances import random_pauli_sum
from hamcert.moments import WALSH_QUBIT_CAP, walsh_table, walsh_transform
from hamcert.oracle import (
    AccessModelError,
    EvolutionLedger,
    EvolutionOracle,
    OracleMode,
    OracleModeError,
    evolve_known,
)
from hamcert.pauli import PauliSum, subtract
from hamcert.twirl import (
    DiagonalSubspace,
    apply_twirl,
    run_twirl,
    sample_subspace,
    sample_twirl_paulis,
)


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

    def test_hidden_spectrum_computed_on_first_query_only(self, monkeypatch):
        calls = []
        original = dense_module.eig_decompose

        def counting(m):
            calls.append(m.shape)
            return original(m)

        monkeypatch.setattr(dense_module, "eig_decompose", counting)
        dense_module._spectrum.cache_clear()
        oracle = EvolutionOracle(PauliSum(2, {"XZ": 0.3}), OracleMode.TROTTERIZED)
        assert calls == []
        oracle.query_forward(0.4)
        oracle.query_forward(0.7)
        oracle.query_forward(0.4)
        assert calls == [(4, 4)]
        # A trotter round interleaves the reference: both spectra are kept.
        evolve_known(PauliSum(2, {"ZI": 0.2}), -0.7)
        oracle.query_forward(0.9)
        assert calls == [(4, 4), (4, 4)]

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


class TestEvolveKnown:
    def test_zero_time(self):
        assert np.allclose(evolve_known(PauliSum(1, {"Z": 2.0}), 0.0), np.eye(2))

    def test_inverse_allowed_for_reference(self):
        h0 = PauliSum(1, {"X": 0.2})
        prod = evolve_known(h0, 1.1) @ evolve_known(h0, -1.1)
        assert np.max(np.abs(prod - np.eye(2))) <= 1e-10

    def test_reference_diagonalized_once(self, monkeypatch):
        calls = []
        original = dense_module.eig_decompose

        def counting(m):
            calls.append(m.shape)
            return original(m)

        monkeypatch.setattr(dense_module, "eig_decompose", counting)
        dense_module._spectrum.cache_clear()
        h0 = PauliSum(2, {"ZX": 0.35, "IY": 0.15})
        forward = evolve_known(h0, 0.6)
        backward = evolve_known(h0, -0.6)
        assert calls == [(4, 4)]
        assert np.max(np.abs(forward @ backward - np.eye(4))) <= 1e-12
        evolve_known(PauliSum(2, {"ZZ": 0.5}), 0.6)
        evolve_known(h0, 0.6)
        assert len(calls) == 2
        # Two other sums since h0 was last evolved push it out.
        evolve_known(PauliSum(2, {"XX": 0.5}), 0.6)
        evolve_known(PauliSum(2, {"ZZ": 0.5}), 0.6)
        evolve_known(h0, 0.6)
        assert len(calls) == 5

    def test_never_touches_the_ledger(self):
        oracle = EvolutionOracle(PauliSum(1, {"X": 0.4}), OracleMode.EXACT_EFFECTIVE)
        before = oracle.ledger.total_time
        evolve_known(PauliSum(1, {"X": 0.4}), 5.0)
        assert oracle.ledger.total_time == before


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

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(tr=transcripts(), t=st.floats(0.0, 1e4))
    def test_no_residual_gives_the_walsh_value_bit_for_bit(self, tr, t):
        tr = apply_twirl(tr.effective, tr.subspace, tr.paulis)
        assert not tr.residual
        oracle = _exact(PauliSum(tr.subspace.n, {"X" * tr.subspace.n: 1.0}))
        walsh = identity_prob_spectral(walsh_transform(walsh_table(tr.effective)), t)
        assert oracle.effective_identity_prob(tr, t) == walsh


class TestSizeLimits:
    def test_exact_mode_accepts_up_to_the_walsh_cap(self):
        n = WALSH_QUBIT_CAP
        _exact(PauliSum(n, {"X" + "I" * (n - 1): 1.0}))
        with pytest.raises(ValueError, match="cap"):
            _exact(PauliSum(n + 1, {"X" + "I" * n: 1.0}))

    def test_trotter_mode_keeps_the_dense_cap(self):
        with pytest.raises(ValueError, match="cap"):
            EvolutionOracle(PauliSum(11, {"X" + "I" * 10: 1.0}), OracleMode.TROTTERIZED)

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
        # Rank 4 at n=20 asks for 2^24 entries; rank 3 (2^23) is the limit.
        n = 20
        hidden = PauliSum(n, {"I" * j + "X" + "I" * (n - 1 - j): 0.1 for j in range(4)})
        oracle = _exact(hidden)
        tr = apply_twirl(hidden, DiagonalSubspace(("Z",) * n), ())
        with pytest.raises(ValueError, match="n=20 has flip rank r=4"):
            oracle.effective_identity_prob(tr, 1.0, shots=3)
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
