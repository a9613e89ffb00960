"""Tests for Bell-sampling statistics and the measurement simulator."""

import itertools
import math

import numpy as np
import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hamcert.bell import (
    bell_distribution,
    bell_measure_choi,
    bell_outcome_indices,
    identity_prob_factors,
    identity_prob_spectral,
    identity_prob_trace,
    identity_probs_grid,
    identity_probs_spectral,
    outcome_bits,
    outcome_pauli_label,
    sample_identity_shots,
)
from hamcert.dense import eigenvalues, evolve, pauli_matrix, to_dense
from hamcert.instances import random_diagonal_sum, random_pauli_sum
from hamcert.moments import walsh_eigenvalues
from hamcert.pauli import PauliSum


def brute_identity_prob(spectrum, t):
    """Literal pairwise cosine average; the independent oracle."""
    values = np.asarray(spectrum, dtype=float)
    total = 0.0
    for lj in values:
        for lk in values:
            total += math.cos((lj - lk) * t)
    return total / values.size**2


def np_sum_form(spectrum, t):
    """One time at a time: the row sums that the vectorised form must equal."""
    phase = np.asarray(spectrum, dtype=float) * float(t)
    c = float(np.sum(np.cos(phase)))
    s = float(np.sum(np.sin(phase)))
    return min((c * c + s * s) / phase.size**2, 1.0)


class TestIdentityProbSpectral:
    def test_matches_brute_force_double_sum(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            spec = rng.normal(size=int(rng.integers(2, 17)))
            t = float(rng.uniform(0, 20))
            assert identity_prob_spectral(spec, t) == pytest.approx(
                brute_identity_prob(spec, t), abs=1e-12
            )

    def test_zero_spectrum_gives_one(self):
        for t in (0.0, 0.5, 17.3):
            assert identity_prob_spectral(np.zeros(8), t) == 1.0

    def test_symmetric_pair_closed_form(self):
        eps = 0.5
        for t in (0.3, 1.7, np.pi):
            expected = math.cos(eps * t) ** 2
            assert identity_prob_spectral(np.array([-eps, eps]), t) == pytest.approx(
                expected, abs=1e-12
            )
        assert identity_prob_spectral(np.array([-0.5, 0.5]), np.pi) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_plus_minus_one_at_quarter_period(self):
        assert identity_prob_spectral(np.array([-1.0, 1.0]), np.pi / 4) == pytest.approx(0.5)

    def test_time_zero_is_one_for_any_spectrum(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            assert identity_prob_spectral(rng.normal(size=8), 0.0) == pytest.approx(1.0)

    def test_evenness_via_brute_oracle(self):
        rng = np.random.default_rng(3)
        spec = rng.normal(size=8)
        for t in (0.4, 2.2):
            assert brute_identity_prob(spec, t) == pytest.approx(
                brute_identity_prob(spec, -t), abs=1e-12
            )

    def test_lipschitz_in_time_scaled_by_max_gap(self):
        rng = np.random.default_rng(8)
        spec = np.sort(rng.normal(size=8))
        max_gap = spec[-1] - spec[0]
        for _ in range(50):
            t = float(rng.uniform(0, 10))
            h = float(rng.uniform(0, 0.1))
            lhs = abs(
                identity_prob_spectral(spec, t + h) - identity_prob_spectral(spec, t)
            )
            assert lhs <= h * max_gap + 1e-12

    def test_equals_the_np_sum_form_bit_for_bit(self):
        rng = np.random.default_rng(9)
        # 2^17 eigenvalues: two times per block of the vectorised form.
        for size in (1, 2, 3, 7, 8, 9, 64, 100, 1024, 4097, 2**17):
            spec = rng.normal(scale=3.0, size=size)
            times = rng.uniform(0.0, 50.0, size=20)
            want = np.array([np_sum_form(spec, t) for t in times])
            got = np.array([identity_prob_spectral(spec, t) for t in times])
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            got = identity_probs_spectral(spec, times)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_repeated_eigenvalues_equal_the_np_sum_form_bit_for_bit(self, monkeypatch):
        rng = np.random.default_rng(10)
        spectra = []
        # t terms give at most 2^t distinct values among 2^n.
        for n in range(4, 9):
            for terms in (1, 2, 3):
                h = random_diagonal_sum(n, 2, rng, num_terms=terms)
                spectra.append(walsh_eigenvalues(h))
        # Up to 2^17 entries; 3 * 2^15 does not divide the 2^18-entry block,
        # and 21 times leave a short last block.
        for size, distinct in ((2**17, 2), (2**17, 5), (3 * 2**15, 3), (4097, 17)):
            base = rng.normal(scale=3.0, size=distinct)
            spectra.append(np.repeat(base, -(-size // distinct))[:size])
            spectra.append(np.tile(base, -(-size // distinct))[:size])
        spectra.append(np.array([0.0, -0.0, 1.5, 0.0, -1.5, -0.0]))
        spectra.append(np.array([-0.0, 0.0]))
        gathers = []
        take = np.take

        def counted_take(*args, **kwargs):
            gathers.append(1)
            return take(*args, **kwargs)

        monkeypatch.setattr(np, "take", counted_take)
        for spec in spectra:
            assert np.unique(spec).size < spec.size
            times = np.concatenate(([0.0], rng.uniform(0.0, 50.0, size=20)))
            want = np.array([np_sum_form(spec, t) for t in times])
            gathers.clear()
            got = identity_probs_spectral(spec, times)
            assert gathers, "the repeated spectrum did not take the gather path"
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_a_single_time_never_sorts(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.unique called for a single time")

        spec = np.repeat([-0.7, 0.7], 512)
        want = np_sum_form(spec, 1.3)
        monkeypatch.setattr(np, "unique", refuse)
        assert identity_prob_spectral(spec, 1.3) == want
        assert identity_probs_spectral(spec, np.array([1.3]))[0] == want

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(ValueError, match="finite"):
            identity_prob_spectral(np.array([0.0, 1.0]), t)
        with pytest.raises(ValueError, match="finite"):
            identity_probs_spectral(np.array([0.0, 1.0]), np.array([1.0, t]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_spectrum_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            identity_prob_spectral(np.array([0.0, bad, 1.0]), 0.5)
        with pytest.raises(ValueError, match="finite"):
            identity_probs_spectral(np.array([bad, 1.0]), np.array([0.0, 0.5]))

    def test_overflowing_phase_rejected(self):
        with pytest.raises(ValueError, match="overflows"):
            identity_prob_spectral(np.array([-1e200, 1e200]), 1e200)
        with pytest.raises(ValueError, match="overflows"):
            identity_probs_spectral(np.array([0.0, 1e10]), np.array([1.0, 1e300]))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            identity_prob_spectral(np.array([0.0, 1.0]), -0.1)
        with pytest.raises(ValueError, match="nonnegative"):
            identity_probs_spectral(np.array([0.0, 1.0]), np.array([1.0, -0.1]))


def _error(call):
    with pytest.raises(ValueError) as caught:
        call()
    return str(caught.value)


class TestIdentityProbsGrid:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        spectrum=st.lists(st.floats(-10, 10), min_size=1, max_size=40),
        stop=st.floats(0, 10),
        points=st.integers(1, 3000),
        threshold=st.floats(0, 1),
    )
    def test_within_rounding_of_the_spectral_route(self, spectrum, stop, points, threshold):
        spec = np.array(spectrum)
        want = identity_probs_spectral(spec, np.linspace(0.0, stop, points))
        got = identity_probs_grid(spec, stop, points)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13
        assert np.all((got >= 0) & (got <= 1))
        assume(np.min(np.abs(want - threshold)) > 1e-12)
        assert int((got <= threshold).sum()) == int((want <= threshold).sum())

    def test_the_suite_grid_on_walsh_spectra(self):
        rng = np.random.default_rng(12)
        for n in (4, 5, 6):
            spec = walsh_eigenvalues(random_diagonal_sum(n, 2, rng))
            stop = 2.0 / float(np.sqrt(np.mean(spec**2)))
            want = identity_probs_spectral(spec, np.linspace(0.0, stop, 200_001))
            got = identity_probs_grid(spec, stop, 200_001)
            assert np.max(np.abs(got - want)) <= 1e-13

    def test_single_point_and_zero_stop(self):
        spec = np.array([-1.0, 0.5, 2.0])
        assert identity_probs_grid(spec, 3.0, 1).tolist() == [1.0]
        assert identity_probs_grid(spec, 0.0, 4).tolist() == [1.0] * 4

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_spectrum_gives_the_spectral_error(self, bad):
        spec = np.array([0.0, bad, 1.0])
        want = _error(lambda: identity_probs_spectral(spec, np.linspace(0.0, 2.0, 5)))
        assert "finite" in want
        assert _error(lambda: identity_probs_grid(spec, 2.0, 5)) == want

    @pytest.mark.parametrize("spec, stop", [([0.0, 1e10], 1e300), ([-1e200, 3.0], 1e200)])
    def test_overflowing_phase_gives_the_spectral_error(self, spec, stop):
        spec = np.array(spec)
        want = _error(lambda: identity_probs_spectral(spec, np.linspace(0.0, stop, 7)))
        assert "overflows" in want
        assert _error(lambda: identity_probs_grid(spec, stop, 7)) == want

    @pytest.mark.parametrize("spec", [np.array([]), np.zeros((2, 2)), np.array(3.0)])
    def test_malformed_spectrum_gives_the_spectral_error(self, spec):
        want = _error(lambda: identity_probs_spectral(spec, np.linspace(0.0, 1.0, 3)))
        assert want == "Spectrum must be a nonempty 1-D array of reals."
        assert _error(lambda: identity_probs_grid(spec, 1.0, 3)) == want

    @pytest.mark.parametrize("stop, points", [(-1.0, 3), (math.nan, 3), (math.inf, 3), (1.0, 0)])
    def test_bad_grid_rejected(self, stop, points):
        with pytest.raises(ValueError):
            identity_probs_grid(np.array([0.0, 1.0]), stop, points)


class TestIdentityProbTrace:
    def test_identity_matrix(self):
        assert identity_prob_trace(np.eye(4, dtype=complex)) == 1.0

    def test_single_qubit_rotation(self):
        eps, t = 0.3, 4.0
        u = evolve(PauliSum(1, {"X": eps}), t)
        assert identity_prob_trace(u) == pytest.approx(math.cos(eps * t) ** 2, abs=1e-12)

    def test_agrees_with_spectral_route(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            h = random_pauli_sum(n, min(n, 2), rng)
            t = float(rng.uniform(0, 20))
            spec = eigenvalues(to_dense(h))
            assert abs(
                identity_prob_spectral(spec, t) - identity_prob_trace(evolve(h, t))
            ) <= 1e-10

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            identity_prob_trace(np.ones((2, 2), dtype=complex))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), noise=st.floats(0.0, 1e-6),
       shapes=st.lists(st.tuples(st.integers(1, 4), st.integers(0, 5)), min_size=1, max_size=3))
def test_factor_defects_and_traces_equal_the_eye_and_trace_forms(seed, noise, shapes):
    # identity_prob_factors reads the diagonals through views; here are the
    # np.eye and np.trace forms it replaced, bound and product accumulated
    # in the same order.
    rng = np.random.default_rng(seed)
    stacks = []
    for count, n in shapes:
        shape = (count, 2**n, 2**n)
        h = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        w, v = np.linalg.eigh(h + h.conj().swapaxes(1, 2))
        u = (v * np.exp(-1j * w)[:, None, :]) @ v.conj().swapaxes(1, 2)
        stacks.append(u + noise * (rng.normal(size=shape) + 1j * rng.normal(size=shape)))
    bound, probs = 0.0, []
    for u in stacks:
        dim = u.shape[1]
        gram = np.swapaxes(u.conj(), 1, 2) @ u
        for defect in np.max(np.abs(gram - np.eye(dim)), axis=(1, 2)).tolist():
            bound += defect + bound * defect
        traces = np.abs(np.trace(u, axis1=1, axis2=2)) ** 2 / dim**2
        probs += np.minimum(traces, 1.0).tolist()
    got = identity_prob_factors(stacks, atol=bound)
    assert got.hex() == math.prod(probs, start=1.0).hex()
    with pytest.raises(ValueError, match="not unitary"):
        identity_prob_factors(stacks, atol=np.nextafter(bound, -1.0))


class TestBellDistribution:
    def test_identity_unitary_concentrates_on_identity_outcome(self):
        probs = bell_distribution(np.eye(4, dtype=complex))
        assert probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_trace_formula_exactly(self):
        """Circuit-simulated outcome weights equal |Tr(P U)|^2 / 4^n."""
        rng = np.random.default_rng(17)
        for n in (1, 2, 3):
            h = random_pauli_sum(n, min(n, 2), rng)
            u = evolve(h, float(rng.uniform(0, 10)))
            probs = bell_distribution(u)
            labels = ["".join(p) for p in itertools.product("IXYZ", repeat=n)]
            by_label = {}
            for idx, p in enumerate(probs):
                bits = format(idx, f"0{2 * n}b")
                by_label[outcome_pauli_label(bits)] = (
                    by_label.get(outcome_pauli_label(bits), 0.0) + p
                )
            for label in labels:
                expected = abs(np.trace(pauli_matrix(label) @ u)) ** 2 / 4**n
                assert by_label.get(label, 0.0) == pytest.approx(expected, abs=1e-10)

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            bell_distribution(np.eye(2**5, dtype=complex))


class TestBellMeasureChoi:
    def test_identity_unitary_always_identity_outcome(self):
        rng = np.random.default_rng(0)
        outcomes = bell_measure_choi(np.eye(2, dtype=complex), rng, shots=50)
        assert all(o == "00" for o in outcomes)

    def test_monte_carlo_frequency_matches_closed_form(self):
        eps, t, shots = 0.3, 4.0, 100_000
        rng = np.random.default_rng(77)
        u = evolve(PauliSum(1, {"X": eps}), t)
        outcomes = bell_measure_choi(u, rng, shots=shots)
        freq = outcomes.count("00") / shots
        p = math.cos(eps * t) ** 2
        sigma = math.sqrt(p * (1 - p) / shots)
        assert abs(freq - p) <= 3 * sigma

    def test_equals_per_draw_formatting(self):
        rng = np.random.default_rng(12)
        for n in (1, 2, 3, 4):
            u = evolve(random_pauli_sum(n, min(n, 2), rng), float(rng.uniform(0, 10)))
            got_rng, want_rng = np.random.default_rng(n), np.random.default_rng(n)
            got = bell_measure_choi(u, got_rng, shots=2000)
            draws = want_rng.choice(4**n, size=2000, p=bell_distribution(u))
            assert got == [outcome_bits(int(i), n) for i in draws]
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_indices_are_the_strings_and_draws_of_the_string_sampler(self):
        rng = np.random.default_rng(21)
        for n in (1, 2, 3, 4):
            u = evolve(random_pauli_sum(n, min(n, 2), rng), float(rng.uniform(0, 10)))
            got_rng, want_rng = np.random.default_rng(n), np.random.default_rng(n)
            got = bell_outcome_indices(u, got_rng, shots=3000)
            want = bell_measure_choi(u, want_rng, shots=3000)
            assert got.shape == (3000,)
            assert [outcome_bits(i, n) for i in got.tolist()] == want
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_outcome_label_mapping(self):
        assert outcome_pauli_label("00") == "I"
        assert outcome_pauli_label("10") == "Z"
        assert outcome_pauli_label("01") == "X"
        assert outcome_pauli_label("11") == "Y"
        # Layout is u-register then v-register: pairs (0,1) and (1,0).
        assert outcome_pauli_label("0110") == "XZ"
        assert outcome_pauli_label("0101") == "IY"


class TestSampleIdentityShots:
    def test_certain_outcomes(self):
        rng = np.random.default_rng(1)
        assert sample_identity_shots(1.0, 100, rng) == 100
        assert sample_identity_shots(0.0, 100, rng) == 0

    def test_binomial_concentration(self):
        rng = np.random.default_rng(2)
        count = sample_identity_shots(0.5, 100_000, rng)
        assert 0.49 <= count / 100_000 <= 0.51

    def test_out_of_range_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            sample_identity_shots(1.5, 10, rng)
