"""Tests for eigenvalue-gap statistics and the drop-time finder."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamcert import gaps
from hamcert.bell import identity_prob_spectral, identity_probs_spectral
from hamcert.gaps import (
    DropTime,
    GapStatConfig,
    find_drop_indices,
    find_drop_time,
    lambda_stat,
    lambda_stat_stack,
    stability_bound,
    verify_stability,
)
from hamcert.instances import random_diagonal_sum, random_pauli_sum
from hamcert.pauli import PauliSum, frobenius_norm, scale


def _uniform_loop(spectrum, cfg, rng):
    """One search that draws one ``rng.uniform`` time at a time."""
    target = 1.0 - cfg.d / 4.0
    for _ in range(cfg.m_times):
        t = float(rng.uniform(0.0, 2.0 / cfg.epsilon))
        prob = identity_prob_spectral(spectrum, t)
        if prob <= target:
            return DropTime(t, prob)
    return None


def _drop_times(spectrum, cfg, rng, searches):
    """``searches`` successive searches, one ``DropTime`` or ``None`` each."""
    at, times, probs = find_drop_indices(spectrum, cfg, rng, searches)
    return [None if a < 0 else DropTime(times[a], probs[a]) for a in at.tolist()]


def _bits(found):
    return [None if f is None else np.array(f).view(np.uint64).tolist() for f in found]


def brute_lambda(spectrum, epsilon):
    values = np.asarray(spectrum, dtype=float)
    count = sum(
        1 for a in values for b in values if abs(a - b) >= epsilon
    )
    return count / values.size**2


class TestLambdaStat:
    def test_constant_spectrum(self):
        assert lambda_stat(np.full(8, 0.7), 0.1) == 0.0

    def test_two_point_spectrum(self):
        assert lambda_stat(np.array([-1.0, 1.0]), 1.0) == 0.5

    def test_matches_brute_force_count(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            spec = rng.normal(size=int(rng.integers(2, 33)))
            eps = float(rng.uniform(0.05, 3.0))
            assert lambda_stat(spec, eps) == brute_lambda(spec, eps)

    def test_nonincreasing_in_epsilon(self):
        rng = np.random.default_rng(15)
        spec = rng.normal(size=16)
        values = [lambda_stat(spec, e) for e in (0.1, 0.5, 1.0, 2.0, 4.0)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_translation_invariance(self):
        rng = np.random.default_rng(16)
        spec = rng.normal(size=16)
        assert lambda_stat(spec, 0.8) == lambda_stat(spec + 5.0, 0.8)

    def test_scale_covariance_exact_for_binary_factors(self):
        rng = np.random.default_rng(17)
        spec = rng.normal(size=16)
        for c in (2.0, 0.5, 8.0):
            assert lambda_stat(c * spec, c * 0.7) == lambda_stat(spec, 0.7)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_epsilon_rejected(self, eps):
        # A NaN threshold used to give the fraction 1.0.
        with pytest.raises(ValueError, match="finite"):
            lambda_stat(np.array([-1.0, 1.0]), eps)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_spectrum_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            lambda_stat(np.array([-1.0, bad, 1.0]), 0.5)

    @pytest.mark.parametrize("spec", [3.0, np.array(3.0), np.array([]), np.zeros((2, 2))])
    def test_malformed_spectrum_rejected(self, spec):
        # A 0-d spectrum used to reach np.sort first and raise numpy's AxisError.
        with pytest.raises(ValueError, match=r"^Spectrum must be a nonempty 1-D array of reals\.$"):
            lambda_stat(spec, 1.0)

    def test_nonpositive_epsilon_rejected(self):
        with pytest.raises(ValueError):
            lambda_stat(np.array([0.0, 1.0]), 0.0)


# Eigenvalues on a coarse grid of halves, so that rows repeat values and
# many gaps equal a threshold exactly; the thresholds come from that grid
# and from arbitrary positive floats.
GRID_VALUES = st.integers(-8, 8).map(lambda i: i / 2)
THRESHOLDS = st.one_of(
    st.integers(1, 12).map(lambda i: i / 2),
    st.floats(1e-3, 10.0, allow_nan=False, allow_infinity=False),
)


class TestLambdaStatStack:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), width=st.integers(1, 12), rows=st.integers(1, 6))
    def test_every_row_is_lambda_stat_bit_for_bit(self, data, width, rows):
        values = st.one_of(GRID_VALUES, st.floats(-1e3, 1e3, allow_nan=False))
        spectra = np.array(
            [data.draw(st.lists(values, min_size=width, max_size=width)) for _ in range(rows)]
        )
        epsilons = data.draw(st.lists(THRESHOLDS, min_size=rows, max_size=rows))
        got = lambda_stat_stack(spectra, epsilons)
        want = [lambda_stat(row, eps) for row, eps in zip(spectra, epsilons)]
        assert got.tolist() == want
        assert [float(g).hex() for g in got] == [w.hex() for w in want]

    def test_gaps_equal_to_the_threshold_count(self):
        spectra = np.array([[0.0, 0.5, 0.5, 1.0], [-1.0, -1.0, 1.0, 1.0]])
        got = lambda_stat_stack(spectra, [0.5, 2.0])
        assert got.tolist() == [brute_lambda(spectra[0], 0.5), brute_lambda(spectra[1], 2.0)]
        assert got.tolist() == [10 / 16, 8 / 16]

    def test_an_empty_stack_gives_no_fractions(self):
        assert lambda_stat_stack(np.empty((0, 3)), []).shape == (0,)

    @pytest.mark.parametrize("spectra, epsilons", [
        (np.zeros(3), [1.0]),
        (np.zeros((2, 0)), [1.0, 1.0]),
        (np.zeros((2, 3)), [1.0]),
    ])
    def test_malformed_stack_rejected(self, spectra, epsilons):
        with pytest.raises(ValueError, match="nonempty spectra"):
            lambda_stat_stack(spectra, epsilons)

    def test_each_threshold_and_value_is_checked(self):
        with pytest.raises(ValueError, match="finite and positive, got 0.0"):
            lambda_stat_stack(np.zeros((2, 2)), [1.0, 0.0])
        with pytest.raises(ValueError, match="finite values only"):
            lambda_stat_stack(np.array([[0.0, 1.0], [0.0, math.inf]]), [1.0, 1.0])


class TestGapStatConfig:
    def test_m_times_derivation(self):
        cfg = GapStatConfig(epsilon=1.0, d=0.5, delta=0.1)
        assert cfg.m_times == 6
        assert (2 / 3) ** cfg.m_times <= 0.1

    def test_m_times_at_the_edges(self):
        # delta exactly (2/3)^m and one float either side of it.  Just below
        # (2/3)^23 the closed form ceil(log(1/delta) / log(1.5)) gives 23,
        # one draw short of the bound.
        for m in range(1, 41):
            edge = (2 / 3) ** m
            for delta in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)):
                draws = GapStatConfig(epsilon=1.0, d=0.5, delta=float(delta)).m_times
                assert (2 / 3) ** draws <= delta
                assert draws == 1 or (2 / 3) ** (draws - 1) > delta
            assert GapStatConfig(epsilon=1.0, d=0.5, delta=edge).m_times == m

    def test_three_fields(self):
        assert [f.name for f in dataclasses.fields(GapStatConfig)] == [
            "epsilon", "d", "delta"
        ]

    def test_ranges(self):
        with pytest.raises(ValueError):
            GapStatConfig(epsilon=0.0, d=0.5, delta=0.1)
        with pytest.raises(ValueError):
            GapStatConfig(epsilon=1.0, d=1.5, delta=0.1)
        with pytest.raises(ValueError):
            GapStatConfig(epsilon=1.0, d=0.5, delta=1.0)

    @pytest.mark.parametrize("field", ["epsilon", "d", "delta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_values_rejected(self, field, value):
        # A NaN epsilon used to be accepted, and every search then missed.
        kwargs = {"epsilon": 1.0, "d": 0.5, "delta": 0.1, field: value}
        with pytest.raises(ValueError):
            GapStatConfig(**kwargs)


class TestFindDropTime:
    def test_flat_spectrum_never_drops(self):
        cfg = GapStatConfig(epsilon=1.0, d=0.5, delta=0.1)
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert find_drop_time(np.zeros(4), cfg, rng) is None

    def test_found_time_satisfies_the_contract(self):
        spec = np.array([-0.5, 0.5])
        d = lambda_stat(spec, 1.0)
        cfg = GapStatConfig(epsilon=1.0, d=d, delta=0.1)
        rng = np.random.default_rng(1)
        hit = find_drop_time(spec, cfg, rng)
        assert hit is not None
        assert 0.0 <= hit.time <= 2.0
        assert hit.identity_prob <= 1.0 - d / 4.0
        assert identity_prob_spectral(spec, hit.time) == hit.identity_prob

    def test_dip_measure_of_symmetric_pair(self):
        """Grid quadrature: cos^2 <= 7/8 on at least a third of [0, 2/eps]."""
        eps, d = 0.5, 0.5
        ts = np.linspace(0.0, 2.0 / eps, 100_001)
        ivals = np.cos(eps * ts) ** 2
        measure = float(np.mean(ivals <= 1.0 - d / 4.0))
        assert measure >= 1.0 / 3.0

    def test_equals_the_uniform_draw_loop(self):
        cfg = GapStatConfig(epsilon=0.7, d=0.5, delta=0.05)
        for seed, spec in enumerate(
            [np.array([-0.5, 0.5]), np.array([-2.0, -1.0, 1.0, 2.0]), np.zeros(8)]
        ):
            rngs = [np.random.default_rng(seed) for _ in range(3)]
            want = [_uniform_loop(spec, cfg, rngs[0]) for _ in range(2500)]
            one_at_a_time = [find_drop_time(spec, cfg, rngs[1]) for _ in range(2500)]
            # 2500 searches span three blocks of draws.
            at_once = _drop_times(spec, cfg, rngs[2], 2500)
            assert _bits(one_at_a_time) == _bits(at_once) == _bits(want)
            states = [r.bit_generator.state for r in rngs]
            assert states[0] == states[1] == states[2]

    def test_searches_that_run_past_the_first_draws(self, monkeypatch):
        # cos(0.14 t)**2 <= 7/8 only for t >= 2.58 of [0, 2/0.7]: about one
        # draw in ten hits, so a search mostly takes several of its 8 draws
        # and each block evaluates the rest of its draws too.
        spec = np.array([-0.14, 0.14])
        cfg = GapStatConfig(epsilon=0.7, d=0.5, delta=0.05)
        sizes = []

        def counted(spectrum, times):
            sizes.append(len(times))
            return identity_probs_spectral(spectrum, times)

        monkeypatch.setattr(gaps, "identity_probs_spectral", counted)
        rngs = [np.random.default_rng(5) for _ in range(2)]
        want = [_uniform_loop(spec, cfg, rngs[0]) for _ in range(1500)]
        got = _drop_times(spec, cfg, rngs[1], 1500)
        assert _bits(got) == _bits(want)
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
        # Blocks of 1024 and 476 searches: two draws per search, then six.
        assert cfg.m_times == 8
        assert sizes == [2 * 1024, 6 * 1024, 2 * 476, 6 * 476]
        assert 0 < sum(f is None for f in got) < 1500

    @pytest.mark.parametrize("delta", [0.7, 0.5, 0.3, 0.2])
    def test_few_draws_per_search(self, delta):
        # m_times 1 to 4 against the two draws per search evaluated first:
        # the last search of a block may need exactly one draw more.
        cfg = GapStatConfig(epsilon=0.7, d=0.5, delta=delta)
        for spec in (np.array([-0.14, 0.14]), np.zeros(2)):
            for searches in (1, 2, 3, 7):
                rngs = [np.random.default_rng(searches) for _ in range(2)]
                want = [_uniform_loop(spec, cfg, rngs[0]) for _ in range(searches)]
                got = _drop_times(spec, cfg, rngs[1], searches)
                assert _bits(got) == _bits(want)
                assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    @pytest.mark.parametrize("searches", [1, 1023, 1024, 1025, 3000])
    def test_array_core_holds_the_hits_of_the_drop_times(self, searches):
        # About one draw in ten hits, so searches take several draws and
        # some miss; block edges at 1024 searches.
        spec = np.array([-0.14, 0.14])
        cfg = GapStatConfig(epsilon=0.7, d=0.5, delta=0.05)
        rngs = [np.random.default_rng(searches) for _ in range(4)]
        at, times, probs = find_drop_indices(spec, cfg, rngs[0], searches)
        assert at.shape == (searches,) and times.shape == probs.shape
        got = [None if a < 0 else DropTime(times[a], probs[a]) for a in at.tolist()]
        want = [_uniform_loop(spec, cfg, rngs[1]) for _ in range(searches)]
        assert _bits(got) == _bits(want)
        assert _bits([find_drop_time(spec, cfg, rngs[2]) for _ in range(searches)]) == _bits(want)
        assert 0 < np.count_nonzero(at < 0) < searches or searches == 1
        # The arrays hold every draw taken, in the order one uniform draw at
        # a time gives them, with their probabilities.
        loop = [float(rngs[3].uniform(0.0, 2.0 / cfg.epsilon)) for _ in range(times.size)]
        assert times.tolist() == loop
        assert probs.tolist() == identity_probs_spectral(spec, times).tolist()
        states = [r.bit_generator.state for r in rngs]
        assert states[0] == states[1] == states[2] == states[3]

    def test_negative_search_count_rejected(self):
        cfg = GapStatConfig(epsilon=1.0, d=0.5, delta=0.1)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="nonnegative"):
            _drop_times(np.zeros(2), cfg, rng, -1)
        assert _drop_times(np.zeros(2), cfg, rng, 0) == []
        assert [a.size for a in find_drop_indices(np.zeros(2), cfg, rng, 0)] == [0, 0, 0]
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    def test_failure_rate_within_envelope(self):
        spec = np.array([-0.5, 0.5])
        cfg = GapStatConfig(epsilon=1.0, d=0.5, delta=0.1)
        rng = np.random.default_rng(23)
        reps = 2000
        misses = sum(1 for _ in range(reps) if find_drop_time(spec, cfg, rng) is None)
        assert misses / reps <= 0.1 + 3 * math.sqrt(0.1 * 0.9 / reps)


class TestTermwiseCosineAverage:
    def test_mean_cosine_bounded_by_half(self):
        """For |gap| >= eps, |avg of cos(gap t) over [0, 2/eps]| <= 1/2."""
        rng = np.random.default_rng(19)
        eps = 0.7
        ts = np.linspace(0.0, 2.0 / eps, 200_001)
        for _ in range(50):
            gap = float(rng.uniform(eps, 20 * eps)) * (1 if rng.random() < 0.5 else -1)
            quad = float(np.mean(np.cos(gap * ts)))
            closed = eps / 2.0 * math.sin(2.0 * gap / eps) / gap
            assert quad == pytest.approx(closed, abs=1e-4)
            assert abs(quad) <= 0.5 + 1e-6


class TestStabilityBound:
    def test_unperturbed(self):
        assert stability_bound(0.37, 0.0) == 0.37

    def test_paper_constant_pair(self):
        for k in (1, 2, 3):
            p = 9.0 ** (-k) / 4.0
            q = 3.0 ** (-k) / 16.0
            assert stability_bound(p, q) == pytest.approx(9.0 ** (-k) / 8.0, rel=1e-12)

    def test_clamped_at_zero(self):
        assert stability_bound(0.5, 0.2) == 0.0

    def test_ranges(self):
        with pytest.raises(ValueError):
            stability_bound(1.5, 0.0)
        with pytest.raises(ValueError):
            stability_bound(0.5, -0.1)


class TestVerifyStability:
    def test_zero_perturbation_reduces_to_monotonicity(self):
        a = PauliSum(2, {"XZ": 0.4, "ZI": 0.3})
        assert verify_stability(a, PauliSum(2), 0.5) is True

    def test_random_small_perturbations(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            a = random_pauli_sum(n, min(n, 2), rng)
            eps = frobenius_norm(a)
            b_raw = random_pauli_sum(n, min(n, 2), rng)
            b = scale(b_raw, float(rng.uniform(0, eps / 8)) / frobenius_norm(b_raw))
            assert verify_stability(a, b, eps) is True

    def test_diagonal_instances_with_off_axis_noise(self):
        rng = np.random.default_rng(26)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            a = random_diagonal_sum(n, 2, rng)
            eps = frobenius_norm(a)
            b_raw = random_pauli_sum(n, 2, rng, letters="XY")
            b = scale(b_raw, float(rng.uniform(0, eps / 8)) / frobenius_norm(b_raw))
            assert verify_stability(a, b, eps) is True
