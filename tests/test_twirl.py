"""Tests for diagonal subspace selection and the coefficient-space twirl."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamcert.instances import random_pauli_sum
from hamcert.pauli import PauliSum, commutes, frobenius_norm
from hamcert.twirl import (
    DiagonalSubspace,
    TwirlTranscript,
    apply_twirl,
    project_effective,
    run_twirl,
    sample_subspace,
    sample_twirl_paulis,
)


def _member(subspace, bits):
    """The subspace member that holds the site's axis wherever ``bits`` is set."""
    return "".join(ax if bit else "I" for ax, bit in zip(subspace.axes, bits))


class TestDiagonalSubspace:
    def test_membership(self):
        s = DiagonalSubspace(("X", "Z"))
        assert s.contains("XI") is True
        assert s.contains("XZ") is True
        assert s.contains("XY") is False
        assert s.contains("II") is True

    def test_invalid_axis_rejected(self):
        with pytest.raises(ValueError):
            DiagonalSubspace(("X", "I"))


class TestSampleSubspace:
    def test_axis_frequencies_are_uniform(self):
        rng = np.random.default_rng(41)
        draws = 30_000
        counts = {"X": 0, "Y": 0, "Z": 0}
        for _ in range(draws):
            counts[sample_subspace(1, rng).axes[0]] += 1
        sigma = math.sqrt((1 / 3) * (2 / 3) / draws)
        for axis in "XYZ":
            assert abs(counts[axis] / draws - 1 / 3) <= 3 * sigma

    def test_axes_independent_across_sites(self):
        rng = np.random.default_rng(41)
        s = sample_subspace(6, rng)
        assert len(s.axes) == 6


class TestSampleTwirlPaulis:
    def test_all_draws_in_subspace(self):
        rng = np.random.default_rng(42)
        s = DiagonalSubspace(("X", "Y", "Z"))
        draws = sample_twirl_paulis(s, 20, rng)
        assert len(draws) == 20
        assert all(s.contains(p) for p in draws)

    def test_uniform_over_subspace_elements(self):
        rng = np.random.default_rng(43)
        s = DiagonalSubspace(("Z", "Z"))
        draws = 20_000
        counts: dict[str, int] = {}
        for p in sample_twirl_paulis(s, draws, rng):
            counts[p] = counts.get(p, 0) + 1
        sigma = math.sqrt(0.25 * 0.75 / draws)
        for element in ("II", "IZ", "ZI", "ZZ"):
            assert abs(counts.get(element, 0) / draws - 0.25) <= 3 * sigma

    def test_zero_steps_rejected(self):
        rng = np.random.default_rng(44)
        with pytest.raises(ValueError):
            sample_twirl_paulis(DiagonalSubspace(("Z",)), 0, rng)

    @pytest.mark.parametrize("n,steps", [(1, 1), (3, 34), (6, 17), (20, 5)])
    def test_matches_the_per_row_construction(self, n, steps):
        for seed in range(5):
            s = sample_subspace(n, np.random.default_rng([seed, n]))
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            bits = ref_rng.integers(0, 2, size=(steps, n))
            expected = tuple(_member(s, row) for row in bits)
            assert sample_twirl_paulis(s, steps, rng) == expected
            # The same draws leave the generator in the same state.
            assert rng.random() == ref_rng.random()


class TestTranscriptCheck:
    def _transcript(self, paulis):
        empty = PauliSum(2)
        return TwirlTranscript(DiagonalSubspace(("X", "Z")), paulis, empty, empty)

    def test_members_accepted(self):
        assert self._transcript(("II", "XI", "IZ", "XZ")).paulis[-1] == "XZ"

    @pytest.mark.parametrize(
        "bad", ["XX", "ZZ", "YI", "IQ", "I\u00e9", "X", "XZI"],
    )
    def test_foreign_paulis_rejected(self, bad):
        with pytest.raises(ValueError, match=repr(bad)):
            self._transcript(("XZ", bad, "II"))


class TestProjectEffective:
    def test_direct_membership_split(self):
        h = PauliSum(2, {"XX": 0.7, "ZI": 0.4})
        eff, off = project_effective(h, DiagonalSubspace(("X", "X")))
        assert eff == PauliSum(2, {"XX": 0.7})
        assert off == PauliSum(2, {"ZI": 0.4})

    def test_partition_is_exact(self):
        rng = np.random.default_rng(45)
        labels = ["".join(p) for p in itertools.product("IXYZ", repeat=3)][1:]
        h = PauliSum(3, {lbl: rng.normal() for lbl in labels[:12]})
        s = DiagonalSubspace(("Y", "Z", "X"))
        eff, off = project_effective(h, s)
        assert eff + off == h
        assert all(s.contains(p) for p in eff.labels())
        assert not any(s.contains(p) for p in off.labels())

    def test_empty_sum_is_its_own_split(self):
        h = PauliSum(3)
        eff, off = project_effective(h, DiagonalSubspace(("Y", "Z", "X")))
        assert eff == off == h
        with pytest.raises(ValueError, match="differ"):
            project_effective(h, DiagonalSubspace(("Z",)))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(1, 6), draws=st.integers(0, 4))
    def test_trusted_split_equals_the_validating_constructor(self, data, n, draws):
        axes = data.draw(st.lists(st.sampled_from("XYZ"), min_size=n, max_size=n))
        s = DiagonalSubspace(tuple(axes))
        label = st.text("IXYZ", min_size=n, max_size=n).filter(lambda p: p.strip("I"))
        coeff = st.floats(allow_nan=False, allow_infinity=False)
        h = PauliSum(n, data.draw(st.dictionaries(label, coeff, max_size=12)))
        bits = st.lists(st.booleans(), min_size=n, max_size=n)
        rows = data.draw(st.lists(bits, min_size=draws, max_size=draws))
        paulis = tuple(_member(s, b) for b in rows)
        inside = {p: c for p, c in h.items() if s.contains(p)}
        outside = {p: c for p, c in h.items() if not s.contains(p)}
        surviving = {
            p: c for p, c in outside.items() if all(commutes(q, p) for q in paulis)
        }
        tr = apply_twirl(h, s, paulis)
        got = (*project_effective(h, s), tr.effective, tr.residual)
        want = (
            PauliSum(n, inside),
            PauliSum(n, outside),
            PauliSum(n, inside),
            PauliSum(n, surviving),
        )
        for g, w in zip(got, want):
            assert (g, g.to_text(), hash(g)) == (w, w.to_text(), hash(w))


class TestTwirl:
    def test_in_subspace_terms_are_fixed(self):
        s = DiagonalSubspace(("Z", "Z"))
        h = PauliSum(2, {"ZI": 0.5, "ZZ": -0.25})
        rng = np.random.default_rng(46)
        for _ in range(10):
            assert run_twirl(h, s, 6, rng).twirled == h

    def test_transcript_invariants(self):
        rng = np.random.default_rng(47)
        h = PauliSum(2, {"XZ": 0.3, "ZZ": 0.4, "YI": -0.2})
        s = DiagonalSubspace(("Z", "Z"))
        tr = run_twirl(h, s, 4, rng)
        assert len(tr.paulis) == 4
        assert tr.twirled == tr.effective + tr.residual
        assert all(s.contains(p) for p in tr.effective.labels())
        assert not any(s.contains(p) for p in tr.residual.labels())

    def test_single_qubit_survival_rate(self):
        """An off-axis term survives T steps with frequency about 2^-T."""
        s = DiagonalSubspace(("Z",))
        h = PauliSum(1, {"X": 1.0})
        rng = np.random.default_rng(48)
        transcripts = 20_000
        for steps in (1, 2, 4, 6):
            survived = sum(
                1 for _ in range(transcripts) if run_twirl(h, s, steps, rng).residual
            )
            p = 2.0 ** (-steps)
            sigma = math.sqrt(p * (1 - p) / transcripts)
            assert abs(survived / transcripts - p) <= 3 * sigma

    def test_expected_residual_norm_closed_form(self):
        rng = np.random.default_rng(49)
        h = PauliSum(2, {"XI": 0.6, "YZ": -0.3, "ZZ": 0.8})
        s = DiagonalSubspace(("Z", "Z"))
        _, off = project_effective(h, s)
        steps = 3
        exact = 2.0 ** (-steps) * frobenius_norm(off) ** 2
        transcripts = 20_000
        samples = np.array(
            [
                frobenius_norm(run_twirl(h, s, steps, rng).residual) ** 2
                for _ in range(transcripts)
            ]
        )
        sigma = samples.std(ddof=1) / math.sqrt(transcripts)
        assert abs(samples.mean() - exact) <= 3 * sigma

    def test_norm_nonincreasing_along_any_transcript(self):
        rng = np.random.default_rng(50)
        h = PauliSum(3, {"XII": 0.5, "YZI": 0.3, "ZZZ": 0.7, "IXY": -0.4})
        s = sample_subspace(3, rng)
        paulis = sample_twirl_paulis(s, 8, rng)
        norms = [
            frobenius_norm(apply_twirl(h, s, paulis[:i]).twirled)
            for i in range(len(paulis) + 1)
        ]
        assert all(a >= b - 1e-15 for a, b in zip(norms, norms[1:]))

    def test_matches_dense_matrix_averaging(self):
        """Independent reference: run the averaging recursion on matrices."""
        from hamcert.dense import pauli_matrix, to_dense

        rng = np.random.default_rng(52)
        h1 = random_pauli_sum(3, 2, rng, num_terms=6)
        s = sample_subspace(3, rng)
        paulis = sample_twirl_paulis(s, 3, rng)
        m = to_dense(h1)
        for p in paulis:
            pm = pauli_matrix(p)
            m = (m + pm @ m @ pm) / 2.0
        filtered = apply_twirl(h1, s, paulis).twirled
        assert np.max(np.abs(m - to_dense(filtered))) <= 1e-12

    def test_second_moment_bound_by_exhaustive_enumeration(self):
        """Retained-norm second moment obeys E[Y^2] <= 3^k E[Y]^2, exactly."""
        rng = np.random.default_rng(51)
        for n, k in ((4, 2), (5, 2), (6, 3)):
            h = random_pauli_sum(n, k, rng, num_terms=8)
            first = 0.0
            second = 0.0
            count = 0
            for axes in itertools.product("XYZ", repeat=n):
                eff, _ = project_effective(h, DiagonalSubspace(axes))
                y = frobenius_norm(eff) ** 2
                first += y
                second += y * y
                count += 1
            first /= count
            second /= count
            assert second <= 3**k * first * first * (1 + 1e-12)
