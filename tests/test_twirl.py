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


@st.composite
def _twirl_case(draw, max_n=8, max_draws=40):
    """A subspace, a sum with in-subspace and foreign terms, and member draws
    that include all-identity rows and repeats."""
    n = draw(st.integers(1, max_n))
    axes = draw(st.lists(st.sampled_from("XYZ"), min_size=n, max_size=n))
    s = DiagonalSubspace(tuple(axes))
    bits = st.lists(st.booleans(), min_size=n, max_size=n)
    member = bits.map(lambda b: _member(s, b)).filter(lambda p: p.strip("I"))
    label = st.text("IXYZ", min_size=n, max_size=n).filter(lambda p: p.strip("I"))
    coeff = st.floats(allow_nan=False, allow_infinity=False)
    terms = draw(st.dictionaries(st.one_of(member, label), coeff, max_size=12))
    pool = draw(st.lists(st.one_of(st.just([False] * n), bits), min_size=1, max_size=6))
    rows = draw(st.lists(st.sampled_from(pool), max_size=max_draws))
    return PauliSum(n, terms), s, tuple(_member(s, b) for b in rows)


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

    @pytest.mark.parametrize("bad", ["XY", "", "x"])
    def test_axis_must_be_one_letter(self, bad):
        # "XY" and "" are substrings of "XYZ" but not axis letters.
        with pytest.raises(ValueError, match="Axis letters"):
            DiagonalSubspace(("X", bad))


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
    @given(case=_twirl_case())
    def test_trusted_split_equals_the_validating_constructor(self, case):
        h, s, paulis = case
        n = h.n
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


def _fields(tr):
    return (tr.subspace, tr.paulis, tr.effective, tr.residual,
            tr.effective.to_text(), tr.residual.to_text())


class TestTwirlRoutes:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=_twirl_case(), steps=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_run_twirl_equals_apply_twirl_on_the_same_draws(self, case, steps, seed):
        h, s, _ = case
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = run_twirl(h, s, steps, rng)
        want = apply_twirl(h, s, sample_twirl_paulis(s, steps, ref_rng))
        assert _fields(got) == _fields(want)
        assert all(type(p) is str for p in got.paulis)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=_twirl_case(), steps=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_trusted_values_equal_the_validated_ones(self, case, steps, seed):
        h, _, _ = case
        rng = np.random.default_rng(seed)
        s = sample_subspace(h.n, rng)
        checked = DiagonalSubspace(tuple(str(s)))
        assert (s, hash(s), str(s)) == (checked, hash(checked), str(checked))
        assert all(type(ax) is str for ax in s.axes)
        tr = run_twirl(h, s, steps, rng)
        rebuilt = TwirlTranscript(
            checked, tuple(tr.paulis),
            PauliSum(h.n, tr.effective.terms), PauliSum(h.n, tr.residual.terms),
        )
        assert (tr, hash(tr)) == (rebuilt, hash(rebuilt))
        assert tr.twirled == rebuilt.twirled

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=_twirl_case(max_draws=6), data=st.data())
    def test_public_constructors_reject_foreign_values(self, case, data):
        h, s, paulis = case
        site = data.draw(st.integers(0, s.n - 1))
        foreign = data.draw(st.sampled_from([c for c in "XYZ" if c != s.axes[site]]))
        row = data.draw(st.sampled_from(paulis)) if paulis else "I" * s.n
        bad = row[:site] + foreign + row[site + 1:]
        draws = data.draw(st.permutations((*paulis, bad)))
        with pytest.raises(ValueError, match="not in the subspace"):
            apply_twirl(h, s, draws)
        with pytest.raises(ValueError, match="not in the subspace"):
            TwirlTranscript(s, draws, PauliSum(s.n), PauliSum(s.n))
        axes = list(s.axes)
        axes[site] = data.draw(st.sampled_from(["I", "W", "x", "XY", ""]))
        with pytest.raises(ValueError, match="Axis letters"):
            DiagonalSubspace(tuple(axes))


class TestRunTwirlChecks:
    def test_size_mismatch_leaves_the_generator_untouched(self):
        rng = np.random.default_rng(53)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="differ"):
            run_twirl(PauliSum(3, {"XZI": 0.5}), DiagonalSubspace(("Z", "Z")), 34, rng)
        assert rng.bit_generator.state == before

    def test_zero_steps_leave_the_generator_untouched(self):
        rng = np.random.default_rng(54)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="at least one step"):
            run_twirl(PauliSum(2, {"XZ": 0.5}), DiagonalSubspace(("Z", "Z")), 0, rng)
        assert rng.bit_generator.state == before
