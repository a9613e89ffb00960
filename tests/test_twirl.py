"""Tests for diagonal subspace selection and the coefficient-space twirl."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamcert import twirl
from hamcert.instances import random_pauli_sum
from hamcert.pauli import PauliSum, commutes, frobenius_norm
from hamcert.twirl import (
    DiagonalSubspace,
    TwirlTranscript,
    _draw,
    _labels,
    apply_twirl,
    project_effective,
    run_twirl,
    sample_subspace,
    sample_twirl_paulis,
)


def _contains(subspace, label):
    """Whether each non-identity letter of ``label`` equals its site's axis."""
    return all(ch in ("I", ax) for ch, ax in zip(label, subspace.axes, strict=True))


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
        assert _contains(s, "XI") is True
        assert _contains(s, "XZ") is True
        assert _contains(s, "XY") is False
        assert _contains(s, "II") is True

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
        assert all(_contains(s, p) for p in draws)

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

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(1, 64), steps=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1), sampled=st.booleans())
    def test_the_draw_row_spells_each_member(self, data, n, steps, seed, sampled):
        # A sampled subspace carries the drawn axis indices, a constructed
        # one works them out from its letters; both must spell the same.
        if sampled:
            s = sample_subspace(n, np.random.default_rng(seed + 1))
        else:
            axes = data.draw(st.lists(st.sampled_from("XYZ"), min_size=n, max_size=n))
            s = DiagonalSubspace(tuple(axes))
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        bits, row = _draw(s, steps, rng)
        want = ref_rng.integers(0, 2, size=(steps, n))
        assert np.array_equal(bits, want)
        labels = tuple(
            "".join(axis if bit else "I" for axis, bit in zip(s.axes, draw)) for draw in want
        )
        assert row == "".join(label + "," for label in labels).encode("ascii")
        assert _labels(row) == labels
        assert rng.bit_generator.state == ref_rng.bit_generator.state


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
        assert all(_contains(s, p) for p in eff.labels())
        assert not any(_contains(s, p) for p in off.labels())

    def test_empty_sum_is_its_own_split(self):
        h = PauliSum(3)
        eff, off = project_effective(h, DiagonalSubspace(("Y", "Z", "X")))
        assert eff == off == h
        with pytest.raises(ValueError, match="differ"):
            project_effective(h, DiagonalSubspace(("Z",)))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=_twirl_case(max_n=5))
    def test_equals_the_twirl_by_no_draws(self, case):
        h, s, _ = case
        tr = apply_twirl(h, s, ())
        eff, off = project_effective(h, s)
        assert (eff, off) == (tr.effective, tr.residual)
        _check_support(eff)
        _check_support(off)
        assert list(eff.items()) == list(tr.effective.items())
        assert list(off.items()) == list(tr.residual.items())

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=_twirl_case())
    def test_trusted_split_equals_the_validating_constructor(self, case):
        h, s, paulis = case
        n = h.n
        inside = {p: c for p, c in h.items() if _contains(s, p)}
        outside = {p: c for p, c in h.items() if not _contains(s, p)}
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
        assert all(_contains(s, p) for p in tr.effective.labels())
        assert not any(_contains(s, p) for p in tr.residual.labels())

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


def _check_support(h):
    """The support a twirl part holds equals the one its labels give."""
    fresh = PauliSum(h.n, h.terms)._support()
    for got, want in zip(h._support(), fresh, strict=True):
        assert (got.dtype, got.tolist()) == (want.dtype, want.tolist())


class TestTwirlRoutes:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=_twirl_case(), steps=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_run_twirl_equals_apply_twirl_on_the_same_draws(self, case, steps, seed):
        h, s, _ = case
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = run_twirl(h, s, steps, rng)
        want = apply_twirl(h, s, sample_twirl_paulis(s, steps, ref_rng))
        assert "paulis" not in vars(got)
        assert _fields(got) == _fields(want)
        assert all(type(p) is str for p in got.paulis)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        for part in (got.effective, got.residual, want.effective, want.residual):
            _check_support(part)
        # The labels cut from the draw row are what the public constructor takes.
        assert TwirlTranscript(s, got.paulis, got.effective, got.residual) == got
        assert type(got.paulis) is tuple and got.paulis == want.paulis

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


def _reference_survivors(h, subspace, bits):
    """The survival rule as a dense int64 product: a term survives when its
    mismatch mask (the sites where it holds neither ``I`` nor the axis) has
    even overlap with every draw of ``bits`` ``(..., T, n)``."""
    labels = np.array([list(p) for p in h.labels()], dtype="U1").reshape(len(h), h.n)
    mismatch = (labels != "I") & (labels != np.array(subspace.axes))
    odd = (bits.astype(np.int64) @ mismatch.T.astype(np.int64)) & 1
    return odd.sum(axis=-2) == 0


@pytest.mark.parametrize("seed", range(5))
def test_the_syndrome_rule_equals_the_int64_product(seed):
    """At n=64 and T=34, the survivors of the twirl are those of the dense
    integer product of the draw bits and the mismatch masks."""
    rng = np.random.default_rng(seed)
    n, steps = 64, 34
    h1 = random_pauli_sum(n, 2, rng, num_terms=190)
    subspace = sample_subspace(n, rng)
    before = np.random.default_rng(seed + 100)
    tr = run_twirl(h1, subspace, steps, np.random.default_rng(seed + 100))
    bits = before.integers(0, 2, size=(steps, n))
    survivors = _reference_survivors(h1, subspace, bits)
    kept = [p for p, keep in zip(h1.labels(), survivors) if keep]
    assert list(tr.twirled.labels()) == kept
    # Deep twirls keep few foreign terms; in-subspace ones always survive.
    assert len(kept) >= len(tr.effective) > 0


@pytest.mark.parametrize("steps", [0, 1, 8, 9, 100])
def test_syndromes_of_any_length_and_terms_of_weight_n(steps):
    """No draws keep every term; one draw packs into a part-filled byte, and
    100 draws into 13 bytes per site.  Two terms act on all 64 sites: one
    on the axes only, which always survives, and one off them."""
    rng = np.random.default_rng(steps)
    n = 64
    subspace = sample_subspace(n, rng)
    off_axes = "".join({"X": "Y", "Y": "Z", "Z": "X"}[ax] for ax in subspace.axes)
    terms = {str(subspace): 1.0, off_axes: 0.5}
    h = random_pauli_sum(n, 2, rng, num_terms=40) + PauliSum(n, terms)
    bits = rng.integers(0, 2, size=(3, steps, n))
    survives = twirl._survives(bits, *twirl._mismatch(h, subspace))
    np.testing.assert_array_equal(survives, _reference_survivors(h, subspace, bits))
    labels = list(h.labels())
    assert survives[:, labels.index(str(subspace))].all()
    if steps == 0:
        assert survives.all()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(1, 40))
def test_the_syndrome_rule_equals_the_int64_product_on_any_sum(data, n):
    label = st.text("IXYZ", min_size=n, max_size=n).filter(lambda s: set(s) != {"I"})
    h = PauliSum(n, data.draw(st.dictionaries(label, st.just(1.0), max_size=6)))
    axes = data.draw(st.lists(st.sampled_from("XYZ"), min_size=n, max_size=n))
    subspace = DiagonalSubspace(tuple(axes))
    lead = data.draw(st.lists(st.integers(0, 3), max_size=2))
    steps = data.draw(st.integers(0, 20))
    seed = data.draw(st.integers(0, 2**32 - 1))
    bits = np.random.default_rng(seed).integers(0, 2, size=(*lead, steps, n))
    survives = twirl._survives(bits, *twirl._mismatch(h, subspace))
    assert survives.shape == (*lead, len(h))
    np.testing.assert_array_equal(survives, _reference_survivors(h, subspace, bits))
