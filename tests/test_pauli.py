"""Tests for the phase-free Pauli algebra."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hamcert.dense import pauli_matrix, to_dense
from hamcert.instances import random_pauli_sum
from hamcert.pauli import (
    HamiltonianFormatError,
    PauliSum,
    add,
    commutes,
    conjugate,
    frobenius_norm,
    is_k_local,
    parse_hamiltonian,
    partition,
    scale,
    subtract,
    weight,
)


class TestWeight:
    def test_identity_string(self):
        assert weight("III") == 0

    def test_direct_count(self):
        assert weight("XIZ") == 2
        assert weight("YYY") == 3

    def test_invalid_letter_rejected(self):
        with pytest.raises(ValueError):
            weight("XQ")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            weight("")


class TestCommutes:
    def test_single_site_anticommutation(self):
        assert commutes("X", "Z") is False

    def test_disjoint_supports(self):
        assert commutes("XI", "IZ") is True

    def test_even_parity_of_clashes(self):
        assert commutes("XY", "YX") is True

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            commutes("XI", "X")

    def test_symmetry_and_dense_commutator_all_pairs(self):
        """Predicate matches the dense commutator for every pair at n <= 3."""
        for n in (1, 2, 3):
            labels = ["".join(p) for p in itertools.product("IXYZ", repeat=n)]
            mats = {p: pauli_matrix(p) for p in labels}
            for a in labels:
                for b in labels:
                    assert commutes(a, b) == commutes(b, a)
                    comm = mats[a] @ mats[b] - mats[b] @ mats[a]
                    assert commutes(a, b) == (np.max(np.abs(comm)) < 1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(1, 5))
    def test_dense_products_swap_up_to_the_predicted_sign(self, data, n):
        label = st.text("IXYZ", min_size=n, max_size=n)
        a, b = data.draw(label), data.draw(label)
        pa, pb = pauli_matrix(a), pauli_matrix(b)
        sign = 1 if commutes(a, b) else -1
        assert np.array_equal(pa @ pb, sign * (pb @ pa))


class TestPauliSum:
    def test_identity_term_rejected(self):
        with pytest.raises(ValueError):
            PauliSum(2, {"II": 1.0})

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PauliSum(2, {"XIZ": 1.0})

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            PauliSum(1, {"X": float("nan")})

    def test_tiny_coefficients_dropped(self):
        h = PauliSum(1, {"X": 1e-15, "Z": 0.5})
        assert h.terms == {"Z": 0.5}

    def test_duplicates_summed(self):
        h = PauliSum(1, [("X", 0.25), ("X", 0.5)])
        assert h.coefficient("X") == 0.75

    def test_overflowing_duplicates_rejected(self):
        with pytest.raises(ValueError, match="'XI' is not finite"):
            PauliSum(2, [("XI", 1e308), ("ZZ", 1.0), ("XI", 1e308)])
        with pytest.raises(ValueError, match="'X' is not finite"):
            PauliSum(1, [("X", -1e308), ("X", -1e308)])

    def test_canonical_term_order(self):
        h = PauliSum(2, [("ZI", 1.0), ("IX", 2.0)])
        assert list(h.labels()) == ["IX", "ZI"]

    def test_equality_and_hash(self):
        a = PauliSum(1, {"X": 0.5})
        b = PauliSum(1, [("X", 0.5)])
        assert a == b
        assert hash(a) == hash(b)

    def test_empty_sum_is_falsy(self):
        assert not PauliSum(3)


class TestConjugate:
    def test_sign_flip_on_anticommuting_term(self):
        h = PauliSum(1, {"X": 0.7})
        assert conjugate(h, "Z") == PauliSum(1, {"X": -0.7})

    def test_identity_conjugator_fixes_everything(self):
        h = PauliSum(2, {"XZ": 0.3, "ZZ": 0.4})
        assert conjugate(h, "II") == h

    def test_against_dense_matrix_conjugation(self):
        h = PauliSum(2, {"XZ": 0.3, "ZZ": 0.4})
        got = conjugate(h, "ZI")
        assert got == PauliSum(2, {"XZ": -0.3, "ZZ": 0.4})
        p = pauli_matrix("ZI")
        assert np.allclose(to_dense(got), p @ to_dense(h) @ p, atol=1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(1, 4))
    def test_matches_dense_conjugation_of_random_sums(self, data, n):
        label = st.text("IXYZ", min_size=n, max_size=n)
        coeff = st.floats(-1.0, 1.0, allow_subnormal=False)
        terms = data.draw(st.dictionaries(label.filter(lambda s: s.strip("I")), coeff,
                                          max_size=2 * n))
        h, p = PauliSum(n, terms), data.draw(label)
        m = pauli_matrix(p)
        assert np.allclose(to_dense(conjugate(h, p)), m @ to_dense(h) @ m, atol=1e-12)

    def test_involution_is_exact(self):
        rng = np.random.default_rng(5)
        labels = ["".join(p) for p in itertools.product("IXYZ", repeat=3)][1:]
        h = PauliSum(3, {lbl: rng.normal() for lbl in labels[:10]})
        for p in ("XYZ", "ZZI", "IYI"):
            assert conjugate(conjugate(h, p), p) == h

    def test_norm_preserved_exactly(self):
        h = PauliSum(2, {"XY": -0.3, "ZI": 1.2, "YY": 0.05})
        assert frobenius_norm(conjugate(h, "ZX")) == frobenius_norm(h)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            conjugate(PauliSum(2, {"XZ": 1.0}), "X")


class TestFrobeniusNorm:
    def test_pythagorean(self):
        assert frobenius_norm(PauliSum(1, {"X": 0.6, "Z": 0.8})) == pytest.approx(1.0)

    def test_zero_hamiltonian(self):
        assert frobenius_norm(PauliSum(2)) == 0.0

    def test_against_dense_trace(self):
        """Coefficient norm equals 2^{-n/2} sqrt(Tr(H^2)) of the matrix."""
        rng = np.random.default_rng(11)
        labels = ["".join(p) for p in itertools.product("IXYZ", repeat=3)][1:]
        picks = rng.choice(len(labels), size=8, replace=False)
        h = PauliSum(3, {labels[i]: rng.normal() for i in picks})
        m = to_dense(h)
        dense_norm = np.sqrt(np.trace(m @ m).real / 2**3)
        assert abs(frobenius_norm(h) - dense_norm) <= 1e-12


class TestSubtractAdd:
    def test_self_difference_is_empty(self):
        h = PauliSum(2, {"XZ": 0.3, "ZZ": 0.2})
        assert subtract(h, h) == PauliSum(2)

    def test_opposite_signs_double(self):
        eps = 0.2
        got = subtract(PauliSum(1, {"X": eps}), PauliSum(1, {"X": -eps}))
        assert got == PauliSum(1, {"X": 2 * eps})

    def test_disjoint_cancellation(self):
        a = PauliSum(2, {"XZ": 0.3, "ZZ": 0.2})
        b = PauliSum(2, {"ZZ": 0.2})
        assert subtract(a, b) == PauliSum(2, {"XZ": 0.3})

    def test_norm_of_difference(self):
        a = PauliSum(1, {"X": 0.1})
        b = PauliSum(1, {"X": -0.1})
        assert frobenius_norm(subtract(a, b)) == pytest.approx(0.2)

    def test_add_then_subtract_roundtrip(self):
        a = PauliSum(2, {"XI": 0.4, "ZZ": -0.3})
        b = PauliSum(2, {"XI": 0.25, "YY": 1.0})
        assert subtract(add(a, b), b) == a

    def test_scale(self):
        h = PauliSum(1, {"X": 0.5})
        assert scale(h, -2.0) == PauliSum(1, {"X": -1.0})
        assert scale(h, 0.0) == PauliSum(1)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            subtract(PauliSum(1, {"X": 1.0}), PauliSum(2, {"XI": 1.0}))

    def test_subtract_equals_the_coefficientwise_difference(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            a = random_pauli_sum(n, n, rng)
            # Shared labels with nearby values exercise rounding and drops.
            b = add(random_pauli_sum(n, n, rng), scale(a, 1 + 1e-15))
            want = dict(a.terms)
            for p, c in b.items():
                want[p] = want.get(p, 0.0) - c
            # Float == is exact here: stored coefficients are never zero.
            assert subtract(a, b) == PauliSum(n, want)


class TestKLocal:
    def test_examples(self):
        assert is_k_local(PauliSum(2, {"XX": 1.0, "ZI": 1.0}), 2) is True
        assert is_k_local(PauliSum(3, {"XYZ": 1.0}), 2) is False
        assert is_k_local(PauliSum(2), 0) is True

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            is_k_local(PauliSum(1, {"X": 1.0}), -1)


class TestTextFormat:
    def test_basic_parse(self):
        h = parse_hamiltonian("0.5 XIZ\n-0.25 ZZI\n")
        assert h.n == 3
        assert h.terms == {"XIZ": 0.5, "ZZI": -0.25}

    def test_comments_and_blanks(self):
        text = "# leading comment\n\n0.5 XI  # trailing\n\n-0.5 IZ\n"
        h = parse_hamiltonian(text)
        assert h.terms == {"XI": 0.5, "IZ": -0.5}

    def test_duplicates_summed(self):
        h = parse_hamiltonian("0.25 X\n0.5 X\n")
        assert h.coefficient("X") == 0.75

    def test_overflowing_duplicate_label_is_a_format_error(self):
        with pytest.raises(HamiltonianFormatError, match="'XI' is not finite"):
            parse_hamiltonian("1e308 XI\n0.5 ZZ\n1e308 XI\n")

    def test_malformed_coefficient_reports_line(self):
        with pytest.raises(HamiltonianFormatError, match="line 2"):
            parse_hamiltonian("0.5 X\nnope Z\n")

    def test_length_mismatch_reports_line(self):
        with pytest.raises(HamiltonianFormatError, match="line 3"):
            parse_hamiltonian("0.5 XI\n0.5 IZ\n0.5 XIZ\n")

    def test_identity_term_reports_line(self):
        with pytest.raises(HamiltonianFormatError, match="line 1"):
            parse_hamiltonian("1.0 II\n")

    def test_empty_input_rejected(self):
        with pytest.raises(HamiltonianFormatError, match="no terms"):
            parse_hamiltonian("# only a comment\n")

    def test_zero_coefficient_still_fixes_size(self):
        h = parse_hamiltonian("0.0 IX\n")
        assert h.n == 2
        assert not h

    def test_roundtrip(self):
        h = PauliSum(2, {"XZ": 0.1 + 0.2, "YI": -1.5})
        assert parse_hamiltonian(h.to_text()) == h

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(1, 8))
    def test_roundtrip_of_random_sums(self, data, n):
        # Any finite float: subnormals, -0.0, 1e308 and values below the
        # drop tolerance, which the constructor removes on both sides.
        label = st.text("IXYZ", min_size=n, max_size=n).filter(lambda s: set(s) != {"I"})
        coeff = st.floats(allow_nan=False, allow_infinity=False)
        h = PauliSum(n, data.draw(st.dictionaries(label, coeff, min_size=1, max_size=12)))
        assume(h)
        assert parse_hamiltonian(h.to_text()) == h


class TestSupport:
    def test_the_empty_sum_has_no_entries(self):
        starts, sites, letters = PauliSum(3)._support()
        assert starts.size == sites.size == letters.size == 0

    def test_the_form_is_kept(self):
        h = PauliSum(3, {"XIZ": 1.0, "IYI": -0.5})
        assert h._support() is h._support()
        # A sum built by arithmetic keeps its own.
        doubled = h + h
        assert doubled._support() is doubled._support()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(1, 12))
    def test_agrees_with_a_scan_of_each_label(self, data, n):
        label = st.text("IXYZ", min_size=n, max_size=n).filter(lambda s: set(s) != {"I"})
        h = PauliSum(n, data.draw(st.dictionaries(label, st.just(1.0), max_size=6)))
        h = h + PauliSum(n, data.draw(st.dictionaries(label, st.just(0.5), max_size=6)))
        starts, sites, letters = h._support()
        ends = [*starts[1:].tolist(), sites.size]
        assert len(starts) == len(h)
        for p, start, end in zip(h.labels(), starts.tolist(), ends):
            scan = [(i, ord(ch)) for i, ch in enumerate(p) if ch != "I"]
            assert list(zip(sites[start:end].tolist(), letters[start:end].tolist())) == scan


def _cut(h, sites):
    """The terms of ``h`` that act only on ``sites``, each label cut to them."""
    outside = set(range(h.n)) - set(sites)
    inside = [(p, c) for p, c in h.items() if all(p[i] == "I" for i in outside)]
    return PauliSum(len(sites), [("".join(p[i] for i in sites), c) for p, c in inside])


class TestPartition:
    def test_blocks_of_two_sums_and_idle_sites(self):
        h = PauliSum(6, {"XIIIIZ": 1.0, "IIYIII": 0.5})
        h0 = PauliSum(6, {"IIIIZZ": 0.2})
        assert [sites for sites, _ in partition(h)] == [(0, 5), (2,)]
        assert [sites for sites, _ in partition(h, h0)] == [(0, 4, 5), (2,)]

    def test_sums_with_no_terms_have_no_blocks(self):
        assert partition(PauliSum(3)) == []
        assert partition(PauliSum(3), PauliSum(3)) == []

    def test_each_block_is_cut_and_keeps_the_order(self):
        h = PauliSum(5, {"XIIIZ": 1.0, "IYIII": 0.5, "IIZIX": -0.25, "ZIIII": 2.0})
        [(sites, [part]), (idle, [other])] = partition(h)
        assert sites == (0, 2, 4) and idle == (1,)
        assert part == PauliSum(3, {"XIZ": 1.0, "IZX": -0.25, "ZII": 2.0})
        assert list(part.labels()) == ["IZX", "XIZ", "ZII"]
        assert other == PauliSum(1, {"Y": 0.5})

    def test_a_block_over_every_site_gives_back_the_sums(self):
        h = PauliSum(5, {"XIIIZ": 1.0, "IYIZI": 0.5, "IIZIX": -0.25, "ZYIII": 2.0})
        h0, empty = PauliSum(5, {"IIIZZ": 0.3}), PauliSum(5)
        [(sites, parts)] = partition(h, h0, empty)
        assert sites == tuple(range(5))
        assert len(parts) == 3 and all(a is b for a, b in zip(parts, (h, h0, empty)))

    def test_three_sums_are_cut_as_each_would_be_alone(self):
        h = PauliSum(6, {"XIIIIZ": 1.0, "IIYIII": 0.5})
        [(sites, [alone]), _] = partition(h)
        assert partition(h, h, h)[0] == (sites, [alone, alone, alone])

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(1, 8))
    def test_blocks_are_the_connected_components(self, data, n):
        label = st.text("IXYZ", min_size=n, max_size=n).filter(lambda s: set(s) != {"I"})
        sums = [PauliSum(n, data.draw(st.dictionaries(label, st.just(1.0), max_size=4)))
                for _ in range(3)]
        blocks = partition(*sums)
        assert all(len(parts) == len(sums) for _, parts in blocks)
        # Breadth-first search over the sites, linked by shared terms.
        supports = [{i for i, ch in enumerate(p) if ch != "I"}
                    for h in sums for p in h.labels()]
        seen, components = set(), []
        for start in sorted(set().union(*supports)):
            if start in seen:
                continue
            component, frontier = {start}, [start]
            while frontier:
                site = frontier.pop()
                for support in supports:
                    if site in support and not support <= component:
                        frontier += support - component
                        component |= support
            seen |= component
            components.append(tuple(sorted(component)))
        assert [sites for sites, _ in blocks] == components
        # Every term lands in exactly one block, cut back to its letters,
        # and each sum's parts are its cuts alone.
        for j, h in enumerate(sums):
            assert sum(len(parts[j]) for _, parts in blocks) == len(h)
            for sites, parts in blocks:
                part = parts[j]
                assert part == _cut(h, sites)
                assert list(part.labels()) == sorted(part.labels())
                for cut, coeff in part.items():
                    full = ["I"] * n
                    for site, ch in zip(sites, cut):
                        full[site] = ch
                    assert h.coefficient("".join(full)) == coeff
