"""Tests for the dense spectral backend."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamcert.dense import (
    PAULI_MATRICES,
    eig_decompose,
    eigenvalues,
    evolve,
    hoffman_wielandt_gap,
    normalized_frobenius,
    pauli_conjugate,
    pauli_matrix,
    to_dense,
)
from hamcert.instances import random_hermitian, random_pauli_sum
from hamcert.moments import walsh_eigenvalues
from hamcert.pauli import PauliSum, conjugate


class TestToDense:
    def test_single_qubit_z(self):
        assert np.array_equal(to_dense(PauliSum(1, {"Z": 1.0})), np.diag([1.0, -1.0]))

    def test_single_qubit_x(self):
        assert np.array_equal(
            to_dense(PauliSum(1, {"X": 1.0})), np.array([[0, 1], [1, 0]], dtype=complex)
        )

    def test_xx_zz_spectrum_against_direct_eigensolver(self):
        h = PauliSum(2, {"XX": 0.5, "ZZ": 0.5})
        m = to_dense(h)
        assert np.max(np.abs(m - m.conj().T)) == 0.0
        # Independent route: build the matrix from explicit Kronecker
        # products, bypassing to_dense.
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.diag([1.0 + 0j, -1.0])
        direct = 0.5 * np.kron(x, x) + 0.5 * np.kron(z, z)
        expected = np.linalg.eigvalsh(direct)
        assert np.allclose(np.sort(expected), [-1.0, 0.0, 0.0, 1.0], atol=1e-12)
        assert np.allclose(eigenvalues(m), expected, atol=1e-12)

    def test_trace_is_zero(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 4):
            h = random_pauli_sum(n, min(n, 3), rng)
            assert abs(np.trace(to_dense(h))) <= 1e-12

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            to_dense(PauliSum(11, {"X" + "I" * 10: 1.0}))


def _kron_sum(h):
    """``sum coeff * (letter (x) ... (x) letter)``, one dense term at a time."""
    out = np.zeros((2**h.n, 2**h.n), dtype=complex)
    for label, coeff in h.items():
        m = np.array([[1.0 + 0.0j]])
        for ch in label:
            m = np.kron(m, PAULI_MATRICES[ch])
        out += coeff * m
    return out


class TestToDenseBitIdentity:
    """The signed-permutation scatter equals the Kronecker sum bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_single_label(self, n):
        for letters in itertools.product("IXYZ", repeat=n):
            label = "".join(letters)
            if label == "I" * n:
                continue
            for coeff in (1.0, -0.37, 2.5e-300):
                h = PauliSum(n, {label: coeff})
                got, want = to_dense(h), _kron_sum(h)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), label

    def test_random_sums_up_to_eight_qubits(self):
        rng = np.random.default_rng(44)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            h = random_pauli_sum(n, int(rng.integers(1, min(n, 3) + 1)), rng)
            got, want = to_dense(h), _kron_sum(h)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), h

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(1, 6))
    def test_equals_the_sum_of_pauli_matrices(self, data, n):
        # Subnormal, tiny and large coefficients, with terms that share a
        # flip mask and so land on the same entries.
        label = st.text("IXYZ", min_size=n, max_size=n).filter(lambda p: p.strip("I"))
        coeff = st.floats(-1e6, 1e6)
        h = PauliSum(n, data.draw(st.dictionaries(label, coeff, max_size=12)))
        want = np.zeros((2**n, 2**n), dtype=complex)
        for p, c in h.items():
            want += c * pauli_matrix(p)
        got = to_dense(h)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), h

    def test_cancelling_terms_leave_positive_zeros(self):
        # XX and YY share a flip mask; their corner entries cancel.
        h = PauliSum(2, {"XX": 0.5, "YY": 0.5})
        got, want = to_dense(h), _kron_sum(h)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert not np.signbit(got.real[got.real == 0]).any()


class TestPauliConjugate:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_the_dense_sandwich_exactly(self, n):
        rng = np.random.default_rng(30 + n)
        dim = 2**n
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for letters in itertools.product("IXYZ", repeat=n):
            label = "".join(letters)
            q = pauli_matrix(label)
            assert np.array_equal(pauli_conjugate(m, label), q @ m @ q), label

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            pauli_conjugate(np.eye(4, dtype=complex), "XYZ")


class TestEigenvalues:
    def test_diagonal(self):
        assert np.allclose(eigenvalues(np.diag([1.0, -1.0]).astype(complex)), [-1, 1])

    def test_zero_matrix(self):
        assert np.allclose(eigenvalues(np.zeros((4, 4), dtype=complex)), 0.0)

    def test_non_hermitian_rejected(self):
        m = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            eigenvalues(m)

    def test_against_walsh_oracle(self):
        """Cross-module spectra agree for unitarily equivalent sums.

        An anticommuting pair squares to a multiple of the identity, so
        0.3*XZ + 0.4*ZI shares its spectrum with the diagonal 0.5*ZI;
        a per-site axis relabeling is a basis change and preserves a
        diagonal sum's spectrum outright.
        """
        h = PauliSum(2, {"XZ": 0.3, "ZI": 0.4})
        assert np.allclose(
            eigenvalues(to_dense(h)),
            walsh_eigenvalues(PauliSum(2, {"ZI": 0.5})),
            atol=1e-9,
        )
        diagonal = PauliSum(2, {"ZZ": 0.3, "ZI": 0.4})
        relabeled = PauliSum(2, {"XX": 0.3, "XI": 0.4})
        assert np.allclose(
            eigenvalues(to_dense(relabeled)), walsh_eigenvalues(diagonal), atol=1e-9
        )

    def test_invariant_under_pauli_conjugation(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            h = random_pauli_sum(n, min(n, 2), rng)
            p = "".join(rng.choice(list("IXYZ"), size=n))
            if set(p) == {"I"}:
                p = "X" + p[1:]
            assert np.allclose(
                eigenvalues(to_dense(h)),
                eigenvalues(to_dense(conjugate(h, p))),
                atol=1e-9,
            )


class TestEvolve:
    def test_zero_time_is_identity(self):
        h = PauliSum(2, {"XY": 0.7})
        assert np.allclose(evolve(h, 0.0), np.eye(4), atol=1e-12)

    def test_single_qubit_closed_form(self):
        eps, t = 0.35, 2.1
        u = evolve(PauliSum(1, {"X": eps}), t)
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        expected = np.cos(eps * t) * np.eye(2) - 1j * np.sin(eps * t) * x
        assert np.max(np.abs(u - expected)) <= 1e-10

    def test_group_law(self):
        rng = np.random.default_rng(4)
        h = random_pauli_sum(2, 2, rng)
        u1 = evolve(h, 0.7)
        u2 = evolve(h, 1.9)
        assert np.max(np.abs(u1 @ u2 - evolve(h, 2.6))) <= 1e-9

    def test_unitarity_defect(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            h = random_pauli_sum(3, 2, rng)
            u = evolve(h, float(rng.uniform(0, 10)))
            assert np.max(np.abs(u.conj().T @ u - np.eye(8))) <= 1e-10

    def test_negative_time_allowed_for_raw_primitive(self):
        h = PauliSum(1, {"Z": 0.4})
        assert np.allclose(evolve(h, 1.3) @ evolve(h, -1.3), np.eye(2), atol=1e-12)


class TestHoffmanWielandt:
    def test_equal_inputs(self):
        m = random_hermitian(8, np.random.default_rng(0))
        assert hoffman_wielandt_gap(m, m) == 0.0

    def test_hand_computed_tight_case(self):
        a = np.diag([1.0, -1.0]).astype(complex)
        b = np.zeros((2, 2), dtype=complex)
        gap = hoffman_wielandt_gap(a, b)
        assert gap == pytest.approx(1.0)
        assert normalized_frobenius(a - b) ** 2 == pytest.approx(1.0)

    def test_bounded_by_frobenius_on_randoms(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            a = random_hermitian(2**n, rng)
            b = random_hermitian(2**n, rng)
            assert hoffman_wielandt_gap(a, b) <= normalized_frobenius(a - b) ** 2 + 1e-9

    def test_sorted_pairing_is_optimal(self):
        """Ascending pairing minimizes the displacement among all pairings."""
        rng = np.random.default_rng(13)
        for dim in (2, 3, 4, 5, 6):
            a = random_hermitian(dim, rng)
            b = random_hermitian(dim, rng)
            wa = np.sort(np.linalg.eigvalsh(a))
            wb = np.sort(np.linalg.eigvalsh(b))
            best = min(
                float(np.mean((wa - wb[list(perm)]) ** 2))
                for perm in itertools.permutations(range(dim))
            )
            assert hoffman_wielandt_gap(a, b) <= best + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            hoffman_wielandt_gap(np.eye(2, dtype=complex), np.eye(4, dtype=complex))


def test_eig_decompose_reconstructs():
    m = random_hermitian(8, np.random.default_rng(1))
    w, v = eig_decompose(m)
    assert np.max(np.abs((v * w) @ v.conj().T - m)) <= 1e-10


def test_pauli_matrix_hermitian_and_unitary():
    for label in ("X", "YZ", "IXZ"):
        p = pauli_matrix(label)
        assert np.array_equal(p, p.conj().T)
        assert np.allclose(p @ p, np.eye(p.shape[0]), atol=1e-15)
