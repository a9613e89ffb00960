"""Dense complex-matrix backend for small systems.

Materializes Pauli sums as ``2^n x 2^n`` complex arrays, building each
Pauli term as a signed permutation (one phase per column, no Kronecker
product of matrices), provides the Hermitian eigendecomposition, unitary
time evolution through the spectral form, and the mean-square eigenvalue
displacement used to bound spectral perturbations.  Propagators, spectra
and displacements also take ``(B, d, d)`` stacks of equal-size matrices,
and :func:`to_dense_stack` builds such a stack from equal-size sums; each
per-matrix function is the one-element case of its stacked form, so a
matrix gets the same bits alone or in a stack.

Index convention: qubit 0 is the most significant bit of the computational
basis index, matching the Kronecker order ``letters[0] (x) ... (x)
letters[n-1]``.

Sizes above :data:`QUBIT_CAP` qubits are rejected, not approximated, by
:func:`_check_cap`, which the oracle's and trotter's dense routes call too.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .pauli import PauliSum, _codes, validate_label

__all__ = [
    "QUBIT_CAP",
    "PAULI_MATRICES",
    "eig_decompose",
    "eigenvalues",
    "evolve",
    "hoffman_wielandt_gap",
    "hoffman_wielandt_gap_stack",
    "is_hermitian",
    "normalized_frobenius",
    "operator_norm",
    "pauli_matrix",
    "propagator",
    "to_dense",
    "to_dense_stack",
]

#: Largest system size the dense backend will materialize (1024 x 1024).
QUBIT_CAP = 10

#: Complex entries a route that works in chunks holds per chunk (16 MiB).
_CHUNK_ENTRIES = 2**20

PAULI_MATRICES: dict[str, np.ndarray] = {
    "I": np.array([[1, 0], [0, 1]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
for _m in PAULI_MATRICES.values():
    _m.setflags(write=False)


def _check_cap(n: int) -> None:
    if n > QUBIT_CAP:
        raise ValueError(f"System size n={n} exceeds the dense cap of {QUBIT_CAP} qubits.")


def pauli_matrix(label: str) -> np.ndarray:
    """Dense matrix of a Pauli string (Kronecker product of its letters)."""
    validate_label(label)
    _check_cap(len(label))
    m = np.array([[1.0 + 0.0j]])
    for ch in label:
        m = np.kron(m, PAULI_MATRICES[ch])
    return m


#: Per ASCII code of a letter: its flip bit, and its phases on bits 0 and 1.
_CODE_FLIPS = np.zeros(256, dtype=np.intp)
_CODE_PHASES = np.ones((256, 2), dtype=complex)
for _ch, _flip, _ph in (("I", 0, (1, 1)), ("X", 1, (1, 1)),
                        ("Y", 1, (1j, -1j)), ("Z", 0, (1, -1))):
    _CODE_FLIPS[ord(_ch)] = _flip
    _CODE_PHASES[ord(_ch)] = _ph


def _letter_phases(letters: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flip masks ``(B,)`` and phases ``(B, 2^k)`` of the strings in ``letters``.

    ``letters`` is a ``(B, k)`` uint8 array of ASCII codes of valid letters,
    ``B = 0`` included.  String ``b`` maps ``|j>`` to ``phase[b, j] |j ^
    flip[b]>``, its phases formed by the same complex products in the same
    order as :func:`pauli_matrix`, so they equal that matrix's entries bit
    for bit.
    """
    count, k = letters.shape
    phase = np.ones((count, 1), dtype=complex)
    flip = np.zeros(count, dtype=np.intp)
    for site in range(k):
        code = letters[:, site]
        phase = (phase[:, :, None] * _CODE_PHASES[code][:, None, :]).reshape(-1, 2 << site)
        flip = flip << 1 | _CODE_FLIPS[code]
    return flip, phase


def _stack_size(sums: Sequence[PauliSum]) -> int:
    """The size the sums of one stack share (1 for none); ValueError if they differ."""
    n = sums[0].n if sums else 1
    if any(h.n != n for h in sums):
        raise ValueError(f"Sums of {sorted({h.n for h in sums})} qubits in one stack.")
    return n


def to_dense(h: PauliSum) -> np.ndarray:
    """Materialize a Pauli sum as a dense Hermitian matrix.

    This is :func:`to_dense_stack` on a stack of one.

    Raises:
        ValueError: If the system size exceeds :data:`QUBIT_CAP`.
    """
    return to_dense_stack([h])[0]


def to_dense_stack(sums: Sequence[PauliSum]) -> np.ndarray:
    """Materialize equal-size Pauli sums as a ``(B, 2^n, 2^n)`` stack.

    Each term is a signed permutation (see :func:`_letter_phases`), so it
    adds ``coeff * ph[j]`` to the ``2^n`` entries ``(j ^ x, j)`` only.
    The phases and flips of all terms come from :func:`_letter_phases` at
    once, and one ``np.add.at`` adds them in term order, so matrix ``b``
    is the sum of ``sums[b]``'s terms in order.  The entries the dense sum
    ``coeff * pauli_matrix`` would add as well are signed zeros, which
    never change an entry of the output: those start at ``+0`` and a sum
    of floats is ``-0`` only when both of its terms are.  Each matrix is
    the dense sum bit for bit, whatever else is in the stack.

    Raises:
        ValueError: If the sums differ in size, or the size exceeds
            :data:`QUBIT_CAP`.
    """
    n = _stack_size(sums)
    _check_cap(n)
    dim = 2**n
    out = np.zeros((len(sums), dim, dim), dtype=complex)
    labels = [label for h in sums for label in h.labels()]
    if labels:
        flip, phase = _letter_phases(_codes(labels, n))
        coeffs = np.array([coeff for h in sums for _, coeff in h.items()])
        base = np.array([b * dim * dim for b, h in enumerate(sums) for _ in range(len(h))])
        cols = np.arange(dim)
        cells = (flip[:, None] ^ cols) * dim + (base[:, None] + cols)
        np.add.at(out.reshape(-1), cells.ravel(), (coeffs[:, None] * phase).ravel())
    return out


def is_hermitian(m: np.ndarray) -> bool:
    """Whether ``m``, or every matrix of a ``(..., d, d)`` stack, equals its
    adjoint entrywise within ``1e-10``."""
    return bool(np.max(np.abs(m - m.conj().swapaxes(-1, -2))) <= 1e-10) if m.size else True


def normalized_frobenius(m: np.ndarray) -> float:
    """Dimension-normalized Frobenius norm ``sqrt(Tr(M^dag M) / dim)``."""
    return float(np.sqrt(np.sum(np.abs(m) ** 2) / m.shape[0]))


def operator_norm(m: np.ndarray) -> float:
    """Spectral norm (largest singular value)."""
    return float(np.linalg.norm(m, 2))


def eigenvalues(m: np.ndarray) -> np.ndarray:
    """Real spectrum of a Hermitian matrix, sorted ascending.

    Also takes a ``(..., d, d)`` stack and returns one spectrum per matrix;
    each equals the call on its own matrix bit for bit.

    Raises:
        ValueError: If a matrix is not Hermitian (see :func:`is_hermitian`).
    """
    if not is_hermitian(m):
        raise ValueError("Matrix is not Hermitian within tolerance.")
    return np.linalg.eigvalsh(m)


def eig_decompose(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition ``(w, V)`` with ``M = V diag(w) V^dag``.

    Also takes a ``(..., d, d)`` stack, as :func:`eigenvalues` does.
    """
    if not is_hermitian(m):
        raise ValueError("Matrix is not Hermitian within tolerance.")
    w, v = np.linalg.eigh(m)
    return w, v


def propagator(w: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """Unitary ``exp(-i t H)`` from the eigendecomposition of ``H``.

    Also takes stacks, ``w`` of shape ``(B, d)`` and ``v`` of ``(B, d,
    d)``, and returns the ``B`` unitaries; each equals the call on its own
    decomposition bit for bit.
    """
    phases = np.exp(-1j * w * t)
    return (v * phases[..., None, :]) @ v.conj().swapaxes(-1, -2)


def evolve(h: PauliSum, t: float) -> np.ndarray:
    """Unitary ``exp(-i t H)`` for a Pauli sum, via eigendecomposition.

    ``t`` may be any real number here; the forward-only rule is
    enforced at the oracle boundary, not by this raw primitive.
    """
    return propagator(*eig_decompose(to_dense(h)), float(t))


def hoffman_wielandt_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Mean-square eigenvalue displacement under ascending-sorted pairing.

    Returns ``(1/d) * sum_i (lambda_i(A) - lambda_i(B))^2`` with both
    spectra sorted ascending.  For Hermitian ``A`` and ``B`` this pairing
    minimizes the displacement over all pairings, and the result never
    exceeds the squared normalized Frobenius norm of ``A - B``.  This is
    :func:`hoffman_wielandt_gap_stack` on stacks of one.

    Raises:
        ValueError: On dimension mismatch or non-Hermitian input.
    """
    if a.shape != b.shape:
        raise ValueError(f"Dimension mismatch: {a.shape} vs {b.shape}.")
    return float(hoffman_wielandt_gap_stack(a[None], b[None])[0])


def hoffman_wielandt_gap_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`hoffman_wielandt_gap` of each pair of two ``(B, d, d)`` stacks.

    The spectra come from two stacked :func:`eigenvalues` calls and each
    row's mean from its own pairwise sum, so entry ``i`` equals the call on
    ``a[i]`` and ``b[i]`` bit for bit.

    Raises:
        ValueError: On shape mismatch or a non-Hermitian matrix.
    """
    if a.shape != b.shape:
        raise ValueError(f"Dimension mismatch: {a.shape} vs {b.shape}.")
    return np.mean((eigenvalues(a) - eigenvalues(b)) ** 2, axis=-1)
