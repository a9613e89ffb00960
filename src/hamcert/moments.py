"""Boolean-Fourier oracles for diagonal Hamiltonians.

The spectrum of a Hamiltonian built only from I/Z letters is the
Walsh-Hadamard transform of its coefficient table: the eigenvalue attached
to basis state ``s`` is ``f(s) = sum_p (-1)^{s.p} a_p`` with ``p`` ranging
over the Z-support bitmasks.  That makes the spectrum and the moments of
a multilinear function exactly computable by enumeration, and lets the
eigenvalue-gap guarantee and the fourth-moment (hypercontractive) bound be
verified numerically instead of assumed.

:func:`walsh_transform` takes a ``(..., 2^v)`` stack of tables, and
:func:`function_moments_stack` and :func:`verify_gap_bound_stack` evaluate
a stack of equal-size instances at once; each row gets the bits it would
get alone.  :func:`verify_gap_bound` is the stack of one; the moments have
only the stacked form, which takes a single table as ``table[None]``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .dense import _stack_size
from .gaps import lambda_stat_stack
from .pauli import PauliSum, frobenius_norm

__all__ = [
    "WALSH_QUBIT_CAP",
    "function_moments_stack",
    "verify_gap_bound",
    "verify_gap_bound_stack",
    "walsh_eigenvalues",
    "walsh_table",
    "walsh_transform",
]

WALSH_QUBIT_CAP = 20


def walsh_transform(table: np.ndarray) -> np.ndarray:
    """Fast Walsh-Hadamard transform, unnormalized.

    ``out[s] = sum_p (-1)^{popcount(s & p)} table[p]`` for a table of
    length ``2^v``.  O(v 2^v) butterflies.  Also takes a ``(..., 2^v)``
    stack and transforms each row: a butterfly pairs entries of one row
    only, so each row equals its own transform bit for bit.
    """
    out = np.array(table, dtype=float, ndmin=1)
    size = out.shape[-1]
    if size == 0 or size & (size - 1):
        raise ValueError(f"Table length must be a power of two, got {size}.")
    h = 1
    while h < size:
        pairs = out.reshape(-1, 2, h)
        low, high = pairs[:, 0, :], pairs[:, 1, :]
        plus = low + high
        np.subtract(low, high, out=high)
        low[...] = plus
        h *= 2
    return out


#: Support bit of each letter: every non-identity letter sets its site's bit.
_SUPPORT_BITS = str.maketrans("IXYZ", "0111")


def walsh_table(h: PauliSum) -> np.ndarray:
    """Coefficient table of ``h`` indexed by support bitmask.

    Letter ``i`` maps to bit ``n - 1 - i`` whatever its axis, matching the
    dense backend's order.  When ``h`` is diagonal in one frame (a single
    axis per site, as after a twirl) its spectrum is the Walsh transform
    of this table; the caller guarantees the single axis per site.
    """
    table = np.zeros(2**h.n)
    for label, coeff in h.items():
        table[int(label.translate(_SUPPORT_BITS), 2)] = coeff
    return table


def walsh_eigenvalues(h: PauliSum) -> np.ndarray:
    """Spectrum of a Hamiltonian with only I/Z letters, sorted ascending.

    Bitmask convention matches the dense backend: letter ``i`` maps to bit
    ``n - 1 - i``, so the unsorted transform equals the dense diagonal.

    Raises:
        ValueError: On non-diagonal terms or above :data:`WALSH_QUBIT_CAP`.
    """
    _check_diagonal(h)
    return np.sort(walsh_transform(walsh_table(h)))


def _check_diagonal(h: PauliSum) -> None:
    if h.n > WALSH_QUBIT_CAP:
        raise ValueError(f"System size n={h.n} exceeds the Walsh cap of {WALSH_QUBIT_CAP}.")
    for label in h.labels():
        if not set(label) <= {"I", "Z"}:
            raise ValueError(
                f"Term {label!r} is not diagonal (only I/Z letters allowed)."
            )


def function_moments_stack(tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Second and fourth moments of multilinear functions on the cube, one
    per row of a ``(B, 2^v)`` stack.

    ``tables[b, p]`` holds the coefficient of the character with support
    mask ``p``; the function values are the row's Walsh transform and the
    moments are uniform averages over all inputs.  Each row's means are its
    own pairwise sums, so entry ``b`` equals the moments of ``tables[b]``
    alone (a stack of one) bit for bit.
    """
    sq = walsh_transform(tables)
    sq *= sq
    return sq.mean(axis=-1), (sq * sq).mean(axis=-1)


def verify_gap_bound(h: PauliSum, k: int) -> bool:
    """Check the diagonal eigenvalue-gap guarantee on one instance.

    For a nonzero k-local Hamiltonian with only I/Z letters, the fraction
    of ordered eigenvalue pairs separated by the normalized Frobenius norm
    is at least ``9^-k / 4``.  This is a theorem for exact arithmetic, so
    the check must pass; the spectrum comes from the Walsh transform,
    which is exact up to float rounding.  This is
    :func:`verify_gap_bound_stack` on a stack of one.
    """
    return verify_gap_bound_stack([h], k)[0]


def verify_gap_bound_stack(sums: Sequence[PauliSum], k: int) -> list[bool]:
    """:func:`verify_gap_bound` of each of equal-size sums, in order.

    The spectra come from one stacked Walsh transform and their pair
    fractions from one :func:`~hamcert.gaps.lambda_stat_stack` call, which
    gives each row the bits it would get alone, so every verdict is that of
    the sum alone.

    Raises:
        ValueError: If ``k < 1``, or a sum is zero, not ``k``-local, not
            diagonal, of another size than the first, or above
            :data:`WALSH_QUBIT_CAP`.
    """
    if k < 1:
        raise ValueError(f"Locality must be at least 1, got {k}.")
    for h in sums:
        if not h:
            raise ValueError("The zero Hamiltonian has no separation threshold.")
        if h.max_weight() > k:
            raise ValueError(f"Instance is not {k}-local (max weight {h.max_weight()}).")
        _check_diagonal(h)
    if not sums:
        return []
    _stack_size(sums)
    spectra = walsh_transform(np.stack([walsh_table(h) for h in sums]))
    floor = 0.25 * 9.0 ** (-k) - 1e-12
    fractions = lambda_stat_stack(spectra, [frobenius_norm(h) for h in sums])
    return [fraction >= floor for fraction in fractions.tolist()]
