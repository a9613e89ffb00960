"""Random instance generators for verification suites and tests."""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .pauli import COEFF_DROP_TOL, PauliSum

__all__ = [
    "all_k_local_labels",
    "random_diagonal_sum",
    "random_hermitian",
    "random_pauli_sum",
]


@functools.lru_cache(maxsize=64)
def all_k_local_labels(n: int, k: int, letters: str = "XYZ") -> tuple[str, ...]:
    """Every label on ``n`` qubits with weight between 1 and ``k``.

    Kept per ``(n, k, letters)``: the suites draw thousands of instances
    from a few pools.  ``letters`` is checked here, once per pool, so every
    label in a pool is valid and :func:`random_pauli_sum` trusts them.

    Raises:
        ValueError: If ``k`` is outside ``1..n``, ``letters`` is empty, a
            letter is not one of ``X``, ``Y``, ``Z``, or a letter repeats.
    """
    if k < 1 or k > n:
        raise ValueError(f"Need 1 <= k <= n, got k={k}, n={n}.")
    if not letters or not set(letters) <= set("XYZ"):
        raise ValueError(f"Letters must be drawn from 'XYZ', got {letters!r}.")
    if len(set(letters)) != len(letters):
        raise ValueError(f"Letters must be drawn from 'XYZ' once each, got {letters!r}.")
    labels = []
    for w in range(1, k + 1):
        for sites in itertools.combinations(range(n), w):
            for choice in itertools.product(letters, repeat=w):
                chars = ["I"] * n
                for site, ch in zip(sites, choice):
                    chars[site] = ch
                labels.append("".join(chars))
    return tuple(labels)


def random_pauli_sum(
    n: int,
    k: int,
    rng: np.random.Generator,
    num_terms: int | None = None,
    letters: str = "XYZ",
) -> PauliSum:
    """A k-local sum with standard-normal coefficients on distinct labels.

    The labels come from :func:`all_k_local_labels`, which checked them
    and holds each once, so distinct picks give distinct labels: the
    label-sorted term map is built directly, dropping coefficients below
    :data:`~hamcert.pauli.COEFF_DROP_TOL` as the constructor does, without
    checking or summing again.
    """
    pool = all_k_local_labels(n, k, letters)
    if num_terms is None:
        num_terms = int(rng.integers(1, min(len(pool), 3 * n) + 1))
    if num_terms < 1:
        # No coefficient could ever pass the retry below.
        raise ValueError(f"Need at least one term, got num_terms={num_terms}.")
    num_terms = min(num_terms, len(pool))
    picks = rng.choice(len(pool), size=num_terms, replace=False)
    coeffs = rng.normal(size=num_terms).tolist()
    # Retry degenerate draws: the zero sum has no norm to certify against.
    while not any(abs(c) >= 1e-12 for c in coeffs):
        coeffs = rng.normal(size=num_terms).tolist()
    terms = dict(zip([pool[i] for i in picks.tolist()], coeffs))
    return PauliSum._from_valid(
        n, {p: terms[p] for p in sorted(terms) if abs(terms[p]) >= COEFF_DROP_TOL}
    )


def random_diagonal_sum(
    n: int, k: int, rng: np.random.Generator, num_terms: int | None = None
) -> PauliSum:
    """A k-local sum using only I/Z letters."""
    return random_pauli_sum(n, k, rng, num_terms, letters="Z")


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A dense Hermitian matrix with standard Gaussian entries."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2.0
