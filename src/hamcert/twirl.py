"""Randomized diagonal basis selection and the coefficient-space twirl.

A *diagonal subspace* is fixed by choosing one axis letter per qubit; its
members are the Pauli strings that use only the identity or the chosen
axis at every site.  All members commute with one another, so the subspace
is abelian and closed under (phase-free) products.

The twirl repeatedly averages an operator with its conjugation by a random
subspace member, ``X -> (X + P X P) / 2``.  On a Pauli term this is pure
sign averaging: the term is kept when it commutes with ``P`` and killed
when it anticommutes.  Terms inside the subspace always commute and are
fixed; every term outside the subspace anticommutes with exactly half the
subspace, so it survives one step with probability 1/2 and ``steps``
independent steps with probability ``2**-steps``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import PauliSum, _commutes, validate_label

__all__ = [
    "DiagonalSubspace",
    "TwirlTranscript",
    "apply_twirl",
    "project_effective",
    "run_twirl",
    "sample_subspace",
    "sample_twirl_paulis",
]

_AXES = "XYZ"


@dataclass(frozen=True)
class DiagonalSubspace:
    """An abelian Pauli subspace fixed by one axis letter per qubit."""

    axes: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.axes:
            raise ValueError("Subspace needs at least one axis.")
        for ax in self.axes:
            if ax not in _AXES:
                raise ValueError(f"Axis letters must be one of X, Y, Z; got {ax!r}.")

    @property
    def n(self) -> int:
        return len(self.axes)

    def contains(self, label: str) -> bool:
        """Membership test: every non-identity letter matches the site axis."""
        validate_label(label)
        if len(label) != self.n:
            raise ValueError(f"Label length {len(label)} does not match n={self.n}.")
        return self._holds(label)

    def _holds(self, label: str) -> bool:
        """:meth:`contains` for a label already known to be valid on ``n`` qubits."""
        return all(ch == "I" or ch == ax for ch, ax in zip(label, self.axes))

    def __str__(self) -> str:
        return "".join(self.axes)


@dataclass(frozen=True)
class TwirlTranscript:
    """Record of one twirl: the subspace, the drawn Paulis, and the split.

    ``effective`` holds the in-subspace terms of the input (untouched by
    every step) and ``residual`` the off-subspace terms that happened to
    survive all draws; ``twirled`` is their sum.
    """

    subspace: DiagonalSubspace
    paulis: tuple[str, ...]
    effective: PauliSum
    residual: PauliSum

    def __post_init__(self) -> None:
        n = self.subspace.n
        if not set(map(len, self.paulis)) <= {n}:
            bad = next(p for p in self.paulis if len(p) != n)
            raise ValueError(f"Transcript Pauli {bad!r} does not act on n={n} qubits.")
        # Site by site over all draws at once: the letters of site i, taken
        # as one string, must consist of I and the site's axis only.
        joined = "".join(self.paulis)
        for i, ax in enumerate(self.subspace.axes):
            if joined[i::n].strip("I" + ax):
                bad = next(p for p in self.paulis if p[i] not in ("I", ax))
                raise ValueError(f"Transcript Pauli {bad!r} is not in the subspace.")

    @property
    def twirled(self) -> PauliSum:
        """The twirled operator, ``effective + residual``."""
        return self.effective + self.residual


def sample_subspace(n: int, rng: np.random.Generator) -> DiagonalSubspace:
    """Draw a diagonal subspace with i.i.d. uniform axes in {X, Y, Z}."""
    if n < 1:
        raise ValueError(f"System size must be positive, got {n}.")
    picks = rng.integers(0, 3, size=n)
    return DiagonalSubspace(tuple(_AXES[i] for i in picks))


def sample_twirl_paulis(
    subspace: DiagonalSubspace, steps: int, rng: np.random.Generator
) -> tuple[str, ...]:
    """Draw ``steps`` members uniformly from the ``2^n``-element subspace.

    Uniformity comes from one independent fair inclusion bit per site.
    """
    if steps < 1:
        raise ValueError(f"Twirl needs at least one step, got {steps}.")
    n = subspace.n
    bits = rng.integers(0, 2, size=(steps, n))
    axes = np.frombuffer(str(subspace).encode("ascii"), dtype=np.uint8)
    letters = np.where(bits, axes, np.uint8(ord("I")))
    text = letters.tobytes().decode("ascii")
    return tuple([text[i : i + n] for i in range(0, steps * n, n)])


def project_effective(
    h: PauliSum, subspace: DiagonalSubspace
) -> tuple[PauliSum, PauliSum]:
    """Split ``h`` into its in-subspace and off-subspace parts.

    Returns ``(effective, off)`` with ``effective + off == h`` exactly.
    Both parts keep the terms of ``h`` in order, so they are built without
    re-validating them.
    """
    if h.n != subspace.n:
        raise ValueError(f"System sizes differ: {h.n} vs {subspace.n}.")
    if not h:
        return h, h
    inside: dict[str, float] = {}
    outside: dict[str, float] = {}
    for label, coeff in h.items():
        (inside if subspace._holds(label) else outside)[label] = coeff
    return PauliSum._from_valid(h.n, inside), PauliSum._from_valid(h.n, outside)


def apply_twirl(
    h1: PauliSum, subspace: DiagonalSubspace, paulis: tuple[str, ...]
) -> TwirlTranscript:
    """Filter ``h1`` through a fixed sequence of twirl conjugators.

    A term survives exactly when it commutes with every drawn Pauli;
    in-subspace terms always do.  This is the exact coefficient-space
    form of the averaging map, never a dense-matrix average.
    """
    effective, off = project_effective(h1, subspace)
    surviving: dict[str, float] = {}
    for label, coeff in off.items():
        if all(_commutes(p, label) for p in paulis):
            surviving[label] = coeff
    # The transcript rejects any draw that is not a member of the subspace.
    return TwirlTranscript(
        subspace=subspace,
        paulis=tuple(paulis),
        effective=effective,
        residual=PauliSum._from_valid(h1.n, surviving),
    )


def run_twirl(
    h1: PauliSum,
    subspace: DiagonalSubspace,
    steps: int,
    rng: np.random.Generator,
) -> TwirlTranscript:
    """Draw ``steps`` random subspace Paulis and twirl ``h1`` with them."""
    return apply_twirl(h1, subspace, sample_twirl_paulis(subspace, steps, rng))
