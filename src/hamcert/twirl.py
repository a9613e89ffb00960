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

The twirl runs on GF(2) masks.  A draw is its row of inclusion bits (the
site's axis where the bit is set, ``I`` elsewhere).  A term's *mismatch
mask* marks the sites where its letter is neither ``I`` nor the site's
axis, so it is zero exactly for in-subspace terms.  A term anticommutes
with a draw exactly when the two masks overlap in an odd number of sites,
so it survives exactly when its mask has even overlap with every draw:
one ``(bits @ mismatch.T) & 1`` product filters all terms against all
draws, and the zero masks among the survivors are the effective part.

The public constructors :class:`DiagonalSubspace` and
:class:`TwirlTranscript`, and :func:`apply_twirl`, check every axis and
draw.  :func:`sample_subspace` and :func:`run_twirl` build their results
through private trusted constructors instead: the axes and draws they
hold are made in the same function from validated input, so checking them
again could never fail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import PauliSum, validate_label

__all__ = [
    "DiagonalSubspace",
    "TwirlTranscript",
    "apply_twirl",
    "project_effective",
    "run_twirl",
    "sample_subspace",
    "sample_twirl_paulis",
]

_AXES = ("X", "Y", "Z")
_I = ord("I")


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

    @classmethod
    def _trusted(cls, axes: tuple[str, ...]) -> "DiagonalSubspace":
        """A subspace over a nonempty tuple of letters from ``XYZ``, unchecked."""
        subspace = object.__new__(cls)
        subspace.__dict__["axes"] = axes
        return subspace

    @property
    def n(self) -> int:
        return len(self.axes)

    def contains(self, label: str) -> bool:
        """Membership test: every non-identity letter matches the site axis."""
        validate_label(label)
        if len(label) != self.n:
            raise ValueError(f"Label length {len(label)} does not match n={self.n}.")
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
        _member_bits(self.subspace, self.paulis)

    @classmethod
    def _trusted(
        cls,
        subspace: DiagonalSubspace,
        paulis: tuple[str, ...],
        effective: PauliSum,
        residual: PauliSum,
    ) -> "TwirlTranscript":
        """A transcript whose draws are known members of ``subspace``, unchecked."""
        transcript = object.__new__(cls)
        transcript.__dict__.update(
            subspace=subspace, paulis=paulis, effective=effective, residual=residual
        )
        return transcript

    @property
    def twirled(self) -> PauliSum:
        """The twirled operator, ``effective + residual``."""
        return self.effective + self.residual


def _axis_codes(subspace: DiagonalSubspace) -> np.ndarray:
    """The subspace's axis letters as one ASCII code per site."""
    return np.frombuffer(str(subspace).encode("ascii"), dtype=np.uint8)


def _member_bits(subspace: DiagonalSubspace, paulis: tuple[str, ...]) -> np.ndarray:
    """The inclusion bits of ``paulis``, one row per draw.

    Raises ValueError for a draw that is not a member of ``subspace``.
    """
    n = subspace.n
    if not set(map(len, paulis)) <= {n}:
        bad = next(p for p in paulis if len(p) != n)
        raise ValueError(f"Transcript Pauli {bad!r} does not act on n={n} qubits.")
    # Site by site over all draws at once: the letters of site i, taken
    # as one string, must consist of I and the site's axis only.
    joined = "".join(paulis)
    for i, ax in enumerate(subspace.axes):
        if joined[i::n].strip("I" + ax):
            bad = next(p for p in paulis if p[i] not in ("I", ax))
            raise ValueError(f"Transcript Pauli {bad!r} is not in the subspace.")
    letters = np.frombuffer(joined.encode("ascii"), dtype=np.uint8)
    return (letters.reshape(len(paulis), n) != _I).astype(np.int64)


def _mismatch(h: PauliSum, subspace: DiagonalSubspace) -> np.ndarray:
    """Mismatch masks: row ``j`` marks the sites where term ``j`` of ``h``
    holds neither ``I`` nor the site's axis."""
    letters = np.frombuffer("".join(h.labels()).encode("ascii"), dtype=np.uint8)
    letters = letters.reshape(-1, subspace.n)
    return (letters != _I) & (letters != _axis_codes(subspace))


def _draw(
    subspace: DiagonalSubspace, steps: int, rng: np.random.Generator
) -> tuple[np.ndarray, tuple[str, ...]]:
    """``steps`` uniform subspace members: their inclusion bits and labels.

    The labels are cut from one byte row that ends each draw with a comma.
    """
    if steps < 1:
        raise ValueError(f"Twirl needs at least one step, got {steps}.")
    n = subspace.n
    bits = rng.integers(0, 2, size=(steps, n))
    row = np.full((steps, n + 1), ord(","), dtype=np.uint8)
    row[:, :n] = np.where(bits, _axis_codes(subspace), np.uint8(_I))
    text = row.tobytes().decode("ascii")
    return bits, tuple(text[:-1].split(","))


def _split(
    h1: PauliSum,
    subspace: DiagonalSubspace,
    paulis: tuple[str, ...],
    bits: np.ndarray,
) -> TwirlTranscript:
    """The transcript of ``h1`` twirled by the member draws ``bits`` (``paulis``).

    A term survives exactly when its mismatch mask has even overlap with
    every draw; the survivors with a zero mask are the effective part.
    """
    if not h1:
        return TwirlTranscript._trusted(subspace, paulis, h1, h1)
    mismatch = _mismatch(h1, subspace)
    odd = (bits @ mismatch.T.astype(np.int64)) & 1
    kept = (odd.sum(axis=0) == 0).tolist()
    inside = (~mismatch.any(axis=1)).tolist()
    effective: dict[str, float] = {}
    residual: dict[str, float] = {}
    for (label, coeff), keep, fixed in zip(h1.items(), kept, inside):
        if keep:
            (effective if fixed else residual)[label] = coeff
    return TwirlTranscript._trusted(
        subspace,
        paulis,
        PauliSum._from_valid(h1.n, effective),
        PauliSum._from_valid(h1.n, residual),
    )


def sample_subspace(n: int, rng: np.random.Generator) -> DiagonalSubspace:
    """Draw a diagonal subspace with i.i.d. uniform axes in {X, Y, Z}."""
    if n < 1:
        raise ValueError(f"System size must be positive, got {n}.")
    picks = rng.integers(0, 3, size=n)
    return DiagonalSubspace._trusted(tuple(map(_AXES.__getitem__, picks.tolist())))


def sample_twirl_paulis(
    subspace: DiagonalSubspace, steps: int, rng: np.random.Generator
) -> tuple[str, ...]:
    """Draw ``steps`` members uniformly from the ``2^n``-element subspace.

    Uniformity comes from one independent fair inclusion bit per site.
    """
    return _draw(subspace, steps, rng)[1]


def _check_sizes(h: PauliSum, subspace: DiagonalSubspace) -> None:
    if h.n != subspace.n:
        raise ValueError(f"System sizes differ: {h.n} vs {subspace.n}.")


def project_effective(
    h: PauliSum, subspace: DiagonalSubspace
) -> tuple[PauliSum, PauliSum]:
    """Split ``h`` into its in-subspace and off-subspace parts.

    Returns ``(effective, off)`` with ``effective + off == h`` exactly:
    ``effective`` holds the terms with a zero mismatch mask.  Both parts
    keep the terms of ``h`` in order, so they are built without
    re-validating them.
    """
    _check_sizes(h, subspace)
    if not h:
        return h, h
    fixed = (~_mismatch(h, subspace).any(axis=1)).tolist()
    inside: dict[str, float] = {}
    outside: dict[str, float] = {}
    for (label, coeff), fix in zip(h.items(), fixed):
        (inside if fix else outside)[label] = coeff
    return PauliSum._from_valid(h.n, inside), PauliSum._from_valid(h.n, outside)


def apply_twirl(
    h1: PauliSum, subspace: DiagonalSubspace, paulis: tuple[str, ...]
) -> TwirlTranscript:
    """Filter ``h1`` through a fixed sequence of twirl conjugators.

    A term survives exactly when it commutes with every drawn Pauli;
    in-subspace terms always do.  This is the exact coefficient-space
    form of the averaging map, never a dense-matrix average.

    Raises:
        ValueError: If the sizes differ or a draw is not a member of the
            subspace.
    """
    _check_sizes(h1, subspace)
    paulis = tuple(paulis)
    bits = _member_bits(subspace, paulis)
    return _split(h1, subspace, paulis, bits)


def run_twirl(
    h1: PauliSum,
    subspace: DiagonalSubspace,
    steps: int,
    rng: np.random.Generator,
) -> TwirlTranscript:
    """Draw ``steps`` random subspace Paulis and twirl ``h1`` with them.

    Every check runs before the draws, so a rejected call leaves ``rng``
    where it was.
    """
    _check_sizes(h1, subspace)
    bits, paulis = _draw(subspace, steps, rng)
    return _split(h1, subspace, paulis, bits)
