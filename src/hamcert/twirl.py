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
site's axis where the bit is set, ``I`` elsewhere).  A term's *off*
letters, read from its sum's kept support, differ from their site's axis;
a term with none lies in the subspace.  A term anticommutes with a draw
exactly when an odd number of its off sites are in the draw.  The ``T``
draw bits of a site, packed, are its *syndrome*, so a term survives every
draw exactly when the syndromes of its off sites XOR to zero
(:func:`_survives`, which the ``twirl`` verify suite measures too).  The
survivors without an off letter are the effective part, the others the
residual, and each part keeps its terms' segments of the kept support.

A round's ``T`` draws are one ``(T, n)`` array of fair bits and one *draw
row*, each draw's letters and then a comma: one addition gives each site
the little-endian int64 ``bit + 2 * axis + 1`` (axis 0, 1, 2 for X, Y,
Z), plus ``7 << 8`` at the last site for the comma, and one
``bytes.translate`` spells these codes and deletes the zero bytes.  The
certifier hashes the row into the round's digest and reads trotter mode's
letter codes out of it; a transcript of :func:`run_twirl` cuts its labels
from it only when :attr:`TwirlTranscript.paulis` is first read.  Every
subspace keeps its axis indices and offsets from construction.

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

from .pauli import PauliSum, _codes

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
_X = ord("X")
#: Code ``bit + 2 * axis + 1`` of a draw to its letter, and 7 to the comma.
_DRAW_LETTERS = bytes.maketrans(bytes(range(1, 8)), b"IXIYIZ,")
_AXIS_CODES = np.array([1, 3, 5])  # 2 * axis + 1


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
        self._keep(np.array([_AXES.index(ax) for ax in self.axes], dtype=np.int64))

    @classmethod
    def _trusted(cls, axes: tuple[str, ...], index: np.ndarray) -> "DiagonalSubspace":
        """A subspace over letters from ``XYZ`` and their axis indices, unchecked."""
        subspace = object.__new__(cls)
        subspace.__dict__["axes"] = axes
        subspace._keep(index)
        return subspace

    def _keep(self, index: np.ndarray) -> None:
        """Keep the int64 axis indices 0, 1, 2 (X, Y, Z) and the offsets of :func:`_draw`."""
        offsets = _AXIS_CODES[index]
        offsets[-1] += 7 << 8
        self.__dict__.update(_index=index, _offsets=offsets)

    @property
    def n(self) -> int:
        return len(self.axes)

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
    def _trusted(cls, subspace: DiagonalSubspace, effective: PauliSum, residual: PauliSum,
                 **draws) -> "TwirlTranscript":
        """A transcript of known member draws, as ``paulis`` or a ``_row``, unchecked."""
        transcript = object.__new__(cls)
        transcript.__dict__.update(subspace=subspace, effective=effective,
                                   residual=residual, **draws)
        return transcript

    def __getattr__(self, name: str):
        # Only a transcript that holds its draw row lacks labels: cut them once.
        if name != "paulis" or "_row" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        paulis = self.__dict__["paulis"] = _labels(self._row)
        return paulis

    @property
    def twirled(self) -> PauliSum:
        """The twirled operator, ``effective + residual``."""
        return self.effective + self.residual


def _member_bits(subspace: DiagonalSubspace, paulis: tuple[str, ...]) -> np.ndarray:
    """The inclusion bits of ``paulis``, one row per draw.

    Raises ValueError for a draw of another length or outside ``subspace``.
    """
    n = subspace.n
    if not set(map(len, paulis)) <= {n}:
        bad = next(p for p in paulis if len(p) != n)
        raise ValueError(f"Draw {bad!r} does not act on n={n} qubits.")
    # Site by site over all draws at once: the letters of site i, taken
    # as one string, must consist of I and the site's axis only.
    joined = "".join(paulis)
    for i, ax in enumerate(subspace.axes):
        if joined[i::n].strip("I" + ax):
            bad = next(p for p in paulis if p[i] not in ("I", ax))
            raise ValueError(f"Draw {bad!r} is not in the subspace.")
    return _codes((joined,), n) != ord("I")


def _mismatch(h: PauliSum, subspace: DiagonalSubspace) -> tuple[np.ndarray, ...]:
    """``(starts, sites, off)``: the support of ``h``, with ``off`` marking
    each letter that differs from its site's axis."""
    starts, sites, letters = h._support()
    return starts, sites, letters != _X + subspace._index[sites]


def _draw(subspace: DiagonalSubspace, steps: int,
          rng: np.random.Generator) -> tuple[np.ndarray, bytes]:
    """``steps`` uniform subspace members: their inclusion bits and their
    draw row, each draw's letters followed by a comma."""
    if steps < 1:
        raise ValueError(f"Twirl needs at least one step, got {steps}.")
    bits = rng.integers(0, 2, size=(steps, subspace.n))
    codes = (bits + subspace._offsets).astype("<i8", copy=False)
    return bits, codes.tobytes().translate(_DRAW_LETTERS, b"\0")


def _labels(row: bytes) -> tuple[str, ...]:
    """The labels of the draws of a draw row (see :func:`_draw`)."""
    return tuple(row[:-1].decode("ascii").split(","))


def _survives(bits: np.ndarray, starts: np.ndarray, sites: np.ndarray,
              off: np.ndarray) -> np.ndarray:
    """``(..., terms)``: whether each term of a :func:`_mismatch` triple
    commutes with all of the draws ``bits`` ``(..., T, n)``, that is, whether
    the syndromes (packed draw bits) of its off sites XOR to zero."""
    syndromes = np.packbits(bits.astype(bool), axis=-2, bitorder="little")
    picked = np.where(off, syndromes[..., sites], 0)
    return ~np.bitwise_xor.reduceat(picked, starts, axis=-1).any(axis=-2)


def _split(h1: PauliSum, subspace: DiagonalSubspace,
           bits: np.ndarray) -> tuple[PauliSum, PauliSum]:
    """``(effective, residual)`` of ``h1`` twirled by the member draws ``bits``:
    the survivors of :func:`_survives` without an off letter, and the others,
    each holding its terms' segments of ``h1``'s support."""
    if not h1:
        return h1, h1
    starts, sites, off = _mismatch(h1, subspace)
    kept = _survives(bits, starts, sites, off)
    inside = ~np.logical_or.reduceat(off, starts)
    return h1._subset(kept & inside), h1._subset(kept & ~inside)


def sample_subspace(n: int, rng: np.random.Generator) -> DiagonalSubspace:
    """Draw a diagonal subspace with i.i.d. uniform axes in {X, Y, Z}."""
    if n < 1:
        raise ValueError(f"System size must be positive, got {n}.")
    picks = rng.integers(0, 3, size=n)
    return DiagonalSubspace._trusted(tuple(map(_AXES.__getitem__, picks.tolist())), picks)


def sample_twirl_paulis(subspace: DiagonalSubspace, steps: int,
                        rng: np.random.Generator) -> tuple[str, ...]:
    """Draw ``steps`` members uniformly from the ``2^n``-element subspace.

    Uniformity comes from one independent fair inclusion bit per site.
    """
    return _labels(_draw(subspace, steps, rng)[1])


def _check_sizes(h: PauliSum, subspace: DiagonalSubspace) -> None:
    if h.n != subspace.n:
        raise ValueError(f"System sizes differ: {h.n} vs {subspace.n}.")


def project_effective(h: PauliSum, subspace: DiagonalSubspace) -> tuple[PauliSum, PauliSum]:
    """Split ``h`` into its in-subspace and off-subspace parts.

    Returns ``(effective, off)`` with ``effective + off == h`` exactly:
    ``effective`` holds the terms without an off letter.  This is the
    twirl by no draws, which keeps every term, so both parts are those
    of ``apply_twirl(h, subspace, ())``, in the order of ``h``.
    """
    _check_sizes(h, subspace)
    return _split(h, subspace, np.zeros((0, h.n)))


def apply_twirl(h1: PauliSum, subspace: DiagonalSubspace,
                paulis: tuple[str, ...]) -> TwirlTranscript:
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
    return TwirlTranscript._trusted(subspace, *_split(h1, subspace, bits), paulis=paulis)


def run_twirl(h1: PauliSum, subspace: DiagonalSubspace, steps: int,
              rng: np.random.Generator) -> TwirlTranscript:
    """Draw ``steps`` random subspace Paulis and twirl ``h1`` with them.

    Every check runs before the draws, so a rejected call leaves ``rng``
    where it was.
    """
    _check_sizes(h1, subspace)
    bits, row = _draw(subspace, steps, rng)
    return TwirlTranscript._trusted(subspace, *_split(h1, subspace, bits), _row=row)
