"""Phase-free Pauli-string algebra for sparse traceless Hamiltonians.

Pauli strings are plain ``str`` labels over the alphabet ``I``, ``X``,
``Y``, ``Z`` (e.g. ``"XIZ"``), with character ``i`` acting on qubit ``i``.
A Hamiltonian is a :class:`PauliSum`: a sparse map from labels to real
coefficients.  Conjugating a Pauli string by another Pauli string only ever
flips the sign of its coefficient, so all phases live in the coefficients
and the labels themselves stay phase-free.

The normalized Frobenius norm of a traceless Hermitian operator equals the
Euclidean norm of its Pauli coefficient vector, which is how
:func:`frobenius_norm` computes it without ever building a matrix.

A text format is supported for file interchange, one term per line::

    # comments start with '#'
    0.5  XIZ
    -0.25 ZZI

The label length of the first term fixes the system size; duplicate labels
are summed.

Array code reads labels in one form: :func:`_codes` alone turns labels
into bytes, and :meth:`PauliSum._support`, built from them on first use
and kept (a sum never changes; :meth:`PauliSum._subset` cuts a part's from
its sum's), lists each term's non-identity sites and letters.  The twirl
and both oracle modes read this form, so no exact-mode round forms a label.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping

import numpy as np

__all__ = [
    "COEFF_DROP_TOL",
    "PAULI_LETTERS",
    "HamiltonianFormatError",
    "PauliSum",
    "add",
    "commutes",
    "conjugate",
    "frobenius_norm",
    "is_k_local",
    "parse_hamiltonian",
    "partition",
    "scale",
    "subtract",
    "validate_label",
    "weight",
]

PAULI_LETTERS = "IXYZ"

#: Coefficients whose magnitude falls below this after arithmetic are dropped.
#: Keeps sparsity honest without touching any physically relevant scale.
COEFF_DROP_TOL = 1e-14


def _codes(labels: Iterable[str], n: int) -> np.ndarray:
    """One ``(m, n)`` uint8 row of ASCII codes per label of length ``n``."""
    return np.frombuffer("".join(labels).encode("ascii"), dtype=np.uint8).reshape(-1, n)


class HamiltonianFormatError(ValueError):
    """Raised when Hamiltonian text input is malformed.

    Carries a human-readable message that includes the offending line
    number whenever one is available.
    """


def validate_label(label: str) -> str:
    """Validate a Pauli string label and return it unchanged.

    Args:
        label: Candidate label, e.g. ``"XIZ"``.

    Returns:
        The validated label.

    Raises:
        ValueError: If the label is empty or contains characters outside
            ``I``, ``X``, ``Y``, ``Z``.
    """
    if not isinstance(label, str) or len(label) == 0:
        raise ValueError(f"Pauli label must be a nonempty string, got {label!r}.")
    # Stripping every valid letter leaves nothing exactly when all are valid;
    # only a bad label pays for the loop that names its first bad letter.
    if label.strip(PAULI_LETTERS):
        for ch in label:
            if ch not in PAULI_LETTERS:
                raise ValueError(f"Invalid Pauli letter {ch!r} in label {label!r}.")
    return label


def weight(label: str) -> int:
    """Return the number of non-identity letters of a Pauli string.

    Examples:
        >>> weight("III")
        0
        >>> weight("XIZ")
        2
    """
    validate_label(label)
    return sum(1 for ch in label if ch != "I")


def commutes(label_a: str, label_b: str) -> bool:
    """Check whether two Pauli strings commute.

    Two Pauli strings commute exactly when the number of sites where both
    letters are non-identity and different is even.

    Args:
        label_a: First Pauli label.
        label_b: Second Pauli label of the same length.

    Returns:
        ``True`` if the strings commute, ``False`` if they anticommute.

    Raises:
        ValueError: If the labels have different lengths or are invalid.

    Examples:
        >>> commutes("X", "Z")
        False
        >>> commutes("XI", "IZ")
        True
        >>> commutes("XY", "YX")
        True
    """
    validate_label(label_a)
    validate_label(label_b)
    if len(label_a) != len(label_b):
        raise ValueError(
            f"Pauli labels must have equal length, got {len(label_a)} and {len(label_b)}."
        )
    return _commutes(label_a, label_b)


def _commutes(label_a: str, label_b: str) -> bool:
    """:func:`commutes` for two labels already known to be valid and equal in length."""
    clashes = 0
    for ca, cb in zip(label_a, label_b):
        if ca != "I" and cb != "I" and ca != cb:
            clashes += 1
    return clashes % 2 == 0


def _checked(n: int, items: Iterable[tuple[str, float]]) -> Iterator[tuple[str, float]]:
    """The pairs of ``items``, each label checked as it is reached.

    A label must be valid, of length ``n`` and not all-identity.  Checking
    lazily keeps the order of the errors of a single pass: a bad label
    after an overflowing sum is never reached.
    """
    for label, coeff in items:
        validate_label(label)
        if len(label) != n:
            raise ValueError(f"Label {label!r} has length {len(label)}, expected {n}.")
        if not label.strip("I"):
            raise ValueError(
                "The all-identity term is not allowed (operators are traceless)."
            )
        yield label, coeff


def _summed(pairs: Iterable[tuple[str, float]]) -> dict[str, float]:
    """The coefficient work of a :class:`PauliSum`, on labels known valid.

    Sums duplicate labels in input order, rejects a non-finite sum, drops
    magnitudes below :data:`COEFF_DROP_TOL` and sorts by label.
    """
    accum: dict[str, float] = {}
    for label, coeff in pairs:
        value = accum.get(label, 0.0) + float(coeff)
        if not math.isfinite(value):
            raise ValueError(
                f"Coefficient for {label!r} is not finite: adding {coeff!r} "
                f"gives {value!r}."
            )
        accum[label] = value
    return {
        label: accum[label]
        for label in sorted(accum)
        if abs(accum[label]) >= COEFF_DROP_TOL
    }


class PauliSum:
    """A traceless Hermitian operator as a sparse real Pauli expansion.

    Instances are immutable value objects: the term map is canonicalized
    (sorted by label) at construction and never mutated afterwards.

    Invariants enforced at construction:

    * every label has length ``n``;
    * the all-identity label is rejected (tracelessness);
    * every stored coefficient is finite, real, and at least
      :data:`COEFF_DROP_TOL` in magnitude (smaller ones are dropped);
      finiteness is checked after duplicate labels are summed.

    Args:
        n: Number of qubits (``n >= 1``).
        terms: Mapping or iterable of ``(label, coefficient)`` pairs.
            Duplicate labels are summed.
    """

    __slots__ = ("_n", "_terms", "_form")

    def __init__(
        self,
        n: int,
        terms: Mapping[str, float] | Iterable[tuple[str, float]] = (),
    ) -> None:
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"System size must be a positive integer, got {n!r}.")
        items = terms.items() if isinstance(terms, Mapping) else terms
        self._n = n
        self._terms = _summed(_checked(n, items))
        self._form = None

    @classmethod
    def _from_pairs(cls, n: int, pairs: Iterable[tuple[str, float]]) -> "PauliSum":
        """A sum over ``(label, coefficient)`` pairs whose labels are valid.

        Does only the coefficient work of ``__init__``: the caller passes
        labels of length ``n`` that already passed :func:`validate_label`
        and are not all-identity.
        """
        return cls._from_valid(n, _summed(pairs))

    @classmethod
    def _from_valid(cls, n: int, terms: dict[str, float]) -> "PauliSum":
        """A sum over terms taken, in order, from valid sums on ``n`` qubits.

        Skips every check and the sort of ``__init__``: the caller passes a
        label-sorted dict whose labels and coefficients already passed them.
        """
        h = cls.__new__(cls)
        h._n = n
        h._terms = terms
        h._form = None
        return h

    @property
    def n(self) -> int:
        """Number of qubits."""
        return self._n

    @property
    def terms(self) -> dict[str, float]:
        """Copy of the term map (label to coefficient, sorted by label)."""
        return dict(self._terms)

    @property
    def num_terms(self) -> int:
        return len(self._terms)

    def coefficient(self, label: str) -> float:
        """Return the coefficient of ``label`` (0.0 when absent)."""
        return self._terms.get(label, 0.0)

    def items(self) -> Iterator[tuple[str, float]]:
        return iter(self._terms.items())

    def labels(self) -> Iterator[str]:
        return iter(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliSum):
            return NotImplemented
        return self._n == other._n and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._n, tuple(self._terms.items())))

    def __add__(self, other: "PauliSum") -> "PauliSum":
        return add(self, other)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return subtract(self, other)

    def __mul__(self, factor: float) -> "PauliSum":
        return scale(self, factor)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        body = " + ".join(f"{c:+g}*{p}" for p, c in self._terms.items()) or "0"
        return f"PauliSum(n={self._n}, {body})"

    def max_weight(self) -> int:
        """Largest term weight present (0 for the empty sum)."""
        # Stored labels are valid: count their letters without checking again.
        return max((len(p) - p.count("I") for p in self._terms), default=0)

    def _support(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(starts, sites, letters)``: the site and ASCII code of each non-identity
        letter, term by term in site order; term ``j``'s entries begin at ``starts[j]``."""
        if self._form is None:
            codes = _codes(self._terms, self._n)
            terms, sites = np.nonzero(codes != ord("I"))
            starts = np.searchsorted(terms, np.arange(len(codes)))
            self._form = starts, sites, codes[terms, sites]
        return self._form

    def _subset(self, keep: np.ndarray) -> "PauliSum":
        """The terms where the boolean ``keep`` is set, in order, with their
        segments of this sum's support as the support of the result."""
        starts, sites, letters = self._support()
        terms = [item for item, k in zip(self._terms.items(), keep.tolist()) if k]
        if len(terms) == len(starts):
            return self
        part = PauliSum._from_valid(self._n, dict(terms))
        part._form = starts[:0], sites[:0], letters[:0]
        if terms:
            sizes = np.concatenate((starts[1:], [sites.size])) - starts
            entries, sizes = keep.repeat(sizes), sizes[keep]
            part._form = sizes.cumsum() - sizes, sites[entries], letters[entries]
        return part

    def to_text(self) -> str:
        """Render in the text format, one term per line, sorted by label."""
        lines = [f"{coeff!r} {label}" for label, coeff in self._terms.items()]
        return "\n".join(lines) + ("\n" if lines else "")


def frobenius_norm(h: PauliSum) -> float:
    """Normalized Frobenius norm: the Euclidean norm of the coefficients.

    Equals ``sqrt(Tr(H^2) / 2^n)`` for the dense representation.
    """
    return math.sqrt(sum(c * c for c in h._terms.values()))


def conjugate(h: PauliSum, label: str) -> PauliSum:
    """Conjugate every term of ``h`` by the Pauli string ``label``.

    ``P Q P`` equals ``+Q`` when ``P`` and ``Q`` commute and ``-Q`` when
    they anticommute, so conjugation just flips the sign of the
    anticommuting coefficients.

    Raises:
        ValueError: If ``label`` does not match the system size of ``h``.
    """
    validate_label(label)
    if len(label) != h.n:
        raise ValueError(f"Conjugator length {len(label)} does not match n={h.n}.")
    flipped = [(p, c if _commutes(label, p) else -c) for p, c in h._terms.items()]
    return PauliSum._from_pairs(h.n, flipped)


def add(a: PauliSum, b: PauliSum) -> PauliSum:
    """Coefficient-wise sum; entries below the drop tolerance vanish."""
    if a.n != b.n:
        raise ValueError(f"System sizes differ: {a.n} vs {b.n}.")
    merged = dict(a._terms)
    for p, c in b._terms.items():
        merged[p] = merged.get(p, 0.0) + c
    return PauliSum._from_pairs(a.n, merged.items())


def subtract(a: PauliSum, b: PauliSum) -> PauliSum:
    """Coefficient-wise difference ``a - b``; zero entries are dropped."""
    return add(a, scale(b, -1.0))


def scale(h: PauliSum, factor: float) -> PauliSum:
    """Multiply every coefficient by ``factor``."""
    value = float(factor)
    if not math.isfinite(value):
        raise ValueError(f"Scale factor is not finite: {factor!r}.")
    return PauliSum._from_pairs(h.n, [(p, c * value) for p, c in h._terms.items()])


def _components(*sums: PauliSum) -> list[tuple[int, ...]]:
    """The sites of each block of :func:`partition`, in its order."""
    parent: dict[int, int] = {}

    def root(site: int) -> int:
        while parent[site] != site:
            parent[site] = site = parent[parent[site]]
        return site

    # From each sum's support: link every site of a term to its first one.
    for h in sums:
        starts, sites, _ = h._support()
        flat, bounds = sites.tolist(), [*starts.tolist(), sites.size]
        for start, end in zip(bounds, bounds[1:]):
            for site in flat[start:end]:
                parent.setdefault(site, site)
                parent[root(site)] = root(flat[start])
    # Taken in increasing order, the sites meet the roots by first site.
    blocks: dict[int, list[int]] = {}
    for site in sorted(parent):
        blocks.setdefault(root(site), []).append(site)
    return [tuple(sites) for sites in blocks.values()]


def partition(*sums: PauliSum) -> list[tuple[tuple[int, ...], list[PauliSum]]]:
    """The blocks of the support graph of ``sums``, each with every sum cut to it.

    Two sites are linked when some term of one of the sums acts on both.
    Only components that hold a term are returned: a site no term touches
    belongs to none.  Each block lists its sites in increasing order, and
    the blocks are ordered by their first site.  A block's parts are the
    sums in order, each holding its terms on the block with their labels
    cut to its sites.  Two terms of one block first differ inside it, so
    the cut labels keep the order of their sum, and the parts are built
    without checking them again; a block over all ``n`` sites gives back
    the sums themselves.

    Examples:
        >>> h = PauliSum(5, {"XIIZI": 1.0, "IYIII": 0.5})
        >>> for sites, parts in partition(h, PauliSum(5, {"IIIZZ": -2.0})):
        ...     print(sites, parts)
        (0, 3, 4) [PauliSum(n=3, +1*XZI), PauliSum(n=3, -2*IZZ)]
        (1,) [PauliSum(n=1, +0.5*Y), PauliSum(n=1, 0)]
    """
    cuts = _components(*sums)
    if len(cuts) == 1 and len(cuts[0]) == sums[0].n:
        return [(cuts[0], list(sums))]
    block_of = {site: b for b, sites in enumerate(cuts) for site in sites}
    terms: list[list[dict[str, float]]] = [[{} for _ in sums] for _ in cuts]
    for j, h in enumerate(sums):
        starts, sites, _ = h._support()
        for (label, coeff), first in zip(h._terms.items(), sites[starts].tolist()):
            b = block_of[first]
            terms[b][j]["".join([label[i] for i in cuts[b]])] = coeff
    return [(sites, [PauliSum._from_valid(len(sites), part) for part in parts])
            for sites, parts in zip(cuts, terms)]


def is_k_local(h: PauliSum, k: int) -> bool:
    """Check that every stored term has weight at most ``k``.

    The empty sum is k-local for every ``k >= 0``.
    """
    if k < 0:
        raise ValueError(f"Locality bound must be nonnegative, got {k}.")
    return h.max_weight() <= k


def parse_hamiltonian(text: str) -> PauliSum:
    """Parse the text Hamiltonian format.

    One term per line: a real coefficient followed by a Pauli label,
    separated by whitespace.  ``#`` starts a comment (full-line or
    trailing); blank lines are ignored.  The first label fixes the system
    size; duplicate labels are summed.

    Raises:
        HamiltonianFormatError: On any malformed line, with the 1-based
            line number in the message, or when the summed coefficients of
            a repeated label overflow, with that label in the message.
    """
    n: int | None = None
    pairs: list[tuple[str, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.partition("#")[0].split()
        if not fields:
            continue
        if len(fields) != 2:
            raise HamiltonianFormatError(
                f"line {lineno}: expected '<coefficient> <label>', got {raw!r}."
            )
        coeff_text, label = fields
        try:
            coeff = float(coeff_text)
        except ValueError:
            raise HamiltonianFormatError(
                f"line {lineno}: malformed coefficient {coeff_text!r}."
            ) from None
        if not math.isfinite(coeff):
            raise HamiltonianFormatError(
                f"line {lineno}: coefficient {coeff_text!r} is not finite."
            )
        try:
            validate_label(label)
        except ValueError as exc:
            raise HamiltonianFormatError(f"line {lineno}: {exc}") from None
        if not label.strip("I"):
            raise HamiltonianFormatError(
                f"line {lineno}: the all-identity term is not allowed "
                "(operators are traceless)."
            )
        if n is None:
            n = len(label)
        elif len(label) != n:
            raise HamiltonianFormatError(
                f"line {lineno}: label {label!r} has length {len(label)}, "
                f"but the first term fixed the system size to {n}."
            )
        pairs.append((label, coeff))
    if n is None:
        raise HamiltonianFormatError(
            "no terms found: the system size cannot be determined."
        )
    try:
        return PauliSum._from_pairs(n, pairs)
    except ValueError as exc:
        # Every line is valid on its own, so only a sum can fail here.
        raise HamiltonianFormatError(str(exc)) from None
