"""The forward-only evolution oracle and its evolution-time ledger.

The access model: the certifier may request forward real-time evolution
``exp(-i t H)`` of the hidden Hamiltonian for ``t >= 0`` only.  There is
no API surface for inverse evolution or controlled evolution of the
hidden Hamiltonian.  Every forward request charges its duration to a
cumulative :class:`EvolutionLedger`, the protocol's resource meter; a
batch of ``N`` identical requests is charged ``N`` times its duration
and counted as ``N`` queries in a single charge.

Evolution under the *known* reference Hamiltonian is compiled classically,
costs nothing, and both time signs are allowed.  Both evolve through
eigendecompositions; a trotter oracle keeps those of its blocks for the
most recent reference.

Two oracle modes exist:

* ``TROTTERIZED`` realizes shots of the twirled difference generator
  physically, through interleaved forward queries and compiled reference
  evolutions (see :mod:`hamcert.trotter`), at any twirl depth: the
  block factors come as their differences from the identity, which keep
  the short half-steps of a deep twirl to relative rounding.  Only this
  mode diagonalizes the hidden Hamiltonian, on a forward query.
* ``EXACT_EFFECTIVE`` substitutes the ideal evolution of the twirled
  difference and charges the same time per shot, which is what the
  resource accounting measures.  It forms no product formula, and no
  block of it is held to the dense cap.

Both modes factor a round over the *blocks* of its support graph (see
:func:`hamcert.pauli.partition`): when no term links two sets of sites,
the round's unitary is a tensor product ``U = (x)_J U_J``, and
``|Tr U|^2 / N^2`` is the product of the blocks' ``|Tr U_J|^2 / N_J^2``.
Sites no term touches contribute a factor of 1.  The size limits apply
per block, not to ``n``.

In ``TROTTERIZED`` mode the blocks are those of the hidden Hamiltonian
and the reference together (:meth:`EvolutionOracle.query_forward_blocks`).
A block factor of ``exp(-i t H)`` is the evolution under the terms on
the block's sites, and the dense matrix is their Kronecker product, so
the factors reveal nothing that the dense forward query does not.  Blocks of
one size form a group, whose forward and compiled factors are computed
and returned as one ``(2, B, d, d)`` stack, so a round costs a few numpy
calls per block size, not per block.  Each block is at most
:data:`~hamcert.dense.QUBIT_CAP` sites; the construction of an oracle
above that size refuses a hidden block beyond it.

In ``EXACT_EFFECTIVE`` mode the oracle also performs the twirl of
``hidden - reference`` by the certifier's draws (:meth:`EvolutionOracle.
sample_twirl` draws them itself), so the certifier never holds the hidden
Hamiltonian.  What crosses back is the twirl transcript and, per shot
batch, the Bell identity probability of the twirled generator
(:meth:`EvolutionOracle.effective_identity_prob`), taken per block of the
twirled generator's support graph.  In the frame where every site's axis
is Z, each Pauli term maps ``s`` to ``s ^ x`` with a phase, so a block of
``n_J`` sites splits into ``2^(n_J-r)`` coset blocks of size ``2^r``, one
per coset of the rank-``r`` span of the residual's flip masks, with the
effective part's Walsh spectrum on their diagonal.  No dense matrix is
formed, and no system size is refused: only a block whose coset blocks
would exceed ``2^23`` entries is.  The blocks come from the sites and
letters the twirled parts keep, so no round forms a label, and the blocks of
one size share one Walsh transform and one spectral call.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass

import numpy as np

from .bell import identity_probs_spectral
from .dense import (_CHUNK_ENTRIES, QUBIT_CAP, _check_cap, _letter_phases, eig_decompose,
                    evolve, to_dense_stack)
from .moments import walsh_transform
from .pauli import PauliSum, _components, partition, subtract
from .twirl import _X, DiagonalSubspace, TwirlTranscript, _check_sizes, _draw, _split

__all__ = [
    "AccessModelError",
    "EvolutionLedger",
    "EvolutionOracle",
    "OracleMode",
    "OracleModeError",
]


class AccessModelError(RuntimeError):
    """A request violated the forward-only access contract."""


class OracleModeError(RuntimeError):
    """An operation was invoked under the wrong oracle mode."""


class OracleMode(enum.Enum):
    EXACT_EFFECTIVE = "exact"
    TROTTERIZED = "trotter"


@dataclass
class EvolutionLedger:
    """Cumulative forward evolution time and query count.

    ``total_time`` is the sum of all charged durations and is monotone
    nondecreasing.
    """

    total_time: float = 0.0
    query_count: int = 0

    def charge(self, duration: float, queries: int = 1) -> None:
        if not duration >= 0:
            raise AccessModelError(f"Cannot charge a duration that is not >= 0: {duration}.")
        queries = operator.index(queries)
        if queries < 0:
            raise ValueError(f"Query count increment must be nonnegative: {queries}.")
        self.total_time += duration
        self.query_count += queries


def _forward_request(t: float, count: int) -> tuple[float, int]:
    """Checked ``(t, count)`` of ``count`` forward runs of duration ``t``.

    Raises AccessModelError unless ``0 <= t < inf``, TypeError for a count
    that is not an integer, and ValueError for ``count < 1``.
    """
    t = float(t)
    count = operator.index(count)
    if not 0 <= t < math.inf:
        raise AccessModelError(
            f"Forward-only access: requested t={t} is not a finite duration >= 0."
        )
    if count < 1:
        raise ValueError(f"Query count must be positive, got {count}.")
    return t, count


def _twirled_groups(tr: TwirlTranscript) -> tuple[list[list], list[tuple[int, int]]]:
    """The twirled generator's blocks by size, and each block's size and row in site order.

    A group is ``[n_J, blocks, indices, coeffs, residuals]``: each effective
    term's index ``row * 2^n_J + mask`` into the stacked Walsh tables (a
    site's bit is ``n_J - 1 - i`` at the block's ``i``-th site) and its
    coefficient, then per block with a residual its row and the rest of the
    arguments of :func:`_block_spectrum`.  Raises ValueError for the first
    block whose coset blocks exceed ``2^23`` entries; flip ranks are exact.
    """
    cuts = _components(tr.effective, tr.residual)
    place = {site: (b, len(block) - 1 - i)
             for b, block in enumerate(cuts) for i, site in enumerate(block)}
    # Residual letters in the frame where each axis is Z, 0, 1, 2 for X, Y, Z: X, Y flip.
    residuals: dict[int, list[tuple[bytearray, float, int]]] = {}
    starts, sites, letters = (part.tolist() for part in tr.residual._support())
    bounds = [*starts, len(sites)]
    for coeff, start, end in zip(tr.residual._terms.values(), bounds, bounds[1:]):
        b = place[sites[start]][0]
        codes, flip = bytearray(b"I" * len(cuts[b])), 0
        for site, letter in zip(sites[start:end], letters[start:end]):
            z, bit = (letter - ord(tr.subspace.axes[site]) + 2) % 3, place[site][1]
            codes[-1 - bit], flip = _X + z, flip | (z < 2) << bit
        residuals.setdefault(b, []).append((codes, coeff, flip))
    groups: dict[int, list] = {}
    order = []
    for b, block in enumerate(cuts):
        terms = residuals.get(b, [])
        basis: list[int] = []
        for _, _, x in terms:
            for v in basis:
                x = min(x, x ^ v)
            if x:
                basis = [min(v, v ^ x) for v in basis] + [x]
        n, r = len(block), len(basis)
        if n + r > 23:  # 2^(n + r) complex entries: 128 MiB at most
            raise ValueError(
                f"A block of the twirled generator at n={n} has flip rank r={r}: "
                f"its coset blocks would hold 2^{n + r} complex entries, above "
                "the cap of 2^23."
            )
        group = groups.setdefault(n, [n, 0, [], [], []])
        if terms:
            codes, coeffs, _ = zip(*terms)
            frame = np.frombuffer(b"".join(codes), dtype=np.uint8).reshape(-1, n)
            group[4].append((group[1], frame, coeffs, basis))
        order.append((n, group[1]))
        group[1] += 1
    starts, sites, _ = (part.tolist() for part in tr.effective._support())
    bounds = [*starts, len(sites)]
    for coeff, start, end in zip(tr.effective._terms.values(), bounds, bounds[1:]):
        n, row = order[place[sites[start]][0]]
        groups[n][2].append(row << n | sum(1 << place[s][1] for s in sites[start:end]))
        groups[n][3].append(coeff)
    return list(groups.values()), order


def _block_spectrum(diagonal: np.ndarray, letters: np.ndarray, coeffs: tuple[float, ...],
                    basis: list[int]) -> np.ndarray:
    """Spectrum of Walsh spectrum ``diagonal`` plus the Z-frame ASCII ``letters``
    (a row per term) with ``coeffs``, one block per coset of ``span(basis)``.

    Block row ``b`` holds the states ``rep_b ^ combos[a]``: ``rep_b`` has no
    top basis bit, ``combos[a]`` sums the basis vectors the bits of ``a``
    pick, and a flip ``x = combos[shift]`` takes ``a`` to ``a ^ shift``.
    """
    pivots = [b.bit_length() - 1 for b in basis]
    states, combos = np.arange(diagonal.size), np.zeros(1, dtype=int)
    for b in basis:
        combos = np.concatenate((combos, combos ^ b))
    grid = states[(states & sum(1 << p for p in pivots)) == 0][:, None] ^ combos
    inner = np.arange(combos.size)
    blocks = np.zeros((grid.shape[0], inner.size, inner.size), dtype=complex)
    blocks[:, inner, inner] = diagonal[grid]
    # Each term holds 2^n_J phases: as many terms per encoding as fit in
    # _CHUNK_ENTRIES, at least one.
    span = max(1, _CHUNK_ENTRIES // diagonal.size)
    for start in range(0, len(coeffs), span):
        flips, phases = _letter_phases(letters[start : start + span])
        for coeff, flip, phase in zip(coeffs[start : start + span], flips.tolist(), phases):
            shift = sum((flip >> p & 1) << i for i, p in enumerate(pivots))
            blocks[:, inner ^ shift, inner] += coeff * phase[grid]
    return np.linalg.eigvalsh(blocks).ravel()


def _deviation(w: np.ndarray, v: np.ndarray, vh: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``exp(-i t H) - I`` from the eigendecomposition ``(w, v)`` of ``H``
    and ``vh = v^H``, stacked as :func:`hamcert.dense.propagator`; ``t``
    broadcasts against ``w``, so one call takes each stacked sum at its own time.

    Each phase is ``np.expm1(-i theta) = -2 sin^2(theta/2) - i sin theta``,
    so a factor with ``|theta|`` far below 1 keeps ``theta`` to relative
    rounding, where ``exp(-i t H)`` itself would keep it only to about
    ``ulp / |theta|``.
    """
    phases = np.expm1(-1j * (w * t))
    return (v * phases[..., None, :]) @ vh


def _capped_blocks(subject: str, *sums: PauliSum) -> list[tuple[tuple, list[PauliSum]]]:
    """:func:`~hamcert.pauli.partition` of ``sums``; ValueError, opening
    with ``subject``, for a block above the trotter-mode cap."""
    blocks = partition(*sums)
    largest = max((len(sites) for sites, _ in blocks), default=0)
    if largest > QUBIT_CAP:
        raise ValueError(
            f"{subject} {largest} sites, above the trotter-mode cap of "
            f"{QUBIT_CAP} per block."
        )
    return blocks


def _same_reference(cached: tuple | None, h0: PauliSum) -> bool:
    return cached is not None and (cached[0] is h0 or cached[0] == h0)


class EvolutionOracle:
    """Black-box forward evolution of a hidden Hamiltonian.

    The hidden Hamiltonian is injected once at construction and is not
    reachable through the public surface except via the forward queries
    and, in ``EXACT_EFFECTIVE`` mode, the effective-shot channels.

    Args:
        hidden: The unknown Hamiltonian being certified.
        mode: Fixed per run; see module docstring.

    Raises:
        ValueError: In ``TROTTERIZED`` mode, if a block of the hidden
            Hamiltonian's support graph exceeds the dense cap.
    """

    def __init__(self, hidden: PauliSum, mode: OracleMode) -> None:
        if mode is OracleMode.TROTTERIZED and hidden.n > QUBIT_CAP:
            _capped_blocks("The hidden Hamiltonian links", hidden)
        self._hidden = hidden
        self._last_query: tuple[float, np.ndarray] | None = None
        # hidden - h0 of the most recent reference: a certify run twirls
        # the same difference every round.
        self._difference: tuple[PauliSum, PauliSum] | None = None
        # The blocks of hidden + h0 for the most recent reference, grouped
        # by size, with the eigendecompositions of both sums cut to them.
        self._groups: tuple[PauliSum, list] | None = None
        self.mode = mode
        self.ledger = EvolutionLedger()

    @property
    def n_qubits(self) -> int:
        return self._hidden.n

    def query_forward(self, t: float, count: int = 1) -> np.ndarray:
        """Forward query ``exp(-i t H)`` of the hidden Hamiltonian.

        Stands for ``count`` identical queries of duration ``t``: charges
        ``count * t`` and ``count`` queries to the ledger in one charge,
        so the total stays exact however many queries a batch holds.  The
        propagator of the most recent duration is kept, so a caller that
        repeats ``t`` gets the same matrix back; it must be treated as
        read-only.

        Raises:
            AccessModelError: Unless ``0 <= t < inf`` (inverse evolution is
                not part of the access model).
            TypeError: If ``count`` is not an integer.
            ValueError: If ``count < 1``, or if the system exceeds the
                dense cap.  All checks run before any charge, so a rejected
                request leaves the ledger unchanged.
        """
        _check_cap(self.n_qubits)
        t, count = _forward_request(t, count)
        self.ledger.charge(count * t, queries=count)
        if self._last_query is None or self._last_query[0] != t:
            u = evolve(self._hidden, t)
            u.setflags(write=False)
            self._last_query = (t, u)
        return self._last_query[1]

    def query_forward_blocks(
        self, h0: PauliSum, t: float, count: int = 1
    ) -> list[tuple[tuple, np.ndarray, np.ndarray]]:
        """Forward query ``exp(-i t H)``, one factor per block of ``H`` and ``h0``.

        The blocks are those of the support graph of the hidden Hamiltonian
        and the reference together, so ``exp(-i t H)`` is the Kronecker
        product of the returned forward factors, each plus the identity,
        and the identity on the sites no term touches; the factors reveal
        nothing that the dense matrix does not.  Each block also carries
        the reference's compiled evolution ``exp(+i t H0)`` on it, which is
        free.  Makes the same single charge as :meth:`query_forward`:
        ``count * t`` and ``count`` queries (a product-formula round charges
        its shots' exact time, through :meth:`_forward_blocks`).

        Returns ``(sites, index, factors)`` per group of equal-size blocks:
        ``sites`` lists each block's sites, ``index`` holds them as a ``(B,
        k)`` ``np.intp`` array, and ``factors`` is the ``(2, B, d, d)``
        stack of ``exp(-i t H) - I`` and ``exp(+i t H0) - I`` on them,
        block ``b`` at ``factors[:, b]``.  Groups come in the order their
        size first occurs and blocks in site order within a group; this
        group order is the one every later step of a round keeps.  Each
        group's forward and compiled factors come from one stacked product,
        taken as :func:`hamcert.dense.propagator` takes it, at times ``(t,
        -t)``.  The groups, and the eigendecompositions of both sums cut to
        each block, are kept for the most recent reference; each group's
        come from one :func:`hamcert.dense.to_dense_stack` and one
        eigendecomposition of its ``2B`` sums, a block over every site
        included.

        Raises:
            AccessModelError, TypeError: As :meth:`query_forward`.
            ValueError: If ``count < 1``, if ``h0`` has another size, or if
                a block exceeds the dense cap.  All checks run before any
                charge.
        """
        return self._forward_blocks(h0, t, count)

    def _forward_blocks(self, h0: PauliSum, t: float, count: int,
                        total: float | None = None) -> list[tuple]:
        """:meth:`query_forward_blocks`, charging ``total``, when given, for the
        ``count`` queries: their exact sum, which ``count * t`` rounds."""
        self._check_reference(h0)
        t, count = _forward_request(t, count)
        if not _same_reference(self._groups, h0):
            self._groups = (h0, self._group_spectra(h0))
        self.ledger.charge(count * t if total is None else total, queries=count)
        times = np.array([t, -t])[:, None, None]
        return [(sites, index, _deviation(w, v, vh, times))
                for sites, index, w, v, vh in self._groups[1]]

    def _group_spectra(self, h0: PauliSum) -> list[tuple]:
        """Per group of equal-size blocks of ``hidden + h0``: the blocks' sites, as
        tuples and as an ``np.intp`` array, and the ``(w, v, v^H)`` of the hidden
        sum cut to each block, then of ``h0``, stacked ``(2, B, ...)``."""
        groups: dict[int, list[tuple[tuple, list[PauliSum]]]] = {}
        subject = "The hidden Hamiltonian and the reference link"
        for sites, parts in _capped_blocks(subject, self._hidden, h0):
            groups.setdefault(len(sites), []).append((sites, parts))

        def stacked(group: list[tuple[tuple, list[PauliSum]]]) -> tuple:
            sites, parts = zip(*group)
            hidden, reference = zip(*parts)
            m = to_dense_stack(hidden + reference)
            w, v = eig_decompose(m.reshape(2, len(group), *m.shape[1:]))
            return sites, np.array(sites, dtype=np.intp), w, v, v.conj().swapaxes(-1, -2)

        return [stacked(group) for group in groups.values()]

    def _check_reference(self, h0: PauliSum) -> None:
        if h0.n != self.n_qubits:
            raise ValueError(
                f"Reference size {h0.n} does not match the oracle's {self.n_qubits}."
            )

    def _charge_shots(self, n: int, t: float, shots: int) -> float:
        # The checks shared by both effective-shot channels, then their one
        # charge: ``shots`` runs of duration ``t``.
        if self.mode is not OracleMode.EXACT_EFFECTIVE:
            raise OracleModeError(
                "Effective shots are only available in EXACT_EFFECTIVE mode."
            )
        t, shots = _forward_request(t, shots)
        if n != self.n_qubits:
            raise ValueError(
                f"Generator size {n} does not match the oracle's {self.n_qubits}."
            )
        self.ledger.charge(shots * t, queries=shots)
        return t

    def effective_shot(
        self, h_t: PauliSum, t: float, shots: int = 1
    ) -> np.ndarray:
        """Ideal evolution of a twirled difference generator, fully charged.

        Returns ``exp(-i t H_T)`` computed exactly in the dense backend
        and charges ``shots * t`` to the ledger (one duration-``t`` charge
        per shot; the shots reuse a single computed unitary, which is
        statistically identical and exponentially cheaper).  It is the dense
        reference that :meth:`effective_identity_prob` is checked against.

        Raises:
            OracleModeError: Outside ``EXACT_EFFECTIVE`` mode.
            AccessModelError: Unless ``0 <= t < inf``.
            ValueError: If the generator exceeds the dense cap; checked,
                like every other error, before anything is charged.
        """
        _check_cap(h_t.n)
        t = self._charge_shots(h_t.n, t, shots)
        return evolve(h_t, t)

    def effective_identity_prob(
        self, transcript: TwirlTranscript, t: float, shots: int = 1
    ) -> float:
        """Bell identity probability ``|Tr exp(-i t H_T)|^2 / 4^n`` of a shot batch.

        Makes the same checks and the same single ``shots * t`` charge as
        :meth:`effective_shot`.  The probability is the product over the
        blocks of ``H_T``'s support graph, by first site, of each block's
        probability, whose spectrum comes from its coset blocks (see the
        module docstring): with no residual, the Walsh transform of the
        block's effective part, one stacked transform and spectral call per
        block size.  When ``H_T`` is empty (``H = H0``), there is no block
        and the probability is exactly ``1.0``.

        Raises:
            OracleModeError: Outside ``EXACT_EFFECTIVE`` mode.
            AccessModelError: Unless ``0 <= t < inf``.
            ValueError: If a block's coset blocks would hold more than
                ``2^23`` entries; checked before anything is charged.
        """
        # H = H0 leaves no term and so no block: the empty product is 1.0.
        empty = not transcript.effective and not transcript.residual
        groups, order = ([], []) if empty else _twirled_groups(transcript)
        t = self._charge_shots(transcript.subspace.n, t, shots)
        if empty:
            return 1.0
        probs = {}
        for size, count, index, coeffs, residuals in groups:
            tables = np.zeros((count, 1 << size))
            tables.put(index, coeffs)
            spectra = walsh_transform(tables)
            for row, *block in residuals:
                spectra[row] = _block_spectrum(spectra[row], *block)
            probs[size] = identity_probs_spectral(spectra, [t] * count).tolist()
        return math.prod((probs[size][row] for size, row in order), start=1.0)

    def sample_twirl(
        self,
        h0: PauliSum,
        subspace: DiagonalSubspace,
        steps: int,
        rng: np.random.Generator,
    ) -> TwirlTranscript:
        """Twirl ``hidden - h0`` with freshly drawn subspace Paulis.

        Classical bookkeeping done on the certifier's behalf so the
        difference Hamiltonian never crosses the boundary untwirled;
        charges nothing.  Every check runs before the draws.
        """
        self._check_reference(h0)
        _check_sizes(h0, subspace)
        return self._twirl_drawn(h0, subspace, *_draw(subspace, steps, rng))

    def _twirl_drawn(self, h0: PauliSum, subspace: DiagonalSubspace, bits: np.ndarray,
                     row: bytes) -> TwirlTranscript:
        """``hidden - h0``, kept per reference, twirled by the member draws
        ``bits`` of ``subspace`` whose draw row is ``row``, as a round draws them."""
        self._check_reference(h0)
        if not _same_reference(self._difference, h0):
            self._difference = (h0, subtract(self._hidden, h0))
        parts = _split(self._difference[1], subspace, bits)
        return TwirlTranscript._trusted(subspace, *parts, _row=row)
