"""The forward-only evolution oracle and its evolution-time ledger.

The access model: the certifier may request forward real-time evolution
``exp(-i t H)`` of the hidden Hamiltonian for ``t >= 0`` only.  There is
no API surface for inverse evolution or controlled evolution of the
hidden Hamiltonian.  Every forward request charges its duration to a
cumulative :class:`EvolutionLedger`, the protocol's resource meter; a
batch of ``N`` identical requests is charged ``N`` times its duration
and counted as ``N`` queries in a single charge.

Evolution under the *known* reference Hamiltonian is compiled classically,
costs nothing, and both time signs are allowed (:func:`evolve_known`).
Both channels evolve through :func:`hamcert.dense.evolve`, which keeps the
eigendecompositions of the two sums it evolved last: in a trotter round,
the hidden Hamiltonian and the reference.

Two oracle modes exist:

* ``TROTTERIZED`` realizes shots of the twirled difference generator
  physically, through interleaved forward queries and compiled reference
  evolutions (see :mod:`hamcert.trotter`).  Feasible only for small twirl
  depth: the sector count doubles per twirl step, and the rounding of the
  product formula grows with it.  Only this mode diagonalizes the hidden
  Hamiltonian, on a forward query, and it is limited to the dense cap.
* ``EXACT_EFFECTIVE`` substitutes the ideal evolution of the twirled
  difference and charges the same time per shot, which is what the
  resource accounting measures.  Used for statistical validation of the
  full protocol at its default constants, whose twirl depth is beyond
  the product formula's reach.

In ``EXACT_EFFECTIVE`` mode the oracle also performs the twirl of
``hidden - reference`` on the certifier's behalf (:meth:`EvolutionOracle.
sample_twirl`), so the certifier never holds the hidden Hamiltonian.  What
crosses back is the twirl transcript and, per shot batch, the Bell
identity probability of the twirled generator
(:meth:`EvolutionOracle.effective_identity_prob`).  In the frame where
every site's axis is Z, each Pauli term maps ``s`` to ``s ^ x`` with a
phase, so the generator splits into ``2^(n-r)`` blocks of size ``2^r``,
one per coset of the rank-``r`` span of the residual's flip masks, with
the effective part's Walsh spectrum on their diagonal.  No dense matrix
is formed: this mode accepts up to :data:`~hamcert.moments.WALSH_QUBIT_CAP`
qubits and refuses only residuals whose blocks exceed ``2^23`` entries.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass

import numpy as np

from .bell import identity_prob_spectral
from .dense import QUBIT_CAP, _signed_permutation, evolve
from .moments import WALSH_QUBIT_CAP, walsh_table, walsh_transform
from .pauli import PauliSum, subtract
from .twirl import DiagonalSubspace, TwirlTranscript, run_twirl

__all__ = [
    "AccessModelError",
    "EvolutionLedger",
    "EvolutionOracle",
    "OracleMode",
    "OracleModeError",
    "evolve_known",
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


def evolve_known(h0: PauliSum, t: float) -> np.ndarray:
    """Compiled evolution ``exp(-i t H0)`` of the known reference.

    Never charges any ledger; both signs of ``t`` are permitted because
    the reference is fully specified classically.  Repeated calls with the
    same ``h0`` diagonalize it once (see :func:`hamcert.dense.evolve`).
    """
    return evolve(h0, t)


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


#: Sign-free cyclic letter maps taking each site's axis to Z.
_TO_Z_FRAME = {"X": str.maketrans("XYZ", "ZXY"), "Y": str.maketrans("XYZ", "YZX")}
_FLIP_BITS = str.maketrans("IXYZ", "0110")


def _z_frame_residual(tr: TwirlTranscript) -> tuple[list[tuple[str, float]], list[int]]:
    """Residual terms rotated so every site's axis is Z, and their flip basis.

    No vector of the GF(2) basis has its top bit set in another.  Raises
    ValueError when the coset blocks would exceed ``2^23`` entries.
    """
    maps = [_TO_Z_FRAME.get(ax, {}) for ax in tr.subspace.axes]
    terms = [("".join(map(str.translate, label, maps)), coeff)
             for label, coeff in tr.residual.items()]
    basis: list[int] = []
    for label, _ in terms:
        x = int(label.translate(_FLIP_BITS), 2)
        for b in basis:
            x = min(x, x ^ b)
        if x:
            basis = [min(b, b ^ x) for b in basis] + [x]
    n, r = tr.subspace.n, len(basis)
    if n + r > 23:  # 2^(n + r) complex entries: 128 MiB at most
        raise ValueError(
            f"The residual at n={n} has flip rank r={r}: its coset blocks "
            f"would hold 2^{n + r} complex entries, above the cap of 2^23."
        )
    return terms, basis


def _block_spectrum(effective: PauliSum, terms: list, basis: list[int]) -> np.ndarray:
    """Spectrum of ``effective + terms``, one block per coset of ``span(basis)``.

    Block row ``b`` holds the states ``rep_b ^ combos[a]``: ``rep_b`` has no
    top basis bit, ``combos[a]`` sums the basis vectors the bits of ``a``
    pick, and a flip ``x = combos[shift]`` takes ``a`` to ``a ^ shift``.
    """
    diagonal = walsh_transform(walsh_table(effective))
    if not basis:
        return diagonal
    pivots = [b.bit_length() - 1 for b in basis]
    states, combos = np.arange(diagonal.size), np.zeros(1, dtype=int)
    for b in basis:
        combos = np.concatenate((combos, combos ^ b))
    grid = states[(states & sum(1 << p for p in pivots)) == 0][:, None] ^ combos
    inner = np.arange(combos.size)
    blocks = np.zeros((grid.shape[0], inner.size, inner.size), dtype=complex)
    blocks[:, inner, inner] = diagonal[grid]
    for label, coeff in terms:
        flip, phase = _signed_permutation(label)
        shift = sum((flip >> p & 1) << i for i, p in enumerate(pivots))
        blocks[:, inner ^ shift, inner] += coeff * phase[grid]
    return np.linalg.eigvalsh(blocks).ravel()


class EvolutionOracle:
    """Black-box forward evolution of a hidden Hamiltonian.

    The hidden Hamiltonian is injected once at construction and is not
    reachable through the public surface except via the forward queries
    and, in ``EXACT_EFFECTIVE`` mode, the effective-shot channels.

    Args:
        hidden: The unknown Hamiltonian being certified.
        mode: Fixed per run; see module docstring.
    """

    def __init__(self, hidden: PauliSum, mode: OracleMode) -> None:
        limit = WALSH_QUBIT_CAP if mode is OracleMode.EXACT_EFFECTIVE else QUBIT_CAP
        if hidden.n > limit:
            raise ValueError(
                f"Hidden system size n={hidden.n} exceeds the {mode.value}-mode "
                f"cap of {limit}."
            )
        self._hidden = hidden
        self._last_query: tuple[float, np.ndarray] | None = None
        # hidden - h0 of the most recent reference: a certify run twirls
        # the same difference every round.
        self._difference: tuple[PauliSum, PauliSum] | None = None
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
            ValueError: If ``count < 1``.  All checks run before any
                charge, so a rejected request leaves the ledger unchanged.
        """
        t, count = _forward_request(t, count)
        self.ledger.charge(count * t, queries=count)
        if self._last_query is None or self._last_query[0] != t:
            u = evolve(self._hidden, t)
            u.setflags(write=False)
            self._last_query = (t, u)
        return self._last_query[1]

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
        if h_t.n > QUBIT_CAP:
            raise ValueError(f"n={h_t.n} exceeds the dense cap of {QUBIT_CAP} qubits.")
        t = self._charge_shots(h_t.n, t, shots)
        return evolve(h_t, t)

    def effective_identity_prob(
        self, transcript: TwirlTranscript, t: float, shots: int = 1
    ) -> float:
        """Bell identity probability ``|Tr exp(-i t H_T)|^2 / 4^n`` of a shot batch.

        Makes the same checks and the same single ``shots * t`` charge as
        :meth:`effective_shot`, then takes the spectrum of ``H_T`` from its
        coset blocks (see the module docstring): with no residual, the
        Walsh transform of the effective part in ``O(n 2^n)``.  When the
        effective part is empty too (``H = H0``), that spectrum is all
        zeros and the probability is exactly ``1.0``, returned without
        building it.

        Raises:
            OracleModeError: Outside ``EXACT_EFFECTIVE`` mode.
            AccessModelError: Unless ``0 <= t < inf``.
            ValueError: If the residual's coset blocks would hold more
                than ``2^23`` entries; checked before anything is charged.
        """
        terms, basis = _z_frame_residual(transcript) if transcript.residual else ([], [])
        t = self._charge_shots(transcript.subspace.n, t, shots)
        if not transcript.effective and not terms:
            # 2^n ones sum to 2^n exactly, so the Walsh route gives N^2 / N^2.
            return 1.0
        spectrum = _block_spectrum(transcript.effective, terms, basis)
        return identity_prob_spectral(spectrum, t)

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
        charges nothing.
        """
        if h0.n != self.n_qubits:
            raise ValueError(
                f"Reference size {h0.n} does not match the oracle's {self.n_qubits}."
            )
        cached = self._difference
        if cached is None or (cached[0] is not h0 and cached[0] != h0):
            self._difference = (h0, subtract(self._hidden, h0))
        return run_twirl(self._difference[1], subspace, steps, rng)
