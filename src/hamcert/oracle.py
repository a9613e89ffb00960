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

Two oracle modes exist:

* ``TROTTERIZED`` realizes shots of the twirled difference generator
  physically, through interleaved forward queries and compiled reference
  evolutions (see :mod:`hamcert.trotter`).  Feasible only for small twirl
  depth because the sector count doubles per twirl step.  Only this mode
  diagonalizes the hidden Hamiltonian, on its first forward query, and it
  is limited to the dense cap.
* ``EXACT_EFFECTIVE`` substitutes the ideal evolution of the twirled
  difference and charges the same time per shot, which is what the
  resource accounting measures.  Used for statistical validation of the
  full protocol at its default constants, where the twirl depth makes the
  unrolled form intractable.

In ``EXACT_EFFECTIVE`` mode the oracle also performs the twirl of
``hidden - reference`` on the certifier's behalf (:meth:`EvolutionOracle.
sample_twirl`), so the certifier never holds the hidden Hamiltonian.  What
crosses back is the twirl transcript and, per shot batch, the Bell
identity probability of the twirled generator
(:meth:`EvolutionOracle.effective_identity_prob`).  When no off-subspace
term survived the twirl, the generator is diagonal in the sampled frame
and that probability comes from the Walsh spectrum of its coefficient
table without any dense matrix, so this mode accepts systems up to
:data:`~hamcert.moments.WALSH_QUBIT_CAP` qubits.  Otherwise it comes from
the dense unitary (:meth:`EvolutionOracle.effective_shot`), within the
dense cap.
"""

from __future__ import annotations

import enum
import functools
import operator
from dataclasses import dataclass

import numpy as np

from .bell import identity_prob_spectral, identity_prob_trace
from .dense import QUBIT_CAP, eig_decompose, evolve, propagator, to_dense
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
        if duration < 0:
            raise AccessModelError(f"Cannot charge a negative duration: {duration}.")
        if queries < 0:
            raise ValueError(f"Query count increment must be nonnegative: {queries}.")
        self.total_time += duration
        self.query_count += queries


@functools.lru_cache(maxsize=1)
def _reference_eig(h0: PauliSum, cap: int) -> tuple[np.ndarray, np.ndarray]:
    # One entry: a certify run evolves under the same reference every
    # round.  PauliSum is immutable, so the key cannot go stale.
    w, v = eig_decompose(to_dense(h0, cap))
    w.setflags(write=False)
    v.setflags(write=False)
    return w, v


def evolve_known(h0: PauliSum, t: float, cap: int = QUBIT_CAP) -> np.ndarray:
    """Compiled evolution ``exp(-i t H0)`` of the known reference.

    Never charges any ledger; both signs of ``t`` are permitted because
    the reference is fully specified classically.  The eigendecomposition
    of the most recent reference is kept, so repeated calls with the same
    ``h0`` diagonalize it once.
    """
    return propagator(*_reference_eig(h0, cap), float(t))


class EvolutionOracle:
    """Black-box forward evolution of a hidden Hamiltonian.

    The hidden Hamiltonian is injected once at construction and is not
    reachable through the public surface except via the forward queries
    and, in ``EXACT_EFFECTIVE`` mode, the effective-shot channels.

    Args:
        hidden: The unknown Hamiltonian being certified.
        mode: Fixed per run; see module docstring.
        cap: Dense-backend size limit.  It bounds the system size in
            ``TROTTERIZED`` mode; ``EXACT_EFFECTIVE`` mode accepts up to
            :data:`~hamcert.moments.WALSH_QUBIT_CAP` qubits and needs the
            dense backend only for a twirl that leaves a residual.
    """

    def __init__(
        self, hidden: PauliSum, mode: OracleMode, cap: int = QUBIT_CAP
    ) -> None:
        limit = WALSH_QUBIT_CAP if mode is OracleMode.EXACT_EFFECTIVE else cap
        if hidden.n > limit:
            raise ValueError(
                f"Hidden system size n={hidden.n} exceeds the {mode.value}-mode "
                f"cap of {limit}."
            )
        self._hidden = hidden
        # Only forward queries need the spectrum of the hidden Hamiltonian,
        # so it is computed on the first one.
        self._eig: tuple[np.ndarray, np.ndarray] | None = None
        self._last_query: tuple[float, np.ndarray] | None = None
        # hidden - h0 of the most recent reference: a certify run twirls
        # the same difference every round.
        self._difference: tuple[PauliSum, PauliSum] | None = None
        self._cap = cap
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
            AccessModelError: If ``t < 0`` (inverse evolution is not part
                of the access model).
            ValueError: If ``count < 1``.  Both checks run before any
                charge, so a rejected request leaves the ledger unchanged.
        """
        t = float(t)
        count = operator.index(count)
        if t < 0:
            raise AccessModelError(
                f"Forward-only access: requested t={t} < 0 is rejected."
            )
        if count < 1:
            raise ValueError(f"Query count must be positive, got {count}.")
        self.ledger.charge(count * t, queries=count)
        if self._last_query is None or self._last_query[0] != t:
            if self._eig is None:
                self._eig = eig_decompose(to_dense(self._hidden, self._cap))
            u = propagator(*self._eig, t)
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
        t = float(t)
        if t < 0:
            raise AccessModelError(
                f"Forward-only access: requested t={t} < 0 is rejected."
            )
        if shots < 1:
            raise ValueError(f"Shot count must be positive, got {shots}.")
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
        statistically identical and exponentially cheaper).

        Raises:
            OracleModeError: Outside ``EXACT_EFFECTIVE`` mode.
            AccessModelError: If ``t < 0``.
            ValueError: If the generator exceeds the dense cap; checked,
                like every other error, before anything is charged.
        """
        if h_t.n > self._cap:
            raise ValueError(
                f"The dense route of exact mode is limited to {self._cap} "
                f"qubits, got n={h_t.n}; beyond it only twirls that leave "
                "no residual (diagonal in the sampled frame) are supported."
            )
        t = self._charge_shots(h_t.n, t, shots)
        return evolve(h_t, t, self._cap)

    def effective_identity_prob(
        self, transcript: TwirlTranscript, t: float, shots: int = 1
    ) -> float:
        """Bell identity probability ``|Tr exp(-i t H_T)|^2 / 4^n`` of a shot batch.

        Makes the same checks and the same single ``shots * t`` charge as
        :meth:`effective_shot`.  When the twirl left no residual, ``H_T``
        is the effective part, diagonal in the transcript's frame, and the
        probability comes from the Walsh spectrum of its coefficient table
        in ``O(n 2^n)`` with no dense matrix.  When the effective part is
        empty too (``H = H0``), that spectrum is all zeros and the
        probability is exactly ``1.0``, returned without the transform.
        Otherwise it is ``identity_prob_trace(effective_shot(...))``, the
        dense route.

        Raises:
            OracleModeError: Outside ``EXACT_EFFECTIVE`` mode.
            AccessModelError: If ``t < 0``.
            ValueError: If a residual survived and ``n`` exceeds the dense
                cap.
        """
        if transcript.residual:
            return identity_prob_trace(
                self.effective_shot(transcript.twirled, t, shots=shots)
            )
        t = self._charge_shots(transcript.subspace.n, t, shots)
        if not transcript.effective:
            # 2^n ones sum to 2^n exactly, so the Walsh route gives N^2 / N^2.
            return 1.0
        spectrum = walsh_transform(walsh_table(transcript.effective))
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
        if self._difference is None or self._difference[0] != h0:
            self._difference = (h0, subtract(self._hidden, h0))
        return run_twirl(self._difference[1], subspace, steps, rng)
