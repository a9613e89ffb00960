"""Second-order product-formula implementation of the twirled evolution.

The twirl of the difference generator is ``T`` nested two-term averages:
with draws ``P_1 .. P_T`` from an abelian subspace, each draw maps
``X -> (X + P X P) / 2``, so the twirled generator equals
``2^-T * sum_b Q_b (H - H0) Q_b`` where ``Q_b`` runs over products of all
``2^T`` subsets of the draws.  Each sector splits into a forward piece
(realized by a forward query to the hidden Hamiltonian, conjugated by the
Pauli ``Q_b``) and a compiled piece (reference evolution with reversed
sign, free of charge).

One symmetric (Strang) step of length ``tau`` applies every sector's
forward and compiled half-factors in subset-mask order, then the same
factors in exactly reversed order.  Each forward half-factor lasts
``tau * 2^-T / 2``, so a full shot of duration ``t`` charges exactly
``t`` of forward evolution time regardless of the step count, and the
operator-norm error decays as ``O(t^3 / steps^2)``.

A half-factor differs from the identity by about ``|H| tau 2^-T / 2``:
at the default twirl depths and the step cap, up to ``3e-9 |H|`` for
k=1 (T=17) and ``4e-14 |H|`` for k=2 (T=34) at epsilon=0.2.  A stored
unitary keeps that difference only to a relative accuracy of about
``ulp`` divided by it.
So every product that forms the step operator is carried as its
difference from the identity, ``(I + A)(I + B) - I = A + B + AB``, and
the identity is added once, to the step operator, before the repeated
squaring.  The rounding then stays relative to the factors at any twirl
depth.

The draws are tensor products of single-site Paulis, so the step
operator factors over the blocks of the support graph of the hidden
Hamiltonian and the reference (see :func:`hamcert.pauli.partition`):
:func:`trotter_blocks` runs the product formula on each block's sites
alone, with the draws cut to them.  It checks draws given as labels; a
certify round hands the same core the ``(T, n)`` letter codes of its
draw row (:func:`hamcert.twirl._draw`), which each group cuts with its
cached site index array.  Blocks of one size are stacked, and each
group's forward and compiled factors come as one ``(2, B, d, d)`` stack,
which stays one stack through the Strang step: per draw, one gather and
one phase product conjugate both halves and one matrix product doubles
them.  The doubling and the squaring thus run once per block size, each
block's result bit-identical to a run on that block alone.  A block
holds at most :data:`~hamcert.dense.QUBIT_CAP` sites, whatever the
system size; :func:`trotter_evolve` assembles the dense unitary and so
keeps that cap on ``n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dense import _CHUNK_ENTRIES, _check_cap, _letter_phases, evolve, operator_norm
from .oracle import EvolutionOracle, OracleMode, OracleModeError
from .pauli import PAULI_LETTERS, PauliSum, _codes, validate_label
from .twirl import DiagonalSubspace, _member_bits

__all__ = [
    "TROTTER_STEP_CAP",
    "TrotterError",
    "TrotterPlan",
    "steps_from_bound",
    "trotter_blocks",
    "trotter_error",
    "trotter_evolve",
    "twirl_conjugators",
]

#: Hard ceiling on product-formula steps per shot.
TROTTER_STEP_CAP = 2**16


def twirl_conjugators(
    subspace: DiagonalSubspace, paulis: tuple[str, ...]
) -> tuple[str, ...]:
    """Check the twirl draws of one product formula and return them.

    Their ``2^T`` subset products are the sector conjugators, whose
    coefficient-space average equals the twirl filter exactly.  Within one
    subspace the draws commute and every product is phase-free, which
    :func:`trotter_blocks` relies on.  The check is the one that
    :func:`hamcert.twirl.apply_twirl` makes of its draws.

    Raises:
        ValueError: If a draw does not act on the subspace's qubits or
            lies outside the subspace.
    """
    _member_bits(subspace, paulis)
    return paulis


@dataclass(frozen=True)
class TrotterPlan:
    """A compiled product-formula schedule for one shot.

    ``draws`` are the twirl Paulis, whose subset products are the uniformly
    weighted sectors; ``steps`` is the number of symmetric steps and
    ``total_time`` the shot duration.
    """

    draws: tuple[str, ...]
    steps: int
    total_time: float

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError(f"Step count must be positive, got {self.steps}.")
        if not self.total_time >= 0:
            raise ValueError(f"Shot duration must be nonnegative: {self.total_time}.")

    @property
    def sector_weight(self) -> float:
        return 2.0 ** -len(self.draws)


def steps_from_bound(num_draws: int, t: float, eps_trott: float) -> int:
    """Step count ``ceil(2^T sqrt(t^3 / eps))``, clamped to the cap.

    The error constant of the bound is not pinned down; the tests check
    the count against the budget ``1/(128 * 9^k)`` at the default
    constants for k=1 and k=2.  A guess too large for a float, as from a
    tiny ``eps_trott`` or a huge ``t``, saturates at
    :data:`TROTTER_STEP_CAP` like any other guess above it.
    """
    if eps_trott <= 0:
        raise ValueError(f"Error target must be positive, got {eps_trott}.")
    if not t >= 0:
        raise ValueError(f"Duration must be nonnegative, got {t}.")
    try:
        guess = 2**num_draws * math.sqrt(t**3 / eps_trott)
    except OverflowError:
        return TROTTER_STEP_CAP
    if guess >= TROTTER_STEP_CAP:
        return TROTTER_STEP_CAP
    return max(math.ceil(guess), 1)


def _compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(I + a)(I + b) - I``, summed as ``a @ b + a + b``, stacks pairwise."""
    ab = a @ b
    ab += a
    ab += b
    return ab


def _strang_power(factors: np.ndarray, draws: np.ndarray, steps: int) -> np.ndarray:
    """The symmetric step operators from their half-factors, to the power ``steps``.

    ``factors`` is the ``(2, B, d, d)`` stack of forward and compiled
    half-factors less the identity (see
    :meth:`hamcert.oracle.EvolutionOracle.query_forward_blocks`), and
    ``draws`` the ``(T, B, k)`` ASCII codes of each draw cut to each block.
    Sector ``m + 2^j`` is sector ``m`` conjugated by draw ``P_j``, so both
    halves of the step operator double together once per draw, the first
    half ``F`` to ``F P F P`` and the second ``S`` to ``P S P S``; repeated
    squaring then raises the step operator to the step count.  Every
    product before the squaring is carried as its difference from the
    identity (see the module docstring).  A Pauli string is a signed
    permutation, ``P|j> = ph[j] |j ^ x>``, so entry ``(i, j)`` of ``P M
    P`` is ``M[i ^ x, j ^ x] * (ph[i ^ x] * ph[j])``: one gather of the
    flat index ``(i d + j) ^ (x (d + 1))`` and one product with the draw's
    multiplier, exact since every phase and every product of two is
    ``+-1`` or ``+-i``.
    """
    count, dim = factors.shape[1], factors.shape[-1]
    flips, phases = _letter_phases(draws.reshape(-1, draws.shape[-1]))
    rows = phases[np.arange(flips.size)[:, None], np.arange(dim) ^ flips[:, None]]
    rows, cols = rows.reshape(-1, count, dim, 1), phases.reshape(-1, count, 1, dim)
    offsets = (flips * (dim + 1)).reshape(-1, count, 1)
    cells = np.arange(count * dim * dim).reshape(count, -1)
    # Slots: the first half (sectors in mask order), the earlier and the
    # later conjugated half, and the second half (sectors in reverse).
    z = np.empty((4, count, dim, dim), dtype=complex)
    z[::3] = _compose(factors, factors[::-1])
    # Views of z: the outer slots, flat per block, and the inner slots in
    # reverse, P first P into the later slot and P second P into the earlier.
    outer = z.reshape(4, -1)[::3]
    conjugated = z[2:0:-1]
    gathered = conjugated.reshape(2, count, -1)
    # The multipliers ph[i ^ x] * ph[j] of as many draws at once as fit in
    # _CHUNK_ENTRIES (all of a round's unless its blocks are large).
    span = max(1, _CHUNK_ENTRIES // (count * dim * dim))
    for start in range(0, len(offsets), span):
        multipliers = rows[start : start + span] * cols[start : start + span]
        for offset, multiplier in zip(offsets[start : start + span], multipliers):
            # The array method: np.take's Python wrapper costs a call each.
            outer.take(cells ^ offset, axis=1, out=gathered)
            conjugated *= multiplier
            z[::3] = _compose(z[:2], z[2:])
    step = _compose(z[0], z[3])
    step.reshape(count, -1)[:, :: dim + 1] += 1
    return np.linalg.matrix_power(step, steps)


def trotter_blocks(
    oracle: EvolutionOracle,
    h0: PauliSum,
    plan: TrotterPlan,
    shots: int = 1,
) -> list[tuple[tuple[tuple[int, ...], ...], np.ndarray]]:
    """Run the symmetric product formula through the forward oracle, per block.

    Returns ``(sites, u)`` per group of equal-size blocks of the support
    graph of the hidden Hamiltonian and ``h0``, as
    :meth:`~hamcert.oracle.EvolutionOracle.query_forward_blocks` groups
    them: ``sites[b]`` are the sites of block ``b`` and ``u[b]`` its
    unitary, in a ``(B, d, d)`` stack.  The implemented unitary is the
    Kronecker product of every block's unitary and the identity on the
    sites no term touches.  Every physical forward query of the batch has
    the same duration, so the batch is charged in one call that counts
    each query: the ledger gains exactly ``shots * steps * 2 * 2^T``
    queries and exactly ``shots * plan.total_time``, the time an
    exact-mode shot batch of that duration charges, at any step count.
    Repeated shots reuse the compiled circuit but are charged as separate
    runs.

    Raises:
        OracleModeError: Outside ``TROTTERIZED`` mode.
        ValueError: On a shot count below 1, a draw that is not a Pauli
            string on the oracle's qubits, a reference of another size, or
            a block above the dense cap; checked before any charge.
    """
    n = oracle.n_qubits
    # All draws at once; only a bad one pays for the loop that names it.
    joined = "".join([p for p in plan.draws if isinstance(p, str) and len(p) == n])
    if len(joined) != n * len(plan.draws) or joined.strip(PAULI_LETTERS):
        for p in plan.draws:
            if len(validate_label(p)) != n:
                raise ValueError(f"Draw {p!r} does not act on {n} qubits.")
    return _trotter_blocks(oracle, h0, _codes((joined,), n), plan.steps, plan.total_time, shots)


def _trotter_blocks(oracle: EvolutionOracle, h0: PauliSum, codes: np.ndarray, steps: int,
                    total_time: float, shots: int) -> list[tuple[tuple, np.ndarray]]:
    """:func:`trotter_blocks` of ``steps`` steps over ``total_time`` whose draw ``j``
    has the valid ASCII letter codes ``codes[j]``, as a round reads them from its row."""
    if oracle.mode is not OracleMode.TROTTERIZED:
        raise OracleModeError("The product formula requires TROTTERIZED mode.")
    if shots < 1:
        raise ValueError(f"Shot count must be positive, got {shots}.")
    half_dur = total_time * 2.0 ** -len(codes) / (2 * steps)
    # One forward query per sector per half-step per shot, charged exactly.
    queries = shots * steps * 2 * 2 ** len(codes)
    return [(sites, _strang_power(factors, codes[:, index], steps)) for sites, index, factors
            in oracle._forward_blocks(h0, half_dur, queries, shots * total_time)]


def trotter_evolve(
    oracle: EvolutionOracle,
    h0: PauliSum,
    plan: TrotterPlan,
    shots: int = 1,
) -> np.ndarray:
    """The dense unitary of :func:`trotter_blocks`, with the same charge.

    The block factors enter the Kronecker product in group order, and a
    final transpose moves each site to its place: qubit 0 is the most
    significant bit, as in :mod:`hamcert.dense`.

    Raises:
        OracleModeError: Outside ``TROTTERIZED`` mode.
        ValueError: As :func:`trotter_blocks`, and if the system exceeds
            the dense cap; checked before any charge.
    """
    n = oracle.n_qubits
    _check_cap(n)
    u = np.ones((1, 1), dtype=complex)
    order: list[int] = []
    for sites, stack in trotter_blocks(oracle, h0, plan, shots):
        for block_sites, block in zip(sites, stack):
            u = np.kron(u, block)
            order += block_sites
    idle = sorted(set(range(n)) - set(order))
    u = np.kron(u, np.eye(2 ** len(idle)))
    # Axis a of the product is site order[a]; move each site to its place.
    axis = np.argsort(order + idle)
    return u.reshape((2,) * 2 * n).transpose(*axis, *(axis + n)).reshape(2**n, 2**n)


class TrotterError(NamedTuple):
    op_norm: float
    bell_deviation: float


def trotter_error(v: np.ndarray, h_t: PauliSum, t: float) -> TrotterError:
    """Implementation error of ``v`` against the exact twirled evolution.

    ``op_norm`` is the spectral norm of the difference (the proxy for the
    channel distance); ``bell_deviation`` is the normalized trace
    deviation ``|Tr(exp(-i t H_T) - V)| / 2^n``, which bounds the shift of
    the identity-outcome probability and never exceeds ``op_norm``.
    """
    exact = evolve(h_t, t)
    diff = exact - v
    op = operator_norm(diff)
    bell = float(abs(np.trace(diff))) / v.shape[0]
    return TrotterError(op_norm=op, bell_deviation=bell)
