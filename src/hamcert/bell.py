"""Bell-sampling statistics of a unitary.

The protocol measured here: prepare ``n`` maximally entangled qubit pairs,
apply the unitary ``U`` to the first half of every pair, and measure each
pair in the Bell basis.  The outcome is a Pauli label drawn with
probability ``|Tr(P U)|^2 / 4^n``; the all-identity outcome has
probability

    I(t) = |Tr U|^2 / 4^n = (1/4^n) * sum_{j,k} cos((l_j - l_k) t)

when ``U = exp(-i t H)`` with eigenvalues ``l_1 <= ... <= l_N``, so the
identity-outcome probability depends only on eigenvalue differences and is
identically 1 for the zero Hamiltonian.

The spectral route evaluates it at given times, each time on its own row,
so a time gets the same bits in any batch (at several, it gathers from
the distinct eigenvalues); the certifier uses it.
:func:`identity_probs_grid` evaluates a whole uniform grid from one
complex matrix product and agrees with the spectral route only to
rounding; the verification suites use it for their dip-measure quadrature.
:func:`identity_prob_factors` takes ``(B, d, d)`` stacks of unitaries.

Register layout for the measurement simulator: qubits ``0..n-1`` hold the
evolved halves, qubits ``n..2n-1`` the partner halves, most significant
bit first.  Measuring pair ``i`` yields bits ``(u_i, v_i)`` at string
positions ``i`` and ``n+i``; the letter map is ``(0,0) -> I``,
``(1,0) -> Z``, ``(0,1) -> X``, ``(1,1) -> Y``.  :func:`bell_outcome_indices`
samples outcomes as basis indices, which callers count in arrays;
:func:`bell_measure_choi` formats the same draws as bit strings.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "BELL_SAMPLER_QUBIT_CAP",
    "bell_distribution",
    "bell_measure_choi",
    "bell_outcome_indices",
    "identity_prob_factors",
    "identity_prob_spectral",
    "identity_probs_grid",
    "identity_probs_spectral",
    "identity_prob_trace",
    "outcome_bits",
    "outcome_pauli_label",
    "sample_identity_shots",
]

#: The sampler works on a doubled register, so it caps at 4 system qubits.
BELL_SAMPLER_QUBIT_CAP = 4

_LETTER_OF_BITS = {(0, 0): "I", (1, 0): "Z", (0, 1): "X", (1, 1): "Y"}


def identity_prob_spectral(spectrum: np.ndarray, t: float) -> float:
    """Identity-outcome probability from the spectrum alone.

    Evaluates the pairwise cosine average ``(1/N^2) sum_{j,k}
    cos((l_j - l_k) t)`` in its coherent form ``|sum_j exp(-i l_j t)|^2 /
    N^2``, which is the same quantity computed in O(N).  This is
    :func:`identity_probs_spectral` at the single time ``t``, which takes
    the sines and cosines of every eigenvalue without sorting them.

    Args:
        spectrum: Finite real eigenvalues (any order).
        t: Finite evolution time, ``t >= 0``.

    Returns:
        A probability in [0, 1].
    """
    return float(identity_probs_spectral(spectrum, np.array([t], dtype=float))[0])


#: Entries of the time-by-eigenvalue phase array evaluated at once (2 MiB).
_PHASE_ENTRIES = 2**18


def _spectrum_array(spectrum: np.ndarray) -> np.ndarray:
    """``spectrum`` as a float array, checked nonempty and 1-D (not finite)."""
    values = np.asarray(spectrum, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("Spectrum must be a nonempty 1-D array of reals.")
    return values


def identity_probs_spectral(spectrum: np.ndarray, times: np.ndarray) -> np.ndarray:
    """:func:`identity_prob_spectral` at every entry of ``times``.

    Row ``r`` of the phase array is ``times[r] * spectrum``, and its cosine
    and sine sums are taken along the row, so each probability equals the
    one-time evaluation bit for bit.  Rows are evaluated in blocks of
    ``_PHASE_ENTRIES // N`` (at least one).

    With more than one time, the cosine and sine are taken once per
    distinct eigenvalue (Walsh spectra repeat a few values many times) and
    gathered back to ``N`` columns with ``np.take``.  The gathered rows are
    C-contiguous, hold the same doubles in the same order, and so sum to
    the same bits.  A single time never pays for the sort.

    Raises:
        ValueError: On a negative or non-finite time, an empty or non-1-D
            spectrum, or, at any of the times, a non-finite eigenvalue or a
            phase ``t * l`` that overflows.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError("Times must be a 1-D array.")
    bad = times[~(np.isfinite(times) & (times >= 0))]
    if bad.size:
        raise ValueError(f"Time must be finite and nonnegative, got {bad[0]}.")
    values = _spectrum_array(spectrum)
    distinct, inverse = values, None
    if times.size > 1:
        distinct, inverse = np.unique(values, return_inverse=True)
    probs = np.empty(times.size)
    rows = max(1, _PHASE_ENTRIES // values.size)
    # A non-finite eigenvalue or an overflowing phase turns its rows into
    # NaN, which is checked once below instead of in a pass over the spectrum.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, times.size, rows):
            phase = np.multiply.outer(times[start : start + rows], distinct)
            c = _row_sums(np.cos(phase), inverse)
            s = _row_sums(np.sin(phase), inverse)
            probs[start : start + rows] = (c * c + s * s) / values.size**2
    if np.isnan(probs).any():
        if not np.isfinite(values).all():
            raise ValueError("Spectrum must hold finite values only.")
        scale = np.abs(values).max()
        raise ValueError(f"Phase overflows: time {times.max()} by eigenvalue {scale}.")
    return np.minimum(probs, 1.0, out=probs)


def _row_sums(block: np.ndarray, inverse: np.ndarray | None) -> np.ndarray:
    """Row sums of ``block`` after gathering its columns by ``inverse``.

    ``np.take`` along axis 1 returns a C-contiguous array, whose rows sum
    pairwise exactly as the ungathered form does; ``block[:, inverse]`` is
    F-ordered and would sum differently in the last bits.
    """
    if inverse is not None:
        block = np.take(block, inverse, axis=1)
    return block.sum(axis=1)


def identity_probs_grid(spectrum: np.ndarray, stop: float, points: int) -> np.ndarray:
    """:func:`identity_probs_spectral` on the grid ``np.linspace(0, stop, points)``,
    from one complex matrix product.

    With ``step = stop / (points - 1)`` and ``q`` the square root of
    ``points`` rounded up, grid time ``r * step`` is ``a + b`` with a
    coarse time ``a = (r // q) * q * step`` and a fine time ``b = (r % q) *
    step``, and ``exp(-i l (a + b)) = exp(-i l a) exp(-i l b)``.  So the
    coherent sums of all times are the product of a coarse phase table,
    one row per coarse time weighted by each distinct eigenvalue's
    multiplicity, and a fine one, one column per fine time: ``O(q * L)``
    sines and cosines for ``L`` distinct eigenvalues, not ``points * L``.
    Coarse rows are multiplied in blocks of at most ``_PHASE_ENTRIES / 2``
    complex entries (2 MiB).

    The values agree with :func:`identity_probs_spectral` only to rounding
    (about ``1e-15`` at moderate phases), not bit for bit: the times and
    the sums are formed differently.  So counts against a threshold agree
    unless a grid value lies within rounding of it.

    Raises:
        ValueError: On a negative or non-finite ``stop``, ``points < 1``,
            an empty or non-1-D spectrum, a non-finite eigenvalue, or a
            phase ``stop * l`` that overflows, with the messages of
            :func:`identity_probs_spectral` for the spectrum and phase.
    """
    if not (math.isfinite(stop) and stop >= 0):
        raise ValueError(f"Time must be finite and nonnegative, got {stop}.")
    if points < 1:
        raise ValueError(f"Need at least one grid point, got {points}.")
    values = _spectrum_array(spectrum)
    if not np.isfinite(values).all():
        raise ValueError("Spectrum must hold finite values only.")
    scale = float(np.abs(values).max())
    if points > 1 and not math.isfinite(stop * scale):
        raise ValueError(f"Phase overflows: time {float(stop)} by eigenvalue {scale}.")
    distinct, counts = np.unique(values, return_counts=True)
    step = stop / (points - 1) if points > 1 else 0.0
    fine = math.isqrt(points - 1) + 1
    coarse = -(-points // fine)
    # Each coarse time is at most stop, so no phase exceeds stop * scale.
    fine_phases = np.exp(-1j * np.multiply.outer(distinct, np.arange(fine) * step))
    coarse_times = np.arange(coarse) * (fine * step)
    coarse_phases = counts * np.exp(-1j * np.multiply.outer(coarse_times, distinct))
    probs = np.empty(coarse * fine)
    rows = max(1, _PHASE_ENTRIES // 2 // fine)
    for start in range(0, coarse, rows):
        sums = coarse_phases[start : start + rows] @ fine_phases
        block = probs[start * fine : (start + rows) * fine]
        np.add(sums.real**2, sums.imag**2, out=block.reshape(sums.shape))
    probs = probs[:points] / values.size**2
    return np.minimum(probs, 1.0, out=probs)


def identity_prob_trace(u: np.ndarray, atol: float = 1e-8) -> float:
    """Identity-outcome probability ``|Tr U|^2 / 4^n`` of a unitary.

    Raises:
        ValueError: If ``u`` deviates from unitarity by more than ``atol``.
    """
    return identity_prob_factors([u[None]], atol)


def identity_prob_factors(stacks: list[np.ndarray], atol: float = 1e-8) -> float:
    """``|Tr U|^2 / 4^n`` of the Kronecker product ``U`` of unitary factors.

    The factors come in ``(B, d, d)`` stacks of one dimension each.  The
    identity on further sites leaves the probability unchanged, and
    ``|Tr U|^2 / N^2`` is the product of the factors' ``|Tr U_J|^2 /
    N_J^2``, each capped at 1.  With ``e_J = max|U_J^dag U_J - I|``, the
    assembled ``U^dag U - I`` is at most ``prod(1 + e_J) - 1`` entrywise,
    and that bound is checked against ``atol``; for one factor it is
    ``e_J`` itself.  The defects and traces are taken per stack, through
    views of the diagonals; the bound and the product accumulate factor by
    factor in stack order, the group order of
    :meth:`hamcert.oracle.EvolutionOracle.query_forward_blocks`, which
    :func:`hamcert.trotter.trotter_blocks` keeps for a trotter round's
    unitaries.

    Raises:
        ValueError: If a stack is not of square matrices, or if the bound
            exceeds ``atol``.
    """
    defects, probs = [], []
    for u in stacks:
        if u.ndim != 3 or u.shape[1] != u.shape[2]:
            raise ValueError(f"Expected a stack of square matrices, got shape {u.shape}.")
        dim = u.shape[1]
        gram = np.swapaxes(u.conj(), 1, 2) @ u
        gram.reshape(-1, dim * dim)[:, :: dim + 1] -= 1
        defects += np.max(np.abs(gram), axis=(1, 2)).tolist()
        traces = np.abs(u.diagonal(axis1=1, axis2=2).sum(axis=1)) ** 2 / dim**2
        probs += np.minimum(traces, 1.0).tolist()
    bound = 0.0
    for defect in defects:
        # (1 + bound)(1 + defect) - 1, without the rounding of the leading 1.
        bound += defect + bound * defect
    if bound > atol:
        raise ValueError(f"Matrix is not unitary (defect {bound:.3e} > {atol:.1e}).")
    return math.prod(probs, start=1.0)


def _apply_hadamard(state: np.ndarray, qubit: int) -> np.ndarray:
    dim = state.size
    pre = 1 << qubit
    post = dim >> (qubit + 1)
    a = state.reshape(pre, 2, post)
    top = (a[:, 0, :] + a[:, 1, :]) / math.sqrt(2)
    bot = (a[:, 0, :] - a[:, 1, :]) / math.sqrt(2)
    return np.stack((top, bot), axis=1).reshape(dim)


def _apply_cnot(
    state: np.ndarray, control: int, target: int, num_qubits: int
) -> np.ndarray:
    idx = np.arange(state.size)
    control_bit = (idx >> (num_qubits - 1 - control)) & 1
    perm = idx ^ (control_bit << (num_qubits - 1 - target))
    # CNOT is an involutive basis permutation, so gathering by perm applies it.
    return state[perm]


def bell_distribution(u: np.ndarray) -> np.ndarray:
    """Outcome distribution of the Bell measurement, by circuit simulation.

    Builds the ``2n``-qubit maximally entangled state, applies ``u`` to
    the first register, rotates each pair into the Bell basis with a CNOT
    followed by a Hadamard, and reads off the computational-basis
    probabilities.  Entry ``i`` is the probability of the ``2n``-bit
    outcome ``i`` (see module docstring for the bit layout); index 0 is
    the all-identity outcome.

    Raises:
        ValueError: If the system exceeds :data:`BELL_SAMPLER_QUBIT_CAP`.
    """
    dim = u.shape[0]
    n = dim.bit_length() - 1
    if dim != 2**n or u.shape != (dim, dim):
        raise ValueError(f"Expected a 2^n x 2^n matrix, got shape {u.shape}.")
    if n > BELL_SAMPLER_QUBIT_CAP:
        raise ValueError(
            f"Bell sampler cap exceeded: n={n} > {BELL_SAMPLER_QUBIT_CAP} "
            "(the doubled register would be too large)."
        )
    # Maximally entangled pairs: amplitude 2^{-n/2} on |x>_A |x>_B.
    state = np.zeros(dim * dim, dtype=complex)
    state[np.arange(dim) * dim + np.arange(dim)] = 1.0 / math.sqrt(dim)
    # Apply u to register A (the most significant n qubits).
    state = (u @ state.reshape(dim, dim)).reshape(dim * dim)
    for i in range(n):
        state = _apply_cnot(state, control=i, target=n + i, num_qubits=2 * n)
        state = _apply_hadamard(state, qubit=i)
    probs = np.abs(state) ** 2
    return probs / probs.sum()


def outcome_bits(index: int, n: int) -> str:
    """The ``2n``-bit outcome string for a sampled basis index."""
    return format(index, f"0{2 * n}b")


def outcome_pauli_label(bits: str) -> str:
    """Translate a ``2n``-bit outcome string into its Pauli label."""
    if len(bits) % 2:
        raise ValueError(f"Outcome must have even length, got {len(bits)} bits.")
    n = len(bits) // 2
    return "".join(
        _LETTER_OF_BITS[(int(bits[i]), int(bits[n + i]))] for i in range(n)
    )


def bell_outcome_indices(
    u: np.ndarray, rng: np.random.Generator, shots: int = 1
) -> np.ndarray:
    """Sample Bell-measurement outcomes for the unitary ``u``, as indices.

    One forward application of ``u`` per shot; no inverse or controlled
    use.  Returns ``shots`` outcome indices into :func:`bell_distribution`
    (0 is the all-identity outcome), from one ``rng.choice`` call, so
    callers can count outcomes with ``np.bincount`` instead of strings.
    """
    if shots < 1:
        raise ValueError(f"Shot count must be positive, got {shots}.")
    probs = bell_distribution(u)
    return rng.choice(probs.size, size=shots, p=probs)


def bell_measure_choi(
    u: np.ndarray, rng: np.random.Generator, shots: int = 1
) -> list[str]:
    """:func:`bell_outcome_indices` as outcome bit strings (see
    :func:`outcome_bits`), with the same draws."""
    draws = bell_outcome_indices(u, rng, shots)
    n = (u.shape[0]).bit_length() - 1
    # Format each of the 4^n outcomes once rather than once per shot.
    strings = [outcome_bits(i, n) for i in range(4**n)]
    return [strings[i] for i in draws.tolist()]


def sample_identity_shots(p: float, m: int, rng: np.random.Generator) -> int:
    """Number of identity outcomes among ``m`` Bernoulli(p) Bell shots."""
    if m < 1:
        raise ValueError(f"Shot count must be positive, got {m}.")
    if not -1e-9 <= p <= 1 + 1e-9:
        raise ValueError(f"Probability out of range: {p}.")
    return int(rng.binomial(m, min(max(p, 0.0), 1.0)))
