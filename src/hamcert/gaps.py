"""Eigenvalue-gap statistics and the randomized drop-time finder.

The central quantity is the fraction of ordered eigenvalue pairs separated
by at least a threshold.  When that fraction is bounded below, the
identity-outcome probability of Bell sampling must dip noticeably at some
time within ``[0, 2/threshold]``, and a handful of uniform random times
finds such a dip with high probability.

:func:`lambda_stat_stack` takes the pair fraction of a stack of spectra,
and :func:`find_drop_indices` returns a batch of searches as arrays of
draws and hit indices; :func:`lambda_stat` and :func:`find_drop_times`
are their one-row and one-object-per-search forms, with the same bits.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .bell import _spectrum_array, identity_probs_spectral
from .dense import eigenvalues, to_dense_stack
from .pauli import PauliSum, add, frobenius_norm

__all__ = [
    "DropTime",
    "GapStatConfig",
    "find_drop_time",
    "find_drop_indices",
    "find_drop_times",
    "lambda_stat",
    "lambda_stat_stack",
    "stability_bound",
    "verify_stability",
    "verify_stability_stack",
]


def lambda_stat(spectrum: np.ndarray, epsilon: float) -> float:
    """Fraction of ordered eigenvalue pairs separated by at least ``epsilon``.

    Counts ordered pairs ``(j, k)`` with ``|l_j - l_k| >= epsilon`` out of
    all ``N^2`` ordered pairs, self-pairs included (they contribute gap 0
    and are never counted since ``epsilon > 0``).  This is
    :func:`lambda_stat_stack` on a stack of one.

    Args:
        spectrum: Finite real eigenvalues, any order.
        epsilon: Separation threshold, finite and strictly positive.

    Returns:
        The exact pair fraction in [0, 1].
    """
    return float(lambda_stat_stack(_spectrum_array(spectrum)[None], [epsilon])[0])


def lambda_stat_stack(spectra: np.ndarray, epsilons: Sequence[float]) -> np.ndarray:
    """:func:`lambda_stat` of each row of a ``(B, N)`` stack at its own threshold.

    The stack is sorted and checked finite once; each row then takes two
    ``searchsorted`` calls, and the pair counts of all rows are summed at
    once.  The counts are integers, so every fraction is that of the row
    alone, bit for bit.

    Raises:
        ValueError: If a threshold is not finite and positive, the stack
            is not 2-D with nonempty rows, or a value is not finite.
    """
    for epsilon in epsilons:
        if not (math.isfinite(epsilon) and epsilon > 0):
            raise ValueError(
                f"Separation threshold must be finite and positive, got {epsilon}."
            )
    values = np.asarray(spectra, dtype=float)
    if values.ndim != 2 or values.shape[1] == 0 or len(epsilons) != len(values):
        raise ValueError(
            f"Expected {len(epsilons)} nonempty spectra, got shape {values.shape}."
        )
    values = np.sort(values, axis=1)
    if not np.isfinite(values).all():
        raise ValueError("Spectrum must hold finite values only.")
    n = values.shape[1]
    shift = np.asarray(epsilons, dtype=float)[:, None]
    counts = np.array(
        [(row.searchsorted(low, side="right"), row.searchsorted(high, side="left"))
         for row, low, high in zip(values, values - shift, values + shift)],
        dtype=np.int64,
    ).reshape(len(values), 2, n).sum(axis=2)
    # Pairs at least epsilon below each value, plus those at least epsilon above.
    return (counts[:, 0] + (n * n - counts[:, 1])) / n**2


@dataclass(frozen=True)
class GapStatConfig:
    """Parameters of the randomized drop-time search."""

    epsilon: float
    d: float
    delta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}.")
        if not 0 < self.d <= 1:
            raise ValueError(f"d must lie in (0, 1], got {self.d}.")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}.")

    @property
    def m_times(self) -> int:
        """Smallest draw count with miss probability ``(2/3)**m_times <= delta``.

        Each uniform draw on ``[0, 2/epsilon]`` lands in the dip region with
        probability >= 1/3 whenever the pair fraction at ``epsilon`` is at
        least ``d``.  Counting up tests the bound as stated, in floats.
        """
        draws = 1
        while (2 / 3) ** draws > self.delta:
            draws += 1
        return draws


class DropTime(NamedTuple):
    time: float
    identity_prob: float


def find_drop_time(
    spectrum: np.ndarray, cfg: GapStatConfig, rng: np.random.Generator
) -> Optional[DropTime]:
    """Search for a time where the identity probability dips below 1 - d/4.

    Draws up to ``cfg.m_times`` times uniformly from ``[0, 2/epsilon]``
    and returns the first with ``I(t) <= 1 - d/4``, or ``None`` if every
    draw misses.  Uses exact identity probabilities (an analysis-side
    utility); nothing is charged anywhere.
    """
    return find_drop_times(spectrum, cfg, rng, 1)[0]


#: Searches of :func:`find_drop_times` that share one block of draws.
_SEARCH_BATCH = 1024

#: Draws per search that :func:`find_drop_times` evaluates before the rest.
_FIRST_DRAWS = 2


def find_drop_times(
    spectrum: np.ndarray, cfg: GapStatConfig, rng: np.random.Generator, searches: int
) -> list[Optional[DropTime]]:
    """``searches`` successive :func:`find_drop_time` calls, vectorised.

    The :class:`DropTime` list of :func:`find_drop_indices`, with its
    draws: the results and the final ``rng`` state are those of
    ``searches`` calls of :func:`find_drop_time` that draw one
    ``rng.uniform(0.0, 2/epsilon)`` at a time.
    """
    at, times, probs = find_drop_indices(spectrum, cfg, rng, searches)
    found: list[Optional[DropTime]] = [None] * searches
    hit = np.flatnonzero(at >= 0)
    for j, t, p in zip(hit.tolist(), times[at[hit]].tolist(), probs[at[hit]].tolist()):
        found[j] = DropTime(t, p)
    return found


def find_drop_indices(
    spectrum: np.ndarray, cfg: GapStatConfig, rng: np.random.Generator, searches: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The draws of ``searches`` successive drop-time searches, as arrays.

    Returns ``(at, times, probs)``: ``times`` holds every draw the
    searches take, in order, and ``probs`` their identity probabilities;
    ``at[j]`` is the index in both of search ``j``'s hit, or -1 if all its
    ``cfg.m_times`` draws miss.  A miss count is ``np.count_nonzero(at <
    0)``, without one object per search.

    A block of searches draws the most times it can use, ``m_times`` per
    search, with one ``rng.random`` call.  The searches then take their
    draws in order, each up to and including its first hit (see
    :func:`_walk`).  Most searches stop at their first or second draw, so
    the probabilities of the first ``_FIRST_DRAWS`` draws per search are
    evaluated first, and those of the rest of the block only when a
    search reaches past them; each probability is computed on its own row,
    so this changes no value.  Finally ``rng`` is rewound and advanced by
    exactly the draws taken, so it ends where one
    ``rng.uniform(0.0, 2/epsilon)`` per draw taken would leave it:
    ``random() * horizon`` is that draw bit for bit.
    """
    if searches < 0:
        raise ValueError(f"Search count must be nonnegative, got {searches}.")
    target = 1.0 - cfg.d / 4.0
    horizon = 2.0 / cfg.epsilon
    draws = cfg.m_times
    ats, taken, evaluated = [np.empty(0, dtype=np.int64)], [np.empty(0)], [np.empty(0)]
    offset = 0
    for done in range(0, searches, _SEARCH_BATCH):
        block = min(searches - done, _SEARCH_BATCH)
        state = rng.bit_generator.state
        times = rng.random(block * draws) * horizon
        probs = identity_probs_spectral(spectrum, times[: _FIRST_DRAWS * block])
        starts, stops, used = _walk(probs <= target, draws, block)
        if np.any((stops == probs.size) & (starts + draws > probs.size)):
            # A search found no hit among the evaluated draws and has more.
            rest = identity_probs_spectral(spectrum, times[probs.size :])
            probs = np.concatenate((probs, rest))
            starts, stops, used = _walk(probs <= target, draws, block)
        # Every search ends within the evaluated draws, so used <= probs.size.
        ats.append(np.where(stops < starts + draws, stops + offset, -1))
        taken.append(times[:used])
        evaluated.append(probs[:used])
        offset += used
        rng.bit_generator.state = state
        rng.random(used)
    return np.concatenate(ats), np.concatenate(taken), np.concatenate(evaluated)


def _walk(hits: np.ndarray, draws: int, searches: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Where ``searches`` searches of up to ``draws`` draws each start and
    stop, and how many draws they take together.

    ``hits[i]`` tells whether draw ``i`` hits; a search stops at its first
    hit, and the next one starts right after it.  With ``next_hit[i]`` the
    first hit at or after draw ``i`` (``hits.size`` if none), the search
    that starts at ``i`` is followed by the one at ``min(next_hit[i], i +
    draws - 1) + 1``; that next start is computed for every draw at once,
    and each search's start is one list lookup.  Returns the starts, each
    search's ``next_hit`` (a hit when it is below start plus ``draws``),
    and the first draw after the last search.  Draws past ``hits.size``
    count as misses, so a search that reaches past them without a hit is
    not resolved here.
    """
    size = hits.size
    index = np.arange(size + 1)
    hit_at = np.where(hits, index[:size], size)
    next_hit = np.append(np.minimum.accumulate(hit_at[::-1])[::-1], size)
    next_start = np.minimum(np.minimum(next_hit, index + draws - 1) + 1, size).tolist()
    starts = [0] * searches
    u = 0
    for j in range(searches):
        starts[j] = u
        u = next_start[u]
    first = np.array(starts)
    return first, next_hit[first], u


def stability_bound(p: float, q: float) -> float:
    """Lower bound on the pair fraction at half threshold after perturbation.

    If the unperturbed operator has pair fraction at least ``p`` at some
    threshold and the perturbation has normalized Frobenius norm at most
    ``q`` times that threshold, the perturbed operator keeps pair fraction
    at least ``max(0, p - 32 q^2)`` at half the threshold.
    """
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {p}.")
    if q < 0:
        raise ValueError(f"q must be nonnegative, got {q}.")
    return max(0.0, p - 32.0 * q * q)


def verify_stability(a: PauliSum, b: PauliSum, epsilon: float) -> bool:
    """Numerically check the perturbation bound on one concrete pair.

    Computes the exact pair fractions of ``a`` at ``epsilon`` and of
    ``a + b`` at ``epsilon / 2`` and tests the quadratic degradation bound
    with ``q = |b|_F / epsilon``.  The inequality is a theorem, so this
    must return ``True``; a tiny float guard (1e-9, far below the
    ``1/N^2`` resolution of the statistic) absorbs eigensolver rounding.
    This is :func:`verify_stability_stack` on a stack of one.
    """
    return verify_stability_stack([(a, b, epsilon)])[0]


def verify_stability_stack(cases: Sequence[tuple[PauliSum, PauliSum, float]]) -> list[bool]:
    """:func:`verify_stability` of each ``(a, b, epsilon)`` of equal size, in order.

    The spectra of all ``a`` and of all ``a + b`` come from two stacked
    :func:`~hamcert.dense.eigenvalues` calls and their pair fractions from
    two :func:`lambda_stat_stack` calls, each row on its own, so every
    verdict is that of the pair alone.

    Raises:
        ValueError: If an ``epsilon`` is not positive, or the sums differ
            in size or exceed the dense cap.
    """
    for _, _, epsilon in cases:
        if epsilon <= 0:
            raise ValueError(f"Separation threshold must be positive, got {epsilon}.")
    epsilons = [epsilon for _, _, epsilon in cases]
    spec_a = eigenvalues(to_dense_stack([a for a, _, _ in cases]))
    spec_ab = eigenvalues(to_dense_stack([add(a, b) for a, b, _ in cases]))
    before = lambda_stat_stack(spec_a, epsilons).tolist()
    after = lambda_stat_stack(spec_ab, [epsilon / 2 for epsilon in epsilons]).tolist()
    return [
        half + 1e-9 >= stability_bound(p, frobenius_norm(b) / epsilon)
        for (_, b, epsilon), p, half in zip(cases, before, after)
    ]
