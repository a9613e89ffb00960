"""Eigenvalue-gap statistics and the randomized drop-time finder.

The central quantity is the fraction of ordered eigenvalue pairs separated
by at least a threshold.  When that fraction is bounded below, the
identity-outcome probability of Bell sampling must dip noticeably at some
time within ``[0, 2/threshold]``, and a handful of uniform random times
finds such a dip with high probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .bell import identity_probs_spectral
from .dense import eigenvalues, to_dense
from .pauli import PauliSum, add, frobenius_norm

__all__ = [
    "DropTime",
    "GapStatConfig",
    "find_drop_time",
    "find_drop_times",
    "lambda_stat",
    "stability_bound",
    "verify_stability",
]


def lambda_stat(spectrum: np.ndarray, epsilon: float) -> float:
    """Fraction of ordered eigenvalue pairs separated by at least ``epsilon``.

    Counts ordered pairs ``(j, k)`` with ``|l_j - l_k| >= epsilon`` out of
    all ``N^2`` ordered pairs, self-pairs included (they contribute gap 0
    and are never counted since ``epsilon > 0``).

    Args:
        spectrum: Finite real eigenvalues, any order.
        epsilon: Separation threshold, finite and strictly positive.

    Returns:
        The exact pair fraction in [0, 1].
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(
            f"Separation threshold must be finite and positive, got {epsilon}."
        )
    values = np.sort(np.asarray(spectrum, dtype=float))
    if values.ndim != 1 or values.size == 0:
        raise ValueError("Spectrum must be a nonempty 1-D array of reals.")
    if not np.isfinite(values).all():
        raise ValueError("Spectrum must hold finite values only.")
    n = values.size
    below = np.searchsorted(values, values - epsilon, side="right")
    above = n - np.searchsorted(values, values + epsilon, side="left")
    return float((below.sum() + above.sum()) / n**2)


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


def find_drop_times(
    spectrum: np.ndarray, cfg: GapStatConfig, rng: np.random.Generator, searches: int
) -> list[Optional[DropTime]]:
    """``searches`` successive :func:`find_drop_time` calls, vectorised.

    A block of searches draws the most times it can use, ``m_times`` per
    search, with one ``rng.random`` call and evaluates them all at once.
    The searches then take their draws in order, each up to and including
    its first hit: with the index of the next hit at or after every draw
    known, a search is one lookup.  Finally ``rng`` is rewound and
    advanced by exactly the draws taken.  The results and the final
    ``rng`` state are those of ``searches`` calls of :func:`find_drop_time`
    that draw one ``rng.uniform(0.0, 2/epsilon)`` at a time:
    ``random() * horizon`` is that draw bit for bit.
    """
    if searches < 0:
        raise ValueError(f"Search count must be nonnegative, got {searches}.")
    target = 1.0 - cfg.d / 4.0
    horizon = 2.0 / cfg.epsilon
    draws = cfg.m_times
    found: list[Optional[DropTime]] = []
    while len(found) < searches:
        block = min(searches - len(found), _SEARCH_BATCH)
        state = rng.bit_generator.state
        times = rng.random(block * draws) * horizon
        probs = identity_probs_spectral(spectrum, times)
        # next_hit[i]: the first hit at or after draw i, or the draw count.
        next_hit = np.where(probs <= target, np.arange(times.size), times.size)
        next_hit = np.minimum.accumulate(next_hit[::-1])[::-1].tolist()
        times, probs = times.tolist(), probs.tolist()
        used = 0
        for _ in range(block):
            i = next_hit[used]
            if i < used + draws:
                found.append(DropTime(times[i], probs[i]))
                used = i + 1
            else:
                found.append(None)
                used += draws
        rng.bit_generator.state = state
        rng.random(used)
    return found


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
    """
    if epsilon <= 0:
        raise ValueError(f"Separation threshold must be positive, got {epsilon}.")
    spec_a = eigenvalues(to_dense(a))
    spec_ab = eigenvalues(to_dense(add(a, b)))
    p = lambda_stat(spec_a, epsilon)
    q = frobenius_norm(b) / epsilon
    return lambda_stat(spec_ab, epsilon / 2) + 1e-9 >= stability_bound(p, q)
