"""Workload definitions and seeded instance generation.

Every instance is generated here from the workload seed and handed to the
program only as Hamiltonian text, which it parses with
``parse_hamiltonian``.  A separated pair is ``H = H0 + epsilon * D`` with
``D`` a unit-norm random k-local direction, so it sits exactly on the
REJECT promise; an equal pair has ``H = H0``.

The certify seed of pair ``i`` is ``i`` for every workload seed.  The
round times that certify draws, and with them the work of an equal pair,
are then the same for every workload seed, while the Hamiltonians change
with it.  The timed loop certifies the equal pair 0 again and again, so
that every equal-pair sample of a run measures the same work.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from hamcert.oracle import OracleMode

DELTA = 0.2


@dataclass(frozen=True)
class CertifySpec:
    """One certify workload: instance shape, protocol constants, pair mix."""

    n: int
    k: int
    terms: int
    epsilon: float
    mode: OracleMode
    c2: Optional[float] = None
    c4: Optional[float] = None
    # Odd pair indices are separated pairs.  The timed loop alternates
    # the equal pair 0 with the separated pairs 1, 3, 5, ... when true and
    # repeats pair 0 alone when false; the checks use pair 1 either way.
    alternate: bool = True
    # Pair indices the traced run processes (fixed work, so counts repeat).
    trace_pairs: tuple[int, ...] = (0, 1)
    # How accept_s sums up the equal-pair calls of a run.  True: each
    # round's fastest time, summed (see bench.fastest_parts), for runs of
    # hundreds of short calls.  False: the median call, for runs of a few
    # long calls, where the fastest of a few samples only picks the
    # calmest stretch of the run and the median varies less.
    fastest_rounds: bool = True

    def loop_pairs(self):
        """Pair indices of the timed loop, in order (unbounded)."""
        if not self.alternate:
            return itertools.repeat(0)
        return (i if i % 2 else 0 for i in itertools.count(0))

    def config_kwargs(self, certify_seed: int) -> dict:
        """Keyword arguments of ``CertificationConfig`` for one pair."""
        kwargs = dict(epsilon=self.epsilon, delta=DELTA, k=self.k, mode=self.mode,
                      seed=certify_seed)
        if self.c2 is not None:
            kwargs["c2"] = self.c2
        if self.c4 is not None:
            kwargs["c4"] = self.c4
        if self.c2 is not None or self.c4 is not None:
            kwargs["allow_weak_constants"] = True
        return kwargs

    def cli_flags(self, certify_seed: int) -> list[str]:
        """The ``hamcert certify`` flags that build the same configuration."""
        flags = ["--epsilon", repr(self.epsilon), "--delta", repr(DELTA),
                 "--k", str(self.k), "--mode", self.mode.value, "--seed", str(certify_seed)]
        if self.c2 is not None:
            flags += ["--c2", repr(self.c2)]
        if self.c4 is not None:
            flags += ["--c4", repr(self.c4)]
        if self.c2 is not None or self.c4 is not None:
            flags.append("--allow-weak-constants")
        return flags


# Index of the separated pair used by the determinism and CLI checks.
CHECK_PAIR = 1


@dataclass(frozen=True)
class Pair:
    index: int
    separated: bool
    h0_text: str
    h_text: str
    certify_seed: int


EXACT, TROTTER = OracleMode.EXACT_EFFECTIVE, OracleMode.TROTTERIZED

CERTIFY_SPECS = {
    # Default constants, k=2: 78 rounds, twirl depth 34, 10368 shots on
    # 64x64 matrices, about 4n 2-local terms.
    "exact-k2-n6": CertifySpec(n=6, k=2, terms=24, epsilon=0.2, mode=EXACT,
                               trace_pairs=tuple(range(40))),
    # Paper's shot count and error budget with c2=2 (4 sectors); equal
    # pairs only in the timed loop.  epsilon=16 puts the time cap near
    # 0.61, so that one call takes a few seconds and a run holds several.
    "trotter-n8": CertifySpec(n=8, k=1, terms=16, epsilon=16.0, mode=TROTTER, c2=2.0,
                              alternate=False, trace_pairs=(0,), fastest_rounds=False),
}

# Reduced sizes for the benchmark's own smoke tests.
SMOKE_SPECS = {
    "exact-k2-n6": CertifySpec(n=3, k=2, terms=12, epsilon=0.2, mode=EXACT),
    "trotter-n8": CertifySpec(n=3, k=1, terms=6, epsilon=16.0, mode=TROTTER, c2=2.0, c4=2.0,
                              alternate=False, trace_pairs=(0,), fastest_rounds=False),
}

VERIFY_WORKLOAD = "verify-all"
# verify-all runs the suites at the seed `hamcert verify` uses by default,
# whatever the workload seed.  Each Monte Carlo suite checks three-sigma
# envelopes, so it FAILs at a few seeds by design (twirl: 6 of seeds
# 0..299); at a fixed seed a FAIL means a changed result, not chance.
VERIFY_SEED = 0
WORKLOADS = tuple(CERTIFY_SPECS) + (VERIFY_WORKLOAD,)


def k_local_labels(n: int, k: int) -> list[str]:
    """Every Pauli label on ``n`` qubits with weight 1..k, in a fixed order."""
    labels = []
    for w in range(1, k + 1):
        for sites in itertools.combinations(range(n), w):
            for letters in itertools.product("XYZ", repeat=w):
                chars = ["I"] * n
                for site, ch in zip(sites, letters):
                    chars[site] = ch
                labels.append("".join(chars))
    return labels


def random_terms(rng: np.random.Generator, n: int, k: int, terms: int) -> dict[str, float]:
    """``terms`` distinct k-local labels with standard-normal coefficients."""
    pool = k_local_labels(n, k)
    picks = rng.choice(len(pool), size=min(terms, len(pool)), replace=False)
    return {pool[int(i)]: float(rng.normal()) for i in picks}


def to_text(terms: dict[str, float]) -> str:
    return "".join(f"{terms[label]!r} {label}\n" for label in sorted(terms))


def make_pair(spec: CertifySpec, seed: int, index: int) -> Pair:
    """Pair ``index`` of the workload at ``seed``; independent of other pairs."""
    rng = np.random.default_rng([seed, index])
    h0 = random_terms(rng, spec.n, spec.k, spec.terms)
    separated = index % 2 == 1
    hidden = dict(h0)
    if separated:
        direction = random_terms(rng, spec.n, spec.k, spec.terms)
        norm = math.sqrt(sum(c * c for c in direction.values()))
        for label, coeff in direction.items():
            hidden[label] = hidden.get(label, 0.0) + spec.epsilon * coeff / norm
    return Pair(index, separated, to_text(h0), to_text(hidden), certify_seed=index)
