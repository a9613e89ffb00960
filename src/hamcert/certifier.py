"""The end-to-end intolerant certification protocol.

Given a fully known reference Hamiltonian and forward-only oracle access
to an unknown one, decide ACCEPT (equal) versus REJECT (at least epsilon
apart in normalized Frobenius norm) with failure probability at most
delta, while accounting every second of forward evolution time.

Each round draws a random diagonal subspace, twirls the difference
generator toward it, evolves the twirled generator for a uniformly random
time up to the time cap, and thresholds the empirical identity-outcome
fraction of a batch of Bell shots.  Any round whose fraction falls to the
threshold or below rejects immediately; surviving all rounds accepts.

A round consumes its generator in a fixed order: ``integers(0, 3, n)``
for the axes, ``integers(0, 2, (T, n))`` for the twirl draws, one
``random()`` for the time, which it takes as ``time_cap * random()`` (the
double and the generator state that ``uniform(0.0, time_cap)`` gives), and
one ``binomial`` for the shots; :func:`_draw_round` makes all but the last.
The twirl draws stay in the draw row of :func:`hamcert.twirl._draw`: the
round's digest hashes the row as it is, and trotter mode reads the draws'
letter codes out of it, so no round forms their labels.  The
configuration's derived constants are worked out once and kept.

The paper's constants make the round count, twirl depth, time cap, shot
count, and threshold mutually consistent:

* ``rounds = ceil(c1 * 3^k * ln(1/delta))`` amplifies the per-round
  detection probability to ``1 - delta``;
* ``twirl_steps = ceil(c2 * k)`` suppresses the off-subspace residual far
  below the effective part (requires ``2^steps >= 2^11 * 27^k``);
* ``time_cap = c3 * 3^(k/2) / epsilon`` covers the dip horizon of the
  surviving spectrum, which is where the ``1/epsilon`` total-time scaling
  comes from;
* ``shots_per_round = ceil(c4 * 9^k)`` resolves a dip of size
  ``1/(32 * 9^k)`` against the threshold ``1 - c0 / 9^k`` with the
  implementation-error budget ``eps_trott = 1/(128 * 9^k)``.

``c1``, ``c3``, ``c0`` and the budget are fixed: another ``c1`` would only
restate ``delta``, and another ``c3`` ``epsilon``.  A ``c2`` too small for
the depth bound, or a ``c4`` that gives fewer shots than the default, needs
``allow_weak_constants``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .bell import identity_prob_factors, sample_identity_shots
from .oracle import EvolutionOracle, OracleMode
from .pauli import PauliSum, add, frobenius_norm, is_k_local, scale
from .trotter import TROTTER_STEP_CAP, _trotter_blocks, steps_from_bound
from .twirl import _draw, sample_subspace

__all__ = [
    "CertificationConfig",
    "CertificationReport",
    "ConfigError",
    "RoundRecord",
    "SweepResult",
    "SweepRow",
    "certify",
    "run_round",
    "sweep_epsilon",
]

DEFAULT_C1 = 16.0 / 3.0
DEFAULT_C2 = 17.0
DEFAULT_C3 = 4.0 * math.sqrt(2.0)
DEFAULT_C4 = 128.0
DEFAULT_C0 = 1.0 / 64.0


#: Largest shot or round count the samplers accept.
_INT64_MAX = 2**63 - 1


class ConfigError(ValueError):
    """Raised when a certification configuration is inconsistent."""


@dataclass(frozen=True)
class CertificationConfig:
    """Inputs of one certification run.

    ``c1``, ``c3``, ``c0`` and the implementation-error budget ``1 / (128 *
    9^k)`` are the paper's constants (see the module docstring).  Both oracle
    modes run at the default ``c2`` and ``c4``.  Either may be raised; a
    ``c2`` whose twirl is shallower than ``2^T >= 2^11 * 27^k``, or a ``c4``
    that gives fewer shots per round than the default, requires
    ``allow_weak_constants=True`` and voids the soundness guarantee.  A
    shot at twirl depth ``T`` is a circuit of ``steps * 2 * 2^T`` queries,
    which trotter mode counts and exact mode charges the time of, so in
    both modes the depth is bounded from above as well: the run's largest
    count must be a finite float.  ``seed`` is a non-negative integer.
    """

    epsilon: float
    delta: float
    k: int
    c2: float = DEFAULT_C2
    c4: float = DEFAULT_C4
    mode: OracleMode = OracleMode.EXACT_EFFECTIVE
    seed: int = 0
    allow_weak_constants: bool = False

    def __post_init__(self) -> None:
        self.validate()

    # Derived protocol parameters.  Those a run reads every round are worked
    # out on first use and kept: the fields never change.

    @property
    def rounds(self) -> int:
        return math.ceil(DEFAULT_C1 * 3**self.k * math.log(1.0 / self.delta))

    @cached_property
    def twirl_steps(self) -> int:
        return math.ceil(self.c2 * self.k)

    @cached_property
    def time_cap(self) -> float:
        return DEFAULT_C3 * 3.0 ** (self.k / 2.0) / self.epsilon

    @cached_property
    def shots_per_round(self) -> int:
        return math.ceil(self.c4 * 9**self.k)

    @cached_property
    def accept_threshold(self) -> float:
        return 1.0 - DEFAULT_C0 / 9**self.k

    @cached_property
    def trotter_tolerance(self) -> float:
        return 1.0 / (128.0 * 9**self.k)

    def validate(self) -> None:
        """Range checks always; the default depth and shot count unless waived."""
        for name in ("epsilon", "delta", "c2", "c4"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}.")
        if self.epsilon <= 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}.")
        if not 0 < self.delta < 1:
            raise ConfigError(f"delta must lie in (0, 1), got {self.delta}.")
        if isinstance(self.k, bool) or not isinstance(self.k, int) or self.k < 1:
            raise ConfigError(f"k must be a positive integer, got {self.k!r}.")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}.")
        for name in ("c2", "c4"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive.")
        try:
            # The shot count's 9^k stops converting to a float where this
            # float power overflows; checked first, it refuses a huge k
            # before any exact power of it is built.
            9.0**self.k
            counts = {"rounds": self.rounds, "shots_per_round": self.shots_per_round}
            time_cap = self.time_cap
        except OverflowError:
            raise ConfigError(
                "Derived protocol parameters overflow; the constants, k or "
                "delta are out of range."
            ) from None
        for name, value in counts.items():
            if value > _INT64_MAX:
                raise ConfigError(f"{name}={value} does not fit in a 64-bit integer.")
        if not math.isfinite(counts["rounds"] * counts["shots_per_round"] * time_cap):
            raise ConfigError("Ledger ceiling rounds * shots * time_cap overflows.")
        # A run counts up to rounds * shots * 2 * TROTTER_STEP_CAP * 2^T
        # queries of weight 2^-T in either mode.  A finite count keeps 2^-T
        # a normal float, and a round's charge, its count times at most
        # time_cap * 2^-T / 2, below the ledger ceiling.
        try:
            steps = self.twirl_steps
            queries = (counts["rounds"] * counts["shots_per_round"] * 2
                       * TROTTER_STEP_CAP * 2.0**steps)
        except OverflowError:
            queries = math.inf
        if not math.isfinite(queries):
            raise ConfigError(
                f"Twirl depth ceil(c2 * k) with c2={self.c2!r} and k={self.k} "
                "counts more queries than a float holds; lower c2."
            )
        if self.allow_weak_constants:
            return
        # 2^steps >= m exactly when steps reaches the bit length of m - 1,
        # so no power of 2 is built for a huge depth.
        if steps < (2**11 * 27**self.k - 1).bit_length():
            raise ConfigError(
                f"Twirl depth {steps} is too shallow: need 2^steps >= "
                f"2^11 * 27^k = {2**11 * 27**self.k}."
            )
        # The rounds check above keeps k small enough for this product.
        need = math.ceil(DEFAULT_C4 * 9**self.k)
        if counts["shots_per_round"] < need:
            raise ConfigError(
                f"Shot count ceil(c4 * 9^k) = {counts['shots_per_round']} with "
                f"c4={self.c4!r} is below the {need} of the default c4={DEFAULT_C4!r}."
            )


@dataclass(frozen=True)
class RoundRecord:
    """One round of the protocol, as echoed in the report."""

    index: int
    axes: str
    transcript_digest: str
    time: float
    identity_fraction: float
    flagged: bool

    @classmethod
    def _trusted(cls, index: int, axes: str, transcript_digest: str, time: float,
                 identity_fraction: float, flagged: bool) -> "RoundRecord":
        """The record of these fields, set without the frozen class's
        per-field ``object.__setattr__``; it equals the keyword construction."""
        record = object.__new__(cls)
        record.__dict__.update(index=index, axes=axes, transcript_digest=transcript_digest,
                               time=time, identity_fraction=identity_fraction, flagged=flagged)
        return record


class SweepRow(NamedTuple):
    epsilon: float
    total_time: float
    queries: int
    verdict: str
    seed: int


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    loglog_slope: float


@dataclass(frozen=True)
class CertificationReport:
    """Verdict plus everything needed to reproduce the run byte for byte.

    The verdict and round counts follow from ``records``: a run stops at
    its first flagged round, so only the last record can be flagged.
    """

    records: tuple[RoundRecord, ...]
    ledger_total_time: float
    ledger_query_count: int
    config: CertificationConfig

    @property
    def rejecting_round(self) -> Optional[int]:
        flagged = self.records and self.records[-1].flagged
        return self.records[-1].index if flagged else None

    @property
    def verdict(self) -> str:
        return "ACCEPT" if self.rejecting_round is None else "REJECT"

    @property
    def rounds_run(self) -> int:
        return len(self.records)

    @property
    def seed(self) -> int:
        return self.config.seed

    def render(self) -> str:
        """Stable-order plain-text form: key-value header, then a CSV block."""
        cfg = self.config
        lines = [
            "hamcert certification report",
            f"verdict: {self.verdict}",
            f"rounds_run: {self.rounds_run}",
            f"rejecting_round: {self.rejecting_round if self.rejecting_round is not None else '-'}",
            f"seed: {self.seed}",
            f"mode: {cfg.mode.value}",
            f"epsilon: {cfg.epsilon!r}",
            f"delta: {cfg.delta!r}",
            f"k: {cfg.k}",
            f"c1: {DEFAULT_C1!r}",
            f"c2: {cfg.c2!r}",
            f"c3: {DEFAULT_C3!r}",
            f"c4: {cfg.c4!r}",
            f"c0: {DEFAULT_C0!r}",
            f"eps_trott: {cfg.trotter_tolerance!r}",
            f"allow_weak_constants: {cfg.allow_weak_constants}",
            f"rounds_cap: {cfg.rounds}",
            f"twirl_steps: {cfg.twirl_steps}",
            f"time_cap: {cfg.time_cap!r}",
            f"shots_per_round: {cfg.shots_per_round}",
            f"accept_threshold: {cfg.accept_threshold!r}",
            f"ledger_total_time: {self.ledger_total_time!r}",
            f"ledger_query_count: {self.ledger_query_count}",
            "round,axes,transcript_digest,time,identity_fraction,flagged",
        ]
        for rec in self.records:
            lines.append(
                f"{rec.index},{rec.axes},{rec.transcript_digest},"
                f"{rec.time!r},{rec.identity_fraction!r},{int(rec.flagged)}"
            )
        return "\n".join(lines) + "\n"


def _digest(axes: str, paulis: tuple[str, ...]) -> str:
    return _row_digest(axes, (",".join(paulis) + ",").encode("ascii"))


def _row_digest(axes: str, row: bytes) -> str:
    """The digest of ``axes``, a colon and the labels of the draw row ``row``
    (see :func:`hamcert.twirl._draw`) joined by commas."""
    return hashlib.sha256((axes + ":").encode("ascii") + row[:-1]).hexdigest()[:12]


def _draw_round(n: int, cfg: CertificationConfig, rng: np.random.Generator) -> tuple:
    """A round's draws on ``n`` sites: ``(subspace, bits, row, t)``, the twirl
    bits and row of :func:`hamcert.twirl._draw` between the subspace and the time."""
    subspace = sample_subspace(n, rng)
    # rng.uniform(0.0, cap) without its wrapper: the same double and state.
    return (subspace, *_draw(subspace, cfg.twirl_steps, rng), cfg.time_cap * rng.random())


def _round_probability(h0: PauliSum, oracle: EvolutionOracle, cfg: CertificationConfig,
                       draws: tuple) -> float:
    """The identity probability of a shot batch of the round ``draws`` in the
    oracle's mode, charged to its ledger: exact, or the product formula's."""
    subspace, bits, row, t = draws
    if oracle.mode is OracleMode.EXACT_EFFECTIVE:
        transcript = oracle._twirl_drawn(h0, subspace, bits, row)
        return oracle.effective_identity_prob(transcript, t, shots=cfg.shots_per_round)
    steps = steps_from_bound(len(bits), t, cfg.trotter_tolerance)
    # The row holds each draw's letter codes and then a comma.
    codes = np.frombuffer(row, dtype=np.uint8).reshape(len(bits), -1)[:, :-1]
    groups = _trotter_blocks(oracle, h0, codes, steps, t, cfg.shots_per_round)
    # The unitarity defect of S^steps grows about steps times that of the
    # step operator S, so the 1e-8 bound holds per step.
    return identity_prob_factors([u for _, u in groups], atol=1e-8 * steps)


def run_round(
    h0: PauliSum,
    oracle: EvolutionOracle,
    cfg: CertificationConfig,
    rng: np.random.Generator,
    index: int = 1,
) -> RoundRecord:
    """Execute one protocol round and report its empirical identity fraction.

    Draws the round, takes the identity probability of its shot batch in
    the oracle's mode, samples the shots, and flags the round when the
    identity fraction is at or below the acceptance threshold.
    """
    subspace, _, row, t = draws = _draw_round(h0.n, cfg, rng)
    prob = _round_probability(h0, oracle, cfg, draws)
    fraction = sample_identity_shots(prob, cfg.shots_per_round, rng) / cfg.shots_per_round
    axes = str(subspace)
    return RoundRecord._trusted(index, axes, _row_digest(axes, row), t, fraction,
                                fraction <= cfg.accept_threshold)


def certify(
    h0: PauliSum, oracle: EvolutionOracle, cfg: CertificationConfig
) -> CertificationReport:
    """Run the full certification protocol against the oracle.

    Rounds run sequentially and the first flagged round rejects
    immediately.  Identical seed, configuration, and instance reproduce
    the report exactly.

    Raises:
        ConfigError: If the reference violates the declared locality or
            the oracle size does not match.
    """
    if not is_k_local(h0, cfg.k):
        raise ConfigError(
            f"Reference Hamiltonian has weight-{h0.max_weight()} terms, "
            f"but k={cfg.k} was declared."
        )
    if oracle.n_qubits != h0.n:
        raise ConfigError(
            f"Oracle acts on {oracle.n_qubits} qubits, reference on {h0.n}."
        )
    if oracle.mode is not cfg.mode:
        raise ConfigError(
            f"Oracle mode {oracle.mode.name} does not match config "
            f"mode {cfg.mode.name}."
        )
    rng = np.random.default_rng(cfg.seed)
    records: list[RoundRecord] = []
    for index in range(1, cfg.rounds + 1):
        records.append(run_round(h0, oracle, cfg, rng, index))
        if records[-1].flagged:
            break
    return CertificationReport(
        records=tuple(records),
        ledger_total_time=oracle.ledger.total_time,
        ledger_query_count=oracle.ledger.query_count,
        config=cfg,
    )


def sweep_epsilon(
    h0: PauliSum,
    direction: PauliSum,
    eps_list: list[float],
    cfg: CertificationConfig,
    repeats: int = 8,
) -> SweepResult:
    """Measure how the ledger total scales with the separation threshold.

    For each epsilon, certifies ``h0 + epsilon * direction`` against
    ``h0`` with ``repeats`` independent seeds and records one row per run.
    Repeat seeds are shared across epsilon values (``cfg.seed + repeat``),
    pairing the rows so the scaling of the ledger total is not drowned in
    round-count noise.  The log-log slope is fitted on the per-epsilon
    mean totals.

    Raises:
        ValueError: If the direction is not unit-norm, sizes mismatch, or
            an epsilon value repeats (the slope needs distinct points).
    """
    norm = frobenius_norm(direction)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"Direction must have unit Frobenius norm, got {norm!r}.")
    if direction.n != h0.n:
        raise ValueError(f"System sizes differ: {direction.n} vs {h0.n}.")
    if not eps_list:
        raise ValueError("Need at least one epsilon value.")
    if len(set(eps_list)) != len(eps_list):
        raise ValueError(f"Epsilon values must be distinct, got {eps_list}.")
    if repeats < 1:
        raise ValueError(f"Repeat count must be positive, got {repeats}.")
    rows: list[SweepRow] = []
    means: list[float] = []
    for eps in eps_list:
        totals = []
        for rep in range(repeats):
            run_cfg = dataclasses.replace(cfg, epsilon=eps, seed=cfg.seed + rep)
            hidden = add(h0, scale(direction, eps))
            oracle = EvolutionOracle(hidden, run_cfg.mode)
            report = certify(h0, oracle, run_cfg)
            rows.append(
                SweepRow(
                    epsilon=eps,
                    total_time=report.ledger_total_time,
                    queries=report.ledger_query_count,
                    verdict=report.verdict,
                    seed=run_cfg.seed,
                )
            )
            totals.append(report.ledger_total_time)
        means.append(float(np.mean(totals)))
    if len(eps_list) >= 2:
        slope = float(np.polyfit(np.log(eps_list), np.log(means), 1)[0])
    else:
        slope = float("nan")
    return SweepResult(rows=tuple(rows), loglog_slope=slope)
