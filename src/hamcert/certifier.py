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

The default constants make the round count, twirl depth, time cap, shot
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
  implementation-error budget ``eps_trott <= 1/(128 * 9^k)``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .bell import identity_prob_trace, sample_identity_shots
from .oracle import EvolutionOracle, OracleMode
from .pauli import PauliSum, add, frobenius_norm, is_k_local, scale
from .trotter import (
    UNROLL_DRAW_CAP,
    TrotterPlan,
    steps_from_bound,
    trotter_evolve,
    twirl_conjugators,
)
from .twirl import sample_subspace, sample_twirl_paulis

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
    """Inputs and constants of one certification run.

    ``eps_trott`` of ``None`` resolves to the largest admissible
    implementation-error budget ``1 / (128 * 9^k)``.  Constants may be
    overridden for experiments, but overrides that break the consistency
    arithmetic require ``allow_weak_constants=True``.  The trotterized mode
    needs this at any realistic twirl depth: the default depth exceeds
    :data:`~hamcert.trotter.UNROLL_DRAW_CAP`, which keeps the rounding of
    the product over ``2^T`` sectors far below the error budget.
    """

    epsilon: float
    delta: float
    k: int
    c1: float = DEFAULT_C1
    c2: float = DEFAULT_C2
    c3: float = DEFAULT_C3
    c4: float = DEFAULT_C4
    c0: float = DEFAULT_C0
    eps_trott: Optional[float] = None
    mode: OracleMode = OracleMode.EXACT_EFFECTIVE
    seed: int = 0
    allow_weak_constants: bool = False

    def __post_init__(self) -> None:
        self.validate()

    # Derived protocol parameters.

    @property
    def rounds(self) -> int:
        return math.ceil(self.c1 * 3**self.k * math.log(1.0 / self.delta))

    @property
    def twirl_steps(self) -> int:
        return math.ceil(self.c2 * self.k)

    @property
    def time_cap(self) -> float:
        return self.c3 * 3.0 ** (self.k / 2.0) / self.epsilon

    @property
    def shots_per_round(self) -> int:
        return math.ceil(self.c4 * 9**self.k)

    @property
    def accept_threshold(self) -> float:
        return 1.0 - self.c0 / 9**self.k

    @property
    def trotter_tolerance(self) -> float:
        if self.eps_trott is not None:
            return self.eps_trott
        return 1.0 / (128.0 * 9**self.k)

    def validate(self) -> None:
        """Range checks always; constants-consistency arithmetic unless waived."""
        for name in ("epsilon", "delta", "c1", "c2", "c3", "c4", "c0", "eps_trott"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}.")
        if self.epsilon <= 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}.")
        if not 0 < self.delta < 1:
            raise ConfigError(f"delta must lie in (0, 1), got {self.delta}.")
        if not isinstance(self.k, int) or self.k < 1:
            raise ConfigError(f"k must be a positive integer, got {self.k!r}.")
        for name in ("c1", "c2", "c3", "c4"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive.")
        if not 0 < self.c0 < 1:
            raise ConfigError(f"c0 must lie in (0, 1), got {self.c0}.")
        try:
            counts = {"rounds": self.rounds, "shots_per_round": self.shots_per_round}
            time_cap = self.time_cap
            tol = self.trotter_tolerance
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
        if tol <= 0:
            raise ConfigError(f"eps_trott must be positive, got {tol}.")
        if self.mode is OracleMode.TROTTERIZED and self.twirl_steps > UNROLL_DRAW_CAP:
            raise ConfigError(
                f"Trotterized mode cannot unroll twirl depth {self.twirl_steps} "
                f"(cap {UNROLL_DRAW_CAP}); override c2 downward and pass "
                "allow_weak_constants=True for a reduced-depth run."
            )
        if self.allow_weak_constants:
            return
        steps = self.twirl_steps
        if 2**steps < 2**11 * 27**self.k:
            raise ConfigError(
                f"Twirl depth {steps} is too shallow: need 2^steps >= "
                f"2^11 * 27^k = {2**11 * 27**self.k}."
            )
        if tol > 1.0 / (128.0 * 9**self.k) * (1 + 1e-12):
            raise ConfigError(
                f"eps_trott={tol:.3e} exceeds the admissible budget "
                f"1/(128*9^k)={1.0 / (128.0 * 9 ** self.k):.3e}."
            )
        dip = 1.0 / (32.0 * 9**self.k)
        margin = self.c0 / 9**self.k
        if dip - 2.0 * tol < margin * (1 - 1e-12):
            raise ConfigError(
                f"Threshold margin violated: dip {dip:.3e} minus twice "
                f"eps_trott {tol:.3e} falls below c0/9^k = {margin:.3e}."
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
            f"c1: {cfg.c1!r}",
            f"c2: {cfg.c2!r}",
            f"c3: {cfg.c3!r}",
            f"c4: {cfg.c4!r}",
            f"c0: {cfg.c0!r}",
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
    payload = (axes + ":" + ",".join(paulis)).encode("ascii")
    return hashlib.sha256(payload).hexdigest()[:12]


def run_round(
    h0: PauliSum,
    oracle: EvolutionOracle,
    cfg: CertificationConfig,
    rng: np.random.Generator,
    index: int = 1,
) -> RoundRecord:
    """Execute one protocol round and report its empirical identity fraction.

    Draws the subspace, the twirl, and the evolution time from ``rng``,
    obtains the identity probability of the shot batch through the
    channel matching the configured mode (the oracle's effective channel
    in exact mode, the product formula in trotter mode), samples the
    shots, and flags the round when the identity fraction is at or below
    the acceptance threshold.
    """
    subspace = sample_subspace(h0.n, rng)
    axes = str(subspace)
    shots = cfg.shots_per_round
    if cfg.mode is OracleMode.EXACT_EFFECTIVE:
        transcript = oracle.sample_twirl(h0, subspace, cfg.twirl_steps, rng)
        t = float(rng.uniform(0.0, cfg.time_cap))
        prob = oracle.effective_identity_prob(transcript, t, shots=shots)
        paulis = transcript.paulis
    else:
        paulis = sample_twirl_paulis(subspace, cfg.twirl_steps, rng)
        t = float(rng.uniform(0.0, cfg.time_cap))
        steps = steps_from_bound(len(paulis), t, cfg.trotter_tolerance)
        plan = TrotterPlan(twirl_conjugators(subspace, paulis), steps, t)
        u = trotter_evolve(oracle, h0, plan, shots=shots)
        # The unitarity defect of S^steps grows about steps times that of
        # the step operator S, so the 1e-8 bound holds per step.
        prob = identity_prob_trace(u, atol=1e-8 * steps)
    count = sample_identity_shots(prob, shots, rng)
    fraction = count / shots
    return RoundRecord(
        index=index,
        axes=axes,
        transcript_digest=_digest(axes, paulis),
        time=t,
        identity_fraction=fraction,
        flagged=fraction <= cfg.accept_threshold,
    )


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
