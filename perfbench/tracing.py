"""Traced runs: per-layer busy time and counts, measured from outside.

Certify workloads: the traced run drives every round itself through the
public layer calls in ``run_round``'s order and times each call.  Where one
public call makes others inside it, the inner calls are repeated on the
same inputs and timed, and the outer call's self time is the difference:

* ``EvolutionOracle.sample_twirl`` -> ``run_twirl`` (same rng state);
* ``EvolutionOracle.effective_shot`` -> ``to_dense``, ``eig_decompose``,
  ``propagator``;
* ``trotter_evolve`` -> ``query_forward``, repeated as many times as the
  ledger counted, on a second oracle built from the same text.

The first round of the first pair is then run again by ``run_round`` from
the same rng state on a third oracle; its ``RoundRecord`` must be equal to the
traced one, and the wall-time difference of the two is the tracing
overhead.  The traced run processes a fixed list of pairs, so its counts
repeat exactly for a given seed.

``verify-all``: each suite is timed, and the dense, Bell and round entry
points are wrapped with timers while the suites run.  There a figure is
busy time inside the wrapped function, inner calls included.  The
tracing overhead is the traced pass minus the mean of an untraced pass
before it and one after it.

Figures of layers that a workload does not reach read 0.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import functools
import math
import statistics
import sys
import time

import numpy as np

from hamcert import (
    CertificationConfig,
    CertificationReport,
    EvolutionLedger,
    EvolutionOracle,
    identity_prob_trace,
    parse_hamiltonian,
    run_round,
    run_twirl,
    sample_identity_shots,
    sample_subspace,
    trotter_evolve,
)
from hamcert.certifier import RoundRecord, _digest
from hamcert.dense import eig_decompose, propagator, to_dense
from hamcert.oracle import OracleMode
from hamcert.pauli import subtract
from hamcert.trotter import TrotterPlan, steps_from_bound, twirl_conjugators
from hamcert.twirl import sample_twirl_paulis
from hamcert.verification import suite_names

from bench import Tally, report_problems, verify_pass
from specs import CertifySpec, make_pair

SUITES = tuple(suite_names())

#: Every per-layer metric with its unit, in reporting order.
LAYER_METRICS: dict[str, str] = {
    "certifier.config_s": "s",
    "certifier.round_s": "s",
    "certifier.rounds": "count",
    "certifier.render_s": "s",
    "pauli.parse_s": "s",
    "oracle.init_s": "s",
    "oracle.sample_twirl_s": "s",
    "oracle.effective_shot_self_s": "s",
    "oracle.query_forward_calls": "count",
    "oracle.query_forward_s": "s",
    "oracle.charge_ns": "ns",
    "oracle.cache_hit_ratio": "ratio",
    "oracle.cache_mib_computed": "MiB",
    "oracle.ledger_rel_drift": "ratio",
    "twirl.run_twirl_s": "s",
    "twirl.residual_terms": "count",
    "dense.to_dense_s": "s",
    "dense.eigh_s": "s",
    "dense.eigh_calls": "count",
    "dense.propagator_s": "s",
    "bell.identity_prob_trace_s": "s",
    "bell.bell_measure_choi_s": "s",
    "trotter.evolve_self_s": "s",
    "trotter.steps": "count",
    "trotter.matmuls_computed": "count",
    **{f"verification.{name}_s": "s" for name in SUITES},
    "trace.overhead_s": "s",
}


def _zeroed() -> dict[str, float]:
    return {name: 0 if unit == "count" else 0.0 for name, unit in LAYER_METRICS.items()}


def charge_ns(calls: int = 100_000, repeats: int = 5) -> float:
    """Median cost of one ``EvolutionLedger.charge``, loop included."""
    samples = []
    for _ in range(repeats):
        ledger = EvolutionLedger()
        t0 = time.perf_counter()
        for _ in range(calls):
            ledger.charge(1e-3)
        samples.append((time.perf_counter() - t0) / calls * 1e9)
    return statistics.median(samples)


class _TracedPair:
    """Drives one certify call round by round, accumulating into ``acc``."""

    def __init__(self, h0, hidden, oracle, cfg: CertificationConfig, acc: dict) -> None:
        self.h0, self.oracle, self.cfg, self.acc = h0, oracle, cfg, acc
        self.exact = cfg.mode is OracleMode.EXACT_EFFECTIVE
        self.difference = subtract(hidden, h0) if self.exact else None
        # Replays of forward queries go to a second oracle, so the ledger
        # and cache of the traced one see only the program's own calls.
        self.twin = None if self.exact else EvolutionOracle(hidden, cfg.mode)
        self.durations: set[float] = set()

    def _timed(self, key: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.acc[key] += time.perf_counter() - t0
        return out

    def round(self, rng: np.random.Generator, index: int) -> tuple[RoundRecord, float]:
        """One round in ``run_round``'s order; returns the record and its wall time."""
        acc, cfg, oracle = self.acc, self.cfg, self.oracle
        start = time.perf_counter()
        replay = 0.0
        subspace = sample_subspace(self.h0.n, rng)
        shots = cfg.shots_per_round
        if self.exact:
            before = copy.deepcopy(rng)
            transcript = self._timed("oracle.sample_twirl_s", oracle.sample_twirl,
                                     self.h0, subspace, cfg.twirl_steps, rng)
            r0 = time.perf_counter()
            run_twirl(self.difference, subspace, cfg.twirl_steps, before)
            r1 = time.perf_counter()
            acc["twirl.run_twirl_s"] += r1 - r0
            acc["twirl.residual_terms"] += transcript.residual.num_terms
            t = float(rng.uniform(0.0, cfg.time_cap))
            s0 = time.perf_counter()
            u = oracle.effective_shot(transcript.twirled, t, shots=shots)
            s1 = time.perf_counter()
            m = to_dense(transcript.twirled)
            s2 = time.perf_counter()
            w, v = eig_decompose(m)
            s3 = time.perf_counter()
            propagator(w, v, t)
            s4 = time.perf_counter()
            acc["dense.to_dense_s"] += s2 - s1
            acc["dense.eigh_s"] += s3 - s2
            acc["dense.eigh_calls"] += 1
            acc["dense.propagator_s"] += s4 - s3
            acc["oracle.effective_shot_self_s"] += (s1 - s0) - (s4 - s1)
            replay += (r1 - r0) + (s4 - s1)
            paulis = transcript.paulis
        else:
            paulis = sample_twirl_paulis(subspace, cfg.twirl_steps, rng)
            t = float(rng.uniform(0.0, cfg.time_cap))
            sectors = twirl_conjugators(subspace, paulis)
            steps = steps_from_bound(len(paulis), t, cfg.trotter_tolerance)
            plan = TrotterPlan(sectors, steps, t)
            q0 = oracle.ledger.query_count
            e0 = time.perf_counter()
            u = trotter_evolve(oracle, self.h0, plan, shots=shots)
            e1 = time.perf_counter()
            queries = oracle.ledger.query_count - q0
            half = plan.total_time * plan.sector_weight / (2 * plan.steps)
            query = self.twin.query_forward
            for _ in range(queries):
                query(half)
            e2 = time.perf_counter()
            replay += e2 - e1
            self.durations.add(half)
            acc["oracle.query_forward_calls"] += queries
            acc["oracle.query_forward_s"] += e2 - e1
            acc["trotter.evolve_self_s"] += (e1 - e0) - (e2 - e1)
            acc["trotter.steps"] += steps
            # Step loop, the two pair products, three products per sector
            # in each half, and the product of the halves.
            acc["trotter.matmuls_computed"] += steps + 2 + 6 * len(sectors) + 1
        prob = self._timed("bell.identity_prob_trace_s", identity_prob_trace, u)
        count = sample_identity_shots(prob, shots, rng)
        fraction = count / shots
        record = RoundRecord(
            index=index,
            axes=str(subspace),
            transcript_digest=_digest(str(subspace), paulis),
            time=t,
            identity_fraction=fraction,
            flagged=fraction <= cfg.accept_threshold,
        )
        wall = time.perf_counter() - start
        acc["certifier.round_s"] += wall - replay
        acc["certifier.rounds"] += 1
        return record, wall

    def certify(self) -> tuple[CertificationReport, float]:
        """All rounds as ``certify`` runs them; returns the report and the
        wall time of round 1."""
        rng = np.random.default_rng(self.cfg.seed)
        records: list[RoundRecord] = []
        first_wall = 0.0
        for index in range(1, self.cfg.rounds + 1):
            record, wall = self.round(rng, index)
            first_wall = first_wall or wall
            records.append(record)
            if record.flagged:
                break
        flagged = records[-1].flagged
        values = dict(
            verdict="REJECT" if flagged else "ACCEPT",
            rounds_run=len(records),
            rejecting_round=len(records) if flagged else None,
            records=tuple(records),
            ledger_total_time=self.oracle.ledger.total_time,
            ledger_query_count=self.oracle.ledger.query_count,
            seed=self.cfg.seed,
            scheduling="sequential",
            config=self.cfg,
        )
        fields = {f.name for f in dataclasses.fields(CertificationReport)}
        report = CertificationReport(**{k: v for k, v in values.items() if k in fields})
        self._timed("certifier.render_s", report.render)
        return report, first_wall


def trace_certify(spec: CertifySpec, seed: int, tally: Tally) -> dict:
    acc = _zeroed()
    queries = hits = 0
    held_mib = drift = 0.0
    for position, index in enumerate(spec.trace_pairs):
        pair = make_pair(spec, seed, index)
        try:
            t0 = time.perf_counter()
            h0 = parse_hamiltonian(pair.h0_text)
            hidden = parse_hamiltonian(pair.h_text)
            t1 = time.perf_counter()
            cfg = CertificationConfig(**spec.config_kwargs(pair.certify_seed))
            t2 = time.perf_counter()
            oracle = EvolutionOracle(hidden, cfg.mode)
            t3 = time.perf_counter()
            acc["pauli.parse_s"] += t1 - t0
            acc["certifier.config_s"] += t2 - t1
            acc["oracle.init_s"] += t3 - t2
            traced = _TracedPair(h0, hidden, oracle, cfg, acc)
            report, first_wall = traced.certify()
            reference = None
            if position == 0:
                check_oracle = EvolutionOracle(hidden, cfg.mode)
                r0 = time.perf_counter()
                reference = run_round(h0, check_oracle, cfg, np.random.default_rng(cfg.seed), 1)
                untraced = time.perf_counter() - r0
                del check_oracle
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            tally.record([f"trace pair {index}: {type(exc).__name__}: {exc}"])
            continue
        problems = report_problems(report, cfg, pair)
        if reference is not None:
            acc["trace.overhead_s"] = first_wall - untraced
            if report.records[0] != reference:
                problems.append(f"trace pair {index}: round 1 {report.records[0]} "
                                f"differs from run_round's {reference}")
        tally.record(problems)
        exact_total = cfg.shots_per_round * math.fsum(rec.time for rec in report.records)
        if exact_total > 0:
            drift = max(drift, abs(report.ledger_total_time - exact_total) / exact_total)
        if not traced.exact:
            # A propagator is computed once per distinct duration.
            queries += report.ledger_query_count
            hits += report.ledger_query_count - len(traced.durations)
            held_mib = max(held_mib, len(traced.durations) * 16 * 4**spec.n / 2**20)
    acc["oracle.cache_hit_ratio"] = hits / queries if queries else 0.0
    acc["oracle.cache_mib_computed"] = held_mib
    acc["oracle.ledger_rel_drift"] = drift
    acc["oracle.charge_ns"] = charge_ns()
    return acc


# Entry points wrapped during the traced verify pass: (module, function)
# to (busy-time metric, call-count metric or None).
_WRAPPED = {
    ("hamcert.certifier", "run_round"): ("certifier.round_s", "certifier.rounds"),
    ("hamcert.dense", "to_dense"): ("dense.to_dense_s", None),
    ("hamcert.dense", "eig_decompose"): ("dense.eigh_s", "dense.eigh_calls"),
    ("hamcert.dense", "eigenvalues"): ("dense.eigh_s", "dense.eigh_calls"),
    ("hamcert.dense", "propagator"): ("dense.propagator_s", None),
    ("hamcert.bell", "identity_prob_trace"): ("bell.identity_prob_trace_s", None),
    ("hamcert.bell", "bell_measure_choi"): ("bell.bell_measure_choi_s", None),
}


def _timer(fn, acc: dict, time_key: str, count_key):
    @functools.wraps(fn)
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            acc[time_key] += time.perf_counter() - t0
            if count_key:
                acc[count_key] += 1
    return timed


@contextlib.contextmanager
def layer_timers(acc: dict):
    """Replace each wrapped function wherever a hamcert module binds it."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "hamcert" or name.startswith("hamcert.")]
    patched = []
    try:
        for (module, name), (time_key, count_key) in _WRAPPED.items():
            original = getattr(sys.modules[module], name)
            timed = _timer(original, acc, time_key, count_key)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, timed)
                        patched.append((m, attr, original))
        yield
    finally:
        for m, attr, original in reversed(patched):
            setattr(m, attr, original)


def trace_verify(seed: int, tally: Tally, trials=None) -> dict:
    acc = _zeroed()
    reference: dict[str, str] = {}
    # Untraced passes before and after the traced one, so that warm-up
    # falls on neither side of the difference alone.
    before = verify_pass(seed, trials, tally, reference)
    with layer_timers(acc):
        traced = verify_pass(seed, trials, tally, reference, acc)
    after = verify_pass(seed, trials, tally, reference)
    acc["trace.overhead_s"] = traced - (before + after) / 2
    acc["oracle.charge_ns"] = charge_ns()
    return acc
