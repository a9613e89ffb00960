"""Untraced workload runs: one caller in a closed loop, every output checked.

An operation is one ``certify`` call, or one suite in ``verify-all``.  An
operation fails when it raises, or when its output breaks one of the gates
in :func:`report_problems`, the determinism check or the CLI check.  A
failure is counted and the run goes on.
"""

from __future__ import annotations

import itertools
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from hamcert import CertificationConfig, EvolutionOracle, certify, certifier, parse_hamiltonian
from hamcert.oracle import OracleMode
from hamcert.trotter import steps_from_bound
from hamcert.verification import run_suite, suite_names

from specs import CHECK_PAIR, CertifySpec, Pair, make_pair

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-ups per run: extra ones are made until there are at least this many
# and they took at least MIN_SETUP_S in all, so that cheap set-ups get a
# median over many samples.
MIN_SETUPS = 5
MIN_SETUP_S = 2.0
SUBPROCESS_TIMEOUT_S = 150
_MAX_PROBLEMS = 10


@dataclass
class Tally:
    """Operations attempted and failed, with the first failure messages."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: _MAX_PROBLEMS - len(self.problems)])
        return not problems


@dataclass
class Outcome:
    """What a run measured: gated metrics plus summary-only figures."""

    metrics: dict[str, tuple[float, str]]
    summary: list[str]


def program_env() -> dict[str, str]:
    """Environment for subprocesses that run the program from source."""
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fastest_parts(runs: list[tuple[float, list[float]]]) -> float:
    """Time of one operation built from its fastest parts.

    Each run is the wall time of one operation on the same input and the
    times of its parts in order (the rounds of a certify call); the time
    outside the parts is one more part.  Returns the sum over the parts of
    each part's fastest time across the runs.

    On a shared host another tenant's load can slow the program most of
    the time, in spells of milliseconds, and how much varies over tens of
    seconds.  Contention only adds time, so a short part that ran once
    between spells counts at its own cost, while the median of whole
    operations follows the load the run happened to get.
    """
    columns = zip(*[(total - math.fsum(parts), *parts) for total, parts in runs])
    return math.fsum(min(column) for column in columns)


def describe(name: str, samples: list[float], unit: str) -> str:
    """Minimum and median, plus the highest percentile with at least ten
    samples beyond it."""
    if not samples:
        return f"{name}: no samples"
    ordered = sorted(samples)
    n = len(ordered)
    parts = [f"min={ordered[0]:.6g}", f"p50={statistics.median(ordered):.6g}"]
    for q in (0.999, 0.99, 0.9):
        if n * (1.0 - q) >= 10:
            parts.append(f"p{q * 100:g}={ordered[math.ceil(q * n) - 1]:.6g}")
            break
    return f"{name}: {' '.join(parts)} {unit} (n={n})"


def set_up(spec: CertifySpec, pair: Pair):
    """Parse both texts, build the configuration and the oracle."""
    h0 = parse_hamiltonian(pair.h0_text)
    hidden = parse_hamiltonian(pair.h_text)
    cfg = CertificationConfig(**spec.config_kwargs(pair.certify_seed))
    return h0, hidden, cfg, EvolutionOracle(hidden, cfg.mode)


def expected_queries(report, cfg: CertificationConfig) -> int:
    """Exact forward-query count: shots per round in exact mode, and
    ``shots * steps * 2 * sectors`` per round in trotter mode."""
    shots = cfg.shots_per_round
    if cfg.mode is OracleMode.EXACT_EFFECTIVE:
        return shots * report.rounds_run
    sectors = 2**cfg.twirl_steps
    return sum(
        shots * steps_from_bound(cfg.twirl_steps, rec.time, cfg.trotter_tolerance) * 2 * sectors
        for rec in report.records
    )


def report_problems(report, cfg: CertificationConfig, pair: Pair) -> list[str]:
    """Gates on one certify report."""
    problems = []
    tag = f"pair {pair.index}"
    if not pair.separated and (
        report.verdict != "ACCEPT"
        or any(rec.identity_fraction != 1.0 for rec in report.records)
    ):
        problems.append(f"{tag}: equal pair gave {report.verdict} with fractions "
                        f"{[rec.identity_fraction for rec in report.records][:5]}")
    ceiling = cfg.rounds * cfg.shots_per_round * cfg.time_cap
    if not report.ledger_total_time <= ceiling:
        problems.append(f"{tag}: ledger {report.ledger_total_time!r} above ceiling {ceiling!r}")
    expected = expected_queries(report, cfg)
    if report.ledger_query_count != expected:
        problems.append(f"{tag}: {report.ledger_query_count} queries, expected {expected}")
    return problems


class RoundLaps:
    """While active, times every ``run_round`` call that ``certify`` makes.

    ``certify`` looks ``run_round`` up in its module at each round, so the
    timer wraps it there; it adds two clock reads per round.
    """

    def __init__(self) -> None:
        self.laps: list[float] = []
        self._original = certifier.run_round

    def _timed(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return self._original(*args, **kwargs)
        finally:
            self.laps.append(time.perf_counter() - t0)

    def __enter__(self) -> "RoundLaps":
        certifier.run_round = self._timed
        return self

    def __exit__(self, *exc_info) -> None:
        certifier.run_round = self._original


def checked_certify(spec: CertifySpec, pair: Pair, tally: Tally):
    """Set up and certify one pair; returns (setup_s, certify_s, report,
    round times) or None."""
    try:
        t0 = time.perf_counter()
        h0, _, cfg, oracle = set_up(spec, pair)
        t1 = time.perf_counter()
        with RoundLaps() as rounds:
            report = certify(h0, oracle, cfg)
        t2 = time.perf_counter()
    except Exception as exc:  # a crash is a failed operation, not the end of the run
        tally.record([f"pair {pair.index}: {type(exc).__name__}: {exc}"])
        return None
    if not tally.record(report_problems(report, cfg, pair)):
        return None
    return t1 - t0, t2 - t1, report, rounds.laps


def cli_problems(spec: CertifySpec, pair: Pair, report) -> list[str]:
    """Run ``python -m hamcert certify`` on the pair and compare with ``report``."""
    with tempfile.TemporaryDirectory(prefix=".tmp-", dir=HERE) as tmp:
        h0_path, h_path = Path(tmp, "h0.txt"), Path(tmp, "h.txt")
        h0_path.write_text(pair.h0_text)
        h_path.write_text(pair.h_text)
        proc = subprocess.run(
            [sys.executable, "-m", "hamcert", "certify", "--h0", str(h0_path),
             "--h", str(h_path), *spec.cli_flags(pair.certify_seed)],
            capture_output=True, env=program_env(), timeout=SUBPROCESS_TIMEOUT_S,
        )
    problems = []
    want = 0 if report.verdict == "ACCEPT" else 1
    if proc.returncode != want:
        problems.append(f"cli: exit {proc.returncode} for {report.verdict}, expected {want}: "
                        f"{proc.stderr.decode(errors='replace')[-200:]}")
    if proc.stdout != report.render().encode():
        problems.append("cli: stdout differs from the in-process render()")
    return problems


def run_certify(spec: CertifySpec, seed: int, seconds: float, tally: Tally) -> Outcome:
    setups: list[float] = []
    times: dict[bool, list[float]] = {False: [], True: []}  # keyed by separated
    accepts: list[tuple[float, list[float]]] = []  # equal-pair calls with round times
    rounds, certify_time, rejected = 0, 0.0, 0
    check_report = None
    classes = {False, True} if spec.alternate else {False}
    tried: set[bool] = set()
    skipped: set[bool] = set()
    deadline = time.perf_counter() + seconds
    for index in spec.loop_pairs():
        pair = make_pair(spec, seed, index)
        now = time.perf_counter()
        if now >= deadline and tried >= classes:
            break
        samples = times[pair.separated]
        if samples and now + statistics.median(setups) + statistics.median(samples) > deadline:
            skipped.add(pair.separated)
            if skipped >= classes:
                break
            continue
        skipped.clear()
        tried.add(pair.separated)
        done = checked_certify(spec, pair, tally)
        if done is None:
            continue
        setup_s, certify_s, report, laps = done
        setups.append(setup_s)
        samples.append(certify_s)
        if not pair.separated:
            accepts.append((certify_s, laps))
        rounds += report.rounds_run
        certify_time += certify_s
        rejected += pair.separated and report.verdict == "REJECT"
        if index == CHECK_PAIR:
            check_report = report

    # Determinism: the same pair and seed must render the same bytes twice.
    check = make_pair(spec, seed, CHECK_PAIR)
    runs = [check_report] if check_report else []
    while len(runs) < 2:
        done = checked_certify(spec, check, tally)
        if done is None:
            break
        setups.append(done[0])
        runs.append(done[2])
    if len(runs) == 2:
        same = runs[0].render() == runs[1].render()
        tally.record([] if same else [f"pair {CHECK_PAIR}: render() differs between two runs"])
        try:
            tally.record(cli_problems(spec, check, runs[0]))
        except (OSError, subprocess.SubprocessError) as exc:
            tally.record([f"cli: {type(exc).__name__}: {exc}"])

    for index in itertools.count(1000):
        if len(setups) >= MIN_SETUPS and sum(setups) >= MIN_SETUP_S:
            break
        t0 = time.perf_counter()
        try:
            set_up(spec, make_pair(spec, seed, index))
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            tally.record([f"set-up {index}: {type(exc).__name__}: {exc}"])
            break
        setups.append(time.perf_counter() - t0)

    separated = len(times[True])
    if not accepts:
        accept_s, how = math.nan, "no equal-pair calls"
    elif spec.fastest_rounds:
        accept_s = fastest_parts(accepts)
        how = f"each round's fastest time over {len(accepts)} calls of the equal pair, summed"
    else:
        accept_s = statistics.median(times[False])
        how = f"median of {len(accepts)} calls of the equal pair"
    summary = [
        describe("setup_s", setups, "s"),
        f"accept_s: {accept_s:.6g} s ({how})",
        describe("accept_s_calls", times[False], "s"),
        f"rounds_per_s: {rounds / certify_time if certify_time else float('nan'):.6g} 1/s "
        f"(n={spec.n}, k={spec.k}, {rounds} rounds)",
    ]
    if spec.alternate:
        summary.insert(3, describe("reject_s", times[True], "s"))
        summary.append(f"reject_rate: {rejected / separated if separated else float('nan'):.6g} "
                       f"({rejected}/{separated} separated pairs)")
    return Outcome(_gated(setups, accept_s), summary)


def import_seconds() -> float:
    """Start a fresh interpreter that imports the verification suites."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import hamcert.verification"],
                   env=program_env(), check=True, timeout=SUBPROCESS_TIMEOUT_S)
    return time.perf_counter() - t0


def verify_pass(seed: int, trials: int | None, tally: Tally,
                reference: dict[str, str], acc: dict | None = None) -> float:
    """Run every suite once; a suite fails when it FAILs, raises, or prints
    another summary than in an earlier pass.  Returns the pass wall time."""
    start = time.perf_counter()
    for name in suite_names():
        t0 = time.perf_counter()
        try:
            result = run_suite(name, trials=trials, seed=seed)
        except Exception as exc:  # a crash is a failed suite, not the end of the run
            tally.record([f"{name}: {type(exc).__name__}: {exc}"])
            continue
        if acc is not None:
            acc[f"verification.{name}_s"] += time.perf_counter() - t0
        line = result.summary()
        problems = [] if result.passed else [line]
        if reference.setdefault(name, line) != line:
            problems.append(f"{name}: summary differs between passes")
        tally.record(problems)
    return time.perf_counter() - start


def run_verify(seed: int, seconds: float, tally: Tally, trials: int | None = None) -> Outcome:
    setups = []
    for _ in range(MIN_SETUPS):
        try:
            setups.append(import_seconds())
        except (OSError, subprocess.SubprocessError) as exc:
            tally.record([f"import: {type(exc).__name__}: {exc}"])
    passes: list[float] = []
    reference: dict[str, str] = {}
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() + statistics.median(passes) <= deadline:
        passes.append(verify_pass(seed, trials, tally, reference))
    summary = [describe("setup_s", setups, "s"), describe("verify_s", passes, "s")]
    return Outcome(_gated(setups, statistics.median(passes)), summary)


def _gated(setups: list[float], verdict_s: float) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (statistics.median(setups) if setups else math.nan, "s"),
        "accept_s": (verdict_s, "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
