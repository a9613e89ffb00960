"""Pinned report bytes: every certify report and sweep CSV must stay the same.

Each case names its Hamiltonian files under ``tests/golden/`` and the
configuration it is certified with; the expected ``render()`` output is
the file ``<case>.report``, or the report named in ``SAME_REPORT``.  A change that moves any byte, for example a
binomial draw flipped by a last-digit change of an identity probability,
must be explained where it is made, not re-pinned silently.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from hamcert import CertificationConfig, EvolutionOracle, certify, parse_hamiltonian
from hamcert import certifier, dense, oracle, pauli, trotter, twirl
from hamcert.cli import main
from hamcert.oracle import OracleMode
from hamcert.pauli import PauliSum, _codes, frobenius_norm, scale

GOLDEN = Path(__file__).parent / "golden"

EXACT, TROTTER = OracleMode.EXACT_EFFECTIVE, OracleMode.TROTTERIZED

_K2 = dict(epsilon=0.2, delta=0.2, k=2, mode=EXACT)
_N1 = dict(epsilon=0.2, delta=0.2, k=1, mode=EXACT)
_TROTTER = dict(
    epsilon=0.2, delta=0.2, k=1, c2=2.0, mode=TROTTER, allow_weak_constants=True
)
# The paper's constants: twirl depth 17 at k=1 and 34 at k=2.
_TROTTER_DEFAULT = dict(epsilon=0.2, delta=0.2, k=1, mode=TROTTER)

#: case -> (reference file, hidden file, configuration)
CASES = {
    "k2n6-equal-seed3": ("k2n6.h0", "k2n6.h0", dict(_K2, seed=3)),
    "k2n6-equal-seed8": ("k2n6.h0", "k2n6.h0", dict(_K2, seed=8)),
    "k2n6-separated-seed3": ("k2n6.h0", "k2n6-far.h", dict(_K2, seed=3)),
    "k2n6-separated-seed8": ("k2n6.h0", "k2n6-far.h", dict(_K2, seed=8)),
    # Separated by 1e-4 only: rounds with identity fractions below 1 that
    # still pass, so the binomial draws see identity probabilities below 1.
    "k2n6-near-seed3": ("k2n6.h0", "k2n6-near.h", dict(_K2, seed=3)),
    # 64 sites near the chain: 18 to 31 blocks per round, each with its
    # own cut labels, and two identity fractions below 1.
    "chain-n64-near-seed1": ("chain-n64.h0", "chain-n64-near.h", dict(_K2, seed=1)),
    # The same plus a weight-64 term that the twirl filters in every round.
    "chain-n64-near-heavy-seed1": (
        "chain-n64.h0", "chain-n64-near-heavy.h", dict(_K2, seed=1)),
    "endtoend-same-seed0": ("n1.h0", "n1.h0", dict(_N1, seed=0)),
    "endtoend-far-seed10000": ("n1.h0", "n1-far.h", dict(_N1, seed=10_000)),
    "trotter-n4-equal-seed3": ("n4.h0", "n4.h0", dict(_TROTTER, seed=3)),
    "trotter-n4-separated-seed5": ("n4.h0", "n4-far.h", dict(_TROTTER, seed=5)),
    # 24 one-site blocks, all of one size.
    "trotter-n24-equal-seed1": ("fields-n24.h0", "fields-n24.h0", dict(_TROTTER, seed=1)),
    "trotter-n24-far-seed1": ("fields-n24.h0", "fields-n24-far.h", dict(_TROTTER, seed=1)),
    # Blocks of 1, 2, 3, 1 and 2 sites: three sizes, interleaved in site order.
    "trotter-mixed-n9-equal-seed1": ("mixed-n9.h0", "mixed-n9.h0", dict(_TROTTER, k=2, seed=1)),
    "trotter-mixed-n9-far-seed1": ("mixed-n9.h0", "mixed-n9-far.h", dict(_TROTTER, k=2, seed=1)),
    "trotter-default-n24-equal-seed1": (
        "fields-n24.h0", "fields-n24.h0", dict(_TROTTER_DEFAULT, seed=1)),
    "trotter-default-n24-far-seed1": (
        "fields-n24.h0", "fields-n24-far.h", dict(_TROTTER_DEFAULT, seed=1)),
    "trotter-default-mixed-n9-equal-seed1": (
        "mixed-n9.h0", "mixed-n9.h0", dict(_TROTTER_DEFAULT, k=2, seed=1)),
    "trotter-default-mixed-n9-far-seed1": (
        "mixed-n9.h0", "mixed-n9-far.h", dict(_TROTTER_DEFAULT, k=2, seed=1)),
}

#: case -> the case whose pinned report it must reproduce
SAME_REPORT = {"chain-n64-near-heavy-seed1": "chain-n64-near-seed1"}

SWEEP_ARGS = [
    "sweep", "--h0", "sweep.h0", "--direction", "sweep.dir",
    "--eps-list", "0.4,0.2,0.1", "--repeats", "2",
    "--delta", "0.2", "--k", "1", "--seed", "4",
]


def _load(name: str):
    return parse_hamiltonian((GOLDEN / name).read_text())


def render_case(case: str) -> str:
    h0_file, h_file, kwargs = CASES[case]
    cfg = CertificationConfig(**kwargs)
    oracle = EvolutionOracle(_load(h_file), cfg.mode)
    return certify(_load(h0_file), oracle, cfg).render()


@pytest.mark.parametrize("case", sorted(CASES))
def test_certify_report_bytes(case):
    report = SAME_REPORT.get(case, case)
    assert render_case(case) == (GOLDEN / f"{report}.report").read_text()


#: The trotter-mode cases; exact mode draws each of their rounds alike.
TROTTER_CASES = sorted(case for case in CASES if case.startswith("trotter-"))


def _without_mode_lines(report: str) -> list[str]:
    """The report's lines but for ``mode:`` and ``ledger_query_count:``, the
    only ones that tell the two modes apart on the same draws."""
    return [line for line in report.splitlines()
            if not line.startswith(("mode: ", "ledger_query_count: "))]


@pytest.mark.parametrize("case", TROTTER_CASES)
def test_exact_mode_renders_each_trotter_report(case):
    # Both modes charge shots * t per round, and their identity
    # probabilities lie closer than any binomial draw here resolves.
    h0_file, h_file, kwargs = CASES[case]
    cfg = CertificationConfig(**dict(kwargs, mode=EXACT))
    report = certify(_load(h0_file), EvolutionOracle(_load(h_file), EXACT), cfg).render()
    pinned = (GOLDEN / f"{case}.report").read_text()
    assert _without_mode_lines(report) == _without_mode_lines(pinned)


@pytest.mark.parametrize("case", TROTTER_CASES)
def test_each_trotter_round_has_its_exact_probability(case, monkeypatch):
    # Each round of the pinned trotter run, with exact mode's probability
    # of the same draws beside it: they differ only by the product
    # formula's error, which the budget bounds.
    h0_file, h_file, kwargs = CASES[case]
    exact = EvolutionOracle(_load(h_file), EXACT)
    round_probability = certifier._round_probability
    gaps = []

    def both_modes(h0, oracle, cfg, draws):
        p_trotter = round_probability(h0, oracle, cfg, draws)
        p_exact = round_probability(h0, exact, cfg, draws)
        gaps.append(abs(p_trotter - p_exact))
        assert gaps[-1] <= cfg.trotter_tolerance, (
            f"{case}, round {len(gaps)}: p_trotter={p_trotter!r}, p_exact={p_exact!r}")
        return p_trotter

    monkeypatch.setattr(certifier, "_round_probability", both_modes)
    report = render_case(case)
    assert report == (GOLDEN / f"{case}.report").read_text()
    assert f"rounds_run: {len(gaps)}\n" in report


def test_sweep_csv_bytes(monkeypatch, capsys):
    # File names enter the CSV header, so run from the golden directory.
    monkeypatch.chdir(GOLDEN)
    assert main(SWEEP_ARGS) == 0
    assert capsys.readouterr().out == (GOLDEN / "sweep.csv").read_text()


def test_verify_all_output_bytes(monkeypatch, capsys):
    # The default seed comes from $HAMCERT_SEED, so pin it to 0 by removing it.
    monkeypatch.delenv("HAMCERT_SEED", raising=False)
    assert main(["verify"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "verify-all.txt").read_text()


#: Seeds of ``verify-seeds.txt``, each pinned under a ``# <command>`` line.
VERIFY_SEEDS = (1, 2)


def test_verify_seeded_output_bytes(capsys):
    text = ""
    for seed in VERIFY_SEEDS:
        args = ["verify", "--suite", "all", "--seed", str(seed)]
        text += "# hamcert " + " ".join(args) + "\n"
        assert main(args) == 0
        text += capsys.readouterr().out
    assert text == (GOLDEN / "verify-seeds.txt").read_text()


def _chain(n: int) -> PauliSum:
    """The chain of ``chain-n64.h0`` on ``n`` sites: X 0.5 on each site and
    ZZ 0.3 on each bond."""
    fields = [("I" * i + "X" + "I" * (n - 1 - i), 0.5) for i in range(n)]
    bonds = [("I" * i + "ZZ" + "I" * (n - 2 - i), 0.3) for i in range(n - 1)]
    return PauliSum(n, fields + bonds)


def _ladder_difference(n: int, rng: np.random.Generator) -> PauliSum:
    """3n terms, each of weight 1 or 2 with equal odds, on distinct uniform
    sites with uniform letters and a standard-normal coefficient, scaled to
    Frobenius norm 1e-4."""
    pairs = []
    for _ in range(3 * n):
        w = 1 if rng.random() < 0.5 else 2
        label = ["I"] * n
        for site in rng.choice(n, w, replace=False):
            label[site] = "XYZ"[rng.integers(0, 3)]
        pairs.append(("".join(label), rng.normal()))
    d = PauliSum(n, pairs)
    return scale(d, 1e-4 / frobenius_norm(d))


#: sha256 of the report of the 256-site exact-mode ladder rung below.
LADDER_N256_SHA256 = "608d0ad199983092e16d31e8e20d787d0103184ce1d78afcdddbaee4c00dccaf"


def test_the_256_site_ladder_rung_report_is_pinned():
    # Each round at n=256 cuts a thousand-term sum into many blocks; the
    # report bytes must not move with how that is done.
    assert _chain(64) == _load("chain-n64.h0")
    h0 = _chain(256)
    hidden = h0 + _ladder_difference(256, np.random.default_rng(7))
    cfg = CertificationConfig(**dict(_K2, seed=1))
    report = certify(h0, EvolutionOracle(hidden, cfg.mode), cfg).render()
    assert hashlib.sha256(report.encode()).hexdigest() == LADDER_N256_SHA256


def test_a_certify_encodes_labels_a_fixed_number_of_times(monkeypatch):
    # The twirl's parts hold their segments of the difference's support, so
    # no round encodes labels again: a run of 144 rounds encodes as many
    # as one of 34.
    calls = []

    def counted(labels, n):
        calls.append(n)
        return _codes(labels, n)

    for module in (pauli, twirl, oracle, trotter, dense):
        monkeypatch.setattr(module, "_codes", counted)
    h0 = _chain(64)
    hidden = h0 + _ladder_difference(64, np.random.default_rng(7))
    counts = []
    for delta in (0.5, 0.05):
        cfg = CertificationConfig(**dict(_K2, delta=delta, seed=1))
        calls.clear()
        report = certify(h0, EvolutionOracle(hidden, cfg.mode), cfg)
        assert report.rounds_run == cfg.rounds
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 1
