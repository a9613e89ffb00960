"""Tests for the certification protocol, its config, and the sweep harness."""

import hashlib
import itertools
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamcert import trotter
from hamcert.bell import identity_prob_factors, identity_prob_trace
from hamcert.certifier import (
    DEFAULT_C0,
    DEFAULT_C1,
    DEFAULT_C3,
    CertificationConfig,
    ConfigError,
    RoundRecord,
    _digest,
    _row_digest,
    certify,
    run_round,
    sweep_epsilon,
)
from hamcert.instances import random_pauli_sum
from hamcert.oracle import EvolutionLedger, EvolutionOracle, OracleMode
from hamcert.pauli import PauliSum, frobenius_norm, parse_hamiltonian, subtract
from hamcert.trotter import TROTTER_STEP_CAP, TrotterPlan, steps_from_bound, trotter_blocks
from hamcert.twirl import DiagonalSubspace, _draw, _labels, apply_twirl, sample_subspace


def make_oracle(hidden, mode=OracleMode.EXACT_EFFECTIVE):
    return EvolutionOracle(hidden, mode)


class TestConfigDerivation:
    def test_default_constants(self):
        cfg = CertificationConfig(epsilon=0.2, delta=0.2, k=1)
        assert DEFAULT_C1 == pytest.approx(16 / 3)
        assert cfg.c2 == 17.0
        assert DEFAULT_C3 == pytest.approx(4 * math.sqrt(2))
        assert cfg.c4 == 128.0
        assert DEFAULT_C0 == pytest.approx(1 / 64)

    def test_derived_quantities_at_k1(self):
        cfg = CertificationConfig(epsilon=0.2, delta=0.2, k=1)
        assert cfg.rounds == 26
        assert cfg.twirl_steps == 17
        assert cfg.shots_per_round == 1152
        assert cfg.time_cap == pytest.approx(4 * math.sqrt(2) * math.sqrt(3) / 0.2)
        assert cfg.accept_threshold == pytest.approx(1 - 1 / 576)
        assert cfg.trotter_tolerance == pytest.approx(1 / 1152)

    def test_derived_quantities_at_k2(self):
        cfg = CertificationConfig(epsilon=0.1, delta=0.5, k=2)
        assert cfg.rounds == math.ceil(16 / 3 * 9 * math.log(2))
        assert cfg.twirl_steps == 34
        assert cfg.shots_per_round == 128 * 81

    def test_consistency_holds_for_defaults(self):
        for k in (1, 2, 3, 4):
            CertificationConfig(epsilon=0.3, delta=0.1, k=k).validate()

    def test_shallow_twirl_rejected(self):
        with pytest.raises(ConfigError, match="shallow"):
            CertificationConfig(epsilon=0.2, delta=0.2, k=1, c2=3.0)

    @pytest.mark.parametrize(
        "k, c2, deep_enough",
        # 2^steps >= 2^11 * 27^k: 55296 needs 16 steps at k=1, and
        # 1492992 needs 21 at k=2.
        [(1, 16.0, True), (1, 15.0, False), (2, 10.5, True), (2, 10.0, False)],
    )
    def test_depth_boundary(self, k, c2, deep_enough):
        kwargs = dict(epsilon=0.2, delta=0.2, k=k, c2=c2)
        if deep_enough:
            CertificationConfig(**kwargs)
        else:
            with pytest.raises(ConfigError, match="shallow"):
                CertificationConfig(**kwargs)

    def test_a_huge_depth_is_checked_in_bounded_time(self):
        start = time.perf_counter()
        with pytest.raises(ConfigError, match=re.escape("c2=1e+300 and k=1")):
            CertificationConfig(epsilon=0.2, delta=0.2, k=1, c2=1e300)
        assert time.perf_counter() - start < 1.0

    def test_a_huge_k_is_refused_in_bounded_time(self):
        start = time.perf_counter()
        with pytest.raises(ConfigError, match="overflow"):
            CertificationConfig(epsilon=0.2, delta=0.2, k=10**7)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("waived", [False, True])
    def test_a_depth_beyond_a_float_is_refused(self, waived):
        with pytest.raises(ConfigError, match=r"Twirl depth ceil\(c2 \* k\) with c2=1e\+308 "
                                              r"and k=2 counts more queries"):
            CertificationConfig(epsilon=0.2, delta=0.2, k=2, c2=1e308,
                                allow_weak_constants=waived)

    def test_a_boolean_k_is_refused(self):
        with pytest.raises(ConfigError, match="k must be a positive integer, got True"):
            CertificationConfig(epsilon=0.2, delta=0.2, k=True)

    def test_shallow_twirl_allowed_when_waived(self):
        cfg = CertificationConfig(
            epsilon=0.2, delta=0.2, k=1, c2=3.0, allow_weak_constants=True
        )
        assert cfg.twirl_steps == 3

    @pytest.mark.parametrize("k, c4, enough", [
        # The default shot counts are 128 * 9 = 1152 and 128 * 81 = 10368;
        # the count is ceil(c4 * 9^k), so a c4 a little below 128 reaches them.
        (1, 0.001, False), (1, 127.88, False), (1, 127.89, True),
        (2, 127.98, False), (2, 127.99, True), (1, 1e3, True),
    ])
    def test_fewer_shots_than_the_default_need_the_waiver(self, k, c4, enough):
        kwargs = dict(epsilon=0.2, delta=0.2, k=k, c4=c4)
        if enough:
            assert CertificationConfig(**kwargs).shots_per_round >= 128 * 9**k
        else:
            with pytest.raises(ConfigError, match=re.escape(f"c4={c4!r}")):
                CertificationConfig(**kwargs)
            cfg = CertificationConfig(**kwargs, allow_weak_constants=True)
            assert cfg.shots_per_round == math.ceil(c4 * 9**k) < 128 * 9**k

    def test_the_fixed_constants_pass_the_consistency_arithmetic(self):
        # At every k a default config admits: the error budget, the margin
        # of the dip 1/(32 * 9^k) less twice the budget over c0 / 9^k
        # (equal, up to rounding), and the twirl-depth bound.
        ks = []
        for k in itertools.count(1):
            try:
                cfg = CertificationConfig(epsilon=0.2, delta=0.2, k=k)
            except ConfigError:
                break
            tol = cfg.trotter_tolerance
            assert tol == 1.0 / (128.0 * 9**k)
            assert 1.0 / (32.0 * 9**k) - 2.0 * tol >= DEFAULT_C0 / 9**k * (1 - 1e-12)
            assert cfg.twirl_steps == 17 * k >= (2**11 * 27**k - 1).bit_length()
            ks.append(k)
        assert ks == list(range(1, 18))

    def test_trotter_mode_takes_the_default_depth(self):
        for k in (1, 2):
            cfg = CertificationConfig(epsilon=0.2, delta=0.2, k=k, mode=OracleMode.TROTTERIZED)
            assert cfg.twirl_steps == 17 * k

    @pytest.mark.parametrize(
        "c2, k, fits",
        [
            # 26 rounds of 1152 shots at TROTTER_STEP_CAP steps count
            # 3.9e9 * 2^T queries: a float holds them up to T=992.
            (992.0, 1, True),
            (993.0, 1, False),
            # 2^T overflows a float and 2^-T is 0.0.
            (1100.0, 1, False),
            (1e7, 1, False),
            (1e300, 1, False),
            # c2 * k overflows.
            (1e308, 2, False),
        ],
    )
    def test_trotter_depth_is_bounded_by_the_query_count(self, c2, k, fits):
        # Exact mode charges each shot the time of the circuit that trotter
        # mode counts, so both modes take the same depths.
        for mode in OracleMode:
            kwargs = dict(epsilon=0.2, delta=0.2, k=k, c2=c2, mode=mode)
            start = time.perf_counter()
            if fits:
                cfg = CertificationConfig(**kwargs)
                queries = (cfg.rounds * cfg.shots_per_round * 2 * TROTTER_STEP_CAP
                           * 2**cfg.twirl_steps)
                assert math.isfinite(float(queries))
            else:
                with pytest.raises(ConfigError, match=re.escape(
                        f"c2={c2!r} and k={k} counts more queries than a float holds")):
                    CertificationConfig(**kwargs)
            assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("seed", [True, False, 1.5, -1, -(2**70), "3", None])
    def test_a_seed_that_is_not_a_non_negative_integer_is_refused(self, seed):
        with pytest.raises(ConfigError, match=f"seed must be a non-negative integer, "
                                              f"got {re.escape(repr(seed))}"):
            CertificationConfig(epsilon=0.2, delta=0.2, k=1, seed=seed)

    @pytest.mark.parametrize("seed", [0, 1, 2**70])
    def test_any_non_negative_integer_seed_is_accepted(self, seed):
        assert CertificationConfig(epsilon=0.2, delta=0.2, k=1, seed=seed).seed == seed

    def test_basic_ranges(self):
        with pytest.raises(ConfigError):
            CertificationConfig(epsilon=0.0, delta=0.2, k=1)
        with pytest.raises(ConfigError):
            CertificationConfig(epsilon=0.2, delta=1.0, k=1)
        with pytest.raises(ConfigError):
            CertificationConfig(epsilon=0.2, delta=0.2, k=0)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"epsilon": math.nan},
            {"epsilon": math.inf},
            {"delta": math.nan},
            {"c2": math.nan},
            {"c4": math.inf, "allow_weak_constants": True},
        ],
    )
    def test_non_finite_values_rejected(self, overrides):
        kwargs = dict(epsilon=0.2, delta=0.2, k=1) | overrides
        with pytest.raises(ConfigError, match="finite"):
            CertificationConfig(**kwargs)

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"epsilon": 1e-320}, "time_cap"),
            ({"delta": 5e-324}, "overflow"),
            ({"k": 400}, "overflow"),
            ({"c4": 1e30, "allow_weak_constants": True}, "64-bit"),
            ({"epsilon": 1e-305, "k": 2}, "ceiling"),
        ],
    )
    def test_unrepresentable_derived_values_rejected(self, overrides, match):
        kwargs = dict(epsilon=0.2, delta=0.2, k=1) | overrides
        with pytest.raises(ConfigError, match=match):
            CertificationConfig(**kwargs)

    def test_largest_finite_ledger_ceiling_is_accepted(self):
        cfg = CertificationConfig(epsilon=1e-300, delta=0.2, k=2)
        ceiling = cfg.rounds * cfg.shots_per_round * cfg.time_cap
        assert 1e307 < ceiling < math.inf


class TestCertifyExactMode:
    def test_equal_hamiltonians_accept_deterministically(self):
        h0 = PauliSum(1, {"X": -0.1})
        for seed in range(5):
            cfg = CertificationConfig(epsilon=0.2, delta=0.2, k=1, seed=seed)
            report = certify(h0, make_oracle(PauliSum(1, {"X": -0.1})), cfg)
            assert report.verdict == "ACCEPT"
            assert report.rounds_run == cfg.rounds
            assert all(r.identity_fraction == 1.0 for r in report.records)
            assert all(
                r.identity_fraction > cfg.accept_threshold for r in report.records
            )

    def test_separated_pair_rejects(self):
        h0 = PauliSum(1, {"X": -0.1})
        rejected = 0
        for seed in range(10):
            cfg = CertificationConfig(epsilon=0.2, delta=0.2, k=1, seed=seed)
            report = certify(h0, make_oracle(PauliSum(1, {"X": 0.1})), cfg)
            rejected += report.verdict == "REJECT"
        assert rejected >= 8

    def test_reject_fast_semantics(self):
        h0 = PauliSum(1, {"X": -0.1})
        cfg = CertificationConfig(epsilon=0.2, delta=0.2, k=1, seed=3)
        report = certify(h0, make_oracle(PauliSum(1, {"X": 0.1})), cfg)
        if report.verdict == "REJECT":
            assert report.rejecting_round == report.rounds_run
            assert report.records[-1].flagged
            assert not any(r.flagged for r in report.records[:-1])

    def test_ledger_within_global_budget(self):
        h0 = PauliSum(1, {"X": -0.1})
        for hidden in (PauliSum(1, {"X": -0.1}), PauliSum(1, {"X": 0.1})):
            cfg = CertificationConfig(epsilon=0.2, delta=0.2, k=1, seed=11)
            oracle = make_oracle(hidden)
            report = certify(h0, oracle, cfg)
            budget = cfg.rounds * cfg.shots_per_round * cfg.time_cap
            assert report.ledger_total_time <= budget * (1 + 1e-12)
            assert report.ledger_total_time == oracle.ledger.total_time

    def test_two_qubit_two_local_instance(self):
        h0 = PauliSum(2, {"XX": 0.3, "ZI": 0.2})
        cfg = CertificationConfig(epsilon=0.2, delta=0.5, k=2, seed=0)
        report = certify(h0, make_oracle(PauliSum(2, {"XX": 0.3, "ZI": 0.2})), cfg)
        assert report.verdict == "ACCEPT"
        hidden = PauliSum(2, {"XX": 0.3, "ZI": 0.2, "YY": 0.25})
        report = certify(h0, make_oracle(hidden), cfg)
        assert report.verdict == "REJECT"

    def test_locality_violation_rejected(self):
        h0 = PauliSum(3, {"XYZ": 0.5})
        cfg = CertificationConfig(epsilon=0.2, delta=0.2, k=2, seed=0)
        with pytest.raises(ConfigError, match="k=2"):
            certify(h0, make_oracle(PauliSum(3, {"XYZ": 0.5})), cfg)

    def test_size_mismatch_rejected(self):
        cfg = CertificationConfig(epsilon=0.2, delta=0.2, k=1, seed=0)
        with pytest.raises(ConfigError, match="qubits"):
            certify(PauliSum(2, {"XI": 0.5}), make_oracle(PauliSum(1, {"X": 0.5})), cfg)

    def test_mode_mismatch_rejected(self):
        cfg = CertificationConfig(epsilon=0.2, delta=0.2, k=1, seed=0)
        oracle = make_oracle(PauliSum(1, {"X": 0.5}), OracleMode.TROTTERIZED)
        with pytest.raises(ConfigError, match="mode"):
            certify(PauliSum(1, {"X": 0.5}), oracle, cfg)


class TestDeterminism:
    def test_identical_runs_render_identically(self):
        h0 = PauliSum(1, {"X": -0.1})
        reports = []
        for _ in range(2):
            cfg = CertificationConfig(epsilon=0.2, delta=0.2, k=1, seed=9)
            reports.append(certify(h0, make_oracle(PauliSum(1, {"X": 0.1})), cfg))
        assert reports[0].render() == reports[1].render()

    def test_seed_changes_the_transcript(self):
        h0 = PauliSum(1, {"X": -0.1})
        renders = set()
        for seed in (1, 2):
            cfg = CertificationConfig(epsilon=0.2, delta=0.2, k=1, seed=seed)
            renders.add(certify(h0, make_oracle(PauliSum(1, {"X": 0.1})), cfg).render())
        assert len(renders) == 2


class TestRunRound:
    def test_record_fields(self):
        h0 = PauliSum(2, {"XX": 0.3})
        cfg = CertificationConfig(epsilon=0.5, delta=0.2, k=2, seed=0)
        rng = np.random.default_rng(0)
        rec = run_round(h0, make_oracle(PauliSum(2, {"XX": 0.3})), cfg, rng, index=4)
        assert rec.index == 4
        assert len(rec.axes) == 2 and set(rec.axes) <= set("XYZ")
        assert len(rec.transcript_digest) == 12
        assert 0.0 <= rec.time <= cfg.time_cap
        assert rec.identity_fraction == 1.0
        assert rec.flagged is False

    @pytest.mark.parametrize("mode", list(OracleMode))
    def test_the_record_of_the_reference_draws(self, mode):
        # The round's draws, one library call each: the subspace, the twirl,
        # the time and the shots; the record is the keyword construction
        # from them, and the generator ends where the calls leave it.
        n, k = 4, 2
        rng = np.random.default_rng(12)
        h0 = random_pauli_sum(n, k, rng, num_terms=3 * n)
        hidden = random_pauli_sum(n, k, rng, num_terms=3 * n)
        cfg = CertificationConfig(epsilon=0.5, delta=0.2, k=k, c2=2.0, mode=mode,
                                  allow_weak_constants=True)
        fractions = set()
        for seed in range(6):
            got_rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = run_round(h0, make_oracle(hidden, mode), cfg, got_rng, index=seed + 1)
            subspace = DiagonalSubspace(tuple("XYZ"[i] for i in ref.integers(0, 3, n)))
            bits = ref.integers(0, 2, (cfg.twirl_steps, n))
            paulis = tuple("".join(ax if b else "I" for ax, b in zip(subspace.axes, row))
                           for row in bits)
            t = float(ref.uniform(0.0, cfg.time_cap))
            oracle = make_oracle(hidden, mode)
            if mode is OracleMode.EXACT_EFFECTIVE:
                tr = apply_twirl(subtract(hidden, h0), subspace, paulis)
                prob = oracle.effective_identity_prob(tr, t, shots=cfg.shots_per_round)
            else:
                steps = steps_from_bound(len(paulis), t, cfg.trotter_tolerance)
                plan = TrotterPlan(paulis, steps, t)
                groups = trotter_blocks(oracle, h0, plan, shots=cfg.shots_per_round)
                prob = identity_prob_factors([u for _, u in groups], atol=1e-8 * steps)
            fraction = int(ref.binomial(cfg.shots_per_round, prob)) / cfg.shots_per_round
            fractions.add(fraction)
            axes = "".join(subspace.axes)
            want = RoundRecord(
                index=seed + 1,
                axes=axes,
                transcript_digest=_digest(axes, paulis),
                time=t,
                identity_fraction=fraction,
                flagged=fraction <= cfg.accept_threshold,
            )
            assert got == want
            assert [type(v) for v in vars(got).values()] == [type(v) for v in vars(want).values()]
            assert got_rng.bit_generator.state == ref.bit_generator.state
        # The binomial draws saw identity probabilities below 1.
        assert len(fractions) > 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cap=st.one_of(st.just(0.0), st.floats(0.0, allow_infinity=False)),
       seed=st.integers(0, 2**32 - 1))
def test_a_scaled_random_is_the_uniform_draw(cap, seed):
    # run_round takes its time as time_cap * rng.random().
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    assert (cap * rng.random()).hex() == float(ref.uniform(0.0, cap)).hex()
    assert rng.bit_generator.state == ref.bit_generator.state


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(1, 64), steps=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_the_row_digest_is_the_label_digest(n, steps, seed):
    # A round hashes its draw row as it comes; the digest is the one of the
    # axes and the labels joined by commas, and the labels cut from the row
    # are the row's text split at its commas.
    rng = np.random.default_rng(seed)
    subspace = sample_subspace(n, rng)
    row = _draw(subspace, steps, rng)[1]
    axes = str(subspace)
    paulis = _labels(row)
    assert paulis == tuple(row.decode("ascii")[:-1].split(","))
    want = hashlib.sha256((axes + ":" + ",".join(paulis)).encode("ascii")).hexdigest()[:12]
    assert _row_digest(axes, row) == _digest(axes, paulis) == want


def test_the_derived_constants_are_worked_out_once():
    cfg = CertificationConfig(epsilon=0.2, delta=0.2, k=2)
    names = ("twirl_steps", "time_cap", "shots_per_round", "accept_threshold",
             "trotter_tolerance")
    values = [getattr(cfg, name) for name in names]
    # Kept on the first read: a run reads them every round.
    assert all(name in vars(cfg) for name in names)
    assert values == [34, DEFAULT_C3 * 3.0 / 0.2, 10368, 1.0 - DEFAULT_C0 / 81,
                      1.0 / (128.0 * 81)]


class TestTrotterizedMode:
    def _cfg(self, seed):
        # delta=0.8 keeps a run to 4 rounds.
        return CertificationConfig(
            epsilon=2.0,
            delta=0.8,
            k=1,
            c2=2.0,
            c4=2.0,
            mode=OracleMode.TROTTERIZED,
            seed=seed,
            allow_weak_constants=True,
        )

    def test_equal_hamiltonians_accept(self):
        h0 = PauliSum(1, {"X": -1.0})
        cfg = self._cfg(0)
        oracle = make_oracle(PauliSum(1, {"X": -1.0}), OracleMode.TROTTERIZED)
        report = certify(h0, oracle, cfg)
        assert report.verdict == "ACCEPT"
        assert all(r.identity_fraction == 1.0 for r in report.records)

    def test_separated_pair_rejects_often(self):
        h0 = PauliSum(1, {"X": -1.0})
        rejected = 0
        for seed in range(12):
            oracle = make_oracle(PauliSum(1, {"X": 1.0}), OracleMode.TROTTERIZED)
            report = certify(h0, oracle, self._cfg(seed))
            rejected += report.verdict == "REJECT"
        assert rejected >= 6

    def test_ledger_reflects_shot_durations(self):
        h0 = PauliSum(1, {"X": -1.0})
        cfg = self._cfg(5)
        oracle = make_oracle(PauliSum(1, {"X": 1.0}), OracleMode.TROTTERIZED)
        report = certify(h0, oracle, cfg)
        expected = cfg.shots_per_round * sum(r.time for r in report.records)
        assert report.ledger_total_time == pytest.approx(expected, rel=1e-9)


class TestTrotterRoundUnitarity:
    """A trotter round allows a unitarity defect of 1e-8 per step."""

    @pytest.mark.parametrize("c2", [6.0, 8.0])
    def test_eight_qubit_round_at_the_step_cap_completes(self, c2):
        # 64 sectors and 65536 steps leave a defect of about 1.7e-8, which
        # a flat 1e-8 bound rejected; c2=8 is the deepest twirl trotter
        # mode unrolls, 256 sectors.
        h = PauliSum(8, [("I" * i + "XYZ"[i % 3] + "I" * (7 - i), 0.1 * (i + 1))
                         for i in range(8)])
        cfg = CertificationConfig(epsilon=0.2, delta=0.5, k=1, c2=c2,
                                  mode=OracleMode.TROTTERIZED,
                                  allow_weak_constants=True)
        oracle = make_oracle(h, OracleMode.TROTTERIZED)
        rec = run_round(h, oracle, cfg, np.random.default_rng(4))
        assert cfg.twirl_steps == c2
        assert steps_from_bound(cfg.twirl_steps, rec.time, cfg.trotter_tolerance) == (
            TROTTER_STEP_CAP
        )
        assert rec.identity_fraction == 1.0

    @staticmethod
    def _inflate(monkeypatch, per_step):
        """Scale every block's unitary by ``1 + per_step * steps``; returns
        the list that collects ``(steps, u)`` per group of equal-size
        blocks, ``u`` their ``(B, d, d)`` stack."""
        seen = []
        kernel = trotter._strang_power

        def inflated(factors, draws, steps):
            u = kernel(factors, draws, steps) * (1 + per_step * steps)
            seen.append((steps, u))
            return u

        monkeypatch.setattr(trotter, "_strang_power", inflated)
        return seen

    @pytest.mark.parametrize("per_step, raises", [(0.4e-8, False), (1e-8, True)])
    def test_the_bound_scales_with_the_step_count(self, monkeypatch, per_step, raises):
        # Scaling U by 1 + a moves max|U^dag U - I| by about 2a.
        seen = self._inflate(monkeypatch, per_step)
        h0 = PauliSum(1, {"X": -1.0})
        cfg = TestTrotterizedMode()._cfg(0)
        oracle = make_oracle(h0, OracleMode.TROTTERIZED)
        if raises:
            with pytest.raises(ValueError, match="not unitary"):
                run_round(h0, oracle, cfg, np.random.default_rng(0))
        else:
            run_round(h0, oracle, cfg, np.random.default_rng(0))
            # 0.8e-8 per step is above a flat 1e-8 from two steps on.
            assert seen[0][0] >= 2

    def _check_blocks_pass_alone(self, monkeypatch, h0):
        # Each block's defect, about 0.6e-8 per step, passes on its own;
        # the assembled unitary's, about 1.2e-8 per step, does not.
        seen = self._inflate(monkeypatch, 0.3e-8)
        cfg = TestTrotterizedMode()._cfg(0)
        oracle = make_oracle(h0, OracleMode.TROTTERIZED)
        with pytest.raises(ValueError, match="not unitary"):
            run_round(h0, oracle, cfg, np.random.default_rng(0))
        for steps, stack in seen:
            for u in stack:
                identity_prob_trace(u, atol=1e-8 * steps)
        return [stack.shape for _, stack in seen]

    def test_the_bound_covers_the_product_of_the_blocks(self, monkeypatch):
        # Two one-site blocks, stacked in one group.
        h0 = PauliSum(2, {"XI": -1.0, "IZ": 0.5})
        assert self._check_blocks_pass_alone(monkeypatch, h0) == [(2, 2, 2)]

    def test_the_bound_covers_blocks_of_two_sizes(self, monkeypatch):
        # A one-site and a two-site block, in two groups.
        h0 = PauliSum(3, {"XII": -1.0, "IZZ": 0.5})
        assert self._check_blocks_pass_alone(monkeypatch, h0) == [(1, 2, 2), (1, 4, 4)]


def test_trotter_mode_at_the_paper_constants():
    """epsilon=0.2 with the default shots and error budget: tens of thousands
    of steps per shot and billions of forward queries, charged exactly."""
    rng = np.random.default_rng(21)
    h0 = random_pauli_sum(4, 1, rng, num_terms=6)
    cfg = CertificationConfig(
        epsilon=0.2,
        delta=0.2,
        k=1,
        c2=2.0,
        mode=OracleMode.TROTTERIZED,
        seed=3,
        allow_weak_constants=True,
    )
    oracle = make_oracle(h0, OracleMode.TROTTERIZED)
    report = certify(h0, oracle, cfg)
    assert report.verdict == "ACCEPT"
    assert report.rounds_run == cfg.rounds
    shots, sectors = cfg.shots_per_round, 2**cfg.twirl_steps
    steps = [
        steps_from_bound(cfg.twirl_steps, r.time, cfg.trotter_tolerance)
        for r in report.records
    ]
    assert max(steps) > 10_000
    assert report.ledger_query_count == sum(shots * s * 2 * sectors for s in steps)
    exact = shots * math.fsum(r.time for r in report.records)
    assert abs(report.ledger_total_time - exact) / exact <= 1e-14


class TestExactModeAtSixteenQubits:
    """Default constants at k=2 beyond the dense cap, through the Walsh route."""

    def _pair(self):
        rng = np.random.default_rng(16)
        h0 = random_pauli_sum(16, 2, rng, num_terms=64)
        direction = random_pauli_sum(16, 2, rng, num_terms=64)
        hidden = h0 + direction * (0.2 / frobenius_norm(direction))
        return h0, hidden, CertificationConfig(epsilon=0.2, delta=0.2, k=2, seed=1)

    def test_equal_pair_accepts_with_every_fraction_one(self):
        h0, _, cfg = self._pair()
        report = certify(h0, make_oracle(h0), cfg)
        assert report.verdict == "ACCEPT"
        assert report.rounds_run == cfg.rounds
        assert all(r.identity_fraction == 1.0 for r in report.records)

    def test_separated_pair_rejects(self):
        h0, hidden, cfg = self._pair()
        report = certify(h0, make_oracle(hidden), cfg)
        assert report.verdict == "REJECT"


class TestExactModeAtTwentyQubits:
    def test_equal_pair_accepts_with_the_walsh_route_ledger(self):
        # H = H0 leaves the twirl nothing, so each round's identity
        # probability is exactly 1 without a 2^20-entry transform.
        rng = np.random.default_rng(20)
        h0 = random_pauli_sum(20, 2, rng, num_terms=80)
        cfg = CertificationConfig(epsilon=0.2, delta=0.2, k=2, seed=1)
        report = certify(h0, make_oracle(h0), cfg)
        assert report.verdict == "ACCEPT"
        assert report.rounds_run == cfg.rounds
        assert all(r.identity_fraction == 1.0 for r in report.records)
        # The ledger the Walsh route charged for this run.
        assert report.ledger_total_time == 35771877.60386038
        assert report.ledger_query_count == 808704 == cfg.rounds * cfg.shots_per_round


GOLDEN = Path(__file__).parent / "golden"


def _golden(name):
    return parse_hamiltonian((GOLDEN / name).read_text())


class TestLargeSystems:
    """Each round factors over the blocks of its support graph, so the
    system size itself has no cap."""

    @pytest.mark.parametrize("pair", ["equal", "one XX term", "spread over every bond"])
    def test_chain_pairs_at_64_qubits_with_the_default_constants(self, pair):
        # ZZ bonds of 0.3 and X fields of 0.5; the separated pairs add XX
        # terms of total norm epsilon, on one bond or spread over all 63.
        h0 = _golden("chain-n64.h0")
        n, eps = h0.n, 0.2
        hidden = {
            "equal": h0,
            "one XX term": _golden("chain-n64-xx.h"),
            "spread over every bond": h0 + PauliSum(n, {
                "I" * j + "XX" + "I" * (n - 2 - j): eps / math.sqrt(n - 1)
                for j in range(n - 1)}),
        }[pair]
        assert frobenius_norm(hidden - h0) == pytest.approx(eps if pair != "equal" else 0)
        cfg = CertificationConfig(epsilon=eps, delta=0.2, k=2, seed=1)
        report = certify(h0, make_oracle(hidden), cfg)
        if pair == "equal":
            assert report.verdict == "ACCEPT"
            assert report.rounds_run == cfg.rounds == 78
            assert all(r.identity_fraction == 1.0 for r in report.records)
        else:
            assert report.verdict == "REJECT"
        assert report.ledger_query_count == report.rounds_run * cfg.shots_per_round

    @pytest.mark.parametrize("hidden, verdict", [("fields-n24.h0", "ACCEPT"),
                                                 ("fields-n24-far.h", "REJECT")])
    def test_one_local_pair_at_24_qubits_in_trotter_mode(self, hidden, verdict):
        h0 = _golden("fields-n24.h0")
        cfg = CertificationConfig(epsilon=0.2, delta=0.2, k=1, c2=2.0, seed=1,
                                  mode=OracleMode.TROTTERIZED, allow_weak_constants=True)
        report = certify(h0, make_oracle(_golden(hidden), OracleMode.TROTTERIZED), cfg)
        assert report.verdict == verdict
        shots, sectors = cfg.shots_per_round, 2**cfg.twirl_steps
        assert report.ledger_query_count == sum(
            shots * steps_from_bound(cfg.twirl_steps, r.time, cfg.trotter_tolerance)
            * 2 * sectors for r in report.records)

    def test_a_chain_above_the_dense_cap_leaves_the_ledger_untouched(self):
        # The hidden fields are 12 blocks of one site; the reference's ZZ
        # bonds link all 12 sites into one block, beyond the cap of 10.
        n = 12
        h0 = PauliSum(n, {"I" * j + "ZZ" + "I" * (n - 2 - j): 0.3 for j in range(n - 1)})
        hidden = PauliSum(n, {"I" * j + "X" + "I" * (n - 1 - j): 0.5 for j in range(n)})
        oracle = make_oracle(hidden, OracleMode.TROTTERIZED)
        cfg = CertificationConfig(epsilon=0.2, delta=0.2, k=2, c2=2.0,
                                  mode=OracleMode.TROTTERIZED, allow_weak_constants=True)
        with pytest.raises(ValueError, match="link 12 sites"):
            certify(h0, oracle, cfg)
        assert oracle.ledger == EvolutionLedger()


class TestSweep:
    def test_direction_must_be_unit_norm(self):
        cfg = CertificationConfig(epsilon=0.4, delta=0.2, k=1, seed=0)
        with pytest.raises(ValueError, match="unit"):
            sweep_epsilon(
                PauliSum(1, {"Z": 0.3}), PauliSum(1, {"X": 0.5}), [0.4], cfg
            )

    def test_repeated_epsilon_rejected(self):
        cfg = CertificationConfig(epsilon=0.4, delta=0.2, k=1, seed=0)
        with pytest.raises(ValueError, match="distinct"):
            sweep_epsilon(
                PauliSum(1, {"Z": 0.3}), PauliSum(1, {"X": 1.0}), [0.4, 0.2, 0.4], cfg
            )

    def test_rows_and_pairing(self):
        cfg = CertificationConfig(epsilon=0.4, delta=0.2, k=1, seed=100)
        result = sweep_epsilon(
            PauliSum(1, {"Z": 0.3}),
            PauliSum(1, {"X": 1.0}),
            [0.4, 0.2],
            cfg,
            repeats=3,
        )
        assert len(result.rows) == 6
        assert [r.seed for r in result.rows] == [100, 101, 102, 100, 101, 102]
        assert all(r.verdict == "REJECT" for r in result.rows)

    def test_slope_is_inverse_linear(self):
        cfg = CertificationConfig(epsilon=0.4, delta=0.2, k=1, seed=0)
        result = sweep_epsilon(
            PauliSum(1, {"Z": 0.3}),
            PauliSum(1, {"X": 1.0}),
            [0.4, 0.2, 0.1],
            cfg,
            repeats=4,
        )
        assert -1.2 <= result.loglog_slope <= -0.8
