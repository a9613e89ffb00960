"""Tests for the Walsh-transform spectrum and moment oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamcert.dense import eigenvalues, to_dense
from hamcert.gaps import lambda_stat
from hamcert.instances import random_diagonal_sum
from hamcert.moments import (
    function_moments_stack,
    verify_gap_bound,
    verify_gap_bound_stack,
    walsh_eigenvalues,
    walsh_transform,
)
from hamcert.pauli import PauliSum, frobenius_norm


def dense_walsh(table):
    """Independent transform through the explicit sign matrix."""
    size = len(table)
    out = np.zeros(size)
    for s in range(size):
        for p in range(size):
            out[s] += (-1) ** bin(s & p).count("1") * table[p]
    return out


class TestWalshTransform:
    def test_matches_sign_matrix(self):
        rng = np.random.default_rng(70)
        for v in (1, 2, 4, 6):
            table = rng.normal(size=2**v)
            assert np.allclose(walsh_transform(table), dense_walsh(table), atol=1e-10)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            walsh_transform(np.zeros(6))
        with pytest.raises(ValueError):
            walsh_transform(np.zeros((3, 6)))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data(), v=st.integers(0, 7), count=st.integers(1, 5))
    def test_a_stack_equals_each_row_alone(self, data, v, count):
        rows = st.lists(st.floats(-1e6, 1e6), min_size=2**v, max_size=2**v)
        tables = np.array([data.draw(rows) for _ in range(count)]).reshape(count, 2**v)
        stacked = walsh_transform(tables)
        assert stacked.shape == tables.shape
        for table, row in zip(tables, stacked):
            assert np.array_equal(row.view(np.uint64), walsh_transform(table).view(np.uint64))
        m2, m4 = function_moments_stack(tables)
        for b, table in enumerate(tables):
            # The moments as one table gave them before stacks.
            values = walsh_transform(table)
            sq = values * values
            assert (m2[b], m4[b]) == (float(sq.mean()), float((sq * sq).mean()))
            (one_m2,), (one_m4,) = function_moments_stack(table[None])
            assert (one_m2, one_m4) == (m2[b], m4[b])


class TestWalshEigenvalues:
    def test_single_z_on_first_qubit(self):
        h = PauliSum(2, {"ZI": 1.0})
        assert np.allclose(walsh_eigenvalues(h), [-1.0, -1.0, 1.0, 1.0])

    def test_two_term_example(self):
        h = PauliSum(2, {"ZZ": 1.0, "ZI": 1.0})
        assert np.allclose(walsh_eigenvalues(h), [-2.0, 0.0, 0.0, 2.0])
        # The unsorted transform is the dense diagonal, entry for entry.
        diag = np.diag(to_dense(h)).real
        assert np.allclose(np.sort(diag), walsh_eigenvalues(h), atol=1e-12)

    def test_mean_is_zero(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            h = random_diagonal_sum(int(rng.integers(2, 7)), 2, rng)
            assert abs(walsh_eigenvalues(h).mean()) <= 1e-12

    def test_agrees_with_dense_spectrum(self):
        rng = np.random.default_rng(72)
        for n in range(2, 9):
            h = random_diagonal_sum(n, min(n, 3), rng)
            assert np.allclose(
                walsh_eigenvalues(h), eigenvalues(to_dense(h)), atol=1e-9
            )

    def test_non_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            walsh_eigenvalues(PauliSum(2, {"XI": 1.0}))


class TestVerifyGapBound:
    def test_single_z(self):
        h = PauliSum(1, {"Z": 1.0})
        assert lambda_stat(walsh_eigenvalues(h), 1.0) == 0.5
        assert verify_gap_bound(h, 1) is True

    def test_random_instances(self):
        rng = np.random.default_rng(75)
        for k in (1, 2, 3):
            for _ in range(50):
                n = int(rng.integers(max(2, k), 9))
                assert verify_gap_bound(random_diagonal_sum(n, k, rng), k) is True

    def test_zero_hamiltonian_excluded(self):
        with pytest.raises(ValueError):
            verify_gap_bound(PauliSum(2), 1)

    def test_locality_mismatch_rejected(self):
        with pytest.raises(ValueError, match="local"):
            verify_gap_bound(PauliSum(3, {"ZZZ": 1.0}), 2)


class TestVerifyGapBoundStack:
    def test_each_verdict_is_that_of_the_sum_alone(self):
        rng = np.random.default_rng(75)
        for k in (1, 2, 3):
            sums = [random_diagonal_sum(5, k, rng) for _ in range(12)]
            assert verify_gap_bound_stack(sums, k) == [verify_gap_bound(h, k) for h in sums]

    def test_checks_every_sum_in_order(self):
        good = PauliSum(3, {"ZII": 1.0})
        with pytest.raises(ValueError, match="zero Hamiltonian"):
            verify_gap_bound_stack([good, PauliSum(3, {}), PauliSum(3, {"XII": 1.0})], 1)
        with pytest.raises(ValueError, match="not diagonal"):
            verify_gap_bound_stack([good, PauliSum(3, {"XII": 1.0})], 1)
        with pytest.raises(ValueError, match="one stack"):
            verify_gap_bound_stack([good, PauliSum(2, {"ZI": 1.0})], 1)
        assert verify_gap_bound_stack([], 1) == []


class TestConsistencyWithPairFraction:
    def test_gap_tail_equals_lambda_stat_exactly(self):
        """Pr[|f(s) - f(t)| >= norm] over the value table equals the statistic."""
        rng = np.random.default_rng(76)
        for _ in range(10):
            h = random_diagonal_sum(int(rng.integers(2, 7)), 2, rng)
            spec = walsh_eigenvalues(h)
            norm = frobenius_norm(h)
            tail = np.mean(
                [1.0 if abs(a - b) >= norm else 0.0 for a in spec for b in spec]
            )
            assert tail == lambda_stat(spec, norm)


class TestDiagonalExtension:
    def test_axis_relabeling_preserves_the_spectrum(self):
        """Swapping Z for any site axis is a basis change: spectrum unchanged."""
        rng = np.random.default_rng(77)
        for _ in range(15):
            n = int(rng.integers(2, 5))
            h = random_diagonal_sum(n, 2, rng)
            axes = rng.choice(list("XYZ"), size=n)
            relabeled = PauliSum(
                n,
                {
                    "".join(axes[i] if ch == "Z" else "I" for i, ch in enumerate(lbl)):
                    coeff
                    for lbl, coeff in h.items()
                },
            )
            assert np.allclose(
                eigenvalues(to_dense(relabeled)), walsh_eigenvalues(h), atol=1e-9
            )
            norm = frobenius_norm(h)
            assert lambda_stat(
                eigenvalues(to_dense(relabeled)), norm
            ) == lambda_stat(walsh_eigenvalues(h), norm)


class TestFunctionMoments:
    def test_parseval_for_second_moment(self):
        rng = np.random.default_rng(78)
        table = np.zeros(2**6)
        masks = rng.choice(2**6 - 1, size=10, replace=False) + 1
        table[masks] = rng.normal(size=10)
        (m2,), (m4,) = function_moments_stack(table[None])
        assert m2 == pytest.approx(float(np.sum(table**2)), rel=1e-12)
        assert m4 >= m2 * m2 - 1e-12

    def test_low_degree_fourth_moment_bound(self):
        rng = np.random.default_rng(79)
        for i in range(100):
            k = 1 + i % 3
            v = int(rng.integers(max(2, k), 13))
            table = np.zeros(2**v)
            for _ in range(int(rng.integers(1, 13))):
                w = int(rng.integers(1, k + 1))
                sites = rng.choice(v, size=w, replace=False)
                table[int(sum(1 << int(s) for s in sites))] = rng.normal()
            (m2,), (m4,) = function_moments_stack(table[None])
            if m2 > 0:
                assert m4 <= 9.0**k * m2 * m2 * (1 + 1e-9)
