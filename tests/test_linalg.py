"""Checked solve and log|det| against numpy, and the singularity check."""

import numpy as np
import pytest

from sgmnmf import linalg
from sgmnmf.errors import DimensionMismatchError, SingularMatrixError


def _random_batch(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestSolve:
    def test_vector_rhs_matches_numpy(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            batch = int(rng.integers(1, 5))
            m = int(rng.integers(1, 7))
            a = _random_batch(rng, (batch, m, m))
            b = _random_batch(rng, (batch, m))
            got = linalg.solve(a, b)
            want = np.linalg.solve(a, b[..., None])[..., 0]
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-11)

    def test_matrix_rhs_matches_numpy(self):
        rng = np.random.default_rng(12)
        a = _random_batch(rng, (3, 4, 4))
        b = _random_batch(rng, (3, 4, 6))
        np.testing.assert_allclose(
            linalg.solve(a, b), np.linalg.solve(a, b), rtol=1e-9, atol=1e-11
        )

    def test_unbatched_input(self):
        rng = np.random.default_rng(14)
        a = _random_batch(rng, (3, 3))
        b = _random_batch(rng, (3,))
        np.testing.assert_allclose(linalg.solve(a, b), np.linalg.solve(a, b), rtol=1e-9)

    def test_pivoting_handles_zero_leading_entry(self):
        a = np.array([[[0.0, 1.0], [1.0, 0.0]]], dtype=np.complex128)
        b = np.array([[2.0, 3.0]], dtype=np.complex128)
        np.testing.assert_allclose(linalg.solve(a, b), [[3.0, 2.0]])

    def test_zero_matrix_raises(self):
        with pytest.raises(SingularMatrixError, match="batch index 0"):
            linalg.solve(np.zeros((1, 2, 2), dtype=np.complex128), np.ones((1, 2)))

    def test_dependent_rows_raise_with_batch_index(self):
        good = np.eye(2, dtype=np.complex128)
        bad = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=np.complex128)
        with pytest.raises(SingularMatrixError, match="batch index 1") as info:
            linalg.solve(np.stack([good, bad]), np.ones((2, 2)))
        assert info.value.index == 1

    def test_badly_scaled_columns_solve(self):
        # well conditioned once its second column is rescaled; the check
        # must not count column scale against it
        a = np.array([[1.0, 1e-200], [0.0, 1e-200]], dtype=np.complex128)
        np.testing.assert_allclose(linalg.solve(a, np.array([1.0, 1e-200])), [1.0, 1.0])

    def test_rhs_size_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            linalg.solve(np.eye(2), np.ones(3))


class TestInvertAndDeterminant:
    def test_log_abs_det_matches_slogdet(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            a = _random_batch(rng, (5, 3, 3))
            np.testing.assert_allclose(
                linalg.log_abs_det(a), np.linalg.slogdet(a)[1], rtol=1e-9, atol=1e-10
            )

    def test_log_abs_det_of_scaled_identity(self):
        a = 2.0 * np.eye(4, dtype=np.complex128)
        np.testing.assert_allclose(linalg.log_abs_det(a), 4 * np.log(2.0), rtol=1e-12)

    def test_log_abs_det_zero_matrix_raises(self):
        stack = np.stack([np.eye(2), np.zeros((2, 2))]).astype(np.complex128)
        with pytest.raises(SingularMatrixError, match="batch index 1") as info:
            linalg.log_abs_det(stack)
        assert info.value.index == 1

    def test_log_abs_det_dependent_rows_raise_with_batch_index(self):
        bad = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=np.complex128)
        stack = np.stack([np.eye(2), np.eye(2), bad])[None]
        with pytest.raises(SingularMatrixError, match="batch index 2") as info:
            linalg.log_abs_det(stack)
        assert info.value.index == 2


CHECKED = pytest.mark.parametrize(
    "func",
    [linalg.log_abs_det, lambda a: linalg.solve(a, np.ones(2))],
    ids=["log_abs_det", "solve"],
)


@CHECKED
def test_non_finite_entry_raises(func):
    a = np.eye(2, dtype=np.complex128)
    a[1, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        func(a)


@CHECKED
def test_non_square_raises(func):
    with pytest.raises(DimensionMismatchError, match="square"):
        func(np.ones((2, 3), dtype=np.complex128))
