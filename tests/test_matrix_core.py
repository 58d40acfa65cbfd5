"""Unit tests for the core implicit matrices."""

import numpy as np
import pytest

from repro.matrix import HaarWavelet, Identity, Ones, Prefix, Suffix, Total


class TestIdentity:
    def test_matvec_is_copy(self):
        m = Identity(5)
        v = np.arange(5.0)
        out = m.matvec(v)
        assert np.array_equal(out, v)
        out[0] = 99.0
        assert v[0] == 0.0  # no aliasing

    def test_transpose_is_self(self):
        m = Identity(4)
        assert m.T is m

    def test_dense(self):
        assert np.array_equal(Identity(3).dense(), np.eye(3))

    def test_sensitivity(self):
        assert Identity(10).sensitivity() == 1.0
        assert Identity(10).sensitivity_l2() == 1.0

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Identity(0)


class TestOnesAndTotal:
    def test_matvec(self):
        m = Ones(3, 4)
        v = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(m.matvec(v), [10.0, 10.0, 10.0])

    def test_rmatvec(self):
        m = Ones(3, 4)
        u = np.array([1.0, 1.0, 2.0])
        assert np.allclose(m.rmatvec(u), [4.0, 4.0, 4.0, 4.0])

    def test_transpose_shape(self):
        assert Ones(3, 4).T.shape == (4, 3)

    def test_total_is_single_row(self):
        t = Total(6)
        assert t.shape == (1, 6)
        assert np.allclose(t.matvec(np.ones(6)), [6.0])

    def test_sensitivity(self):
        assert Ones(5, 2).sensitivity() == 5.0
        assert np.isclose(Ones(5, 2).sensitivity_l2(), np.sqrt(5.0))

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            Ones(0, 3)


class TestPrefixSuffix:
    def test_prefix_matvec_is_cumsum(self):
        p = Prefix(5)
        v = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        assert np.allclose(p.matvec(v), np.cumsum(v))

    def test_prefix_dense_lower_triangular(self):
        d = Prefix(4).dense()
        assert np.array_equal(d, np.tril(np.ones((4, 4))))

    def test_prefix_transpose_is_suffix(self):
        p = Prefix(6)
        assert isinstance(p.T, Suffix)
        assert np.allclose(p.T.dense(), p.dense().T)

    def test_suffix_matvec(self):
        s = Suffix(4)
        v = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(s.matvec(v), [10.0, 9.0, 7.0, 4.0])

    def test_prefix_rmatvec_matches_dense(self):
        p = Prefix(7)
        u = np.arange(7.0)
        assert np.allclose(p.rmatvec(u), p.dense().T @ u)

    def test_sensitivity(self):
        assert Prefix(8).sensitivity() == 8.0
        assert Suffix(8).sensitivity() == 8.0


class TestHaarWavelet:
    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            HaarWavelet(6)

    def test_matvec_matches_dense(self):
        w = HaarWavelet(8)
        rng = np.random.default_rng(0)
        v = rng.normal(size=8)
        assert np.allclose(w.matvec(v), w.dense() @ v)

    def test_rmatvec_matches_dense(self):
        w = HaarWavelet(16)
        rng = np.random.default_rng(1)
        u = rng.normal(size=16)
        assert np.allclose(w.rmatvec(u), w.dense().T @ u)

    def test_sensitivity_is_log(self):
        w = HaarWavelet(16)
        dense_sensitivity = np.abs(w.dense()).sum(axis=0).max()
        assert np.isclose(w.sensitivity(), dense_sensitivity)
        assert np.isclose(w.sensitivity(), 1 + np.log2(16))

    def test_invertible(self):
        # The Haar transform is invertible: least-squares reconstruction is exact.
        w = HaarWavelet(8)
        rng = np.random.default_rng(2)
        x = rng.integers(0, 10, size=8).astype(float)
        y = w.matvec(x)
        recovered = np.linalg.lstsq(w.dense(), y, rcond=None)[0]
        assert np.allclose(recovered, x, atol=1e-8)


class TestDerivedOperations:
    def test_row_extraction(self):
        p = Prefix(5)
        assert np.allclose(p.row(2), [1.0, 1.0, 1.0, 0.0, 0.0])

    def test_matmul_with_vector(self):
        m = Identity(3)
        assert np.allclose(m @ np.array([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_scalar_multiplication(self):
        m = 2.0 * Identity(3)
        assert np.allclose(m.dense(), 2.0 * np.eye(3))

