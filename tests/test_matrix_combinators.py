"""Unit tests for matrix combinators (VStack, HStack, Product, Kronecker, Weighted)."""

import numpy as np
import pytest

from repro.matrix import (
    DenseMatrix,
    HStack,
    Identity,
    Kronecker,
    Prefix,
    Product,
    SparseMatrix,
    Total,
    VStack,
    Weighted,
    all_kway_marginals,
    ensure_matrix,
    marginal,
    stack_all,
)


@pytest.fixture
def rng():
    return np.random.default_rng(3)


class TestVStack:
    def test_matvec_matches_dense(self, rng):
        a = DenseMatrix(rng.normal(size=(3, 5)))
        b = DenseMatrix(rng.normal(size=(2, 5)))
        stacked = VStack([a, b])
        v = rng.normal(size=5)
        expected = np.concatenate([a.dense() @ v, b.dense() @ v])
        assert np.allclose(stacked.matvec(v), expected)

    def test_rmatvec_matches_dense(self, rng):
        a = DenseMatrix(rng.normal(size=(3, 5)))
        b = DenseMatrix(rng.normal(size=(2, 5)))
        stacked = VStack([a, b])
        u = rng.normal(size=5)
        assert np.allclose(stacked.rmatvec(u), stacked.dense().T @ u)

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            VStack([Identity(3), Identity(4)])

    def test_split_answers(self):
        stacked = VStack([Identity(2), Total(2)])
        pieces = stacked.split_answers(np.array([1.0, 2.0, 3.0]))
        assert np.allclose(pieces[0], [1.0, 2.0])
        assert np.allclose(pieces[1], [3.0])

    def test_row_indexing_across_parts(self):
        stacked = VStack([Identity(3), Total(3)])
        assert np.allclose(stacked.row(3), [1.0, 1.0, 1.0])
        assert np.allclose(stacked.row(1), [0.0, 1.0, 0.0])

    def test_stack_all_single(self):
        m = Identity(4)
        assert stack_all([m]) is m

    def test_sensitivity_adds_column_norms(self):
        stacked = VStack([Identity(4), Total(4)])
        assert stacked.sensitivity() == 2.0


class TestHStack:
    def test_matvec(self, rng):
        a = DenseMatrix(rng.normal(size=(3, 2)))
        b = DenseMatrix(rng.normal(size=(3, 4)))
        h = HStack([a, b])
        v = rng.normal(size=6)
        assert np.allclose(h.matvec(v), h.dense() @ v)

    def test_rmatvec(self, rng):
        a = DenseMatrix(rng.normal(size=(3, 2)))
        b = DenseMatrix(rng.normal(size=(3, 4)))
        h = HStack([a, b])
        u = rng.normal(size=3)
        assert np.allclose(h.rmatvec(u), h.dense().T @ u)

    def test_mismatched_rows_rejected(self):
        with pytest.raises(ValueError):
            HStack([Identity(3), Total(3)])


class TestProduct:
    def test_matvec_matches_dense(self, rng):
        a = DenseMatrix(rng.normal(size=(3, 4)))
        b = DenseMatrix(rng.normal(size=(4, 6)))
        p = Product(a, b)
        v = rng.normal(size=6)
        assert np.allclose(p.matvec(v), a.dense() @ b.dense() @ v)

    def test_transpose(self, rng):
        a = DenseMatrix(rng.normal(size=(3, 4)))
        b = DenseMatrix(rng.normal(size=(4, 6)))
        p = Product(a, b)
        assert np.allclose(p.T.dense(), p.dense().T)

    def test_incompatible_shapes_rejected(self):
        with pytest.raises(ValueError):
            Product(Identity(3), Identity(4))

    def test_matmul_operator_builds_product(self):
        p = Identity(3) @ Identity(3)
        assert isinstance(p, Product)
        assert np.allclose(p.dense(), np.eye(3))


class TestWeighted:
    def test_scales_matvec(self):
        w = Weighted(Identity(3), 2.5)
        assert np.allclose(w.matvec(np.ones(3)), 2.5 * np.ones(3))

    def test_abs_and_square(self):
        w = Weighted(Identity(3), -2.0)
        assert np.allclose(abs(w).dense(), 2.0 * np.eye(3))
        assert np.allclose(w.square().dense(), 4.0 * np.eye(3))

    def test_sensitivity(self):
        assert Weighted(Identity(5), 3.0).sensitivity() == 3.0


class TestKronecker:
    def test_matvec_matches_numpy_kron(self, rng):
        a = DenseMatrix(rng.normal(size=(2, 3)))
        b = DenseMatrix(rng.normal(size=(4, 5)))
        k = Kronecker([a, b])
        v = rng.normal(size=15)
        assert np.allclose(k.matvec(v), np.kron(a.dense(), b.dense()) @ v)

    def test_rmatvec_matches_numpy_kron(self, rng):
        a = DenseMatrix(rng.normal(size=(2, 3)))
        b = DenseMatrix(rng.normal(size=(4, 5)))
        k = Kronecker([a, b])
        u = rng.normal(size=8)
        assert np.allclose(k.rmatvec(u), np.kron(a.dense(), b.dense()).T @ u)

    def test_three_factor_kron(self, rng):
        factors = [DenseMatrix(rng.normal(size=(2, 2))) for _ in range(3)]
        k = Kronecker(factors)
        expected = np.kron(np.kron(factors[0].dense(), factors[1].dense()), factors[2].dense())
        v = rng.normal(size=8)
        assert np.allclose(k.matvec(v), expected @ v)
        assert np.allclose(k.dense(), expected)

    def test_sensitivity_multiplies(self):
        from repro.matrix import Ones

        k = Kronecker([Ones(3, 2), Identity(4)])
        # ||A (x) B||_1 = ||A||_1 * ||B||_1 = 3 * 1.
        assert k.sensitivity() == 3.0
        dense = k.dense()
        assert np.abs(dense).sum(axis=0).max() == 3.0

    def test_shape(self):
        k = Kronecker([Identity(3), Total(5), Prefix(2)])
        assert k.shape == (3 * 1 * 2, 3 * 5 * 2)


class TestMarginals:
    """Example 7.5: a marginal is the Kronecker product of ``Identity`` for
    each kept attribute and ``Total`` for each summed-out one."""

    DOMAIN = (4, 3, 2)

    def test_marginal_sums_out_the_dropped_attributes(self, rng):
        x = rng.integers(0, 10, size=24).astype(float)
        expected = x.reshape(self.DOMAIN).sum(axis=1).ravel()
        assert np.array_equal(marginal(self.DOMAIN, [0, 2]).matvec(x), expected)

    def test_zero_way_marginal_is_the_total(self):
        assert np.array_equal(all_kway_marginals(self.DOMAIN, 0).dense(), np.ones((1, 24)))

    def test_full_marginal_is_the_identity(self):
        assert np.array_equal(all_kway_marginals(self.DOMAIN, 3).dense(), np.eye(24))

    def test_kway_union_stacks_every_attribute_subset(self, rng):
        x = rng.normal(size=24)
        cube = x.reshape(self.DOMAIN)
        # Kept pairs in combinations order: (0, 1), (0, 2), (1, 2).
        expected = np.concatenate([cube.sum(axis=axis).ravel() for axis in (2, 1, 0)])
        union = all_kway_marginals(self.DOMAIN, 2)
        assert union.shape == (4 * 3 + 4 * 2 + 3 * 2, 24)
        assert np.allclose(union.matvec(x), expected)
        # Each cell is counted once by each of the C(3, 2) marginals.
        assert union.sensitivity() == 3.0

    def test_out_of_range_attributes_and_orders_are_rejected(self):
        for keep in ([3], [-1]):
            with pytest.raises(ValueError, match="outside domain"):
                marginal(self.DOMAIN, keep)
        for k in (-1, 4):
            with pytest.raises(ValueError, match="k must be"):
                all_kway_marginals(self.DOMAIN, k)


class TestEnsureMatrix:
    def test_wraps_ndarray(self):
        m = ensure_matrix(np.eye(3))
        assert isinstance(m, DenseMatrix)

    def test_wraps_sparse(self):
        import scipy.sparse as sp

        m = ensure_matrix(sp.identity(4))
        assert isinstance(m, SparseMatrix)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            ensure_matrix(np.ones(3))

    def test_passthrough(self):
        m = Identity(3)
        assert ensure_matrix(m) is m
