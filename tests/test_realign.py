import numpy as np
import pytest

from triequiv.realign import (
    is_unitarily_decomposable,
    kron_factorize,
    realign,
    unvec,
    vec,
)
from triequiv.states import random_unitary, unitarity_defect
from util import golden_bridge_223, swap_gate


def _random_matrix(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestVec:
    def test_column_major_order(self):
        np.testing.assert_array_equal(vec(np.array([[1, 2], [3, 4]])), [1, 3, 2, 4])

    def test_zero(self):
        assert np.all(vec(np.zeros((3, 2))) == 0)

    def test_linear(self):
        rng = np.random.default_rng(0)
        a = _random_matrix(rng, 3, 4)
        b = _random_matrix(rng, 3, 4)
        np.testing.assert_allclose(vec(a + b), vec(a) + vec(b), atol=1e-15)

    def test_unvec_round_trip(self):
        rng = np.random.default_rng(1)
        a = _random_matrix(rng, 4, 3)
        np.testing.assert_array_equal(unvec(vec(a), 4, 3), a)

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            vec(np.zeros(4))


class TestRealign:
    def test_identity_rows(self):
        got = realign(np.eye(4, dtype=complex), 2, 2)
        expected = np.array(
            [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex
        )
        np.testing.assert_array_equal(got, expected)
        assert np.linalg.matrix_rank(got, tol=1e-8 * np.linalg.norm(got, 2)) == 1

    def test_swap_is_permutation_of_identity(self):
        got = realign(swap_gate(), 2, 2)
        # Each row and column holds exactly one unit entry.
        np.testing.assert_allclose(np.abs(got).sum(axis=0), np.ones(4), atol=0)
        np.testing.assert_allclose(np.abs(got).sum(axis=1), np.ones(4), atol=0)
        assert np.linalg.matrix_rank(got, tol=1e-8 * np.linalg.norm(got, 2)) == 4

    def test_kron_products_realign_to_outer_products(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            x = _random_matrix(rng, m, m)
            y = _random_matrix(rng, n, n)
            got = realign(np.kron(x, y), m, n)
            want = np.outer(vec(x), vec(y))
            assert np.max(np.abs(got - want)) <= 1e-13

    def test_is_isometry(self):
        rng = np.random.default_rng(3)
        z = _random_matrix(rng, 6, 6)
        assert abs(np.linalg.norm(realign(z, 2, 3)) - np.linalg.norm(z)) <= 1e-12

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            realign(np.eye(5), 2, 2)


class TestKronFactorize:
    def test_identity(self):
        f = kron_factorize(np.eye(4, dtype=complex), 2, 2)
        assert f.decomposable
        assert f.defect == 0.0
        np.testing.assert_allclose(f.product(), np.eye(4), atol=1e-14)

    def test_swap_defect_is_one(self):
        f = kron_factorize(swap_gate(), 2, 2)
        assert not f.decomposable
        assert abs(f.defect - 1.0) <= 1e-12

    def test_nearest_product_error_matches_discarded_spectrum(self):
        rng = np.random.default_rng(5)
        u = _random_matrix(rng, 6, 6)
        f = kron_factorize(u, 2, 3)
        sigma = np.linalg.svd(realign(u, 2, 3), compute_uv=False)
        best = np.sqrt(np.sum(sigma[1:] ** 2))
        assert abs(np.linalg.norm(u - f.product()) - best) <= 1e-10

    def test_defect_scale_invariant(self):
        rng = np.random.default_rng(6)
        u = _random_matrix(rng, 6, 6)
        base = kron_factorize(u, 2, 3).defect
        for c in (3.0, -2.0, 0.5j, 1.7 - 0.3j):
            assert abs(kron_factorize(c * u, 2, 3).defect - base) <= 1e-12

    def test_phase_convention(self):
        rng = np.random.default_rng(7)
        u = np.kron(_random_matrix(rng, 3, 3), _random_matrix(rng, 2, 2))
        f = kron_factorize(u, 3, 2)
        pivot = f.x.flat[np.argmax(np.abs(f.x))]
        assert pivot.real > 0
        assert abs(pivot.imag) <= 1e-12 * abs(pivot)


class TestUnitarilyDecomposable:
    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 4)])
    def test_recovers_product_of_unitaries(self, m, n):
        for trial in range(10):
            a = random_unitary(m, seed=50 + trial)
            b = random_unitary(n, seed=80 + trial)
            u = np.kron(a, b)
            f = is_unitarily_decomposable(u, m, n)
            assert f.decomposable
            u1, u2 = f.unitary_factors()
            # Either both rescaled factors are unitary or neither is.
            assert unitarity_defect(u1) <= 1e-10
            assert unitarity_defect(u2) <= 1e-10
            assert np.linalg.norm(u - np.kron(u1, u2)) <= 1e-10

    def test_golden_bridge_223(self):
        _, v1 = golden_bridge_223()
        f = is_unitarily_decomposable(v1, 2, 3)
        assert f.decomposable
        assert f.defect <= 1e-10
        assert np.linalg.norm(v1 - f.product()) <= 1e-10

    def test_swap_not_decomposable(self):
        f = is_unitarily_decomposable(swap_gate(), 2, 2)
        assert not f.decomposable
        assert abs(f.defect - 1.0) <= 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            is_unitarily_decomposable(np.ones((4, 4)), 2, 2)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            is_unitarily_decomposable(np.eye(4), 2, 3)
