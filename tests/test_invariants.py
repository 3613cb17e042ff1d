import tracemalloc

import numpy as np
import pytest

from triequiv.invariants import (
    nested_invariant,
    power_sum_invariants,
    singular_spectrum,
)
from triequiv.states import (
    Cut,
    apply_local_unitaries,
    matricize,
    random_state,
    random_unitary,
)
from util import basis_state, golden_pair_222, golden_pair_223, oracle_nested

DIMS = [(2, 2, 2), (2, 2, 3), (2, 3, 4), (3, 3, 3)]


class TestPowerSums:
    def test_golden_222_halving(self):
        first, second = golden_pair_222()
        for state in (first, second):
            inv = power_sum_invariants(state, Cut.A, max_order=4)
            for alpha in range(1, 5):
                assert abs(inv[alpha - 1] - 0.5 ** (alpha - 1)) <= 1e-12

    def test_golden_223_halving(self):
        _, second = golden_pair_223()
        inv = power_sum_invariants(second, Cut.A)
        np.testing.assert_allclose(inv, [1.0, 0.5], atol=1e-12)

    @pytest.mark.parametrize("cut", list(Cut))
    def test_product_state_all_ones(self, cut):
        state = basis_state((2, 3, 2), (0, 1, 1))
        inv = power_sum_invariants(state, cut, max_order=3)
        np.testing.assert_allclose(inv, [1.0, 1.0, 1.0], atol=1e-12)

    def test_default_order_is_min_dim(self):
        state = random_state((2, 3, 4), seed=0)
        assert len(power_sum_invariants(state, Cut.B)) == 2

    def test_rejects_bad_order(self):
        state = random_state((2, 2, 2), seed=0)
        with pytest.raises(ValueError):
            power_sum_invariants(state, Cut.A, max_order=0)

    @pytest.mark.parametrize("dims", DIMS)
    def test_lu_invariance(self, dims):
        k, m, n = dims
        for trial in range(10):
            state = random_state(dims, seed=1000 + trial)
            rotated = apply_local_unitaries(
                state,
                random_unitary(k, seed=2000 + trial),
                random_unitary(m, seed=3000 + trial),
                random_unitary(n, seed=4000 + trial),
            )
            for cut in Cut:
                v = power_sum_invariants(state, cut)
                w = power_sum_invariants(rotated, cut)
                np.testing.assert_allclose(v, w, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("dims", DIMS)
    @pytest.mark.parametrize("cut", list(Cut))
    def test_spectral_consistency(self, dims, cut):
        state = random_state(dims, seed=17)
        inv = power_sum_invariants(state, cut)
        sigma = singular_spectrum(state, cut)
        for alpha, value in enumerate(inv, 1):
            assert abs(value - np.sum(sigma ** (2 * alpha))) <= 1e-10

    @pytest.mark.parametrize("dims", DIMS)
    @pytest.mark.parametrize("cut", list(Cut))
    def test_vector_shape_invariants(self, dims, cut):
        state = random_state(dims, seed=23)
        inv = power_sum_invariants(state, cut, max_order=4)
        assert abs(inv[0] - 1.0) <= 1e-10
        assert all(0.0 < v <= 1.0 + 1e-12 for v in inv)
        assert all(a >= b - 1e-12 for a, b in zip(inv, inv[1:]))

    @pytest.mark.parametrize("cut", list(Cut))
    def test_purity_lower_bound(self, cut):
        dims = (2, 3, 4)
        state = random_state(dims, seed=29)
        mat = matricize(state, cut)
        bound = 1.0 / min(mat.shape)
        purity = power_sum_invariants(state, cut)[1]
        assert bound - 1e-12 <= purity <= 1.0 + 1e-12


class TestInvariantsEqual:
    def test_golden_pair_equal(self):
        first, second = golden_pair_222()
        np.testing.assert_allclose(
            power_sum_invariants(first, Cut.A),
            power_sum_invariants(second, Cut.A),
            rtol=0,
            atol=1e-9,
        )

    def test_entangled_vs_product(self):
        first, _ = golden_pair_222()
        product = basis_state((2, 2, 2), (0, 0, 0))
        v = power_sum_invariants(first, Cut.A)
        w = power_sum_invariants(product, Cut.A)
        assert max(abs(a - b) for a, b in zip(v, w)) > 1e-9


class TestSingularSpectrum:
    def test_golden_222(self):
        first, _ = golden_pair_222()
        np.testing.assert_allclose(
            singular_spectrum(first, Cut.A), [1 / np.sqrt(2)] * 2, atol=1e-12
        )

    def test_product_state(self):
        state = basis_state((2, 2, 2), (0, 0, 0))
        sigma = singular_spectrum(state, Cut.A)
        assert abs(sigma[0] - 1.0) <= 1e-12
        assert np.all(sigma[1:] <= 1e-12)

    @pytest.mark.parametrize("dims", DIMS)
    def test_squares_sum_to_one(self, dims):
        state = random_state(dims, seed=31)
        for cut in Cut:
            assert abs(np.sum(singular_spectrum(state, cut) ** 2) - 1.0) <= 1e-12


class TestNestedInvariant:
    def test_total_trace_is_one(self):
        state = random_state((2, 3, 2), seed=37)
        for outer, inner in ((1, 2), (2, 1), (3, 1)):
            assert abs(nested_invariant(state, outer, inner, 1, 1) - 1.0) <= 1e-12

    def test_golden_value(self):
        first, _ = golden_pair_222()
        value = nested_invariant(first, 2, 1, 2, 2)
        assert abs(value - 0.125) <= 1e-12
        assert abs(value - oracle_nested(first.amplitudes, 2, 1, 2, 2)) <= 1e-12

    def test_matches_oracle_on_random_state(self):
        state = random_state((2, 2, 3), seed=41)
        for outer in (1, 2, 3):
            for inner in (1, 2, 3):
                if inner == outer:
                    continue
                got = nested_invariant(state, outer, inner, 2, 2)
                want = oracle_nested(state.amplitudes, outer, inner, 2, 2)
                assert abs(got - want) <= 1e-12

    def test_product_state_all_ones(self):
        state = basis_state((2, 2, 2), (1, 0, 1))
        for outer in (1, 2, 3):
            for inner in (1, 2, 3):
                if inner == outer:
                    continue
                for alpha in (1, 2):
                    for beta in (1, 2):
                        value = nested_invariant(state, outer, inner, alpha, beta)
                        assert abs(value - 1.0) <= 1e-12

    def test_rejects_equal_subsystems(self):
        state = random_state((2, 2, 2), seed=43)
        with pytest.raises(ValueError, match="differ"):
            nested_invariant(state, 1, 1, 1, 1)

    def test_memory_is_linear_in_the_state(self):
        # The (KMN)^2 projector alone would be 16 MB at 10^3.
        state = random_state((10, 10, 10), seed=47)
        tracemalloc.start()
        try:
            nested_invariant(state, 2, 1, 2, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_rejects_bad_labels_and_powers(self):
        state = random_state((2, 2, 2), seed=43)
        with pytest.raises(ValueError):
            nested_invariant(state, 0, 1, 1, 1)
        with pytest.raises(ValueError):
            nested_invariant(state, 1, 2, 0, 1)
