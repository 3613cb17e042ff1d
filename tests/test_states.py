import warnings

import numpy as np
import pytest

from triequiv.states import (
    Cut,
    TripartiteState,
    apply_local_unitaries,
    matricize,
    normalized,
    random_state,
    random_unitary,
    reduced_density,
    unfold,
    unitarity_defect,
)
from util import RT2, basis_state, golden_pair_222, golden_pair_223

DIMS = [(2, 2, 2), (2, 2, 3), (2, 3, 4), (3, 3, 3)]


class TestTripartiteState:
    def test_dims_follow_tensor_shape(self):
        state = random_state((2, 3, 4), seed=1)
        assert state.dims == (2, 3, 4)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="3 axes"):
            TripartiteState(np.ones((2, 2)) / 2)

    def test_rejects_off_norm(self):
        with pytest.raises(ValueError, match="not normalized"):
            TripartiteState(np.ones((2, 2, 2), dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_rejects_non_finite(self, bad):
        # abs(nan - 1) > tol is False, so the norm check alone lets NaN in.
        with pytest.raises(ValueError, match="not finite"):
            TripartiteState(np.array([1, bad]).reshape(2, 1, 1))

    def test_rejects_overflowing_norm(self):
        # sum |a|^2 overflows to inf: rejected without an overflow warning.
        with pytest.raises(ValueError, match="not normalized"):
            TripartiteState(np.full((1, 1, 2), 1e200))

    def test_from_unnormalized(self):
        state = TripartiteState.from_unnormalized(np.ones((2, 2, 2)))
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-15

    def test_from_unnormalized_rejects_zero(self):
        with pytest.raises(ValueError, match="zero state"):
            TripartiteState.from_unnormalized(np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("scale", [1e-170, 1e200, 1.7e308, 5e-324])
    def test_from_unnormalized_off_scale(self, scale):
        # sum |a|^2 underflows to 0 or overflows to inf at these scales.
        amps = np.zeros((2, 2, 2), dtype=complex)
        amps[0, 0, 0], amps[1, 0, 1], amps[1, 1, 1] = 1, 1 + 1j, 1j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = TripartiteState.from_unnormalized(amps * scale)
        np.testing.assert_allclose(state.amplitudes, amps / 2, rtol=0, atol=1e-15)

    def test_amplitudes_frozen(self):
        state = random_state((2, 2, 2), seed=2)
        with pytest.raises(ValueError):
            state.amplitudes[0, 0, 0] = 1.0


class TestNormalized:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_non_finite_is_rejected_before_any_division(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite"):
                TripartiteState.from_unnormalized(np.array([1, bad]).reshape(2, 1, 1))

    def test_normal_scale_is_one_division_by_the_norm(self):
        # The benchmark inputs are built this way; their bits are pinned here.
        rng = np.random.default_rng(15)
        for _ in range(200):
            dims = tuple(rng.integers(1, 7, size=3))
            amps = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
            amps *= 10.0 ** rng.uniform(-100, 100)
            state = TripartiteState.from_unnormalized(amps)
            assert np.array_equal(state.amplitudes, amps / np.linalg.norm(amps))

    @pytest.mark.parametrize("dims", DIMS + [(12, 12, 12), (4, 8, 16)])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_state_is_pinned(self, dims, seed):
        rng = np.random.default_rng(seed)
        amps = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
        state = random_state(dims, seed)
        assert np.array_equal(state.amplitudes, amps / np.linalg.norm(amps))

    @pytest.mark.parametrize("scale", [2e-162, 1e-158, 1e-155])
    def test_subnormal_sum_is_rescaled(self, scale):
        # 8 * scale^2 is subnormal: dividing by its square root misses the
        # unit norm by 19 % at 2e-162 and by 1.6e-8 at 1e-158.
        amps = np.full((2, 2, 2), scale, dtype=complex)
        unit, shown = normalized(amps)
        assert np.array_equal(unit, np.full((2, 2, 2), 1 / np.sqrt(8)))
        assert shown == f"8.0 * {scale!r}^2"


class TestMatricize:
    @pytest.mark.parametrize("dims", DIMS)
    def test_index_maps_are_exact(self, dims):
        state = random_state(dims, seed=7)
        k, m, n = dims
        a = state.amplitudes
        mat_a = matricize(state, Cut.A)
        mat_b = matricize(state, Cut.B)
        mat_c = matricize(state, Cut.C)
        for i in range(k):
            for j in range(m):
                for l in range(n):
                    assert mat_a[i, j * n + l] == a[i, j, l]
                    assert mat_b[j, i * n + l] == a[i, j, l]
                    assert mat_c[l, i * m + j] == a[i, j, l]

    def test_row_layout_222(self):
        # Row i of the first cut lists (i,1,1), (i,1,2), (i,2,1), (i,2,2).
        amps = np.arange(1, 9, dtype=complex).reshape(2, 2, 2)
        state = TripartiteState.from_unnormalized(amps)
        mat = matricize(state, Cut.A) * np.linalg.norm(amps)
        np.testing.assert_allclose(mat.real, [[1, 2, 3, 4], [5, 6, 7, 8]], atol=1e-13)

    def test_golden_223_matrix(self):
        state, _ = golden_pair_223()
        expected = np.zeros((2, 6), dtype=complex)
        expected[0, 5] = RT2 / 2
        expected[1, 3] = RT2 / 2
        assert np.array_equal(matricize(state, Cut.A), expected)

    @pytest.mark.parametrize("cut", list(Cut))
    def test_product_state_single_entry(self, cut):
        state = basis_state((2, 2, 2), (0, 0, 0))
        mat = matricize(state, cut)
        assert mat[0, 0] == 1.0
        assert np.count_nonzero(mat) == 1


class TestReducedDensity:
    def test_golden_diagonals(self):
        first, second = golden_pair_222()
        np.testing.assert_allclose(
            reduced_density(first, Cut.A), np.diag([0.5, 0.5, 0.0, 0.0]), atol=1e-12
        )
        np.testing.assert_allclose(
            reduced_density(second, Cut.A), np.diag([0.0, 0.0, 0.5, 0.5]), atol=1e-12
        )

    @pytest.mark.parametrize("dims", DIMS)
    @pytest.mark.parametrize("cut", list(Cut))
    def test_hermitian_psd_unit_trace(self, dims, cut):
        state = random_state(dims, seed=11)
        rho = reduced_density(state, cut)
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
        assert np.min(np.linalg.eigvalsh(rho)) >= -1e-10
        assert abs(np.trace(rho).real - 1.0) <= 1e-12

    @pytest.mark.parametrize("cut", list(Cut))
    def test_product_state_is_rank_one_projector(self, cut):
        state = basis_state((2, 3, 2), (1, 2, 0))
        rho = reduced_density(state, cut)
        eigs = np.sort(np.linalg.eigvalsh(rho))[::-1]
        assert abs(eigs[0] - 1.0) <= 1e-12
        assert np.all(np.abs(eigs[1:]) <= 1e-12)


class TestApplyLocalUnitaries:
    def test_identity_fixes_state(self):
        state = random_state((2, 3, 4), seed=3)
        out = apply_local_unitaries(state, np.eye(2), np.eye(3), np.eye(4))
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)

    def test_rejects_non_unitary(self):
        state = random_state((2, 2, 2), seed=4)
        bad = np.eye(2) * 1.5
        with pytest.raises(ValueError, match="not unitary"):
            apply_local_unitaries(state, bad, np.eye(2), np.eye(2))

    def test_rejects_wrong_shape(self):
        state = random_state((2, 2, 2), seed=5)
        with pytest.raises(ValueError, match="shape"):
            apply_local_unitaries(state, np.eye(3), np.eye(2), np.eye(2))

    @pytest.mark.parametrize("dims", DIMS)
    def test_matricization_covariance(self, dims):
        # The first-cut matrix transforms as u1 @ A @ (u2 (x) u3)^t.
        k, m, n = dims
        for trial in range(5):
            state = random_state(dims, seed=100 + trial)
            u1 = random_unitary(k, seed=200 + trial)
            u2 = random_unitary(m, seed=300 + trial)
            u3 = random_unitary(n, seed=400 + trial)
            rotated = apply_local_unitaries(state, u1, u2, u3)
            lhs = matricize(rotated, Cut.A)
            rhs = u1 @ matricize(state, Cut.A) @ np.kron(u2, u3).T
            assert np.linalg.norm(lhs - rhs) <= 1e-10

    def test_norm_preserved(self):
        state = random_state((3, 3, 3), seed=6)
        rotated = apply_local_unitaries(
            state, random_unitary(3, 1), random_unitary(3, 2), random_unitary(3, 3)
        )
        assert abs(np.linalg.norm(rotated.amplitudes) - 1.0) <= 1e-12

    def test_renormalizes_within_unitarity_tolerance(self):
        # A factor 8e-11 from unitary passes the 1e-10 unitarity check but
        # scales the squared norm by 1 + 8e-11, past the 1e-12 norm check.
        for seed in range(50):
            state = random_state((2, 3, 4), seed=seed)
            u = random_unitary(2, seed=1000 + seed) * (1 + 4e-11)
            assert 7e-11 < unitarity_defect(u) <= 1e-10
            out = apply_local_unitaries(state, u, np.eye(3), np.eye(4))
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "dims",
        [(2, 2, 2), (3, 3, 3), (8, 8, 8), (12, 12, 12), (4, 8, 16), (3, 5, 7), (2, 48, 48)],
    )
    def test_cached_path_gives_the_greedy_searchs_bits(self, dims):
        # The path is searched once per dims; each call gets the bits of
        # numpy's search on its own operands (the last three shapes take
        # other paths than the cubes).
        for trial in range(5):
            state = random_state(dims, seed=500 + trial)
            u = [random_unitary(d, seed=600 + 3 * trial + i) for i, d in enumerate(dims)]
            out = np.einsum("ia,jb,kc,abc->ijk", *u, state.amplitudes, optimize=True)
            want = TripartiteState.from_unnormalized(out).amplitudes
            assert apply_local_unitaries(state, *u).amplitudes.tobytes() == want.tobytes()

    def test_golden_223_printed_map(self):
        from util import golden_bridge_223
        from triequiv.realign import is_unitarily_decomposable

        state, other = golden_pair_223()
        u1, v1 = golden_bridge_223()
        f = is_unitarily_decomposable(v1, 2, 3)
        u2, u3 = f.unitary_factors()
        mapped = apply_local_unitaries(state, u1, u2, u3)
        assert np.linalg.norm(mapped.amplitudes - other.amplitudes) <= 1e-12


class TestRandomGenerators:
    def test_random_state_deterministic(self):
        a = random_state((2, 3, 4), seed=42)
        b = random_state((2, 3, 4), seed=42)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_random_state_normalized(self):
        state = random_state((3, 3, 3), seed=9)
        assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) <= 1e-12

    def test_random_state_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            random_state((0, 2, 2), seed=1)

    def test_distinct_seeds_give_distinct_invariants(self):
        from triequiv.invariants import power_sum_invariants

        a = random_state((2, 2, 2), seed=1)
        b = random_state((2, 2, 2), seed=2)
        va = power_sum_invariants(a, Cut.A)
        vb = power_sum_invariants(b, Cut.A)
        assert max(abs(x - y) for x, y in zip(va, vb)) > 1e-6

    def test_random_unitary_is_unitary(self):
        for n in (2, 3, 4, 6):
            u = random_unitary(n, seed=n)
            assert unitarity_defect(u) <= 1e-12
            assert abs(abs(np.linalg.det(u)) - 1.0) <= 1e-12

    def test_random_unitary_deterministic(self):
        assert np.array_equal(random_unitary(3, seed=5), random_unitary(3, seed=5))


class TestUnfold:
    @pytest.mark.parametrize("axes", [(0, 1, 2), (2, 0, 1), (1, 2, 0)])
    def test_matches_moveaxis_on_permuted_views(self, axes):
        tensor = np.arange(60, dtype=complex).reshape(3, 4, 5).transpose(axes)
        for axis in range(3):
            expected = np.moveaxis(tensor, axis, 0).reshape(tensor.shape[axis], -1)
            assert np.array_equal(unfold(tensor, axis), expected)

    def test_a_stack_unfolds_each_tensor(self):
        stack = np.arange(120, dtype=complex).reshape(2, 3, 4, 5)
        for axis in range(3):
            expected = np.stack([unfold(tensor, axis) for tensor in stack])
            assert np.array_equal(unfold(stack, axis), expected)

    def test_matricize_is_contiguous_for_a_permuted_state(self):
        amps = random_state((2, 3, 4), seed=5).amplitudes.transpose(2, 0, 1)
        state = TripartiteState(amps)
        for cut in Cut:
            assert matricize(state, cut).flags.c_contiguous
