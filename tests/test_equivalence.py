import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triequiv import equivalence
from triequiv.equivalence import (
    EQUIVALENT_VERDICTS,
    VERDICT_FOR_CUT,
    CertificateError,
    SpectrumWitness,
    Verdict,
    bipartite_equivalent,
    check_di,
    decide_equivalence,
    gauge_search,
)
from triequiv.states import (
    Cut,
    TripartiteState,
    apply_local_unitaries,
    matricize,
    random_state,
    random_unitary,
    unitarity_defect,
)
from triequiv.tolerances import Tolerances
from util import (
    basis_state,
    ghz_state,
    golden_pair_222,
    golden_pair_223,
    kron_apply,
    oracle_solve_phase_product,
)

DIMS = [(2, 2, 2), (2, 2, 3), (2, 3, 4), (3, 3, 3)]
# The paper's per-cut machinery, which the decision no longer calls.
PER_CUT = ("bipartite_equivalent", "kron_factorize", "is_unitarily_decomposable")


def _lu_pair(dims, trial, entropy=9876):
    seq = np.random.SeedSequence(entropy=entropy, spawn_key=dims + (trial,))
    s_state, s1, s2, s3 = seq.spawn(4)
    state = random_state(dims, s_state)
    factors = tuple(
        random_unitary(d, s) for d, s in zip(dims, (s1, s2, s3))
    )
    return state, apply_local_unitaries(state, *factors), factors


class TestBipartiteEquivalent:
    def test_identical_matrices(self):
        state = random_state((2, 2, 2), seed=1)
        a = matricize(state, Cut.A)
        cert = bipartite_equivalent(a, a)
        assert cert.residual <= 1e-12
        np.testing.assert_allclose(cert.u, np.eye(2), atol=1e-10)
        np.testing.assert_allclose(cert.v, np.eye(4), atol=1e-10)

    def test_construct_then_recover(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            a = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
            a /= np.linalg.norm(a)
            u0 = random_unitary(3, seed=10 + trial)
            v0 = random_unitary(6, seed=20 + trial)
            b = u0 @ a @ v0.T
            cert = bipartite_equivalent(a, b)
            assert not isinstance(cert, SpectrumWitness)
            assert cert.residual <= 1e-9
            assert unitarity_defect(cert.u) <= 1e-10
            assert unitarity_defect(cert.v) <= 1e-10
            assert np.linalg.norm(b - cert.u @ a @ cert.v.T) <= 1e-9

    def test_spectra_mismatch_witness(self):
        product = basis_state((2, 2, 2), (0, 0, 0))
        ghz = ghz_state()
        res = bipartite_equivalent(matricize(product, Cut.A), matricize(ghz, Cut.A))
        assert isinstance(res, SpectrumWitness)
        assert res.cut is None
        assert res.deviation > 0.2

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape"):
            bipartite_equivalent(np.zeros((2, 4)), np.zeros((2, 6)))

    def test_residual_failure_is_certificate_error(self):
        # Spectra inside the loose equality tolerance but far beyond the
        # reconstruction tolerance: construction must refuse, not fabricate.
        state = random_state((3, 3, 3), seed=3)
        a = matricize(state, Cut.A)
        u, s, vh = np.linalg.svd(a)
        s_perturbed = s + np.array([1e-7, -0.6e-7, -0.5e-7])
        b = u @ np.diag(s_perturbed) @ vh[:3]
        tols = Tolerances(spectra=1e-6, reconstruction=1e-9)
        with pytest.raises(CertificateError):
            bipartite_equivalent(a, b, tols)


def _with_noise(state, norm, rng):
    noise = rng.standard_normal(state.dims) + 1j * rng.standard_normal(state.dims)
    return TripartiteState.from_unnormalized(
        state.amplitudes + norm * noise / np.linalg.norm(noise)
    )


def _frames(first, second):
    return equivalence._state_frame(first), equivalence._state_frame(second)


def _rotated_ghz(d=2, seed=11):
    amps = np.zeros((d, d, d), dtype=complex)
    amps[np.arange(d), np.arange(d), np.arange(d)] = 1.0
    ghz = TripartiteState.from_unnormalized(amps)
    factors = (random_unitary(d, seed + i) for i in range(3))
    return ghz, apply_local_unitaries(ghz, *factors)


class TestGaugeSearch:
    def test_already_decomposable_returned_unchanged(self):
        # GHZ against itself: the identity start already passes, so the
        # degenerate frames cost no sweep and the factors stay the identity.
        ghz, _ = _rotated_ghz()
        factors, residual = gauge_search(*_frames(ghz, ghz), budget=100)
        assert residual <= 1e-12
        for u in factors:
            np.testing.assert_allclose(u, np.eye(2), atol=1e-12)

    def test_budget_zero_runs_no_sweep(self, monkeypatch):
        ghz, rotated = _rotated_ghz()
        first, second = _frames(ghz, rotated)
        monkeypatch.setattr(equivalence, "_sweep", None)
        _, residual = gauge_search(first, second, budget=0)
        assert residual == np.linalg.norm(second.core - first.core)
        assert residual > 1e-3

    def test_recovers_diagonal_phase_gauge(self):
        # With noise a third of the tolerance, the closed-form phases of a
        # generic pair miss the tolerance; the sweeps recover the gauge.
        state, rotated, _ = _lu_pair((6, 6, 6), 0)
        noisy = _with_noise(rotated, 3e-10, np.random.default_rng(0))
        first, second = _frames(state, noisy)
        _, start = gauge_search(first, second, budget=0)
        factors, residual = gauge_search(first, second)
        assert start > 1e-9
        assert residual <= 1e-9
        mapped = np.einsum("ia,jb,kc,abc->ijk", *factors, state.amplitudes)
        assert np.linalg.norm(mapped - noisy.amplitudes) <= 1e-9

    def test_deterministic_for_fixed_seed(self):
        state = random_state((3, 3, 3), seed=8)
        frames = _frames(state, TripartiteState(state.amplitudes.conj()))
        f1, r1 = gauge_search(*frames, budget=60, seed=5)
        f2, r2 = gauge_search(*frames, budget=60, seed=5)
        assert r1 == r2
        for u1, u2 in zip(f1, f2):
            np.testing.assert_array_equal(u1, u2)

    def test_rejects_bad_shape(self):
        frames = _frames(random_state((2, 2, 2), 1), random_state((2, 2, 3), 1))
        with pytest.raises(ValueError, match="shape"):
            gauge_search(*frames)


class TestCheckDi:
    def test_golden_222_first_cut(self):
        first, second = golden_pair_222()
        decision = check_di(first, second, Cut.A)
        assert decision.verdict is Verdict.EQUIVALENT_D1
        assert decision.residual <= 1e-10
        mapped = kron_apply(*decision.local_factors, first)
        assert np.linalg.norm(mapped - second.amplitudes.reshape(-1)) <= 1e-10
        for factor in decision.local_factors:
            assert unitarity_defect(factor) <= 1e-10

    def test_golden_223_first_cut(self):
        first, second = golden_pair_223()
        decision = check_di(first, second, Cut.A)
        assert decision.verdict is Verdict.EQUIVALENT_D1
        assert decision.residual <= 1e-9

    def test_state_vs_itself(self):
        state = random_state((2, 3, 4), seed=5)
        decision = check_di(state, state, Cut.A)
        assert decision.verdict is Verdict.EQUIVALENT_D1
        assert decision.residual <= 1e-12
        for factor, dim in zip(decision.local_factors, state.dims):
            np.testing.assert_allclose(factor, np.eye(dim), atol=1e-8)

    def test_spectra_mismatch_verdict(self):
        product = basis_state((2, 2, 2), (0, 0, 0))
        decision = check_di(product, ghz_state(), Cut.A)
        assert decision.verdict is Verdict.INVARIANTS_DIFFER
        assert decision.witness.cut is Cut.A

    def test_equal_cut_spectrum_but_inequivalent_is_refuted_on_another_cut(self):
        # Shares the first cut's spectrum with the GHZ state but differs on
        # the second cut, which check_di compares too.
        first, _ = golden_pair_222()
        decision = check_di(first, ghz_state(), Cut.A, gauge_budget=300)
        assert decision.verdict is Verdict.INVARIANTS_DIFFER
        assert decision.witness.cut is Cut.B

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            check_di(random_state((2, 2, 2), 1), random_state((2, 2, 3), 1), Cut.A)

    @pytest.mark.parametrize("cut", list(Cut))
    @pytest.mark.parametrize("pair", ["golden-222", "golden-223", "generic-345"])
    def test_cut_only_labels_the_verdict(self, cut, pair):
        first, second = {
            "golden-222": golden_pair_222,
            "golden-223": golden_pair_223,
            "generic-345": lambda: _lu_pair((3, 4, 5), 0)[:2],
        }[pair]()
        labelled = check_di(first, second, cut)
        decision = decide_equivalence(first, second)
        assert decision.verdict is Verdict.EQUIVALENT_D1
        assert labelled.verdict is VERDICT_FOR_CUT[cut]
        assert labelled.residual == decision.residual
        for u, v in zip(labelled.local_factors, decision.local_factors):
            np.testing.assert_array_equal(u, v)

    @pytest.mark.parametrize("cut", list(Cut))
    def test_other_verdicts_pass_through(self, cut):
        ghz, rotated = _rotated_ghz()
        for first, second, budget, verdict in (
            (basis_state((2, 2, 2), (0, 0, 0)), ghz, 1000, Verdict.INVARIANTS_DIFFER),
            (ghz, rotated, 0, Verdict.INCONCLUSIVE),
        ):
            decision = decide_equivalence(first, second, gauge_budget=budget)
            assert decision.verdict is verdict
            assert check_di(first, second, cut, gauge_budget=budget) == decision


class TestDecideEquivalence:
    def test_golden_pairs(self):
        for pair in (golden_pair_222(), golden_pair_223()):
            decision = decide_equivalence(*pair)
            assert decision.verdict is Verdict.EQUIVALENT_D1

    def test_product_vs_ghz(self):
        decision = decide_equivalence(basis_state((2, 2, 2), (0, 0, 0)), ghz_state())
        assert decision.verdict is Verdict.INVARIANTS_DIFFER
        assert decision.witness.cut is Cut.A

    def test_cross_cut_witness(self):
        # First-cut spectra agree with GHZ; the proof of inequivalence comes
        # from another cut and must be found without burning gauge budget.
        first, _ = golden_pair_222()
        decision = decide_equivalence(first, ghz_state())
        assert decision.verdict is Verdict.INVARIANTS_DIFFER
        assert decision.witness.cut in (Cut.B, Cut.C)

    @pytest.mark.parametrize("dims", DIMS)
    def test_constructed_pairs_certified(self, dims):
        for trial in range(10):
            state, rotated, _ = _lu_pair(dims, trial)
            decision = decide_equivalence(state, rotated)
            assert decision.verdict in (
                Verdict.EQUIVALENT_D1,
                Verdict.EQUIVALENT_D2,
                Verdict.EQUIVALENT_D3,
            )
            mapped = kron_apply(*decision.local_factors, state)
            assert np.linalg.norm(mapped - rotated.amplitudes.reshape(-1)) <= 1e-9

    def test_symmetry_of_verdict(self):
        for trial in range(3):
            state, rotated, _ = _lu_pair((2, 2, 3), trial)
            forward = decide_equivalence(state, rotated)
            backward = decide_equivalence(rotated, state)
            equivalent = (
                Verdict.EQUIVALENT_D1,
                Verdict.EQUIVALENT_D2,
                Verdict.EQUIVALENT_D3,
            )
            assert (forward.verdict in equivalent) == (backward.verdict in equivalent)

    def test_spectra_checked_on_every_cut_whatever_the_order(self):
        # Cut A's spectra agree; only cut B's prove the pair inequivalent,
        # whichever cut the verdict is to be labelled by.
        first, _ = golden_pair_222()
        for decision in (
            decide_equivalence(first, ghz_state()),
            *(check_di(first, ghz_state(), cut) for cut in Cut),
        ):
            assert decision.verdict is Verdict.INVARIANTS_DIFFER
            assert decision.witness.cut is Cut.B

    @pytest.mark.parametrize("dims", [(3, 4, 5), (5, 2, 2), (1, 3, 4)])
    def test_generic_pairs_decided_from_frames_alone(self, dims, monkeypatch):
        # (5, 2, 2) has a rank-deficient first reduction, (1, 3, 4) a trivial one.
        def refuse(*args, **kwargs):
            raise AssertionError("per-cut machinery used on a generic pair")

        for name in (*PER_CUT, "_sweep"):
            monkeypatch.setattr(equivalence, name, refuse)
        for trial in range(3):
            state, rotated, _ = _lu_pair(dims, trial)
            decision = decide_equivalence(state, rotated)
            assert decision.verdict is Verdict.EQUIVALENT_D1
            mapped = kron_apply(*decision.local_factors, state)
            assert np.linalg.norm(mapped - rotated.amplitudes.reshape(-1)) <= 1e-9

    def test_degenerate_pair_without_budget_is_inconclusive(self):
        # A maximally entangled pair has fully degenerate reductions, which
        # defeats the closed-form alignment; with the search disabled the
        # decision must fall back to an honest "inconclusive".
        ghz = ghz_state()
        rotated = apply_local_unitaries(
            ghz,
            random_unitary(2, seed=11),
            random_unitary(2, seed=12),
            random_unitary(2, seed=13),
        )
        decision = decide_equivalence(ghz, rotated, gauge_budget=0)
        assert decision.verdict is Verdict.INCONCLUSIVE
        assert decision.local_factors is None
        assert decision.residual > 1e-9

    def test_degenerate_pair_with_budget_is_resolved(self):
        ghz = ghz_state()
        rotated = apply_local_unitaries(
            ghz,
            random_unitary(2, seed=11),
            random_unitary(2, seed=12),
            random_unitary(2, seed=13),
        )
        decision = decide_equivalence(ghz, rotated)
        assert decision.verdict in (
            Verdict.EQUIVALENT_D1,
            Verdict.EQUIVALENT_D2,
            Verdict.EQUIVALENT_D3,
        )
        assert decision.residual <= 1e-9

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            decide_equivalence(random_state((2, 2, 2), 1), random_state((2, 2, 3), 1))


def _verdict_class(decision):
    if decision.verdict in EQUIVALENT_VERDICTS:
        return "equivalent"
    return decision.verdict.value


@settings(derandomize=True, max_examples=50, deadline=None)
@given(
    dims=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
    trial=st.integers(0, 2**16),
)
def test_lu_rotated_pairs_are_never_refuted(dims, trial):
    state, rotated, _ = _lu_pair(dims, trial)
    forward = decide_equivalence(state, rotated)
    backward = decide_equivalence(rotated, state)
    for decision, first, second in (
        (forward, state, rotated),
        (backward, rotated, state),
    ):
        assert decision.verdict is not Verdict.INVARIANTS_DIFFER
        if decision.verdict in EQUIVALENT_VERDICTS:
            for u in decision.local_factors:
                assert np.max(np.abs(u @ u.conj().T - np.eye(len(u)))) <= 1e-10
            mapped = np.einsum(
                "ia,jb,kc,abc->ijk", *decision.local_factors, first.amplitudes
            )
            assert np.linalg.norm(mapped - second.amplitudes) <= 1e-9
    assert _verdict_class(forward) == _verdict_class(backward)


def _assert_certified(decision, first, second):
    assert decision.verdict in EQUIVALENT_VERDICTS
    for u in decision.local_factors:
        assert np.max(np.abs(u @ u.conj().T - np.eye(len(u)))) <= 1e-10
    mapped = np.einsum("ia,jb,kc,abc->ijk", *decision.local_factors, first.amplitudes)
    assert np.linalg.norm(mapped - second.amplitudes) <= 1e-9


def _refuse(*args, **kwargs):
    raise AssertionError("per-cut machinery used")


def _sparse_lu_pair(dims, seed):
    """LU pair on a density-0.3 mask thinned so no two entries share two indices.

    Every reduction of such a state is diagonal, so its frame core keeps the
    mask's sparsity, which is what exposes the flood fill's anchoring rule.
    """
    rng = np.random.default_rng(seed)
    mask = rng.random(dims) < 0.3
    mask[tuple(rng.integers(d) for d in dims)] = True
    kept = []
    for index in rng.permutation(np.argwhere(mask)):
        if all(np.count_nonzero(index == other) < 2 for other in kept):
            kept.append(index)
    amps = np.zeros(dims, dtype=complex)
    for index in kept:
        amps[tuple(index)] = rng.uniform(0.5, 1.0) * np.exp(2j * np.pi * rng.random())
    state = TripartiteState.from_unnormalized(amps)
    factors = (random_unitary(d, rng) for d in dims)
    return state, apply_local_unitaries(state, *factors)


def _frame_phase_ratio(state, partner):
    first, second = _frames(state, partner)
    chi = second.core * first.core.conj()
    return chi / np.maximum(np.abs(chi), 1e-300), np.abs(first.core)


# A pair whose frame phase ratios defeat the flood fill's anchoring rule.
SPARSE_ANCHOR_PAIR = ((3, 3, 3), 0)


def test_sparse_lu_pairs_hit_the_anchoring_rule():
    chi, weight = _frame_phase_ratio(*_sparse_lu_pair(*SPARSE_ANCHOR_PAIR))
    assert oracle_solve_phase_product(chi, weight) is None
    assert equivalence._solve_phase_product(chi, weight) is not None


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    dims=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
    seed=st.integers(0, 2**16),
)
@example(dims=SPARSE_ANCHOR_PAIR[0], seed=SPARSE_ANCHOR_PAIR[1])
def test_sparse_lu_pairs_are_certified(dims, seed):
    state, partner = _sparse_lu_pair(dims, seed)
    with pytest.MonkeyPatch.context() as patch:
        for name in PER_CUT:
            patch.setattr(equivalence, name, _refuse)
        decision = decide_equivalence(state, partner)
    _assert_certified(decision, state, partner)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    dims=st.one_of(
        st.tuples(st.integers(2, 6), st.integers(2, 6), st.integers(2, 6)),
        st.just("ghz4"),
    ),
    log_norm=st.floats(-13.0, np.log10(5e-10)),
    seed=st.integers(0, 2**16),
)
def test_noisy_lu_pairs_are_certified(dims, log_norm, seed):
    if dims == "ghz4":
        state, rotated = _rotated_ghz(4, seed)
    else:
        state, rotated, _ = _lu_pair(dims, seed)
    noisy = _with_noise(rotated, 10.0**log_norm, np.random.default_rng(seed))
    _assert_certified(decide_equivalence(state, noisy), state, noisy)


def _max_entangled_a(dims, rng):
    k, m, n = dims
    rows = random_unitary(m * n, rng)[:k]
    return TripartiteState.from_unnormalized(rows.reshape(k, m, n))


@pytest.mark.parametrize(
    "kind",
    ["ghz3", "ghz4", (3, 3, 3), (4, 4, 4), (5, 3, 3)],
    ids=["ghz3", "ghz4", "maxa-3x3x3", "maxa-4x4x4", "maxa-5x3x3"],
)
def test_degenerate_lu_pairs_are_certified(kind):
    # GHZ states have fully degenerate reductions; the rows of a unitary make
    # a state maximally entangled across cut A.
    for trial in range(40):
        if isinstance(kind, str):
            state, rotated = _rotated_ghz(int(kind[-1]), 100 * trial)
        else:
            rng = np.random.default_rng([17, *kind, trial])
            state = _max_entangled_a(kind, rng)
            factors = (random_unitary(d, rng) for d in kind)
            rotated = apply_local_unitaries(state, *factors)
        _assert_certified(decide_equivalence(state, rotated), state, rotated)


def _significance_mask(kind, dims, rng):
    if kind == "dense":
        return np.ones(dims, dtype=bool)
    if kind == "single":
        mask = np.zeros(dims, dtype=bool)
        mask[tuple(rng.integers(d) for d in dims)] = True
        return mask
    if kind == "disconnected":
        # Two dense blocks on the low and the high part of every axis; they
        # share no index unless an axis has dimension 1.
        mask = np.zeros(dims, dtype=bool)
        mask[tuple(slice(0, d // 2 or 1) for d in dims)] = True
        mask[tuple(slice(d // 2, d) for d in dims)] = True
        return mask
    mask = rng.random(dims) < 0.3
    mask[tuple(rng.integers(d) for d in dims)] = True
    return mask


def _reproduces(phases, chi, significant):
    beta, phi, psi = phases
    product = np.einsum("s,p,q->spq", beta, phi, psi)
    return np.max(np.abs(product - chi)[significant]) <= 1e-12


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    dims=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
    kind=st.sampled_from(["dense", "sparse", "disconnected", "single"]),
    seed=st.integers(0, 2**16),
)
def test_phase_solver_matches_flood_fill(dims, kind, seed):
    rng = np.random.default_rng(seed)
    mask = _significance_mask(kind, dims, rng)
    # Entries off the mask sit below the relative cutoff and carry noise.
    weight = np.where(mask, rng.uniform(0.5, 1.0, dims), rng.uniform(0, 4e-4, dims))
    beta, phi, psi = (np.exp(2j * np.pi * rng.random(d)) for d in dims)
    chi = np.einsum("s,p,q->spq", beta, phi, psi)
    chi[~mask] = np.exp(2j * np.pi * rng.random(int((~mask).sum())))

    new = equivalence._solve_phase_product(chi, weight)
    old = oracle_solve_phase_product(chi, weight)
    # An exact product always factors; the flood fill's anchoring rule misses
    # some on sparse masks, so it is the reference only where it answers.
    assert new is not None
    assert _reproduces(new, chi, mask)
    if old is not None:
        assert _reproduces(old, chi, mask)

    rotated = chi.copy()
    entries = np.argwhere(mask)
    rotated[tuple(entries[rng.integers(len(entries))])] *= np.exp(1e-3j)
    new = equivalence._solve_phase_product(rotated, weight)
    old = oracle_solve_phase_product(rotated, weight)
    if old is not None:
        assert new is not None
    if new is not None:
        assert _reproduces(new, rotated, mask)
    if kind == "dense" and min(dims) >= 2:
        assert new is None
