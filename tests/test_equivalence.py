import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from triequiv import equivalence
from triequiv.equivalence import (
    Verdict,
    decide_equivalence,
    gauge_search,
)
from triequiv.states import (
    Cut,
    TripartiteState,
    apply_local_unitaries,
    cut_svd,
    gram_delta,
    matricize,
    random_state,
    random_unitary,
    unitarity_defect,
)
from triequiv.tolerances import Tolerances
from util import (
    basis_state,
    cayley_unitary,
    exact_lu_pair,
    gaussian_skew,
    ghz_state,
    golden_pair_222,
    golden_pair_223,
    kron_apply,
    oracle_solve_phase_product,
    straddle_state,
)

DIMS = [(2, 2, 2), (2, 2, 3), (2, 3, 4), (3, 3, 3)]
# The paper's per-cut machinery, which the decision no longer calls.
PER_CUT = ("kron_factorize", "is_unitarily_decomposable")


def _lu_pair(dims, trial, entropy=9876):
    seq = np.random.SeedSequence(entropy=entropy, spawn_key=dims + (trial,))
    s_state, s1, s2, s3 = seq.spawn(4)
    state = random_state(dims, s_state)
    factors = tuple(
        random_unitary(d, s) for d, s in zip(dims, (s1, s2, s3))
    )
    return state, apply_local_unitaries(state, *factors), factors


def _with_noise(state, norm, rng):
    noise = rng.standard_normal(state.dims) + 1j * rng.standard_normal(state.dims)
    return TripartiteState.from_unnormalized(
        state.amplitudes + norm * noise / np.linalg.norm(noise)
    )


def _frames(*states):
    frames = []
    for s in states:
        svds = [cut_svd(s.amplitudes[None], cut) for cut in Cut]
        bases = tuple(vecs[0] for vecs, _, _ in svds)
        spectra = tuple(values[0] for _, values, _ in svds)
        frames.append(equivalence._state_frame(s, bases, spectra))
    return tuple(frames)


def _rotated_ghz(d=2, seed=11):
    amps = np.zeros((d, d, d), dtype=complex)
    amps[np.arange(d), np.arange(d), np.arange(d)] = 1.0
    ghz = TripartiteState.from_unnormalized(amps)
    factors = (random_unitary(d, seed + i) for i in range(3))
    return ghz, apply_local_unitaries(ghz, *factors)


def _recorded(results, name):
    """``equivalence.<name>``, appending the result of every call to ``results``."""
    wrapped = getattr(equivalence, name)

    def record(*args):
        results.append(wrapped(*args))
        return results[-1]

    return record


class TestGaugeSearch:
    def test_already_decomposable_returned_unchanged(self):
        # GHZ against itself: the identity start already passes, so the
        # degenerate frames cost no sweep and the factors stay the identity.
        ghz, _ = _rotated_ghz()
        factors, residual, _ = gauge_search(*_frames(ghz, ghz), budget=100)
        assert residual <= 1e-12
        for u in factors:
            np.testing.assert_allclose(u, np.eye(2), atol=1e-12)

    def test_budget_zero_runs_no_sweep(self, monkeypatch):
        ghz, rotated = _rotated_ghz()
        first, second = _frames(ghz, rotated)
        monkeypatch.setattr(equivalence, "_sweep", None)
        _, residual, _ = gauge_search(first, second, budget=0)
        assert residual == np.linalg.norm(second.core - first.core)
        assert residual > 1e-3

    def test_recovers_diagonal_phase_gauge(self):
        # With noise a third of the tolerance, the closed-form phases of a
        # generic pair miss the tolerance; the sweeps recover the gauge.
        state, rotated, _ = _lu_pair((6, 6, 6), 0)
        noisy = _with_noise(rotated, 3e-10, np.random.default_rng(0))
        first, second = _frames(state, noisy)
        _, start, _ = gauge_search(first, second, budget=0)
        factors, residual, obstruction = gauge_search(first, second)
        assert start > 1e-9
        assert obstruction is None
        assert residual <= 1e-9
        mapped = np.einsum("ia,jb,kc,abc->ijk", *factors, state.amplitudes)
        assert np.linalg.norm(mapped - noisy.amplitudes) <= 1e-9

    def test_deterministic_for_fixed_seed(self, monkeypatch):
        # A state maximally entangled across A against its conjugate: A's
        # reduction is one group, so no obstruction ends the search, and the
        # 60 sweeps run out after block restarts from the fixed generator.
        state = _max_entangled_a((3, 3, 3), np.random.default_rng(0))
        frames = _frames(state, TripartiteState(state.amplitudes.conj()))
        sweeps, restarts = [], []
        monkeypatch.setattr(equivalence, "_sweep", _recorded(sweeps, "_sweep"))
        monkeypatch.setattr(
            equivalence, "_block_unitary", _recorded(restarts, "_block_unitary")
        )
        f1, r1, o1 = gauge_search(*frames, budget=60)
        assert (len(sweeps), len(restarts)) == (60, 12)
        f2, r2, o2 = gauge_search(*frames, budget=60)
        assert r1 == r2 and o1 is o2 is None
        for u1, u2 in zip(f1, f2):
            np.testing.assert_array_equal(u1, u2)

    def test_rejects_bad_shape(self):
        frames = _frames(random_state((2, 2, 2), 1), random_state((2, 2, 3), 1))
        with pytest.raises(ValueError, match="shape"):
            gauge_search(*frames)


class TestDecideEquivalence:
    def test_golden_pairs(self):
        for pair in (golden_pair_222(), golden_pair_223()):
            decision = decide_equivalence(*pair)
            assert decision.verdict is Verdict.EQUIVALENT_D1

    def test_golden_222_certificate(self):
        first, second = golden_pair_222()
        decision = decide_equivalence(first, second)
        assert decision.verdict is Verdict.EQUIVALENT_D1
        assert decision.residual <= 1e-10
        mapped = kron_apply(*decision.local_factors, first)
        assert np.linalg.norm(mapped - second.amplitudes.reshape(-1)) <= 1e-10
        for factor in decision.local_factors:
            assert unitarity_defect(factor) <= 1e-10

    def test_state_vs_itself(self):
        state = random_state((2, 3, 4), seed=5)
        decision = decide_equivalence(state, state)
        assert decision.verdict is Verdict.EQUIVALENT_D1
        assert decision.residual <= 1e-12
        for factor, dim in zip(decision.local_factors, state.dims):
            np.testing.assert_allclose(factor, np.eye(dim), atol=1e-8)

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
            assert decision.verdict is Verdict.EQUIVALENT_D1
            mapped = kron_apply(*decision.local_factors, state)
            assert np.linalg.norm(mapped - rotated.amplitudes.reshape(-1)) <= 1e-9

    def test_symmetry_of_verdict(self):
        for trial in range(3):
            state, rotated, _ = _lu_pair((2, 2, 3), trial)
            forward = decide_equivalence(state, rotated)
            backward = decide_equivalence(rotated, state)
            assert (forward.verdict is Verdict.EQUIVALENT_D1) == (
                backward.verdict is Verdict.EQUIVALENT_D1
            )

    def test_spectra_checked_on_every_cut_whatever_the_order(self):
        # Cut A's spectra agree; only cut B's prove the pair inequivalent.
        first, _ = golden_pair_222()
        decision = decide_equivalence(first, ghz_state())
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
        assert decision.verdict is Verdict.EQUIVALENT_D1
        assert decision.residual <= 1e-9

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            decide_equivalence(random_state((2, 2, 2), 1), random_state((2, 2, 3), 1))

    @pytest.mark.parametrize(
        "pair, verdict",
        [
            ("lu-ghz", Verdict.INCONCLUSIVE),
            ("product-vs-ghz", Verdict.INVARIANTS_DIFFER),
        ],
    )
    def test_negative_gauge_budget_raises(self, pair, verdict):
        # Raised before the spectra are compared, so a pair they refute is
        # rejected too; a budget of 0 still runs the decision without a sweep.
        first, second = {
            "lu-ghz": _rotated_ghz,
            "product-vs-ghz": lambda: (basis_state((2, 2, 2), (0, 0, 0)), ghz_state()),
        }[pair]()
        with pytest.raises(ValueError, match="gauge_budget"):
            decide_equivalence(first, second, gauge_budget=-1)
        assert decide_equivalence(first, second, gauge_budget=0).verdict is verdict


def _verdict_class(decision):
    if decision.verdict is Verdict.EQUIVALENT_D1:
        return "equivalent"
    return decision.verdict.value


@settings(derandomize=True, max_examples=50, deadline=None)
@given(
    dims=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
    trial=st.integers(0, 2**16),
    rank_deficient=st.booleans(),
    log_spec_tol=st.integers(-300, -9),
)
@example(dims=(5, 2, 2), trial=0, rank_deficient=False, log_spec_tol=-9)
@example(dims=(3, 2, 3), trial=0, rank_deficient=False, log_spec_tol=-15)
@example(dims=(3, 2, 3), trial=0, rank_deficient=False, log_spec_tol=-17)
@example(dims=(6, 1, 3), trial=0, rank_deficient=False, log_spec_tol=-9)
@example(dims=(6, 1, 3), trial=0, rank_deficient=True, log_spec_tol=-9)
@example(dims=(1, 1, 1), trial=0, rank_deficient=False, log_spec_tol=-300)
@example(dims=(5, 5, 5), trial=0, rank_deficient=False, log_spec_tol=-300)
@example(dims=(8, 8, 8), trial=0, rank_deficient=False, log_spec_tol=-300)
@example(dims=(8, 8, 8), trial=1, rank_deficient=True, log_spec_tol=-300)
@example(dims=(12, 12, 12), trial=0, rank_deficient=False, log_spec_tol=-300)
@example(dims=(12, 12, 12), trial=1, rank_deficient=True, log_spec_tol=-300)
@example(dims=(4, 8, 16), trial=0, rank_deficient=True, log_spec_tol=-300)
@example(dims=(8, 2, 16), trial=0, rank_deficient=True, log_spec_tol=-300)
@example(dims=(32, 4, 4), trial=0, rank_deficient=True, log_spec_tol=-300)
def test_lu_rotated_pairs_are_never_refuted(dims, trial, rank_deficient, log_spec_tol):
    # Every cut takes one eigh of its Gram matrix, tall ones (cut A of 5x2x2,
    # 6x1x3 and 32x4x4) included.  Rank-deficient cuts have their tail
    # deflated by a second eigh: cut A of the rank-deficient 8^3, 12^3,
    # 4x8x16 and 32x4x4, cuts A and C of 8x2x16 and cut C of 6x1x3; beside
    # ``other``, whose cuts are kept whole, they make a stack in which only
    # some states deflate.  However small the spectra tolerance, the
    # rounding of an LU pair's spectra is no witness.
    state, rotated, factors = _lu_pair(dims, trial)
    if rank_deficient:
        rng = np.random.default_rng(trial)
        full = min(dims[0], dims[1] * dims[2])
        rank = int(rng.integers(1, full)) if full > 1 else 1
        state = _schmidt_state(dims, rank, None, rng)
        rotated = apply_local_unitaries(state, *factors)
    other = _lu_pair(dims, trial + 1)[0]
    refuted = decide_equivalence(state, other)
    tols = Tolerances(spectra=10.0**log_spec_tol)
    forward = decide_equivalence(state, rotated, tols)
    backward = decide_equivalence(rotated, state, tols)
    for decision, first, second in (
        (forward, state, rotated),
        (backward, rotated, state),
    ):
        assert decision.verdict is not Verdict.INVARIANTS_DIFFER
        if decision.verdict is Verdict.EQUIVALENT_D1:
            for u in decision.local_factors:
                assert np.max(np.abs(u @ u.conj().T - np.eye(len(u)))) <= 1e-10
            mapped = np.einsum(
                "ia,jb,kc,abc->ijk", *decision.local_factors, first.amplitudes
            )
            assert np.linalg.norm(mapped - second.amplitudes) <= 1e-9
    assert _verdict_class(forward) == _verdict_class(backward)

    # The decisions carry the frames' spectra; a witness is read from them.
    for decision, pair in ((forward, (state, rotated)), (refuted, (state, other))):
        for spectra, s in zip(decision.spectra, pair):
            for cut, spectrum in zip(Cut, spectra):
                expected = np.linalg.svd(matricize(s, cut), compute_uv=False)
                np.testing.assert_allclose(spectrum, expected, rtol=0, atol=1e-13)
    witness = refuted.witness
    if witness is not None:
        left, right = (
            np.linalg.svd(matricize(s, witness.cut), compute_uv=False)[witness.index]
            for s in (state, other)
        )
        assert abs(witness.left - left) <= 1e-12
        assert abs(witness.right - right) <= 1e-12
        assert abs(left - right) > 1e-9


@pytest.mark.parametrize("field", ["spectra", "reconstruction"])
@pytest.mark.parametrize("value", [-1.0, 0.0, np.inf, np.nan])
def test_tolerances_must_be_finite_and_positive(field, value):
    with pytest.raises(ValueError, match=field):
        Tolerances(**{field: value})


def test_the_unitarity_bound_is_fixed():
    with pytest.raises(TypeError, match="unitarity"):
        Tolerances(unitarity=1e-9)
    assert Tolerances().unitarity == 1e-10
    assert dataclasses.asdict(Tolerances()) == {
        "unitarity": 1e-10,
        "spectra": 1e-9,
        "reconstruction": 1e-9,
    }


def test_infinite_tolerances_do_not_certify_an_unrelated_pair():
    # These tolerances would certify two states whose spectra differ.
    with pytest.raises(ValueError, match="finite"):
        decide_equivalence(
            random_state((3, 3, 3), 1),
            random_state((3, 3, 3), 2),
            Tolerances(spectra=np.inf, reconstruction=np.inf),
        )


def test_unitarity_tolerance_controls_the_certificate(monkeypatch):
    # The fixed bound 1e-10 still gates the certificate: factors reported
    # past it are refused, factors within it accepted.
    state, rotated, _ = _lu_pair((3, 4, 5), 0)
    monkeypatch.setattr(equivalence, "unitarity_defect", lambda u: 2e-10)
    decision = decide_equivalence(state, rotated)
    assert decision.verdict is Verdict.INCONCLUSIVE
    assert decision.local_factors is None
    assert decision.residual <= 1e-9
    monkeypatch.setattr(equivalence, "unitarity_defect", lambda u: 5e-11)
    decision = decide_equivalence(state, rotated)
    assert decision.verdict is Verdict.EQUIVALENT_D1
    assert decision.local_factors is not None


def test_procrustes_is_reached_only_through_refit(monkeypatch):
    # Besides the cut factorisations, every SVD of a decision is the polar
    # factor in _refit: a generic pair needs none, a state maximally
    # entangled across A starts from the one-block refit, GHZ needs sweeps.
    # The cuts are factored by eigh alone: one of each cut's Gram matrix, and
    # one of the deflated tail of each cut that needs it, here cut A of rank
    # 2 of a 4x8x16 pair.
    callers = []
    eigh_shapes = []
    tail_shapes = []
    svd, eigh = np.linalg.svd, np.linalg.eigh

    def record(*args, **kwargs):
        frames = sys._getframe(1), sys._getframe(2)
        callers.append(tuple(frame.f_code.co_name for frame in frames))
        return svd(*args, **kwargs)

    def record_eigh(a, *args, **kwargs):
        # One call factors the cut of both states; record each matrix.
        caller = sys._getframe(1).f_code.co_name
        assert caller in ("cut_svd", "_deflate")
        *stack, rows, _ = np.shape(a)
        shapes = eigh_shapes if caller == "cut_svd" else tail_shapes
        shapes.extend([rows] * int(np.prod(stack)))
        return eigh(a, *args, **kwargs)

    max_a = _max_entangled_a((3, 3, 3), np.random.default_rng(0))
    factors = (random_unitary(3, seed) for seed in range(3))
    rng = np.random.default_rng(1)
    rank_two = _schmidt_state((4, 8, 16), 2, None, rng)
    rotations = (random_unitary(d, rng) for d in rank_two.dims)
    pairs = (
        _lu_pair((3, 4, 5), 0)[:2],
        (max_a, apply_local_unitaries(max_a, *factors)),
        _rotated_ghz(),
        _lu_pair((4, 8, 16), 0)[:2],
        (rank_two, apply_local_unitaries(rank_two, *rotations)),
    )
    monkeypatch.setattr(np.linalg, "svd", record)
    monkeypatch.setattr(np.linalg, "eigh", record_eigh)
    for first, second in pairs:
        _assert_certified(decide_equivalence(first, second), first, second)
    refits = {user for caller, user in callers if caller == "_refit"}
    assert {caller for caller, _ in callers} == {"_refit"}
    assert refits == {"_sweep", "_one_block_start"}
    # One Gram matrix per cut of every state, each d x d.
    dims = [(3, 4, 5), (3, 3, 3), (2, 2, 2), (4, 8, 16), (4, 8, 16)]
    assert sorted(eigh_shapes) == sorted(d for shape in dims for d in shape * 2)
    # One tail per state of the rank-2 pair, past its two kept vectors: 2x2.
    assert tail_shapes == [2] * 2


def test_the_certificate_is_the_searched_candidate(monkeypatch):
    # _certify checks the factors gauge_search built and re-solves none of
    # them: the certificate is the candidate bit for bit, and a U_A off by a
    # global phase of 1e-8 is refused although the search reports a passing
    # residual (a Procrustes refit of U_A would absorb the phase).
    state, rotated, _ = _lu_pair((12, 12, 12), 0)
    search, searches = equivalence.gauge_search, []
    monkeypatch.setattr(equivalence, "gauge_search", _recorded(searches, "gauge_search"))
    decision = decide_equivalence(state, rotated)
    ((factors, residual, _),) = searches
    _assert_certified(decision, state, rotated)
    assert [u.tobytes() for u in decision.local_factors] == [u.tobytes() for u in factors]
    assert residual <= 1e-9

    def off(*args):
        (u_a, u_b, u_c), residual, obstruction = search(*args)
        return (u_a * np.exp(1e-8j), u_b, u_c), residual, obstruction

    monkeypatch.setattr(equivalence, "gauge_search", off)
    decision = decide_equivalence(state, rotated)
    assert decision.verdict is Verdict.INCONCLUSIVE
    assert decision.local_factors is None
    assert decision.residual == residual


def test_generic_pairs_read_the_phases_of_a_few_entries(monkeypatch):
    # The start of a generic 12^3 pair reads the phase ratios of the fibre
    # and of the slabs' strongest entries, 12 entries each, and passes: no
    # phase ratio of the whole core and no phase solve.  psi against psi*
    # misses the start, so the whole core's ratios are solved and give the
    # obstruction.
    calls, solves = [], []
    phase_ratio = equivalence._phase_ratio

    def record(after, before):
        calls.append((sys._getframe(1).f_code.co_name, before.shape))
        return phase_ratio(after, before)

    monkeypatch.setattr(equivalence, "_phase_ratio", record)
    monkeypatch.setattr(
        equivalence, "_solve_phase_product", _recorded(solves, "_solve_phase_product")
    )
    state, rotated, _ = _lu_pair((12, 12, 12), 0)
    _assert_certified(decide_equivalence(state, rotated), state, rotated)
    assert solves == []
    assert calls == [("<lambda>", (12,))] * 3

    calls.clear()
    state = random_state((4, 4, 4), 7)
    decision = decide_equivalence(state, TripartiteState(state.amplitudes.conj()))
    assert decision.verdict is Verdict.INCONCLUSIVE
    assert decision.obstruction is not None
    assert len(solves) == 1 and solves[0][1] is not None
    assert calls == [("<lambda>", (4,))] * 3 + [("gauge_search", (4, 4, 4))]


def test_each_start_reads_the_phases_once(monkeypatch):
    # The search reads the phases once and hands a start that misses to the
    # solve, which sweeps it again, bit for bit: psi against psi* takes one
    # read and one start residual, and its obstruction is that of the sweeps
    # alone.  The W state's read leaves a factor open, so the sweeps give its
    # start.  The one-block start of a maxA pair takes its read as it
    # stands, with no solve.
    state = random_state((4, 4, 4), 7)
    conjugate = TripartiteState(state.amplitudes.conj())
    first, second = _frames(state, conjugate)
    chi = equivalence._phase_ratio(second.core, first.core)
    _, cycle = equivalence._solve_phase_product(chi, np.abs(first.core))
    swept = equivalence._obstruction(first, cycle, Tolerances())
    w = np.zeros((2, 2, 2), dtype=complex)
    w[0, 0, 1] = w[0, 1, 0] = w[1, 0, 0] = 1.0
    w = TripartiteState.from_unnormalized(w)
    rng = np.random.default_rng(3)
    w_rotated = apply_local_unitaries(w, *(random_unitary(2, rng) for _ in range(3)))
    max_a = _max_entangled_a((4, 4, 4), rng)
    max_a_rotated = apply_local_unitaries(max_a, *(random_unitary(4, rng) for _ in range(3)))

    calls = {}
    for name in ("_phase_read", "_diagonal_start", "_solve_phase_product"):
        calls[name] = []
        monkeypatch.setattr(equivalence, name, _recorded(calls[name], name))

    def counted(first, second):
        for results in calls.values():
            results.clear()
        decision = decide_equivalence(first, second)
        return decision, {name: len(results) for name, results in calls.items()}

    decision, counts = counted(state, conjugate)
    assert counts == {"_phase_read": 1, "_diagonal_start": 1, "_solve_phase_product": 1}
    assert decision.verdict is Verdict.INCONCLUSIVE
    assert swept is not None and decision.obstruction == swept

    decision, counts = counted(w, w_rotated)
    _assert_certified(decision, w, w_rotated)
    assert calls["_phase_read"] == [None]
    assert counts == {"_phase_read": 1, "_diagonal_start": 1, "_solve_phase_product": 1}

    decision, counts = counted(max_a, max_a_rotated)
    _assert_certified(decision, max_a, max_a_rotated)
    assert counts["_solve_phase_product"] == 0 and counts["_phase_read"] == 1


@pytest.mark.parametrize(
    "dims, rank",
    [
        ((3, 3, 3), None),
        ((8, 2, 16), None),
        ((12, 12, 12), None),
        ((12, 12, 12), 5),
        ((4, 8, 16), 2),
        ((6, 2, 2), None),
        ((32, 4, 4), 3),
    ],
)
def test_cut_svds_give_left_vectors_and_spectra(dims, rank):
    # Every cut takes one eigh of its Gram matrix, tall cut A of 6x2x2 and
    # 32x4x4 included; cut A of rank 5 at 12^3, of rank 2 at 4x8x16 and of
    # rank 3 at 32x4x4 also has its tail deflated by a second eigh.  With
    # ``rank`` set, cut A has that rank.
    rng = np.random.default_rng(list(dims))
    if rank is None:
        state = random_state(dims, rng)
    else:
        state = _schmidt_state(dims, rank, None, rng)
        state = apply_local_unitaries(
            state, random_unitary(dims[0], rng), np.eye(dims[1]), np.eye(dims[2])
        )
    for cut, d in zip(Cut, dims):
        (vecs,), (spectrum,), _ = cut_svd(state.amplitudes[None], cut)
        a = matricize(state, cut)
        np.testing.assert_allclose(
            spectrum, np.linalg.svd(a, compute_uv=False), rtol=0, atol=1e-13
        )
        assert vecs.shape == (d, d)
        assert unitarity_defect(vecs) <= 1e-13
        eigenvalues = np.zeros(d)
        eigenvalues[: spectrum.size] = spectrum**2
        gram = vecs.conj().T @ a @ a.conj().T @ vecs
        np.testing.assert_allclose(gram, np.diag(eigenvalues), rtol=0, atol=1e-13)


def _graded_state(dims, low, rng):
    """State whose cut A singular values fall geometrically from 1 to ``low``
    (before normalizing), with random singular vectors."""
    k, m, n = dims
    full = min(k, m * n)
    sigma = np.logspace(0, np.log10(low), full) if full > 1 else np.ones(1)
    amps = (random_unitary(k, rng)[:, :full] * sigma) @ random_unitary(m * n, rng)[:full]
    return TripartiteState.from_unnormalized(amps.reshape(dims))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    dims=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
    log_low=st.floats(-12.0, -4.0),
    log_spec_tol=st.integers(-300, -9),
    seed=st.integers(0, 2**16),
)
@example(dims=(12, 12, 12), log_low=-12.0, log_spec_tol=-300, seed=0)
@example(dims=(4, 8, 16), log_low=-8.0, log_spec_tol=-300, seed=0)
@example(dims=(6, 2, 2), log_low=-12.0, log_spec_tol=-9, seed=0)
def test_small_singular_values_do_not_refute_lu_pairs(dims, log_low, log_spec_tol, seed):
    # Cut A's spectrum falls to 1e-12 at the lowest; at every spectra
    # tolerance the Gram route's squaring costs no LU pair a refutation.
    # Weak levels can leave the search inconclusive (the phase solve's
    # cutoff), and refutation comes before it, so no sweep is run.
    rng = np.random.default_rng(seed)
    state = _graded_state(dims, 10.0**log_low, rng)
    rotated = apply_local_unitaries(state, *(random_unitary(d, rng) for d in dims))
    tols = Tolerances(spectra=10.0**log_spec_tol)
    for first, second in ((state, rotated), (rotated, state)):
        decision = decide_equivalence(first, second, tols, gauge_budget=0)
        assert decision.verdict is not Verdict.INVARIANTS_DIFFER
        if decision.verdict is Verdict.EQUIVALENT_D1:
            _assert_certified(decision, first, second)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    dims=st.sampled_from([(6, 6, 6), (8, 8, 8), (12, 12, 12), (4, 8, 16), (5, 6, 7)]),
    log_low=st.floats(-6.3, -5.7),
    log_spec_tol=st.integers(-300, -9),
    seed=st.integers(0, 2**16),
)
def test_small_singular_values_that_differ_refute_through_the_fallback(
    dims, log_low, log_spec_tol, seed
):
    # The two states differ only in cut A's smallest singular value, by 1e-8
    # near 1e-6.  There the Gram allowance exceeds the default tolerance, so
    # cut A's tail is deflated, and the witness's SVD refutes.
    rng = np.random.default_rng(seed)
    k, m, n = dims
    low = 10.0**log_low
    sigma = np.logspace(0, np.log10(low), k)
    sigma[:-1] *= np.sqrt((1 - low**2) / np.sum(sigma[:-1] ** 2))
    other = sigma.copy()
    other[-1] += 1e-8
    left, right = random_unitary(k, rng), random_unitary(m * n, rng)[:k]
    first, second = (
        TripartiteState.from_unnormalized(((left * s) @ right).reshape(dims))
        for s in (sigma, other)
    )
    shape = (k, m * n)
    for state in (first, second):
        (_,), (spectrum,), _ = cut_svd(state.amplitudes[None], Cut.A)
        assert gram_delta(float(spectrum[0]), float(spectrum[-1]), shape) is None
    decision = decide_equivalence(first, second, Tolerances(spectra=10.0**log_spec_tol))
    assert decision.verdict is Verdict.INVARIANTS_DIFFER
    assert (decision.witness.cut, decision.witness.index) == (Cut.A, k - 1)
    assert decision.witness.deviation == pytest.approx(1e-8, rel=1e-3)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    dims=st.sampled_from([(6, 6, 6), (8, 8, 8), (12, 12, 12), (4, 8, 16), (5, 6, 7)]),
    log_low=st.floats(-4.9, -4.0),
    apart=st.floats(1.05e-9, 3e-9),
    log_spec_tol=st.integers(-300, -9),
    seed=st.integers(0, 2**16),
)
@example(dims=(4, 8, 16), log_low=-4.9, apart=1.1e-9, log_spec_tol=-9, seed=0)
@example(dims=(12, 12, 12), log_low=-4.9, apart=1.2e-9, log_spec_tol=-9, seed=0)
def test_deviations_within_the_gram_allowance_still_refute(
    dims, log_low, apart, log_spec_tol, seed
):
    # Cut A's smallest singular value, near 1e-5, is where its Gram spectrum
    # is still kept with an allowance of up to 1e-9 on each side; the two
    # states differ there by 1e-9 to 3e-9, which an SVD tells apart.  The
    # cut is factored again by an SVD, so the Gram allowance costs no
    # refutation, at the default tolerance or below it.
    rng = np.random.default_rng(seed)
    k, m, n = dims
    low = 10.0**log_low
    sigma = np.full(k, np.sqrt((1 - low**2) / (k - 1)))
    sigma[-1] = low
    other = sigma.copy()
    other[-1] += apart
    left, right = random_unitary(k, rng), random_unitary(m * n, rng)[:k]
    first, second = (
        TripartiteState.from_unnormalized(((left * s) @ right).reshape(dims))
        for s in (sigma, other)
    )
    shape = (k, m * n)
    for state in (first, second):
        (_,), (spectrum,), _ = cut_svd(state.amplitudes[None], Cut.A)
        assert gram_delta(float(spectrum[0]), float(spectrum[-1]), shape) is not None
    decision = decide_equivalence(first, second, Tolerances(spectra=10.0**log_spec_tol))
    assert decision.verdict is Verdict.INVARIANTS_DIFFER
    assert (decision.witness.cut, decision.witness.index) == (Cut.A, k - 1)
    assert decision.witness.deviation == pytest.approx(apart, rel=1e-3)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    dims=st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7)),
    kind=st.sampled_from(["dense", "rank-deficient", "graded"]),
    seed=st.integers(0, 2**16),
)
@example(dims=(6, 2, 2), kind="dense", seed=0)
@example(dims=(32, 4, 4), kind="rank-deficient", seed=0)
@example(dims=(1, 1, 1), kind="dense", seed=0)
@example(dims=(5, 1, 1), kind="graded", seed=0)
@example(dims=(12, 12, 12), kind="graded", seed=0)
def test_gram_spectra_lie_within_their_allowance(dims, kind, seed):
    # Every cut, wide or tall, full rank or not: sigma' = sqrt(max(lambda, 0))
    # from eigh of the Gram matrix is within min(sqrt(delta), delta / sigma'),
    # delta = (rows + cols) eps sigma'_1^2, of the SVD's spectrum (and of zero
    # past the rank), plus the SVD's own rounding.
    rng = np.random.default_rng(seed)
    if kind == "dense":
        state = random_state(dims, rng)
    elif kind == "graded":
        state = _graded_state(dims, 10.0 ** rng.uniform(-12, -2), rng)
    else:
        full = min(dims[0], dims[1] * dims[2])
        rank = int(rng.integers(1, full)) if full > 1 else 1
        state = _schmidt_state(dims, rank, None, rng)
    for cut in Cut:
        a = matricize(state, cut)
        values = np.linalg.eigh(a @ a.conj().T)[0][::-1]
        gram = np.sqrt(np.maximum(values, 0.0))
        exact = np.zeros(a.shape[0])
        exact[: min(a.shape)] = np.linalg.svd(a, compute_uv=False)
        svd_rounding = sum(a.shape) * np.finfo(float).eps * exact[0]
        delta = sum(a.shape) * np.finfo(float).eps * gram[0] ** 2
        allowance = delta / np.maximum(gram, np.sqrt(delta)) + svd_rounding
        assert np.all(np.abs(gram - exact) <= allowance)


def _cut_a_state(dims, rank, low, rng):
    """State whose cut A has ``rank`` singular values falling geometrically
    from 1 to ``low`` (before normalizing), with random singular vectors.

    The vectors come from thin QRs, so a 64^3 state costs no 4096 x 4096
    unitary as ``_schmidt_state`` and ``_graded_state`` would.
    """
    k, m, n = dims
    sigma = np.logspace(0, np.log10(low), rank)
    left, right = (
        np.linalg.qr(rng.standard_normal((d, rank, 2)) @ [1, 1j])[0] for d in (k, m * n)
    )
    return TripartiteState.from_unnormalized(((left * sigma) @ right.T).reshape(dims))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    dims=st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8)),
    kind=st.sampled_from(["dense", "rank-deficient", "graded"]),
    log_low=st.floats(-12.0, 0.0),
    seed=st.integers(0, 2**16),
)
@example(dims=(64, 64, 64), kind="rank-deficient", log_low=0.0, seed=4)
@example(dims=(16, 2, 2), kind="rank-deficient", log_low=-12.0, seed=0)
@example(dims=(32, 4, 4), kind="graded", log_low=-12.0, seed=0)
@example(dims=(6, 1, 1), kind="graded", log_low=-6.0, seed=0)
@example(dims=(1, 5, 3), kind="dense", log_low=0.0, seed=0)
def test_cut_svds_lie_within_their_rounding_bound(dims, kind, log_low, seed):
    # Every cut, wide or tall, kept whole or deflated: each singular value
    # is within the bound cut_svd returns of the SVD's, plus the SVD's own
    # rounding; the left vectors are unitary and diagonalise the Gram
    # matrix.  Cut A has rank ``seed`` (mod its full rank) when
    # rank-deficient, and falls to 10^log_low when graded; the example at
    # 64^3 has rank 4.
    rng = np.random.default_rng(seed)
    full = min(dims[0], dims[1] * dims[2])
    if kind == "dense":
        state = random_state(dims, rng)
    elif kind == "graded":
        state = _cut_a_state(dims, full, 10.0**log_low, rng)
    else:
        state = _cut_a_state(dims, max(seed % full, 1), 10.0**log_low, rng)
    for cut in Cut:
        a = matricize(state, cut)
        (vecs,), (spectrum,), (bound,) = cut_svd(state.amplitudes[None], cut)
        exact = np.linalg.svd(a, compute_uv=False)
        svd_rounding = sum(a.shape) * np.finfo(float).eps * exact[0]
        assert np.all(np.abs(spectrum - exact) <= bound + svd_rounding)
        assert unitarity_defect(vecs) <= 1e-13
        gram = vecs.conj().T @ a @ a.conj().T @ vecs
        assert np.max(np.abs(gram - np.diag(np.diag(gram)))) <= 1e-13


@settings(derandomize=True, max_examples=60, deadline=None)
@given(d=st.integers(3, 6), seed=st.integers(0, 2**16))
@example(d=4, seed=53)
@example(d=3, seed=91)
def test_cut_svds_of_straddling_spectra_descend_within_their_bound(d, seed):
    # The d - 1 small singular values of every cut straddle the threshold
    # where the Gram spectrum stops vouching for them, so the tail splits
    # fall inside a cluster unless they move down to a gap.  The spectra
    # descend, lie within the bound cut_svd returns plus the SVD's own
    # rounding, and the left vectors are unitary.  The examples rose where
    # the split was the first failing index.
    state = straddle_state(d, np.random.default_rng(seed))
    for cut in Cut:
        a = matricize(state, cut)
        (vecs,), (spectrum,), (bound,) = cut_svd(state.amplitudes[None], cut)
        assert np.all(np.diff(spectrum) <= 0)
        exact = np.linalg.svd(a, compute_uv=False)
        svd_rounding = sum(a.shape) * np.finfo(float).eps * exact[0]
        assert np.all(np.abs(spectrum - exact) <= bound + svd_rounding)
        assert unitarity_defect(vecs) <= 1e-13


def _assert_certified(decision, first, second):
    assert decision.verdict is Verdict.EQUIVALENT_D1
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
    assert equivalence._solve_phase_product(chi, weight)[1] is None


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


def test_cayley_unitaries_are_exactly_unitary():
    rng = np.random.default_rng(12)
    for d in (1, 2, 3, 4):
        re, im = cayley_unitary(gaussian_skew(rng, d))
        # U U^dagger = (re re^t + im im^t) + i (im re^t - re im^t), in Fractions.
        assert (re.dot(re.T) + im.dot(im.T) == np.eye(d)).all()
        assert (im.dot(re.T) - re.dot(im.T) == 0).all()


@settings(derandomize=True, max_examples=20, deadline=None)
@given(
    dims=st.sampled_from([(3, 3, 3), (2, 3, 4), (4, 4, 4)]),
    seed=st.integers(0, 2**16),
)
def test_exact_lu_pairs_are_certified(dims, seed):
    # Exact unitaries on a Gaussian-integer tensor: the rounding to float is
    # the pair's only error.
    rng = np.random.default_rng(seed)
    tensor = rng.integers(-5, 6, dims) + 1j * rng.integers(-5, 6, dims)
    assume(tensor.any())
    state, rotated = exact_lu_pair(tensor, [gaussian_skew(rng, d) for d in dims])
    _assert_certified(decide_equivalence(state, rotated), state, rotated)


@settings(derandomize=True, max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_exact_rank_two_lu_pairs_are_never_refuted(seed):
    # The sum of two rational product terms: every cut has rank <= 2 of 3, so
    # its Gram spectrum cannot vouch for itself and the cut's tail deflates.
    rng = np.random.default_rng(seed)
    vectors = rng.integers(-3, 4, (2, 3, 3)) + 1j * rng.integers(-3, 4, (2, 3, 3))
    tensor = sum(np.einsum("i,j,k->ijk", *terms) for terms in vectors)
    assume(tensor.any())
    state, rotated = exact_lu_pair(tensor, [gaussian_skew(rng, 3) for _ in range(3)])
    for cut in Cut:
        _, spectra, _ = cut_svd(np.stack((state.amplitudes, rotated.amplitudes)), cut)
        for spectrum in spectra:
            assert gram_delta(spectrum[0], spectrum[-1], (3, 9)) is None
    decision = decide_equivalence(state, rotated)
    assert decision.verdict is not Verdict.INVARIANTS_DIFFER
    if decision.verdict is Verdict.EQUIVALENT_D1:
        _assert_certified(decision, state, rotated)


def _locally_maximally_mixed(dims, rng):
    """Random state whose one-party reductions are all I/d_p, to 1e-13.

    Each round maps every party in turn by rho_p^(-1/2), which makes its own
    reduction a multiple of the identity and moves the others towards one,
    until no reduction's eigenvalues spread by 1e-13 of the largest.
    """
    amps = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    while True:
        spread = 0.0
        for p, d in enumerate(dims):
            x = np.moveaxis(amps, p, 0).reshape(d, -1)
            vals, vecs = np.linalg.eigh(x @ x.conj().T)
            spread = max(spread, 1.0 - vals[0] / vals[-1])
            root = (vecs / np.sqrt(vals)) @ vecs.conj().T
            amps = np.moveaxis(np.tensordot(root, amps, axes=(1, p)), 0, p)
        if spread < 1e-13:
            return TripartiteState.from_unnormalized(amps)


def test_locally_maximally_mixed_lu_pairs_are_certified():
    # Every reduction is I/3, so each party's frame is one group and the
    # search starts from the identity.  The sweeps stall on most of these
    # pairs; the block restarts carry them to a certificate.
    for trial in range(8):
        rng = np.random.default_rng([29, trial])
        state = _locally_maximally_mixed((3, 3, 3), rng)
        groups = [equivalence._groups(vals) for vals in _frames(state)[0].eigenvalues]
        assert [len(blocks) for blocks in groups] == [1, 1, 1]
        rotated = apply_local_unitaries(state, *(random_unitary(3, rng) for _ in range(3)))
        decision = decide_equivalence(state, rotated)
        assert decision.verdict is Verdict.EQUIVALENT_D1
        _assert_certified(decision, state, rotated)


def _schmidt_state(dims, rank, gap, rng):
    """State sum_i sqrt(lam_i) |i>_A |phi_i>_BC over ``rank`` random orthonormal phi_i.

    Its A reduction is diag(lam), zero past ``rank``; with ``gap`` set, its
    two largest eigenvalues lie ``gap`` apart.
    """
    k, m, n = dims
    lam = np.sort(rng.uniform(0.5, 1.0, rank))[::-1] / rank
    if gap is not None:
        lam[1] = lam[0] - gap
        lam[2:] *= (1 - lam[0] - lam[1]) / lam[2:].sum() if rank > 2 else 0
        lam[:2] += (1 - lam.sum()) / 2
    amps = np.zeros((k, m * n), dtype=complex)
    amps[:rank] = random_unitary(m * n, rng)[:rank] * np.sqrt(lam)[:, None]
    return TripartiteState.from_unnormalized(amps.reshape(dims))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    dims=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
    kind=st.sampled_from(["dense", "sparse", "rank-deficient", "gap"]),
    log_gap=st.floats(-7.0, -4.0),
    log_noise=st.one_of(st.none(), st.floats(-13.0, np.log10(5e-10))),
    seed=st.integers(0, 2**16),
)
@example(dims=(4, 4, 4), kind="gap", log_gap=-7.0, log_noise=np.log10(5e-10), seed=1)
@example(dims=(4, 4, 4), kind="gap", log_gap=-5.7, log_noise=np.log10(5e-10), seed=1)
@example(dims=(4, 4, 4), kind="gap", log_gap=-4.0, log_noise=np.log10(5e-10), seed=1)
def test_lu_pairs_never_carry_an_obstruction(dims, kind, log_gap, log_noise, seed):
    # The gap is swept across _EIG_GAP, so the pair of eigenvalues is grouped
    # (block search) below it and split (phase solve) above it.
    rng = np.random.default_rng(seed)
    k, m, n = dims
    if kind == "sparse":
        state, partner = _sparse_lu_pair(dims, seed)
    else:
        if kind == "dense":
            state = random_state(dims, rng)
        else:
            full = min(k, m * n)
            rank = full
            if kind == "rank-deficient" and full > 1:
                rank = int(rng.integers(1, full))
            gap = 10.0**log_gap if kind == "gap" and rank > 1 else None
            state = _schmidt_state(dims, rank, gap, rng)
        partner = apply_local_unitaries(state, *(random_unitary(d, rng) for d in dims))
    if log_noise is not None:
        partner = _with_noise(partner, 10.0**log_noise, rng)
    results = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(equivalence, "_obstruction", _recorded(results, "_obstruction"))
        decision = decide_equivalence(state, partner)
    assert all(result is None for result in results)
    assert decision.obstruction is None
    _assert_certified(decision, state, partner)


def _own_frame(state, rng):
    """Reduction eigenbases (descending, each vector times a random phase) and core."""
    bases = []
    for cut in Cut:
        a = matricize(state, cut)
        vecs = np.linalg.eigh(a @ a.conj().T)[1][:, ::-1]
        bases.append(vecs * np.exp(2j * np.pi * rng.random(vecs.shape[1])))
    return np.einsum("ia,jb,kc,ijk->abc", *(e.conj() for e in bases), state.amplitudes)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    dims=st.tuples(st.integers(2, 6), st.integers(2, 6), st.integers(2, 6)),
    seed=st.integers(0, 2**16),
)
def test_conjugate_pairs_stop_on_an_obstruction(dims, seed):
    state = random_state(dims, seed)
    conj = TripartiteState(state.amplitudes.conj())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(equivalence, "_sweep", _refuse)
        decision = decide_equivalence(state, conj)
    assert decision.verdict is Verdict.INCONCLUSIVE
    assert decision.local_factors is None
    # The residual is the closed-form start's, as with no sweep at all.
    assert decision.residual == gauge_search(*_frames(state, conj), budget=0)[1]

    obstruction = decision.obstruction
    index = np.array(obstruction.entries)
    y = np.array(obstruction.coefficients)
    _assert_is_cycle(index, y, dims)
    # The holonomy is the same in any frames, whatever phases their
    # eigenvectors carry, and it exceeds the bound the decision recorded.
    rng = np.random.default_rng(seed)
    core, core_conj = _own_frame(state, rng), _own_frame(conj, rng)
    theta = np.angle(core_conj[tuple(index.T)] * core[tuple(index.T)].conj())
    holonomy = np.angle(np.exp(1j * (y @ theta)))
    assert abs(holonomy - obstruction.holonomy) <= 1e-8
    assert abs(holonomy) > obstruction.bound
    weight = np.abs(core[tuple(index.T)])
    assert obstruction.bound >= np.sum(np.abs(y) * 2e-9 / weight)


@pytest.mark.parametrize("weak", [1.0, 0.07])
def test_obstruction_bound_on_a_weak_entry(weak):
    # beta is about 0.086 here; at |core_e| = 0.07 it exceeds the entry, whose
    # phase may then move by up to pi, so a holonomy of 3.05 is no obstruction.
    core = np.ones((2, 2, 2), dtype=complex)
    core[1, 1, 1] = weak
    spectrum = np.array([0.6, 0.4])
    frame = equivalence.StateFrame((np.eye(2),) * 3, (spectrum,) * 3, core)
    index = np.array([(0, 0, 0), (1, 1, 1), (0, 1, 1), (1, 0, 0)])
    y = np.array([1, 1, -1, -1])
    _assert_is_cycle(index, y, (2, 2, 2))
    tols = Tolerances(reconstruction=1e-3)
    obstruction = equivalence._obstruction(frame, (index, y, 3.05), tols)
    if weak < 1:
        assert obstruction is None
    else:
        assert obstruction.holonomy == 3.05
        assert obstruction.bound < 3.05


def test_certify_maps_rows_without_a_kronecker_product():
    # np.kron(U_B, U_C) alone would take 81 MiB at 2x48x48.
    rng = np.random.default_rng(3)
    state = random_state((2, 48, 48), rng)
    factors = (random_unitary(d, rng) for d in state.dims)
    rotated = apply_local_unitaries(state, *factors)
    decide_equivalence(state, rotated)
    tracemalloc.start()
    try:
        decision = decide_equivalence(state, rotated)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_certified(decision, state, rotated)
    assert peak < 10 * 2**20


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


def _assert_is_cycle(index, y, dims):
    """Distinct core entries with nonzero integer coefficients on every
    index of which (per party) the coefficients sum to zero."""
    assert len(index) == len(y) == len({tuple(e) for e in np.asarray(index)})
    assert all(c != 0 and c == int(c) for c in y)
    for axis, d in enumerate(dims):
        sums = np.bincount(np.asarray(index)[:, axis], weights=y, minlength=d)
        assert not sums.any()


def _reproduces(phases, chi, significant):
    beta, phi, psi = phases
    product = np.einsum("s,p,q->spq", beta, phi, psi)
    return np.max(np.abs(product - chi)[significant]) <= 1e-12


def test_phase_solve_fixes_each_factor_from_its_strongest_entry():
    # Once beta_0, phi_0, psi_0 and psi_1 are set, entries (0, 1, 0) and
    # (0, 1, 1) each leave phi_1 alone open; the stronger one fixes it, so
    # only the weaker, rotated one misses the product.
    weight = np.array([[[1.0, 0.9], [0.8, 0.5]]])
    chi = np.exp(1j * np.array([[[0.1, 0.2], [0.3, 0.4]]]))
    chi[0, 1, 1] *= np.exp(1e-3j)
    (beta, phi, psi), cycle = equivalence._solve_phase_product(chi, weight)
    miss = np.abs(np.einsum("s,p,q->spq", beta, phi, psi) - chi)
    assert np.max(miss[0, :, 0]) <= 1e-15 and miss[0, 0, 1] <= 1e-15
    assert abs(miss[0, 1, 1] - 1e-3) <= 1e-9
    assert cycle is not None


@pytest.mark.parametrize("kind", ["ghz4", "sparse"])
@pytest.mark.parametrize("rotated", [False, True])
def test_phase_solve_breaks_ties_in_index_order(kind, rotated, monkeypatch):
    # The significant entries take two weights (a GHZ_4 core: one), so only
    # the order among ties decides which entry fixes each factor; the answer
    # must be that of a solve whose every sort is stable.
    rng = np.random.default_rng(8)
    if kind == "ghz4":
        dims = (4, 4, 4)
        mask = np.zeros(dims, dtype=bool)
        mask[np.arange(4), np.arange(4), np.arange(4)] = True
    else:
        dims = (7, 7, 7)
        mask = _significance_mask("sparse", dims, rng)
    levels = (0.5,) if kind == "ghz4" else (0.25, 0.5)
    weight = np.where(mask, rng.choice(levels, dims), 0.0)
    beta, phi, psi = (np.exp(2j * np.pi * rng.random(d)) for d in dims)
    chi = np.einsum("s,p,q->spq", beta, phi, psi)
    chi[~mask] = np.exp(2j * np.pi * rng.random(int((~mask).sum())))
    if rotated:
        chi[tuple(np.argwhere(mask)[-1])] *= np.exp(1e-3j)
    phases, cycle = equivalence._solve_phase_product(chi, weight)
    argsort = np.argsort

    def stable_argsort(a, *args, kind=None, **kwargs):
        return argsort(a, *args, kind="stable", **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np, "argsort", stable_argsort)
        stable_phases, stable_cycle = equivalence._solve_phase_product(chi, weight)
    for got, want in zip(phases, stable_phases):
        assert got.tobytes() == want.tobytes()
    assert (cycle is None) == (stable_cycle is None) == (kind == "ghz4" or not rotated)
    if cycle is not None:
        for got, want in zip(cycle, stable_cycle):
            np.testing.assert_array_equal(got, want)


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

    new, cycle = equivalence._solve_phase_product(chi, weight)
    old = oracle_solve_phase_product(chi, weight)
    # An exact product always factors; the flood fill's anchoring rule misses
    # some on sparse masks, so it is the reference only where it answers.
    assert cycle is None
    assert _reproduces(new, chi, mask)
    if old is not None:
        assert _reproduces(old, chi, mask)

    rotated = chi.copy()
    entries = np.argwhere(mask)
    touched = entries[rng.integers(len(entries))]
    rotated[tuple(touched)] *= np.exp(1e-3j)
    new, cycle = equivalence._solve_phase_product(rotated, weight)
    old = oracle_solve_phase_product(rotated, weight)
    if old is not None:
        assert cycle is None
    if cycle is None:
        assert _reproduces(new, rotated, mask)
    else:
        # Only the rotated entry is off a product, so the cycle runs through
        # it and its holonomy is that entry's coefficient times the rotation.
        index, y, holonomy = cycle
        _assert_is_cycle(index, y, dims)
        at = np.flatnonzero((index == touched).all(axis=1))
        assert at.size == 1
        assert abs(holonomy - y[at[0]] * 1e-3) <= 1e-9
    if kind == "dense" and min(dims) >= 2:
        assert cycle is not None


def _solve_both_ways(chi, weight):
    """The phase solve from the read, checked bit for bit against the sweeps alone.

    Wherever :func:`_phase_read` gives phases, they are the sweeps' phases,
    consistent or not; the solve given them as its start returns that start
    itself exactly when no significant entry misses their product, and
    otherwise the sweeps' phases and cycle.  Returns the solve's phases, its
    cycle and whether it returned the start.
    """
    read = equivalence._phase_read(chi.__getitem__, weight)
    swept, swept_cycle = equivalence._solve_phase_product(chi, weight)
    phases, cycle = equivalence._solve_phase_product(chi, weight, read)
    holds = False
    if read is not None:
        for got, want in zip(read, swept):
            assert got.tobytes() == want.tobytes()
        beta, phi, psi = read
        miss = np.abs(chi - beta[:, None, None] * phi[:, None] * psi)
        significant = weight > equivalence._PHASE_CUTOFF * weight.max()
        holds = not np.any(significant & (miss > equivalence._PHASE_TOL))
    assert (phases is read) is holds
    for got, want in zip(phases, swept):
        assert got.tobytes() == want.tobytes()
    assert (cycle is None) == (swept_cycle is None)
    if cycle is not None:
        for got, want in zip(cycle, swept_cycle):
            np.testing.assert_array_equal(got, want)
    return phases, cycle, holds


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    dims=st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 12)),
    log_noise=st.one_of(st.none(), st.floats(-13.0, -9.0)),
    seed=st.integers(0, 2**16),
)
@example(dims=(12, 12, 12), log_noise=None, seed=0)
@example(dims=(12, 12, 12), log_noise=-9.0, seed=0)
@example(dims=(1, 1, 1), log_noise=None, seed=0)
@example(dims=(12, 1, 3), log_noise=None, seed=0)
def test_phase_read_gives_the_sweeps_bits(dims, log_noise, seed):
    # Generic frames of LU pairs, with noise up to the reconstruction
    # tolerance: where the read gives phases, they are those of the sweeps;
    # where they hold on every entry the solve returns them, and where they
    # do not, the sweeps run.
    state, rotated, _ = _lu_pair(dims, seed)
    if log_noise is not None:
        rotated = _with_noise(rotated, 10.0**log_noise, np.random.default_rng(seed))
    first, second = _frames(state, rotated)
    _solve_both_ways(equivalence._phase_ratio(second.core, first.core), np.abs(first.core))


@pytest.mark.parametrize("dims", [(8, 8, 8), (12, 12, 12), (4, 8, 16), (3, 4, 5)])
def test_phase_read_settles_generic_lu_pairs(dims):
    for trial in range(3):
        first, second = _frames(*_lu_pair(dims, trial)[:2])
        chi = equivalence._phase_ratio(second.core, first.core)
        _, cycle, started = _solve_both_ways(chi, np.abs(first.core))
        assert started and cycle is None


@pytest.mark.parametrize(
    "case, started",
    [
        ("weak-fibre", False),
        ("empty-slab", False),
        ("tied", True),
        ("two-levels", True),
        ("signed-zeros", True),
    ],
)
def test_phase_read_falls_back_only_when_a_factor_stays_open(case, started):
    # The strongest entry is (1, 2, 0).  A fibre entry through it below the
    # cutoff, or a slab (1, p, :) without a significant entry, leaves a factor
    # to later sweeps; ties among the weights do not, as argmax breaks them
    # in index order, as the sweeps' stable sort does.  Quarter turns whose
    # zero parts are all -0.0 need the sweeps' quotients, not chi itself.
    rng = np.random.default_rng(5)
    dims = (4, 5, 6)
    chi = np.einsum("s,p,q->spq", *(np.exp(2j * np.pi * rng.random(d)) for d in dims))
    if case == "signed-zeros":
        turns = sum(np.ix_(*(rng.integers(4, size=d) for d in dims))) % 4
        chi = np.array([1, 1j, -1, -1j])[turns]
        chi.real[chi.real == 0] = -0.0
        chi.imag[chi.imag == 0] = -0.0
    weight = {
        "weak-fibre": rng.uniform(0.5, 1.0, dims),
        "empty-slab": rng.uniform(0.5, 1.0, dims),
        "tied": np.ones(dims),
        "two-levels": rng.choice((0.25, 0.5), dims),
        "signed-zeros": rng.uniform(0.5, 1.0, dims),
    }[case]
    weight[1, 2, 0] = 2.0
    if case == "weak-fibre":
        weight[1, 2, 3] = 1e-5
    if case == "empty-slab":
        weight[1, 4, :] = 1e-5
    phases, cycle, took_start = _solve_both_ways(chi, weight)
    assert took_start is started
    assert cycle is None
    assert _reproduces(phases, chi, weight > 2e-3)


@pytest.mark.parametrize("dims", [(2, 2, 2), (4, 4, 4), (3, 5, 7)])
def test_phase_read_falls_back_on_conjugate_pairs(dims):
    # psi against psi*: the read's phases, where it gives them, miss some
    # entry, and the sweeps give them again, bit for bit, with the cycle.
    state = random_state(dims, 7)
    first, second = _frames(state, TripartiteState(state.amplitudes.conj()))
    chi = equivalence._phase_ratio(second.core, first.core)
    _, cycle, started = _solve_both_ways(chi, np.abs(first.core))
    assert not started
    assert cycle is not None


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    dims=st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 12)),
    log_noise=st.one_of(st.none(), st.floats(-13.0, -9.0)),
    seed=st.integers(0, 2**16),
)
@example(dims=(12, 12, 12), log_noise=None, seed=0)
@example(dims=(12, 12, 12), log_noise=-9.0, seed=0)
@example(dims=(1, 1, 1), log_noise=None, seed=0)
@example(dims=(12, 1, 3), log_noise=None, seed=0)
def test_the_start_gives_the_bits_of_the_whole_cores_solve(dims, log_noise, seed):
    # Reading the ratios of a few entries gives the phases, and so the
    # factors and the residual, of solving the whole cores' ratios, bit for
    # bit, whether the start passes or the solve runs after it.
    state, rotated, _ = _lu_pair(dims, seed)
    if log_noise is not None:
        rotated = _with_noise(rotated, 10.0**log_noise, np.random.default_rng(seed))
    first, second = _frames(state, rotated)
    assume(not any(equivalence._joined(vals).any() for vals in first.eigenvalues))
    factors, residual, _ = gauge_search(first, second, budget=0)
    chi = equivalence._phase_ratio(second.core, first.core)
    phases, _ = equivalence._solve_phase_product(chi, np.abs(first.core))
    g, want = equivalence._diagonal_start(first.core, second.core, phases)
    assert residual == want
    for u, e, e_p, g_p in zip(factors, first.bases, second.bases, g):
        assert u.tobytes() == (e_p @ g_p @ e.conj().T).tobytes()


def test_a_few_entries_give_the_bits_of_a_large_cores_ratios():
    # From 256 KiB (16384 complex entries) numpy reuses a temporary operand of
    # ``*`` as its output and multiplies in the other order, with other bits.
    # The ratios of a few entries keep the whole cores' bits at that size
    # too, so the read is the sweeps' phases, and a start that misses (noise
    # 3e-10 on a 32x32x16 LU pair) keeps them, bit for bit.
    state, rotated, _ = _lu_pair((32, 32, 16), 0)
    noisy = _with_noise(rotated, 3e-10, np.random.default_rng(0))
    first, second = _frames(state, noisy)
    core, target = first.core, second.core
    weight = np.abs(core)
    read = equivalence._phase_read(
        lambda index: equivalence._phase_ratio(target[index], core[index]), weight
    )
    phases, _ = equivalence._solve_phase_product(
        equivalence._phase_ratio(target, core), weight
    )
    for got, want in zip(read, phases):
        assert got.tobytes() == want.tobytes()
    factors, residual, _ = gauge_search(first, second, budget=0)
    g, want = equivalence._diagonal_start(core, target, phases)
    assert residual == want > Tolerances().reconstruction
    for u, e, e_p, g_p in zip(factors, first.bases, second.bases, g):
        assert u.tobytes() == (e_p @ g_p @ e.conj().T).tobytes()


def test_sweep_values_are_scalar_quotients_of_the_entries_that_fixed_them():
    # Fibre entries (0, 0, q) for q >= 4 lie below the cutoff, as do the
    # slab entries (0, p, q) and (s, 0, q): the read leaves psi_q open and a
    # third sweep fixes it from the strongest entry (s, p, q), s, p >= 1, a
    # quotient by beta_s * phi_p, two factors that are not 1.  Every value
    # has the bits of the quotient of numpy scalars that fixed it (Python's
    # complex divides differently).  An elementwise or C-ordered product of
    # the known factors changes some of these bits, and so certificates.
    rng = np.random.default_rng(0)
    dims = (8, 8, 40)
    chi = np.einsum("s,p,q->spq", *(np.exp(2j * np.pi * rng.random(d)) for d in dims))
    weight = rng.uniform(1.0, 2.0, dims)
    weight[0, 0, 0] = 10.0
    weight[0, :, 4:] = weight[:, 0, 4:] = 1e-6
    (beta, phi, psi), cycle = equivalence._solve_phase_product(chi, weight)
    assert equivalence._phase_read(chi.__getitem__, weight) is None
    assert cycle is None
    assert beta[0] == phi[0] == 1
    for q in range(4):
        assert psi[q] == chi[0, 0, q]
    for p in range(1, 8):
        q = np.argmax(weight[0, p])
        assert phi[p] == chi[0, p, q] / psi[q]
    for s in range(1, 8):
        q = np.argmax(weight[s, 0])
        assert beta[s] == chi[s, 0, q] / psi[q]
    for q in range(4, 40):
        s, p = np.unravel_index(np.argmax(weight[:, :, q]), dims[:2])
        assert psi[q] == chi[s, p, q] / (beta[s] * phi[p])


@pytest.mark.parametrize(
    "dims", [(3, 3, 3), (8, 2, 16), (12, 12, 12), (4, 8, 16), (6, 2, 2), (32, 4, 4)]
)
def test_stacked_cut_svds_give_each_state_its_own_bits(dims):
    # Every cut takes one eigh of its Gram matrix, tall cut A of 6x2x2 and
    # 32x4x4 included, and full-rank states keep it whole.  The mixed stack
    # puts a rank-2 state between two of them: its cut A has its tail
    # deflated by a second eigh, state by state, while theirs are kept.
    rng = np.random.default_rng(list(dims))
    states = [random_state(dims, rng) for _ in range(3)]
    mixed = [states[0], _schmidt_state(dims, 2, None, rng), states[2]]
    for stacked in (states, mixed):
        for count in (2, 3):
            stack = np.stack([state.amplitudes for state in stacked[:count]])
            for cut in Cut:
                for state, vecs, spectrum, bound in zip(stacked, *cut_svd(stack, cut)):
                    (own_vecs,), (own_spectrum,), (own_bound,) = cut_svd(
                        state.amplitudes[None], cut
                    )
                    assert vecs.tobytes() == own_vecs.tobytes()
                    assert spectrum.tobytes() == own_spectrum.tobytes()
                    assert bound == own_bound
    rows, cols = matricize(states[0], Cut.A).shape
    spectra = cut_svd(np.stack([state.amplitudes for state in mixed]), Cut.A)[1]
    falls = [gram_delta(s[0], s[-1], (rows, cols)) is None for s in spectra]
    assert falls == [False, True, False]


def test_generic_pairs_build_no_groups(monkeypatch):
    monkeypatch.setattr(equivalence, "_groups", _refuse)
    for dims in ((12, 12, 12), (4, 8, 16), (3, 4, 5), (5, 2, 2)):
        state, rotated, _ = _lu_pair(dims, 0)
        _assert_certified(decide_equivalence(state, rotated), state, rotated)


def test_groups_are_built_once_at_the_first_restart(monkeypatch):
    # The maxA pair of test_deterministic_for_fixed_seed restarts four times,
    # drawing one block unitary per party each time.
    state = _max_entangled_a((3, 3, 3), np.random.default_rng(0))
    frames = _frames(state, TripartiteState(state.amplitudes.conj()))
    groups, restarts = [], []
    monkeypatch.setattr(equivalence, "_groups", _recorded(groups, "_groups"))
    monkeypatch.setattr(
        equivalence, "_block_unitary", _recorded(restarts, "_block_unitary")
    )
    gauge_search(*frames, budget=60)
    assert len(restarts) == 12
    assert [len(blocks) for blocks in groups] == [1, 3, 3]
