"""The three-party equivalence decision, with certificates and witnesses.

Each state is first put into its frame: the eigenbases of its three one-party
reductions and the core tensor in those bases (the higher-order SVD).  With
nondegenerate reductions a local unitary map only rephases each basis vector,
so two frames settle a generic pair in closed form.  Degenerate pairs go one
cut at a time: two states sharing a cut's singular spectrum are related by
unitaries on the cut's row and column spaces, fixed only up to the SVD gauge,
and ``gauge_search`` walks that gauge orbit for a column unitary that splits
as a Kronecker product over the other two subsystems.  Every positive
verdict is re-verified against the raw amplitude tensors.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .invariants import singular_spectrum
from .realign import KronFactorization, is_unitarily_decomposable, kron_factorize
from .states import Cut, TripartiteState, apply_local_unitaries, matricize
from .tolerances import DEFAULT_TOLERANCES, Tolerances

#: Singular values closer than this are treated as one degenerate group.
_DEGENERACY_GAP = 1e-11
#: Singular values below this count as zeros (null-space directions).
_ZERO_SV = 1e-12
#: Gauge search stops early once the defect drops this low.
_STOP_DEFECT = 1e-12
#: Gauge search restarts after this many iterations without a 0.1% improvement.
_STALL_WINDOW = 15
#: Reduction eigenvalue gaps below this make a state's frame unreliable.
_EIG_GAP = 1e-6
#: Core entries weaker than this fraction of the strongest carry noise phases.
_PHASE_CUTOFF = 1e-3
#: A phase product off its core entry ratio by more than this is inconsistent.
_PHASE_TOL = 1e-6
#: Default total gauge-search iteration budget.
DEFAULT_GAUGE_BUDGET = 1000


class Verdict(Enum):
    EQUIVALENT_D1 = "equivalent-d1"
    EQUIVALENT_D2 = "equivalent-d2"
    EQUIVALENT_D3 = "equivalent-d3"
    INVARIANTS_DIFFER = "invariants-differ"
    INCONCLUSIVE = "inconclusive"


VERDICT_FOR_CUT = {
    Cut.A: Verdict.EQUIVALENT_D1,
    Cut.B: Verdict.EQUIVALENT_D2,
    Cut.C: Verdict.EQUIVALENT_D3,
}

EQUIVALENT_VERDICTS = frozenset(VERDICT_FOR_CUT.values())


def bridge_split(cut: Cut, dims: tuple[int, int, int]) -> tuple[int, int]:
    """Factor dimensions (m, n) of the column-side bridge unitary for a cut."""
    k, m, n = dims
    if cut is Cut.A:
        return m, n
    if cut is Cut.B:
        return k, n
    return k, m


@dataclass(frozen=True)
class GaugeFreedom:
    """Right-multiplier gauge orbit of a certificate's column unitary.

    Orbit elements are ``V @ basis @ h @ basis.conj().T`` where ``h`` is any
    block-diagonal unitary over ``groups``; each group collects the column
    singular vectors of one (near-)degenerate singular value, with the null
    space as the final group.
    """

    basis: np.ndarray
    groups: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SpectraMismatch:
    """Witness that two singular spectra differ beyond tolerance."""

    index: int
    left: float
    right: float

    @property
    def deviation(self) -> float:
        return abs(self.left - self.right)


@dataclass(frozen=True)
class BipartiteCertificate:
    """Unitary pair (u, v) with b = u @ a @ v.T verified to ``residual``."""

    u: np.ndarray
    v: np.ndarray
    sigma: np.ndarray
    residual: float
    gauge: GaugeFreedom | None = field(default=None, repr=False)


class CertificateError(RuntimeError):
    """Certificate construction failed to verify; the comparison is undecided."""


@dataclass(frozen=True)
class Bridge:
    """Attempted (or certified) row/column unitary pair for one cut."""

    cut: Cut
    u: np.ndarray
    v: np.ndarray
    defect: float


@dataclass(frozen=True)
class SpectrumWitness:
    """Cut and spectrum position at which two states provably differ."""

    cut: Cut
    index: int
    left: float
    right: float


@dataclass(frozen=True)
class CutAttempt:
    """Best realignment defect reached while testing one cut."""

    cut: Cut
    defect: float


@dataclass(frozen=True)
class StateFrame:
    """Eigenbases of the three one-party reductions and the core tensor in them.

    ``bases[p]`` holds party p's eigenvectors as columns, eigenvalues descending.
    """

    bases: tuple[np.ndarray, np.ndarray, np.ndarray]
    core: np.ndarray


@dataclass(frozen=True)
class TripartiteDecision:
    """Outcome of the equivalence decision, with certificate or witness."""

    verdict: Verdict
    local_factors: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    bridge: Bridge | None = None
    residual: float | None = None
    witness: SpectrumWitness | None = None
    attempts: tuple[CutAttempt, ...] = ()


def _polar_unitary(m: np.ndarray) -> np.ndarray:
    """Unitary factor of the polar decomposition (nearest unitary)."""
    w, _, zh = np.linalg.svd(m)
    return w @ zh


def _positive_groups(sigma: np.ndarray) -> list[list[int]]:
    """Indices of positive singular values, grouped by near-degeneracy."""
    groups: list[list[int]] = []
    for i, s in enumerate(sigma):
        if s <= _ZERO_SV:
            break
        if groups and sigma[groups[-1][-1]] - s <= _DEGENERACY_GAP:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _sv_groups(sigma: np.ndarray, total: int) -> tuple[tuple[int, ...], ...]:
    """Degeneracy groups padded with the null-space tail up to ``total``."""
    groups = [tuple(g) for g in _positive_groups(sigma)]
    rank = sum(len(g) for g in groups)
    if rank < total:
        groups.append(tuple(range(rank, total)))
    return tuple(groups)


def bipartite_equivalent(
    a: np.ndarray, b: np.ndarray, tols: Tolerances = DEFAULT_TOLERANCES
) -> BipartiteCertificate | SpectraMismatch:
    """Certificate (u, v) with b = u @ a @ v.T, or the spectral witness against it.

    Both matrices are decomposed as a = ua D vha, b = ub D vhb with descending
    singular values.  If the spectra deviate anywhere by more than
    ``tols.spectra`` the states are inequivalent and the witnessing index is
    returned.  Otherwise u = ub @ ua† and v = conj(vb) @ va^t satisfy the
    reconstruction identity up to the spectral deviation; degenerate groups
    and the null spaces of the second SVD are first aligned to the first via
    small Procrustes problems so the certificate is deterministic.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")

    ua, sa, vha = np.linalg.svd(a)
    ub, sb, vhb = np.linalg.svd(b)
    deviation = np.abs(sa - sb)
    worst = int(np.argmax(deviation))
    if deviation[worst] > tols.spectra:
        return SpectraMismatch(index=worst, left=float(sa[worst]), right=float(sb[worst]))

    d_rows, d_cols = a.shape
    va = vha.conj().T
    vb = vhb.conj().T
    ub = ub.copy()

    pos_groups = _positive_groups(sa)
    rank = sum(len(g) for g in pos_groups)
    for g in pos_groups:
        # One rotation shared by ub and vb keeps b = ub D vhb exact on the group.
        q = _polar_unitary(ub[:, g].conj().T @ ua[:, g])
        ub[:, g] = ub[:, g] @ q
        vb[:, g] = vb[:, g] @ q
    if rank < d_rows:
        q = _polar_unitary(ub[:, rank:].conj().T @ ua[:, rank:])
        ub[:, rank:] = ub[:, rank:] @ q
    if rank < d_cols:
        q = _polar_unitary(vb[:, rank:].conj().T @ va[:, rank:])
        vb[:, rank:] = vb[:, rank:] @ q

    u_cert = ub @ ua.conj().T
    v_cert = vb.conj() @ va.T
    residual = float(np.linalg.norm(b - u_cert @ a @ v_cert.T))
    if residual > tols.reconstruction:
        raise CertificateError(
            f"certificate residual {residual:.3e} exceeds {tols.reconstruction} "
            "although the singular spectra agree"
        )
    gauge = GaugeFreedom(basis=va.conj(), groups=_sv_groups(sa, d_cols))
    return BipartiteCertificate(
        u=u_cert, v=v_cert, sigma=sa.copy(), residual=residual, gauge=gauge
    )


def _block_polar(
    w: np.ndarray, groups: tuple[tuple[int, ...], ...], dim: int
) -> np.ndarray:
    """Block-diagonal unitary nearest to ``w`` over the given index groups."""
    h = np.zeros((dim, dim), dtype=np.complex128)
    for g in groups:
        if len(g) == 1:
            z = w[g[0], g[0]]
            h[g[0], g[0]] = z / abs(z) if abs(z) > 1e-15 else 1.0
        else:
            idx = np.ix_(g, g)
            blk = w[idx]
            u_f, s_f, vh_f = np.linalg.svd(blk)
            h[idx] = u_f @ vh_f if s_f[0] > 1e-15 else np.eye(len(g))
    return h


def _random_block_unitary(
    groups: tuple[tuple[int, ...], ...], dim: int, rng: np.random.Generator
) -> np.ndarray:
    h = np.zeros((dim, dim), dtype=np.complex128)
    for g in groups:
        if len(g) == 1:
            h[g[0], g[0]] = np.exp(2j * np.pi * rng.random())
        else:
            z = rng.standard_normal((len(g), len(g))) + 1j * rng.standard_normal(
                (len(g), len(g))
            )
            q, r = np.linalg.qr(z)
            d = np.diagonal(r)
            h[np.ix_(g, g)] = q * np.where(np.abs(d) > 0, d / np.abs(d), 1.0)
    return h


def gauge_search(
    v: np.ndarray,
    m: int,
    n: int,
    budget: int = DEFAULT_GAUGE_BUDGET,
    tols: Tolerances = DEFAULT_TOLERANCES,
    gauge: GaugeFreedom | None = None,
    seed: int = 0,
) -> KronFactorization:
    """Search the gauge orbit of ``v`` for a Kronecker-decomposable element.

    Alternates two projections: the nearest Kronecker product of the current
    orbit element, and the orbit element nearest to that product (a closed
    form: per-group phases and block polar factors).  Without an explicit
    ``gauge`` the orbit is standard-basis diagonal phase rotations.  The
    search is a heuristic: it restarts from seeded random gauge elements
    until ``budget`` total iterations are spent, is deterministic for a fixed
    seed, and with ``budget=0`` reduces to :func:`kron_factorize`.  Failure
    simply means the returned defect still exceeds ``tols.rank_one``.
    """
    v = np.asarray(v, dtype=np.complex128)
    dim = m * n
    if v.shape != (dim, dim):
        raise ValueError(f"expected shape ({dim}, {dim}), got {v.shape}")
    best = kron_factorize(v, m, n, tols.rank_one)
    if budget <= 0 or best.decomposable:
        return best

    if gauge is None:
        basis = np.eye(dim, dtype=np.complex128)
        groups: tuple[tuple[int, ...], ...] = tuple((i,) for i in range(dim))
    else:
        basis = np.asarray(gauge.basis, dtype=np.complex128)
        groups = gauge.groups

    rng = np.random.default_rng(seed)
    left = v @ basis
    basis_h = basis.conj().T
    spent = 0
    first = True
    while spent < budget and best.defect > _STOP_DEFECT:
        h = np.eye(dim, dtype=np.complex128) if first else _random_block_unitary(
            groups, dim, rng
        )
        first = False
        prev = np.inf
        stall = 0
        while spent < budget:
            spent += 1
            candidate = left @ h @ basis_h
            f = kron_factorize(candidate, m, n, tols.rank_one)
            if f.defect < best.defect:
                best = f
            if f.defect <= _STOP_DEFECT:
                return best
            if f.defect > prev * (1.0 - 1e-3):
                stall += 1
                if stall >= _STALL_WINDOW:
                    break
            else:
                stall = 0
            prev = f.defect
            target = f.product()
            h = _block_polar(left.conj().T @ target @ basis, groups, dim)
    return best


def _procrustes_unitary(target: np.ndarray, source: np.ndarray) -> np.ndarray:
    """Unitary q minimizing ||target - q @ source||_F."""
    return _polar_unitary(target @ source.conj().T)


def _solve_phase_product(chi: np.ndarray, weight: np.ndarray) -> tuple | None:
    """Factor chi[s,p,q] = beta_s * phi_p * psi_q over significant entries.

    ``chi`` holds unit complex numbers; entries whose ``weight`` falls below
    ``_PHASE_CUTOFF`` times the largest weight are ignored (their phases are
    noise).  Each sweep assigns every unknown factor that some entry with
    exactly one unknown determines, from the strongest such entry.  When no
    entry has exactly one unknown, the strongest entry with two or more sets
    its beta_s to 1, and its phi_p too when psi_q is unknown: disconnected
    parts carry free gauge.  Returns (beta, phi, psi) or None on
    inconsistency.
    """
    r, m, n = chi.shape
    significant = weight > _PHASE_CUTOFF * float(weight.max())
    s, p, q = np.nonzero(significant)
    strongest = np.argsort(-weight[s, p, q], kind="stable")
    # One node per factor: beta_s is node s, phi_p node r + p, psi_q node r + m + q.
    nodes = np.stack((s, r + p, r + m + q))[:, strongest]
    target = chi[s, p, q][strongest]
    value = np.ones(r + m + n, dtype=np.complex128)
    known = np.zeros(r + m + n, dtype=bool)
    while True:
        unknown = ~known[nodes]
        missing = unknown.sum(axis=0)
        single = np.flatnonzero(missing == 1)
        if single.size:
            rows = np.argmax(unknown[:, single], axis=0)
            free, first = np.unique(nodes[rows, single], return_index=True)
            entries = single[first]
            others = np.where(unknown[:, entries], 1.0, value[nodes[:, entries]])
            value[free] = target[entries] / others.prod(axis=0)
            known[free] = True
            continue
        open_entries = np.flatnonzero(missing)
        if not open_entries.size:
            break
        beta_node, phi_node, psi_node = nodes[:, open_entries[0]]
        known[beta_node] = True
        if not known[psi_node]:
            known[phi_node] = True
    product = value[nodes[0]] * value[nodes[1]] * value[nodes[2]]
    if np.any(np.abs(target - product) > _PHASE_TOL):
        return None
    return value[:r], value[r : r + m], value[r + m :]


def _certify(
    state: TripartiteState,
    other: TripartiteState,
    cut: Cut,
    u_left: np.ndarray,
    u_right: np.ndarray,
    defect: float,
    tols: Tolerances,
) -> TripartiteDecision | None:
    """Assemble and verify local factors from bridge factors, or None.

    The factors are snapped to exact unitaries, the row-side unitary is
    recomputed by Procrustes, and the verdict stands only if applying the
    three local unitaries to the raw amplitude tensor reproduces the second
    state within the reconstruction tolerance.  ``defect`` is the Kronecker
    defect of the factorisation the bridge factors came from.
    """
    u_left = _polar_unitary(u_left)
    u_right = _polar_unitary(u_right)
    v_bridge = np.kron(u_left, u_right)
    u_bridge = _procrustes_unitary(
        matricize(other, cut), matricize(state, cut) @ v_bridge.T
    )

    if cut is Cut.A:
        factors = (u_bridge, u_left, u_right)
    elif cut is Cut.B:
        factors = (u_left, u_bridge, u_right)
    else:
        factors = (u_left, u_right, u_bridge)

    mapped = apply_local_unitaries(state, *factors, unitarity_tol=tols.unitarity)
    residual = float(np.linalg.norm(mapped.amplitudes - other.amplitudes))
    if residual > tols.reconstruction:
        return None
    return TripartiteDecision(
        verdict=VERDICT_FOR_CUT[cut],
        local_factors=factors,
        bridge=Bridge(cut=cut, u=u_bridge, v=v_bridge, defect=defect),
        residual=residual,
        attempts=(CutAttempt(cut=cut, defect=defect),),
    )


def _state_frame(state: TripartiteState) -> StateFrame | None:
    """Frame of ``state``, or None when a reduction is degenerate on its support.

    Each eigenvalue above ``_EIG_GAP`` must lie at least ``_EIG_GAP`` above
    the next one.  Eigenvalues below it may cluster: the state has (almost)
    no weight there, so how those basis vectors pair up does not matter.
    """
    bases = []
    for cut in Cut:
        a = matricize(state, cut)
        vals, vecs = np.linalg.eigh(a @ a.conj().T)
        vals, vecs = vals[::-1], vecs[:, ::-1]
        if np.any((vals[:-1] > _EIG_GAP) & (vals[:-1] - vals[1:] < _EIG_GAP)):
            return None
        bases.append(vecs)
    core = np.einsum(
        "ia,jb,kc,ijk->abc",
        *(e.conj() for e in bases),
        state.amplitudes,
        optimize=True,
    )
    return StateFrame(bases=tuple(bases), core=core)


def _frame_decision(
    state: TripartiteState, other: TripartiteState, cut: Cut, tols: Tolerances
) -> TripartiteDecision | None:
    """Equivalence certified from the two states' frames, or None.

    With nondegenerate reductions a local unitary map sends each frame basis
    vector to its partner up to a phase, so ``core'/core`` factors into
    per-party phases and U_p = E'_p diag(phase_p) E_p^dagger.  The result is
    certified under ``cut``: its row unitary comes from Procrustes, and its
    bridge is the Kronecker product of the other two factors by
    construction, hence defect 0.
    """
    first, second = _state_frame(state), _state_frame(other)
    if first is None or second is None:
        return None
    chi = second.core * first.core.conj()
    chi = chi / np.maximum(np.abs(chi), 1e-300)
    phases = _solve_phase_product(chi, np.abs(first.core))
    if phases is None:
        return None
    factors = [
        e_p @ (phase[:, None] * e.conj().T)
        for e, e_p, phase in zip(first.bases, second.bases, phases)
    ]
    u_left, u_right = (u for u, party in zip(factors, Cut) if party is not cut)
    return _certify(state, other, cut, u_left, u_right, 0.0, tols)


def _cut_decision(
    state: TripartiteState,
    other: TripartiteState,
    cut: Cut,
    tols: Tolerances,
    gauge_budget: int,
    seed: int,
) -> TripartiteDecision:
    """The per-cut test: SVD certificate, direct split, then gauge search."""
    a = matricize(state, cut)
    b = matricize(other, cut)
    try:
        res = bipartite_equivalent(a, b, tols)
    except CertificateError:
        return TripartiteDecision(verdict=Verdict.INCONCLUSIVE)
    if isinstance(res, SpectraMismatch):
        return TripartiteDecision(
            verdict=Verdict.INVARIANTS_DIFFER,
            witness=SpectrumWitness(
                cut=cut, index=res.index, left=res.left, right=res.right
            ),
        )
    m, n = bridge_split(cut, state.dims)
    f = is_unitarily_decomposable(
        res.v, m, n, tols.rank_one, tols.unitarity, tols.reconstruction
    )
    if not f.decomposable and gauge_budget > 0:
        f = gauge_search(res.v, m, n, gauge_budget, tols, gauge=res.gauge, seed=seed)
    if f.defect <= tols.rank_one:
        decision = _certify(state, other, cut, *f.unitary_factors(), f.defect, tols)
        if decision is not None:
            return decision
    return TripartiteDecision(
        verdict=Verdict.INCONCLUSIVE,
        bridge=Bridge(cut=cut, u=res.u, v=res.v, defect=f.defect),
        attempts=(CutAttempt(cut=cut, defect=f.defect),),
    )


def check_di(
    state: TripartiteState,
    other: TripartiteState,
    cut: Cut,
    tols: Tolerances = DEFAULT_TOLERANCES,
    gauge_budget: int = DEFAULT_GAUGE_BUDGET,
    seed: int = 0,
) -> TripartiteDecision:
    """Test equivalence through one cut.

    Generic pairs are settled from the two states' frames and reported under
    ``cut``; other pairs get the cut's spectra comparison, SVD certificate,
    direct split and :func:`gauge_search`.  An equivalence verdict is only
    returned after verification against the raw amplitude tensors; a failed
    search yields ``INCONCLUSIVE`` - never a claim of inequivalence.
    """
    if state.dims != other.dims:
        raise ValueError(f"dimension mismatch: {state.dims} vs {other.dims}")
    decision = _frame_decision(state, other, cut, tols)
    if decision is None:
        decision = _cut_decision(state, other, cut, tols, gauge_budget, seed)
    return decision


def decide_equivalence(
    state: TripartiteState,
    other: TripartiteState,
    tols: Tolerances = DEFAULT_TOLERANCES,
    order: tuple[Cut, ...] | None = None,
    gauge_budget: int = DEFAULT_GAUGE_BUDGET,
    seed: int = 0,
) -> TripartiteDecision:
    """Full decision: spectra on all three cuts, the frames, then the cut cascade.

    Any cut with differing singular spectra proves inequivalence outright, so
    the spectra of cuts A, B and C are compared before anything else,
    whatever ``order`` says.  Next the two states' frames are compared once;
    a generic pair is settled there and reported under the first cut of
    ``order``.  Otherwise the per-cut test runs on the cuts in ``order``
    (default A, B, C) and the first verified equivalence is returned; if
    every cut stays undecided the verdict is ``INCONCLUSIVE`` with the
    lowest-defect bridge kept for diagnostics.
    """
    if state.dims != other.dims:
        raise ValueError(f"dimension mismatch: {state.dims} vs {other.dims}")
    cuts = tuple(order) if order is not None else tuple(Cut)
    if not cuts:
        raise ValueError("order must name at least one cut")

    for cut in Cut:
        sa = singular_spectrum(state, cut)
        sb = singular_spectrum(other, cut)
        deviation = np.abs(sa - sb)
        worst = int(np.argmax(deviation))
        if deviation[worst] > tols.spectra:
            return TripartiteDecision(
                verdict=Verdict.INVARIANTS_DIFFER,
                witness=SpectrumWitness(
                    cut=cut, index=worst, left=float(sa[worst]), right=float(sb[worst])
                ),
            )

    decision = _frame_decision(state, other, cuts[0], tols)
    if decision is not None:
        return decision
    attempts: list[CutAttempt] = []
    best_bridge: Bridge | None = None
    for cut in cuts:
        decision = _cut_decision(state, other, cut, tols, gauge_budget, seed)
        attempts.extend(decision.attempts)
        if decision.verdict in EQUIVALENT_VERDICTS:
            return dataclasses.replace(decision, attempts=tuple(attempts))
        if decision.bridge is not None and (
            best_bridge is None or decision.bridge.defect < best_bridge.defect
        ):
            best_bridge = decision.bridge
    return TripartiteDecision(
        verdict=Verdict.INCONCLUSIVE, bridge=best_bridge, attempts=tuple(attempts)
    )
