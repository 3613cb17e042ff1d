"""The three-party equivalence decision, with certificates and witnesses.

Each state is first put into its frame: the eigenbases of its three one-party
reductions, grouped by eigenvalue, and the core tensor in those bases (the
higher-order SVD).  A local unitary map between two states is block-diagonal
between their frames, one block per eigenvalue group, and carries one core
onto the other.  ``gauge_search`` looks for those blocks: in closed form when
every group is a single vector, otherwise by alternating per-party Procrustes
sweeps on the two cores.  The answer to an equivalent pair is the certificate
(U_A, U_B, U_C), re-verified against the raw amplitude tensors; a negative
verdict needs a cut whose singular spectra differ.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .invariants import singular_spectrum

# Not called here: perfbench/tracing.py wraps these two names on this module.
from .realign import is_unitarily_decomposable, kron_factorize  # noqa: F401
from .states import (
    Cut,
    TripartiteState,
    apply_local_unitaries,
    matricize,
    random_unitary,
)
from .tolerances import DEFAULT_TOLERANCES, Tolerances

#: Reduction eigenvalues above this that lie closer than it share a group.
_EIG_GAP = 1e-6
#: Core entries weaker than this fraction of the strongest carry noise phases.
_PHASE_CUTOFF = 1e-3
#: A phase product off its core entry ratio by more than this is inconsistent.
_PHASE_TOL = 1e-6
#: A sweep that lowers the frame residual by less than this fraction restarts.
_MIN_GAIN = 1e-3
#: Default gauge-search budget, in sweeps.
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


@dataclass(frozen=True)
class SpectrumWitness:
    """Spectrum position at which two states (or two matrices) provably differ.

    ``cut`` names the cut whose singular spectra differ; it is None when two
    plain matrices were compared.
    """

    cut: Cut | None
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


class CertificateError(RuntimeError):
    """Certificate construction failed to verify; the comparison is undecided."""


@dataclass(frozen=True)
class StateFrame:
    """Eigenbases of the three one-party reductions and the core tensor in them.

    ``bases[p]`` holds party p's eigenvectors as columns, eigenvalues
    descending.  ``groups[p]`` splits their indices into runs of eigenvalues
    above ``_EIG_GAP`` that lie closer than ``_EIG_GAP``; every smaller
    eigenvalue is a group of its own, as the state has (almost) no weight
    there.
    """

    bases: tuple[np.ndarray, np.ndarray, np.ndarray]
    core: np.ndarray
    groups: tuple[tuple[slice, ...], ...]


@dataclass(frozen=True)
class TripartiteDecision:
    """Outcome of the equivalence decision, with certificate or witness.

    ``local_factors`` is the certificate (U_A, U_B, U_C) of an equivalent
    verdict, and ``residual`` its reconstruction residual against the raw
    tensors; for an inconclusive decision ``residual`` is the lowest residual
    the search reached.
    """

    verdict: Verdict
    local_factors: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    residual: float | None = None
    witness: SpectrumWitness | None = None


def _polar_unitary(m: np.ndarray) -> np.ndarray:
    """Unitary factor of the polar decomposition (nearest unitary)."""
    w, _, zh = np.linalg.svd(m)
    return w @ zh


def bipartite_equivalent(
    a: np.ndarray, b: np.ndarray, tols: Tolerances = DEFAULT_TOLERANCES
) -> BipartiteCertificate | SpectrumWitness:
    """Certificate (u, v) with b = u @ a @ v.T, or the spectral witness against it.

    Both matrices are decomposed as a = ua Da vha, b = ub Db vhb with
    descending singular values.  If the spectra deviate anywhere by more than
    ``tols.spectra`` the matrices are inequivalent and the witnessing index
    is returned, with no cut.  Otherwise u = ub @ ua† and v = conj(vb) @ va^t
    give u @ a @ v.T = ub Da vhb, which is b up to the spectral deviation
    whatever bases the two SVDs chose inside degenerate groups.
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
        return SpectrumWitness(
            cut=None, index=worst, left=float(sa[worst]), right=float(sb[worst])
        )

    u_cert = ub @ ua.conj().T
    v_cert = vhb.T @ vha.conj()
    residual = float(np.linalg.norm(b - u_cert @ a @ v_cert.T))
    if residual > tols.reconstruction:
        raise CertificateError(
            f"certificate residual {residual:.3e} exceeds {tols.reconstruction} "
            "although the singular spectra agree"
        )
    return BipartiteCertificate(u=u_cert, v=v_cert, sigma=sa.copy(), residual=residual)


def _solve_angles(coef: np.ndarray, angle: np.ndarray) -> np.ndarray:
    """Angles x with coef @ x = angle (mod 2 pi), for integer-valued ``coef``.

    Integer row operations (Euclid on each column) bring the system to
    echelon form without changing its solutions mod 2 pi; back substitution
    then sets every non-pivot unknown to 0 and takes one root for a pivot
    coefficient above 1.  Rows left all zero are not checked here.
    """
    coef, angle = coef.copy(), angle.copy()
    pivots: list[int] = []
    for col in range(coef.shape[1]):
        top = len(pivots)
        while True:
            rows = top + np.flatnonzero(coef[top:, col])
            if not rows.size:
                break
            k = rows[np.argmin(np.abs(coef[rows, col]))]
            coef[[top, k]], angle[[top, k]] = coef[[k, top]], angle[[k, top]]
            rows = top + 1 + np.flatnonzero(coef[top + 1 :, col])
            if not rows.size:
                pivots.append(col)
                break
            factor = coef[rows, col] // coef[top, col]
            coef[rows] -= factor[:, None] * coef[top]
            angle[rows] -= factor * angle[top]
    x = np.zeros(coef.shape[1])
    for row, col in reversed(list(enumerate(pivots))):
        x[col] = (angle[row] - coef[row] @ x) / coef[row, col]
    return x


def _solve_phase_product(chi: np.ndarray, weight: np.ndarray) -> tuple | None:
    """Factor chi[s,p,q] = beta_s * phi_p * psi_q over significant entries.

    ``chi`` holds unit complex numbers; entries whose ``weight`` falls below
    ``_PHASE_CUTOFF`` times the largest weight are ignored (their phases are
    noise).  Each sweep assigns every unknown factor that some entry with
    exactly one unknown determines, from the strongest such entry.  When no
    entry has exactly one unknown and nothing is known yet, the strongest
    entry's beta_s and phi_p are set to 1, a gauge choice.  Later a factor
    set to 1 could lie on a cycle of entries that fixes it up to a root of
    unity, so the open entries are solved exactly instead, by
    :func:`_solve_angles`.  Returns (beta, phi, psi) or None on
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
        if not known.any():
            known[nodes[:2, open_entries[0]]] = True
            continue
        sub = nodes[:, open_entries]
        hit = ~known[sub]
        # Not np.unique: its hashing path costs ~1.5 MB of RSS on first use.
        needed = np.zeros_like(known)
        needed[sub] = True
        free = np.flatnonzero(needed & ~known)
        coef = np.zeros((open_entries.size, free.size))
        coef[np.nonzero(hit)[1], np.searchsorted(free, sub[hit])] = 1
        rest = np.where(hit, 1.0, value[sub]).prod(axis=0)
        angle = np.angle(target[open_entries] / rest)
        value[free] = np.exp(1j * _solve_angles(coef, angle))
        known[free] = True
    product = value[nodes[0]] * value[nodes[1]] * value[nodes[2]]
    if np.any(np.abs(target - product) > _PHASE_TOL):
        return None
    return value[:r], value[r : r + m], value[r + m :]


def _sweep(core: np.ndarray, unfolded: tuple, g: list) -> float:
    """Replace each g[p] in turn by its Procrustes optimum; the new residual.

    With the other two factors fixed, the unitary that best carries ``core``
    onto the target along axis p is the polar factor of
    target_(p) conj(g_q (x) g_r) core_(p)^dagger.  ``unfolded`` holds the
    target's unfoldings along A and B and its (AB, C) matricization.
    """
    a, b, c = core.shape
    t_a, t_b, t_c = unfolded
    along_c = core @ g[2].T
    x = g[1] @ along_c
    g[0] = _polar_unitary(t_a @ x.reshape(a, -1).conj().T)
    x = (g[0] @ along_c.reshape(a, -1)).reshape(a, b, c)
    g[1] = _polar_unitary(t_b @ x.transpose(1, 0, 2).reshape(b, -1).conj().T)
    x = (g[1] @ (g[0] @ core.reshape(a, -1)).reshape(a, b, c)).reshape(-1, c)
    g[2] = _polar_unitary(t_c.T @ x.conj())
    return float(np.linalg.norm(t_c - x @ g[2].T))


def _block_unitary(groups: tuple[slice, ...], rng: np.random.Generator) -> np.ndarray:
    """Random unitary that is block-diagonal over ``groups``."""
    dim = groups[-1].stop
    h = np.zeros((dim, dim), dtype=np.complex128)
    for group in groups:
        h[group, group] = random_unitary(group.stop - group.start, rng)
    return h


def gauge_search(
    first: StateFrame,
    second: StateFrame,
    budget: int = DEFAULT_GAUGE_BUDGET,
    tols: Tolerances = DEFAULT_TOLERANCES,
    seed: int = 0,
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], float]:
    """Local unitaries that carry the first frame's state towards the second's.

    Searches unitaries G_p with core' = (G_A (x) G_B (x) G_C) core; they give
    U_p = E'_p G_p E_p^dagger, and since the bases are unitary the frame
    residual ||core' - (G_A (x) G_B (x) G_C) core|| is the raw residual of
    (U_A, U_B, U_C).  When every eigenvalue group is a single vector, the
    G_p of an LU pair are diagonal phases and the start is their closed-form
    solve; otherwise, or when that solve finds no consistent phases, the
    start is the identity.  Until the residual passes ``tols.reconstruction``
    or ``budget`` sweeps are spent, each sweep updates every G_p in turn by
    Procrustes, and a sweep that gains less than ``_MIN_GAIN`` restarts from
    a seeded random unitary that is block-diagonal over the first frame's
    groups.  Deterministic for a fixed seed.  Returns the factors with the
    lowest residual reached, and that residual.
    """
    core, target = first.core, second.core
    if core.shape != target.shape:
        raise ValueError(f"shape mismatch: {core.shape} vs {target.shape}")
    phases = [np.ones(d) for d in core.shape]
    if all(len(groups) == d for groups, d in zip(first.groups, core.shape)):
        chi = target * core.conj()
        chi = chi / np.maximum(np.abs(chi), 1e-300)
        phases = _solve_phase_product(chi, np.abs(core)) or phases
    outer = phases[0][:, None, None] * phases[1][:, None] * phases[2]
    best = float(np.linalg.norm(target - outer * core))
    g = [np.diag(phase) for phase in phases]
    best_g = list(g)
    a, b, c = core.shape
    unfolded = (
        target.reshape(a, -1),
        target.transpose(1, 0, 2).reshape(b, -1),
        target.reshape(-1, c),
    )
    rng = np.random.default_rng(seed)
    last = best
    for _ in range(budget):
        if best <= tols.reconstruction:
            break
        residual = _sweep(core, unfolded, g)
        if residual < best:
            best_g, best = list(g), residual
        if residual > last * (1.0 - _MIN_GAIN):
            g = [_block_unitary(groups, rng) for groups in first.groups]
            last = np.inf
        else:
            last = residual
    factors = tuple(
        e_p @ g_p @ e.conj().T for e, e_p, g_p in zip(first.bases, second.bases, best_g)
    )
    return factors, best


def _certify(
    state: TripartiteState,
    other: TripartiteState,
    factors: tuple[np.ndarray, np.ndarray, np.ndarray],
    tols: Tolerances,
) -> TripartiteDecision | None:
    """Verified decision from candidate local factors, or None.

    U_B and U_C are snapped to exact unitaries and U_A is recomputed by
    Procrustes against the raw cut-A matricizations.  The verdict stands only
    if the three local unitaries map the raw amplitude tensor onto the second
    state within the reconstruction tolerance.
    """
    u_b, u_c = (_polar_unitary(u) for u in factors[1:])
    mapped_rows = matricize(state, Cut.A) @ np.kron(u_b, u_c).T
    u_a = _polar_unitary(matricize(other, Cut.A) @ mapped_rows.conj().T)
    factors = (u_a, u_b, u_c)
    mapped = apply_local_unitaries(state, *factors, unitarity_tol=tols.unitarity)
    residual = float(np.linalg.norm(mapped.amplitudes - other.amplitudes))
    if residual > tols.reconstruction:
        return None
    return TripartiteDecision(
        verdict=Verdict.EQUIVALENT_D1, local_factors=factors, residual=residual
    )


def _state_frame(state: TripartiteState) -> StateFrame:
    """Frame of ``state``: reduction eigenbases, their eigenvalue groups, the core."""
    bases, groups = [], []
    for cut in Cut:
        a = matricize(state, cut)
        vals, vecs = np.linalg.eigh(a @ a.conj().T)
        vals, vecs = vals[::-1], vecs[:, ::-1]
        joined = (vals[:-1] > _EIG_GAP) & (vals[:-1] - vals[1:] < _EIG_GAP)
        edges = [0, *(np.flatnonzero(~joined) + 1).tolist(), vals.size]
        groups.append(tuple(slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])))
        bases.append(vecs)
    e_a, e_b, e_c = (e.conj().T for e in bases)
    k, m, n = state.dims
    core = e_b @ (e_a @ (state.amplitudes @ e_c.T).reshape(k, -1)).reshape(k, m, n)
    return StateFrame(bases=tuple(bases), core=core, groups=tuple(groups))


def check_di(
    state: TripartiteState,
    other: TripartiteState,
    cut: Cut,
    tols: Tolerances = DEFAULT_TOLERANCES,
    gauge_budget: int = DEFAULT_GAUGE_BUDGET,
    seed: int = 0,
) -> TripartiteDecision:
    """:func:`decide_equivalence` with an equivalent verdict labelled by ``cut``.

    An equivalent decision keeps its certificate and residual and takes the
    verdict ``VERDICT_FOR_CUT[cut]``; any other decision passes through
    unchanged, so a pair may be refuted through a cut other than ``cut``.
    """
    decision = decide_equivalence(state, other, tols, gauge_budget, seed)
    if decision.verdict in EQUIVALENT_VERDICTS:
        return replace(decision, verdict=VERDICT_FOR_CUT[cut])
    return decision


def decide_equivalence(
    state: TripartiteState,
    other: TripartiteState,
    tols: Tolerances = DEFAULT_TOLERANCES,
    gauge_budget: int = DEFAULT_GAUGE_BUDGET,
    seed: int = 0,
) -> TripartiteDecision:
    """Full decision: spectra on all three cuts, then one search in the frames.

    Any cut with differing singular spectra proves inequivalence outright, so
    the spectra of cuts A, B and C are compared first.  Otherwise each state
    is put into its frame once and :func:`gauge_search` spends at most
    ``gauge_budget`` sweeps looking for local unitaries between them.  A
    candidate whose frame residual passes is re-verified against the raw
    tensors by :func:`_certify` and returned as ``EQUIVALENT_D1`` with the
    certificate (U_A, U_B, U_C).  Anything else is ``INCONCLUSIVE`` with the
    lowest residual reached - never a claim of inequivalence.
    """
    if state.dims != other.dims:
        raise ValueError(f"dimension mismatch: {state.dims} vs {other.dims}")

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

    factors, residual = gauge_search(
        _state_frame(state), _state_frame(other), gauge_budget, tols, seed
    )
    if residual <= tols.reconstruction:
        decision = _certify(state, other, factors, tols)
        if decision is not None:
            return decision
    return TripartiteDecision(verdict=Verdict.INCONCLUSIVE, residual=residual)
