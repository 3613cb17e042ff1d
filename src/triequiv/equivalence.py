"""The three-party equivalence decision, with certificates and witnesses.

One factorisation per cut, :func:`triequiv.states.cut_svd`, gives the cut's
singular spectrum and left singular vectors, never its right ones: the
``eigh`` of its Gram matrix, or where that cannot vouch for its small singular
values (rank-deficient cuts among them) an SVD, for a wide cut the SVD of the
small factor of a QR.  A cut refutes the pair where an SVD of it finds spectra
that differ by more than the tolerance and the SVD's rounding; a cut is
factored again by that SVD only where its first spectra, within their
rounding, leave a refutation open.
Otherwise each state is put into its frame, the higher-order SVD: the same
factorisations give the eigenbasis of each one-party reduction, grouped by
eigenvalue, and the core tensor is the state in those bases.  A local unitary
map between two states is block-diagonal between their frames, one block per
eigenvalue group, and carries one core onto the other.
``gauge_search`` looks for those blocks: in closed form when at most one party
has a group of several vectors, otherwise (or under noise) by alternating
per-party Procrustes steps on the two cores.  When every group is a single
vector and the phases admit no solution, a cycle of core entries whose phase
product is off by more than noise within the tolerance can explain ends the
search before any sweep.  The answer to an equivalent pair is the certificate
(U_A, U_B, U_C) whose U_A is one more Procrustes step on the raw amplitude
tensors; every Procrustes step is :func:`_refit`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

# Not called here: perfbench/tracing.py wraps these names on this module.
from .invariants import singular_spectrum  # noqa: F401
from .realign import is_unitarily_decomposable, kron_factorize  # noqa: F401
from .states import apply_local_unitaries  # noqa: F401
from .states import (
    Cut,
    TripartiteState,
    cut_rounding,
    cut_svd,
    random_unitary,
    unfold,
    unitarity_defect,
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
    INVARIANTS_DIFFER = "invariants-differ"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SpectrumWitness:
    """Spectrum position at which two states' singular spectra on ``cut`` differ."""

    cut: Cut
    index: int
    left: float
    right: float

    @property
    def deviation(self) -> float:
        return abs(self.left - self.right)


@dataclass(frozen=True)
class PhaseObstruction:
    """A cycle of core entries whose phases no local unitary map within tolerance fits.

    ``entries`` are core indices (s, p, q) of the first frame and
    ``coefficients`` integers y_e with sum_e y_e (e_s + e_p + e_q) = 0, so the
    holonomy wrap(sum_e y_e theta_e) of the phase ratios theta_e of the two
    cores does not depend on the phases the two frames' eigenvectors carry.
    A map within the reconstruction tolerance moves each theta_e by at most
    2 beta / |core_e| (by pi where beta >= |core_e|) from a product of
    per-party phases, where beta bounds the core error it leaves (Davis-Kahan,
    from the reduction gaps), so its cycles stay within ``bound``, the sum of
    these weighted by |y_e|; this one's ``holonomy`` exceeds it.
    """

    entries: tuple[tuple[int, int, int], ...]
    coefficients: tuple[int, ...]
    holonomy: float
    bound: float


@dataclass(frozen=True)
class StateFrame:
    """Left singular vectors of the three cuts and the core tensor in them.

    ``bases[p]`` holds cut p's left singular vectors (party p's reduction
    eigenvectors) as columns, ``eigenvalues[p]`` the squares of its singular
    values, descending, padded with zeros to d_p; :func:`_groups` splits them.
    """

    bases: tuple[np.ndarray, np.ndarray, np.ndarray]
    eigenvalues: tuple[np.ndarray, np.ndarray, np.ndarray]
    core: np.ndarray


@dataclass(frozen=True)
class TripartiteDecision:
    """Outcome of the equivalence decision, with certificate or witness.

    ``local_factors`` is the certificate (U_A, U_B, U_C) of an equivalent
    verdict, and ``residual`` its reconstruction residual against the raw
    tensors; for an inconclusive decision ``residual`` is the lowest residual
    the search reached.  ``obstruction`` is set on an inconclusive decision
    whose search stopped before any sweep because the phases of the two cores
    admit no map within the tolerance; it is not a claim of inequivalence.
    ``spectra`` holds the singular values of both states on cuts A, B and C.
    """

    verdict: Verdict
    local_factors: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    residual: float | None = None
    witness: SpectrumWitness | None = None
    obstruction: PhaseObstruction | None = None
    spectra: tuple[tuple[tuple[float, ...], ...], ...] | None = None


def _mode_products(tensor: np.ndarray, g: list, skip: int | None = None) -> np.ndarray:
    """(g[0] (x) g[1] (x) g[2]) tensor, square g applied C, A, B; g[skip] left out."""
    a, b, c = tensor.shape
    if skip != 2:
        tensor = tensor @ g[2].T
    if skip != 0:
        tensor = (g[0] @ tensor.reshape(a, -1)).reshape(a, b, c)
    if skip != 1:
        tensor = g[1] @ tensor
    return tensor


def _refit(source, target, p: int, g: list) -> tuple[np.ndarray, float]:
    """Procrustes optimum of party p's unitary with the other two fixed.

    X is ``source`` mapped by g[q] for q != p and T is ``target``, both
    unfolded along p; the unitary closest to carrying X onto T is the polar
    factor W Z^dagger of T X^dagger = W S Z^dagger (Schoenemann 1966).
    Returns it and ||T - g_p X||.
    """
    x, t = unfold(_mode_products(source, g, p), p), unfold(target, p)
    w, _, zh = np.linalg.svd(t @ x.conj().T)
    g_p = w @ zh
    return g_p, float(np.linalg.norm(t - g_p @ x))


def _cut_witness(
    amplitudes: np.ndarray, cut: Cut, sa, sb, tol: float, shape: tuple[int, int]
) -> SpectrumWitness | None:
    """Witness on one cut of a stacked pair, from the cut's :func:`cut_svd` spectra.

    Each spectrum lies within :func:`cut_rounding` of the exact one at every
    index, so where the largest deviation plus both bounds is within ``tol``
    the exact spectra differ by at most ``tol`` and no SVD could refute:
    None, with no further factorisation, as for LU pairs at the default
    tolerance unless a cut's bound nears it.  Otherwise one SVD factors the
    cut of both states again, and the witness is at the largest deviation if
    that exceeds ``tol`` plus the SVDs' rounding, (rows + cols) eps sigma_1
    each, so no tolerance however small refutes on rounding alone (over LU
    pairs from 8^3 to 2 x 48 x 48, rank-deficient ones included, deviations
    stayed below 0.16 of it).  A refutation so costs the Gram route nothing
    at any tolerance: it needs the deviation an SVD needs, never the Gram
    allowance on top.
    """
    rounding = cut_rounding(sa, shape) + cut_rounding(sb, shape)
    if float(np.abs(sa - sb).max()) + rounding <= tol:
        return None
    sa, sb = np.linalg.svd(unfold(amplitudes, tuple(Cut).index(cut)), compute_uv=False)
    worst = int(np.argmax(np.abs(sa - sb)))
    rounding = sum(shape) * np.finfo(float).eps * (sa[0] + sb[0])
    if abs(sa[worst] - sb[worst]) > tol + rounding:
        return SpectrumWitness(cut, worst, float(sa[worst]), float(sb[worst]))
    return None


def _phase_ratio(after: np.ndarray, before: np.ndarray) -> np.ndarray:
    """Unit complex numbers with the phases of after / before, entrywise."""
    chi = after * before.conj()
    return chi / np.maximum(np.abs(chi), 1e-300)


def _solve_angles(
    coef: np.ndarray, angle: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Angles x with coef @ x = angle (mod 2 pi), for integer-valued ``coef``.

    Integer row operations (Euclid on each column) bring the system to
    echelon form without changing its solutions mod 2 pi; back substitution
    then sets every non-pivot unknown to 0 and takes one root for a pivot
    coefficient above 1.  The rows left all zero give the cycles: the same
    operations applied to the identity turn them into integer vectors y with
    y @ coef = 0, a basis of all such, and the system is solvable mod 2 pi
    exactly when every y @ angle is.  Returns x and the cycles as rows.
    """
    coef, angle = coef.copy(), angle.copy()
    combo = np.eye(coef.shape[0])
    pivots: list[int] = []
    for col in range(coef.shape[1]):
        top = len(pivots)
        while True:
            rows = top + np.flatnonzero(coef[top:, col])
            if not rows.size:
                break
            k = rows[np.argmin(np.abs(coef[rows, col]))]
            coef[[top, k]], angle[[top, k]], combo[[top, k]] = (
                coef[[k, top]], angle[[k, top]], combo[[k, top]]
            )
            rows = top + 1 + np.flatnonzero(coef[top + 1 :, col])
            if not rows.size:
                pivots.append(col)
                break
            factor = coef[rows, col] // coef[top, col]
            coef[rows] -= factor[:, None] * coef[top]
            angle[rows] -= factor * angle[top]
            combo[rows] -= factor[:, None] * combo[top]
    x = np.zeros(coef.shape[1])
    for row, col in reversed(list(enumerate(pivots))):
        x[col] = (angle[row] - coef[row] @ x) / coef[row, col]
    return x, combo[len(pivots) :]


def _phase_start(
    chi: np.ndarray, weight: np.ndarray, significant: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The first two sweeps of :func:`_solve_phase_product` in closed form.

    With beta_s0 = phi_p0 = 1 at the strongest entry (s0, p0, q0), the
    first sweep fixes every psi_q from the fibre (s0, p0, :), and the second
    every phi_p from the strongest entry of slab (s0, p, :) and every beta_s
    from that of row s of slab (:, p0, :); ``argmax`` takes the lowest index
    among ties, as the sweeps' stable sort does.  Each factor is the sweep's
    quotient, bit for bit; the division by 1 stays, as it turns a -0.0 part
    into the sweeps' +0.0.  Returns the factors if they hold on every
    significant entry within ``_PHASE_TOL``; None if an entry misses, or a
    fibre entry or a slab's strongest entry is not significant (a factor
    would be left to later sweeps).
    """
    r, m, _ = chi.shape
    s0, p0, _ = np.unravel_index(np.argmax(weight), chi.shape)
    at_p, at_s = weight[s0].argmax(axis=1), weight[:, p0].argmax(axis=1)
    if not (
        significant[s0, p0].all()
        and significant[s0, np.arange(m), at_p].all()
        and significant[np.arange(r), p0, at_s].all()
    ):
        return None
    one = np.complex128(1)  # beta_s0 and phi_p0, the gauge choice
    psi = chi[s0, p0] / one
    phi = chi[s0, np.arange(m), at_p] / (one * psi[at_p])
    beta = chi[np.arange(r), p0, at_s] / (one * psi[at_s])
    phi[p0] = beta[s0] = one
    miss = np.abs(chi - beta[:, None, None] * phi[:, None] * psi)
    if np.any(significant & (miss > _PHASE_TOL)):
        return None
    return beta, phi, psi


def _solve_phase_product(chi: np.ndarray, weight: np.ndarray) -> tuple:
    """Factor chi[s,p,q] = beta_s * phi_p * psi_q over significant entries.

    ``chi`` holds unit complex numbers; entries whose ``weight`` falls below
    ``_PHASE_CUTOFF`` times the largest weight are ignored (their phases are
    noise).  Each sweep assigns every unknown factor that some entry with
    exactly one unknown determines, from the strongest such entry; before
    the first sweep the strongest entry's beta_s and phi_p are set to 1, a
    gauge choice.  When no entry has exactly one unknown, a further factor
    set to 1 could lie on a cycle of entries that fixes it up to a root of
    unity, so the open entries are solved exactly instead, by
    :func:`_solve_angles`.  A consistent solve that two sweeps complete, as
    on the generic frames of LU pairs, is :func:`_phase_start`, which
    reads the fibre and two slabs through the strongest entry and checks the
    rest in one pass; only when it returns None are the entries sorted and
    swept, with the same answer.

    Returns (beta, phi, psi) and None, or on inconsistency the factors as
    assigned (every entry that fixed a factor holds) and a cycle.  The
    cycle comes from the angle equations of the entries that fixed a factor,
    the open entries and the failing entry whose phase error, scaled by its
    weight, is largest: of the cycles :func:`_solve_angles` gives for them,
    the one whose holonomy is largest against sum_e |y_e| / weight_e.  It is
    (index, y, holonomy): the (s, p, q) rows of its entries, their integer
    coefficients y_e, and wrap(sum_e y_e arg chi_e).
    """
    r, m, n = chi.shape
    significant = weight > _PHASE_CUTOFF * float(weight.max())
    if (phases := _phase_start(chi, weight, significant)) is not None:
        return phases, None
    s, p, q = np.nonzero(significant)
    strength = weight[s, p, q]
    # Tied entries keep index order, so the same entry fixes each factor.
    strongest = np.argsort(-strength, kind="stable")
    s, p, q, strength = s[strongest], p[strongest], q[strongest], strength[strongest]
    # One node per factor: beta_s is node s, phi_p node r + p, psi_q node r + m + q.
    nodes = np.stack((s, r + p, r + m + q))
    target = chi[s, p, q]
    value = np.ones(r + m + n, dtype=np.complex128)
    known = np.zeros(r + m + n, dtype=bool)
    known[nodes[:2, :1]] = True  # the gauge choice; nothing when no entry counts
    # Entries whose angle equation fixed a factor: the cycles live on these.
    used = np.zeros(target.size, dtype=bool)
    while True:
        unknown = ~known[nodes]
        missing = unknown.sum(axis=0)
        single = np.flatnonzero(missing == 1)
        if single.size:
            rows = np.argmax(unknown[:, single], axis=0)
            # The first (strongest) entry that leaves each factor open fixes it.
            first = np.full(known.size, single.size)
            np.minimum.at(first, nodes[rows, single], np.arange(single.size))
            free = np.flatnonzero(first < single.size)
            entries = single[first[free]]
            # Fortran-ordered, so prod(axis=0) gives scalar products' bits;
            # elementwise or C-ordered products may not, and certificates would
            # change.  _phase_start matches only as its products hold a factor 1.
            others = np.where(unknown[:, entries], 1.0, value[nodes[:, entries]])
            value[free] = target[entries] / others.prod(axis=0)
            known[free] = True
            used[entries] = True
            continue
        open_entries = np.flatnonzero(missing)
        if not open_entries.size:
            break
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
        value[free] = np.exp(1j * _solve_angles(coef, angle)[0])
        known[free] = True
        used[open_entries] = True
    product = value[nodes[0]] * value[nodes[1]] * value[nodes[2]]
    miss = np.abs(target - product)
    phases = value[:r], value[r : r + m], value[r + m :]
    if not np.any(miss > _PHASE_TOL):
        return phases, None
    used[np.argmax(np.where(miss > _PHASE_TOL, miss * strength, 0.0))] = True
    rows = np.flatnonzero(used)
    coef = np.zeros((rows.size, value.size))
    coef[np.arange(rows.size), nodes[:, rows]] = 1
    theta = np.angle(target[rows])
    _, cycles = _solve_angles(coef, theta)
    holonomy = np.angle(np.exp(1j * (cycles @ theta)))
    best = np.argmax(np.abs(holonomy) / (np.abs(cycles) @ (1.0 / strength[rows])))
    keep = np.flatnonzero(cycles[best])
    index = (nodes[:, rows[keep]] - np.array([[0], [r], [r + m]])).T
    return phases, (index, cycles[best, keep].astype(int), float(holonomy[best]))


def _sweep(core: np.ndarray, target: np.ndarray, g: list) -> float:
    """Replace g[A], g[B], g[C] in turn by their :func:`_refit`; the new residual."""
    for p in range(3):
        g[p], residual = _refit(core, target, p, g)
    return residual


def _one_block_start(
    core: np.ndarray, target: np.ndarray, p: int
) -> tuple[list[np.ndarray], float]:
    """Closed-form start when only party p has a group of several vectors.

    The other two parties' G are then diagonal phases phi, psi, and with X
    and T the cores unfolded along p, T = G_p X D for D = diag(phi (x) psi),
    so T^dagger T = D^* X^dagger X D: the phase ratios of the two Gram
    matrices are conj(d_j) d_k.  They are factored on the Gram rows of the
    strongest column for each index of the two parties, and G_p is the
    :func:`_refit` of party p.  Returns the three G and the residual
    ||T - G_p X D||.
    """
    x, t = unfold(core, p), unfold(target, p)
    pair = core.shape[:p] + core.shape[p + 1 :]
    strength = np.linalg.norm(x, axis=0).reshape(pair)
    rows = np.zeros(pair, dtype=bool)
    rows[np.arange(pair[0]), strength.argmax(axis=1)] = True
    rows[strength.argmax(axis=0), np.arange(pair[1])] = True
    rows = np.flatnonzero(rows)
    gram, gram_t = x[:, rows].conj().T @ x, t[:, rows].conj().T @ t
    (_, phi, psi), _ = _solve_phase_product(
        _phase_ratio(gram_t, gram).reshape(-1, *pair), np.abs(gram).reshape(-1, *pair)
    )
    g = [np.diag(phi), np.diag(psi)]
    g.insert(p, None)
    g[p], residual = _refit(core, target, p, g)
    return g, residual


def _joined(vals: np.ndarray) -> np.ndarray:
    """Whether eigenvalue i, above ``_EIG_GAP``, lies closer than it to i + 1."""
    return (vals[:-1] > _EIG_GAP) & (vals[:-1] - vals[1:] < _EIG_GAP)


def _groups(vals: np.ndarray) -> tuple[slice, ...]:
    """A party's eigenvalue groups: the index runs that :func:`_joined` links."""
    edges = [0, *(np.flatnonzero(~_joined(vals)) + 1).tolist(), vals.size]
    return tuple(slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:]))


def _block_unitary(groups: tuple[slice, ...], rng: np.random.Generator) -> np.ndarray:
    """Random unitary that is block-diagonal over ``groups``."""
    dim = groups[-1].stop
    h = np.zeros((dim, dim), dtype=np.complex128)
    for group in groups:
        h[group, group] = random_unitary(group.stop - group.start, rng)
    return h


def _obstruction(
    frame: StateFrame, cycle: tuple, tols: Tolerances
) -> PhaseObstruction | None:
    """The cycle as an obstruction, if its holonomy exceeds what noise allows.

    Let psi' = U psi + e, U = U_A (x) U_B (x) U_C and ||e|| <= tau =
    ``tols.reconstruction`` (rounding is not counted: a tau below it
    certifies no pair anyway).  The bound on the holonomy of such a pair:

    1. Each reduction rho'_p differs from U_p rho_p U_p^dagger by the partial
       trace of |e><phi| + |phi><e| + |e><e|, phi = U psi, whose trace norm,
       and so operator norm, is at most eps = 2 tau + tau^2.
    2. Davis-Kahan with the unperturbed gap (Yu, Wang & Samworth, Biometrika
       102, 315, 2015): an eigenvector of party p whose eigenvalue lies
       delta_p from the rest of the first frame's spectrum turns by
       sin theta <= 2 eps / delta_p, so up to a phase it moves by at most
       sqrt(2) 2 eps / delta_p <= sqrt(d_p) 2 eps / delta_p; delta_p is the
       smallest gap the cycle touches, infinite for d_p = 1.  The bases'
       own rounding is the same bound with eps of order (rows + cols) eps
       sigma_1^2 (:func:`triequiv.states.cut_rounding`; on the Gram matrix,
       of which the bases are eigenvectors on either route), orders of
       magnitude below tau.
    3. Entry e = (s, p, q) of the second core is <v'_s v'_p v'_q|psi'>; it is
       within tau of <v'_s v'_p v'_q|phi>, and that, telescoping the product,
       within the three vectors' moves of core_e times the conjugate phases:
       the core error is at most beta = tau + sum_p sqrt(d_p) 2 eps / delta_p.
    4. With x_e = beta / |core_e| < 1, its phase is within arcsin(x_e) <= 2 x_e
       of the phase product; where x_e >= 1 it may move by up to pi.  The
       holonomy is within the sum of these over the cycle, weighted by |y_e|.
    """
    index, coefficients, holonomy = cycle
    tau = tols.reconstruction
    beta = tau
    for vals, touched in zip(frame.eigenvalues, index.T):
        step = np.abs(np.diff(vals))
        gap = np.minimum(np.append(step, np.inf), np.insert(step, 0, np.inf))
        with np.errstate(divide="ignore"):
            beta += np.sqrt(vals.size) * 2 * (2 * tau + tau**2) / gap[touched].min()
    x = beta / np.abs(frame.core[tuple(index.T)])
    bound = float(np.sum(np.abs(coefficients) * np.where(x < 1, 2 * x, np.pi)))
    if not abs(holonomy) > bound:
        return None
    return PhaseObstruction(
        entries=tuple(map(tuple, index.tolist())),
        coefficients=tuple(coefficients.tolist()),
        holonomy=holonomy,
        bound=bound,
    )


def gauge_search(
    first: StateFrame,
    second: StateFrame,
    budget: int = DEFAULT_GAUGE_BUDGET,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], float, PhaseObstruction | None]:
    """Local unitaries that carry the first frame's state towards the second's.

    Searches unitaries G_p with core' = (G_A (x) G_B (x) G_C) core; they give
    U_p = E'_p G_p E_p^dagger, and since the bases are unitary the frame
    residual ||core' - (G_A (x) G_B (x) G_C) core|| is the raw residual of
    (U_A, U_B, U_C).  When every eigenvalue group is a single vector, the
    G_p of an LU pair are diagonal phases and the start is their closed-form
    solve (the phases as the solve assigned them when they are inconsistent,
    as under noise); when only one party has a group of several vectors, the
    start is :func:`_one_block_start`; otherwise it is the identity.  If the
    phase solve fails on a cycle of core entries whose holonomy exceeds the
    bound of :func:`_obstruction`, no map within ``tols.reconstruction``
    exists and no sweep is run.  Otherwise, until the residual passes
    ``tols.reconstruction`` or ``budget`` sweeps are spent, each sweep
    updates every G_p in turn by Procrustes, and a sweep that gains less
    than ``_MIN_GAIN`` restarts from a random unitary that is block-diagonal
    over the first frame's groups, drawn from one fixed generator, so the
    search is deterministic.  Returns the factors with the lowest residual
    reached, that residual, and the obstruction (None when the search ran).
    """
    core, target = first.core, second.core
    if core.shape != target.shape:
        raise ValueError(f"shape mismatch: {core.shape} vs {target.shape}")
    phases = [np.ones(d) for d in core.shape]
    obstruction = None
    split = [not _joined(vals).any() for vals in first.eigenvalues]
    if all(split):
        phases, cycle = _solve_phase_product(_phase_ratio(target, core), np.abs(core))
        if cycle is not None:
            obstruction = _obstruction(first, cycle, tols)
    if split.count(False) == 1:
        g, best = _one_block_start(core, target, split.index(False))
    else:
        outer = phases[0][:, None, None] * phases[1][:, None] * phases[2]
        best = float(np.linalg.norm(target - outer * core))
        g = [np.diag(phase) for phase in phases]
    best_g = list(g)
    # Built at the first restart, which a generic pair never reaches.
    groups = rng = None
    last = best
    for _ in range(0 if obstruction else budget):
        if best <= tols.reconstruction:
            break
        residual = _sweep(core, target, g)
        if residual < best:
            best_g, best = list(g), residual
        if residual > last * (1.0 - _MIN_GAIN):
            if groups is None:
                groups = [_groups(vals) for vals in first.eigenvalues]
                rng = np.random.default_rng(0)
            g = [_block_unitary(blocks, rng) for blocks in groups]
            last = np.inf
        else:
            last = residual
    factors = tuple(
        e_p @ g_p @ e.conj().T for e, e_p, g_p in zip(first.bases, second.bases, best_g)
    )
    return factors, best, obstruction


def _certify(
    state: TripartiteState,
    other: TripartiteState,
    factors: tuple[np.ndarray, np.ndarray, np.ndarray],
    tols: Tolerances,
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], float] | None:
    """Verified certificate (U_A, U_B, U_C) and its residual, or None.

    U_B and U_C stay as the search built them, products of unitaries, and
    U_A is their :func:`_refit` on the raw amplitude tensors.  The certificate
    stands only if its residual and every factor's unitarity defect pass.
    """
    g = list(factors)
    g[0], residual = _refit(state.amplitudes, other.amplitudes, 0, g)
    if residual > tols.reconstruction or max(map(unitarity_defect, g)) > tols.unitarity:
        return None
    return tuple(g), residual


def _state_frame(state: TripartiteState, bases: tuple, spectra: tuple) -> StateFrame:
    """Frame of ``state`` from its :func:`cut_svd` of cuts A, B and C."""
    eigenvalues = tuple(
        np.concatenate((s**2, np.zeros(len(e) - s.size))) for e, s in zip(bases, spectra)
    )
    core = _mode_products(state.amplitudes, [e.conj().T for e in bases])
    return StateFrame(bases, eigenvalues, core)


def decide_equivalence(
    state: TripartiteState,
    other: TripartiteState,
    tols: Tolerances = DEFAULT_TOLERANCES,
    gauge_budget: int = DEFAULT_GAUGE_BUDGET,
) -> TripartiteDecision:
    """Full decision: spectra on all three cuts, then one search in the frames.

    :func:`cut_svd` gives the spectra of cuts A, B and C, compared first;
    a cut whose spectra differ proves inequivalence outright.  Otherwise the
    same factorisations give both frames and :func:`gauge_search` spends at
    most ``gauge_budget`` sweeps looking for local unitaries between them.  A
    candidate whose frame residual passes is re-verified against the raw
    tensors by :func:`_certify` and returned as ``EQUIVALENT_D1`` with the
    certificate (U_A, U_B, U_C).  Anything else is ``INCONCLUSIVE`` with the
    lowest residual reached, and with the phase obstruction when one ended
    the search before any sweep - never a claim of inequivalence.  States of
    different dimensions, or a negative ``gauge_budget``, raise ValueError.
    """
    if state.dims != other.dims:
        raise ValueError(f"dimension mismatch: {state.dims} vs {other.dims}")
    if gauge_budget < 0:
        raise ValueError(f"gauge_budget must be >= 0, got {gauge_budget}")

    amplitudes = np.stack((state.amplitudes, other.amplitudes))
    vecs, values = zip(*(cut_svd(amplitudes, cut) for cut in Cut))
    bases, sides = tuple(zip(*vecs)), tuple(zip(*values))
    spectra = tuple(tuple(tuple(s.tolist()) for s in side) for side in sides)
    size = state.amplitudes.size
    for cut, d, sa, sb in zip(Cut, state.dims, *sides):
        witness = _cut_witness(amplitudes, cut, sa, sb, tols.spectra, (d, size // d))
        if witness is not None:
            return TripartiteDecision(
                verdict=Verdict.INVARIANTS_DIFFER, witness=witness, spectra=spectra
            )

    first, second = map(_state_frame, (state, other), bases, sides)
    factors, residual, obstruction = gauge_search(first, second, gauge_budget, tols)
    if residual <= tols.reconstruction:
        certificate = _certify(state, other, factors, tols)
        if certificate is not None:
            return TripartiteDecision(Verdict.EQUIVALENT_D1, *certificate, spectra=spectra)
    return TripartiteDecision(
        Verdict.INCONCLUSIVE, residual=residual, obstruction=obstruction, spectra=spectra
    )


# perfbench/tracing.py wraps these names and nothing calls them; they go when
# ROADMAP item 4 retargets the tracer (None makes a stray call fail at once).
check_di = decide_equivalence
bipartite_equivalent = None
