"""Shared reference states, gates, and loop-based oracles for the tests."""

import json
import math
from fractions import Fraction

import numpy as np

from triequiv.equivalence import _PHASE_CUTOFF, _PHASE_TOL
from triequiv.states import TripartiteState, apply_local_unitaries, random_unitary
from triequiv.tolerances import DEFAULT_TOLERANCES

RT2 = np.sqrt(2.0)
RT3 = np.sqrt(3.0)
RT6 = np.sqrt(6.0)


def basis_state(dims, index):
    """Product basis state |i j k> (zero-based index triple)."""
    amps = np.zeros(dims, dtype=complex)
    amps[index] = 1.0
    return TripartiteState(amps)


def golden_pair_222():
    """Two-qubit-per-party pair equivalent through the first cut."""
    a = np.zeros((2, 2, 2), dtype=complex)
    a[0, 0, 1] = a[1, 0, 0] = 1 / RT2
    b = np.zeros((2, 2, 2), dtype=complex)
    b[0, 1, 0] = b[1, 1, 1] = 1 / RT2
    return TripartiteState(a), TripartiteState(b)


def golden_pair_223():
    """2x2x3 pair related by a product of a qubit rotation and a 6x6 bridge."""
    a = np.zeros((2, 2, 3), dtype=complex)
    a[1, 1, 0] = a[0, 1, 2] = RT2 / 2
    b = np.zeros((2, 2, 3), dtype=complex)
    b[0, 0, 0] = -RT6 / 4
    b[0, 1, 0] = RT2 / 4
    b[1, 0, 1] = -RT3 / 4
    b[1, 0, 2] = RT3 / 4
    b[1, 1, 1] = 1 / 4
    b[1, 1, 2] = -1 / 4
    return TripartiteState(a), TripartiteState(b)


def golden_bridge_223():
    """Known (u1, v1) with v1 = X (x) Y mapping the 2x2x3 pair onto each other."""
    u1 = np.array([[0, -1], [1, 0]], dtype=complex)
    v1 = np.array(
        [
            [1 / 2, 0, 0, RT3 / 2, 0, 0],
            [0, RT2 / 4, -RT2 / 4, 0, RT6 / 4, -RT6 / 4],
            [0, RT2 / 4, RT2 / 4, 0, RT6 / 4, RT6 / 4],
            [RT3 / 2, 0, 0, -1 / 2, 0, 0],
            [0, RT6 / 4, -RT6 / 4, 0, -RT2 / 4, RT2 / 4],
            [0, RT6 / 4, RT6 / 4, 0, -RT2 / 4, -RT2 / 4],
        ],
        dtype=complex,
    )
    return u1, v1


def ghz_state():
    amps = np.zeros((2, 2, 2), dtype=complex)
    amps[0, 0, 0] = amps[1, 1, 1] = 1 / RT2
    return TripartiteState(amps)


def swap_gate():
    """4x4 permutation exchanging the two middle basis vectors."""
    return np.eye(4, dtype=complex)[[0, 2, 1, 3]]


def kron_apply(u1, u2, u3, state):
    """Independent route: full Kronecker product acting on the flat vector."""
    full = np.kron(np.kron(u1, u2), u3)
    return full @ state.amplitudes.reshape(-1)


def oracle_document(array, label=None):
    """Loop-based reference for the state and matrix writers: the same bytes."""
    lines = [f"label: {label}"] if label else []
    lines.append("dims: " + " ".join(str(d) for d in array.shape))
    for index, value in np.ndenumerate(array):
        if value != 0:
            ids = " ".join(str(i + 1) for i in index)
            re, im = format(float(value.real), ".17g"), format(float(value.imag), ".17g")
            lines.append(f"{ids}  {re} {im}")
    return "\n".join(lines) + "\n"


def oracle_matrix_pairs(matrix):
    """Loop-based reference for ``matrix_pairs``: one [re, im] pair per entry."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    return [[[float(v.real), float(v.imag)] for v in row] for row in matrix]


def oracle_json(value) -> str:
    """Recursive reference for ``report_to_json``, less its newline: one line,
    keys sorted at every depth, ": " after each key, "," alone between items."""
    if isinstance(value, dict):
        items = (json.dumps(key) + ": " + oracle_json(value[key]) for key in sorted(value))
        return "{" + ",".join(items) + "}"
    if isinstance(value, list):
        return "[" + ",".join(map(oracle_json, value)) + "]"
    return json.dumps(value)


def oracle_nested(amps, outer, inner, alpha, beta):
    """Brute-force nested trace invariant: explicit loops only."""
    dims = amps.shape
    proj = np.zeros(dims + dims, dtype=complex)
    for idx in np.ndindex(dims):
        for jdx in np.ndindex(dims):
            proj[idx + jdx] = amps[idx] * np.conj(amps[jdx])

    rem = sorted({1, 2, 3} - {inner})
    d1, d2 = dims[rem[0] - 1], dims[rem[1] - 1]
    rho = np.zeros((d1, d2, d1, d2), dtype=complex)
    for a_ in range(d1):
        for b_ in range(d2):
            for c_ in range(d1):
                for d_ in range(d2):
                    total = 0j
                    for t in range(dims[inner - 1]):
                        ket = [0, 0, 0]
                        bra = [0, 0, 0]
                        ket[rem[0] - 1], ket[rem[1] - 1] = a_, b_
                        bra[rem[0] - 1], bra[rem[1] - 1] = c_, d_
                        ket[inner - 1] = bra[inner - 1] = t
                        total += proj[tuple(ket) + tuple(bra)]
                    rho[a_, b_, c_, d_] = total

    def matpow_loops(mat, power):
        out = np.eye(mat.shape[0], dtype=complex)
        for _ in range(power):
            nxt = np.zeros_like(out)
            for i in range(out.shape[0]):
                for j in range(out.shape[1]):
                    acc = 0j
                    for k in range(out.shape[1]):
                        acc += out[i, k] * mat[k, j]
                    nxt[i, j] = acc
            out = nxt
        return out

    mat = matpow_loops(rho.reshape(d1 * d2, d1 * d2), alpha)
    rho4 = mat.reshape(d1, d2, d1, d2)

    pos = rem.index(outer)
    keep = d2 if pos == 0 else d1
    red = np.zeros((keep, keep), dtype=complex)
    for x in range(keep):
        for y in range(keep):
            acc = 0j
            for t in range(d1 if pos == 0 else d2):
                if pos == 0:
                    acc += rho4[t, x, t, y]
                else:
                    acc += rho4[x, t, y, t]
            red[x, y] = acc
    red = matpow_loops(red, beta)
    trace = sum(red[x, x] for x in range(keep))
    assert abs(trace.imag) < 1e-12
    return trace.real


def oracle_solve_phase_product(chi, weight, cutoff=_PHASE_CUTOFF, tol=_PHASE_TOL):
    """Loop-based reference for ``equivalence._solve_phase_product``.

    Flood fill over the significant entries in index order: an entry with one
    unknown factor assigns it; when none has, the strongest entry with two
    or more unknowns anchors beta_s (and phi_p, if psi_q is unknown too) at 1.
    That anchor is not always a gauge choice, so on some sparse masks this
    returns None for a consistent product that the solver factors.
    """
    r, m, n = chi.shape
    limit = cutoff * float(weight.max())
    entries = [
        (s, p, q)
        for s in range(r)
        for p in range(m)
        for q in range(n)
        if weight[s, p, q] > limit
    ]
    beta = [None] * r
    phi = [None] * m
    psi = [None] * n

    unresolved = list(entries)
    while unresolved:
        progress = False
        pending = []
        for s, p, q in unresolved:
            missing = (beta[s] is None) + (phi[p] is None) + (psi[q] is None)
            if missing == 0:
                continue
            if missing == 1:
                if beta[s] is None:
                    beta[s] = chi[s, p, q] / (phi[p] * psi[q])
                elif phi[p] is None:
                    phi[p] = chi[s, p, q] / (beta[s] * psi[q])
                else:
                    psi[q] = chi[s, p, q] / (beta[s] * phi[p])
                progress = True
            else:
                pending.append((s, p, q))
        if not progress:
            if not pending:
                break
            s, p, q = max(pending, key=lambda e: weight[e])
            if beta[s] is None:
                beta[s] = 1.0 + 0j
            if phi[p] is None and psi[q] is None:
                phi[p] = 1.0 + 0j
        unresolved = pending

    beta = np.array([1.0 + 0j if z is None else z for z in beta])
    phi = np.array([1.0 + 0j if z is None else z for z in phi])
    psi = np.array([1.0 + 0j if z is None else z for z in psi])
    for s, p, q in entries:
        if abs(chi[s, p, q] - beta[s] * phi[p] * psi[q]) > tol:
            return None
    return beta, phi, psi


# Exact LU pairs.  A complex matrix or tensor of rationals is a pair (re, im)
# of object arrays of Fractions; numpy's dot and tensordot add and multiply
# them exactly.


def _exact(array):
    """A numpy array of integers or rationals as an object array of Fractions."""
    return np.vectorize(Fraction, otypes=[object])(array)


def _inverse(m):
    """Exact inverse of a square object array of Fractions, by Gauss-Jordan."""
    n = len(m)
    aug = np.concatenate([m, _exact(np.eye(n, dtype=int))], axis=1)
    for col in range(n):
        pivot = next(row for row in range(col, n) if aug[row, col] != 0)
        aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] = aug[col] / aug[col, col]
        for row in range(n):
            if row != col and aug[row, col] != 0:
                aug[row] = aug[row] - aug[row, col] * aug[col]
    return aug[:, n:]


def cayley_unitary(skew):
    """The exact unitary (I - A)(I + A)^-1 of a skew-Hermitian Gaussian-integer A.

    Computed in the real form [[X, -Y], [Y, X]] of X + iY: A's is real
    antisymmetric, so I + A is invertible, and the form carries products and
    inverses over.  Returns the pair (re, im) of object arrays of Fractions.
    """
    d = len(skew)
    x, y = skew.real.astype(int), skew.imag.astype(int)
    form = _exact(np.block([[x, -y], [y, x]]))
    eye = _exact(np.eye(2 * d, dtype=int))
    u = (eye - form).dot(_inverse(eye + form))
    return u[:d, :d], u[d:, :d]


def _mode_product(u, tensor, axis):
    """Exactly, the pair (re, im) ``u`` applied to ``axis`` of the pair ``tensor``."""

    def dot(x, y):
        return np.moveaxis(np.tensordot(x, y, axes=(1, axis)), 0, axis)

    (ur, ui), (tr, ti) = u, tensor
    return dot(ur, tr) - dot(ui, ti), dot(ur, ti) + dot(ui, tr)


def _rounded(pair):
    """An exact pair (re, im) rounded to complex doubles, each part once."""
    out = np.empty(pair[0].shape, dtype=complex)
    out.real, out.imag = (np.vectorize(float, otypes=[float])(part) for part in pair)
    return out


def exact_lu_pair(tensor, skews):
    """A Gaussian-integer tensor and its image under exact Cayley unitaries.

    ``tensor`` is a complex array of integer parts; ``skews`` holds one
    skew-Hermitian Gaussian-integer matrix per party.  Both tensors are
    divided by one rational close to the first's norm, so they are states,
    and rounded to float only then: the pair's sole error is that rounding.
    """
    scale = Fraction(math.sqrt(int(np.sum(tensor.real**2 + tensor.imag**2))))
    first = (_exact(tensor.real.astype(int)), _exact(tensor.imag.astype(int)))
    second = first
    for axis, skew in enumerate(skews):
        second = _mode_product(cayley_unitary(skew), second, axis)
    return tuple(
        TripartiteState(_rounded((re / scale, im / scale))) for re, im in (first, second)
    )


def gaussian_skew(rng, d, bound=2):
    """A d x d skew-Hermitian matrix B - B^dagger with Gaussian-integer B."""
    re, im = rng.integers(-bound, bound + 1, (2, d, d))
    return (re - re.T) + 1j * (im + im.T)


def straddle_state(d, rng):
    """A d^3 Schmidt state whose d - 1 small values straddle the deflation
    threshold of its cuts, rotated by random local unitaries.

    A d x d^2 cut keeps its Gram spectrum where delta / sigma, delta =
    (d + d^2) eps sigma_1^2, is within the default ``spectra`` tolerance,
    so at sigma above t = (d + d^2) eps / tolerance.  The state is
    sum_i s_i |iii> with s_2..s_d = t (1 + U(-w, w)) for a spread w =
    10^U(-6, -2), and s_1 = sqrt(1 - sum of their squares).
    """
    t = (d + d * d) * np.finfo(float).eps / DEFAULT_TOLERANCES.spectra
    spread = 10.0 ** rng.uniform(-6, -2)
    tail = t * (1 + rng.uniform(-spread, spread, d - 1))
    amps = np.zeros((d, d, d), dtype=complex)
    amps[np.arange(d), np.arange(d), np.arange(d)] = [
        math.sqrt(1 - np.sum(tail**2)),
        *tail,
    ]
    factors = (random_unitary(d, rng) for _ in range(3))
    return apply_local_unitaries(TripartiteState(amps), *factors)
