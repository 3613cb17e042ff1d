"""Pure tripartite states, their matricizations, and local-unitary action.

:func:`cut_svd` is the one factorisation of a state's cuts: one ``eigh`` of
each cut's Gram matrix, the party's reduction, and one more of each tail of
that spectrum that the first cannot vouch for, with a bound on the rounding
of the spectra it returns."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .tolerances import DEFAULT_TOLERANCES, NORM_TOL

_EPS = np.finfo(float).eps


class Cut(Enum):
    """Bipartition of the three subsystems into one row side and a column pair."""

    A = "A"  # rows: first subsystem,  columns: second x third
    B = "B"  # rows: second subsystem, columns: first x third
    C = "C"  # rows: third subsystem,  columns: first x second


@dataclass(frozen=True, eq=False)
class TripartiteState:
    """Normalized pure state of a K x M x N system.

    Amplitudes are stored as a complex (K, M, N) tensor, zero-based; the
    tensor is validated and frozen at construction time.  All operations in
    this module are pure functions of such values, so instances are safe to
    share between threads.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=np.complex128, copy=True)
        if amps.ndim != 3:
            raise ValueError(f"amplitude tensor must have 3 axes, got {amps.ndim}")
        if min(amps.shape) < 1:
            raise ValueError(f"all dimensions must be positive, got {amps.shape}")
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes are not finite")
        with np.errstate(over="ignore"):
            sq_norm = float(np.sum(np.abs(amps) ** 2))
        if abs(sq_norm - 1.0) > NORM_TOL:
            raise ValueError(
                f"state is not normalized: sum |a|^2 = {sq_norm!r} "
                f"(deviation {abs(sq_norm - 1.0):.3e} exceeds {NORM_TOL})"
            )
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dims(self) -> tuple[int, int, int]:
        """Subsystem dimensions (K, M, N)."""
        k, m, n = self.amplitudes.shape
        return k, m, n

    @classmethod
    def from_unnormalized(cls, amplitudes) -> "TripartiteState":
        """Build a state from a finite nonzero tensor via :func:`normalized`."""
        return cls(normalized(amplitudes)[0])


def normalized(amplitudes) -> tuple[np.ndarray, str]:
    """The tensor divided by its norm, and its sum |a|^2 as messages show it.

    The one normaliser: ``from_unnormalized`` and off-norm state files share
    it.  When sum |a|^2 is subnormal (its squares have lost bits), zero or
    overflows, the tensor is first divided by its largest real or imaginary
    part (Blue, ACM TOMS 4, 1978), the parts apart because a complex division
    by a subnormal number overflows, and the sum is shown as ``s * scale^2``.
    Amplitudes that are not finite, or all zero, raise ``ValueError``.
    """
    amps = np.asarray(amplitudes, dtype=np.complex128)
    if not np.isfinite(amps).all():
        raise ValueError("amplitudes are not finite")
    with np.errstate(over="ignore"):
        sq_norm = float(np.sum(np.abs(amps) ** 2))
    shown = repr(sq_norm)
    if not np.finfo(float).tiny <= sq_norm < np.inf:
        scale = float(np.max(np.abs([amps.real, amps.imag]), initial=0.0))
        if scale == 0.0:
            raise ValueError("cannot normalize the zero state")
        amps = amps.real / scale + 1j * (amps.imag / scale)
        shown = f"{float(np.sum(np.abs(amps) ** 2))!r} * {scale!r}^2"
    return amps / np.linalg.norm(amps), shown


def matricize(state: TripartiteState, cut: Cut) -> np.ndarray:
    """Reshape the amplitude tensor into the matrix of ``cut``.

    Rows index the cut's single subsystem; columns run over the remaining
    pair in lexicographic order (second index of the pair fastest).  With
    zero-based indices the entry maps are::

        Cut.A: out[i, j*N + k] = a[i, j, k]      (K  x M*N)
        Cut.B: out[j, i*N + k] = a[i, j, k]      (M  x K*N)
        Cut.C: out[k, i*M + j] = a[i, j, k]      (N  x K*M)
    """
    return np.ascontiguousarray(unfold(state.amplitudes, tuple(Cut).index(cut)))


def unfold(tensor: np.ndarray, axis: int) -> np.ndarray:
    """A 3-axis tensor, or each of a stack of them, as a matrix.

    Rows index ``axis`` of the three, columns the other two in order; axes
    in front of the three are kept as stack axes.
    """
    axis += tensor.ndim - 3
    rest = [i for i in range(tensor.ndim) if i != axis]
    moved = tensor.transpose(*rest[:-2], axis, *rest[-2:])  # np.moveaxis: 4 us more
    return moved.reshape(*moved.shape[:-2], -1)


def cut_svd(amplitudes: np.ndarray, cut: Cut) -> tuple[np.ndarray, ...]:
    """Left singular vectors, spectra and rounding bounds of one cut of states.

    The one factorisation of a state's cuts.  ``amplitudes`` stacks the
    states' (K, M, N) tensors along a first axis; returns three stacks, one
    entry per state: the d x d left vectors and the descending spectrum of
    min(d, c) values, from the ``eigh`` of the Gram matrix a a^dagger of the
    cut a, d x c, party p's reduction: sigma_i = sqrt(max(lambda_i, 0)); and
    the spectrum's rounding bound at any index, from :func:`_deflate`, which
    first deflates the tails of a spectrum that :func:`gram_delta` refuses,
    as it does every rank-deficient one.  The amplitudes alone decide this,
    so printed spectra depend on no tolerance, and each state of a stack
    gets the bits it gets alone.
    """
    a = unfold(amplitudes, tuple(Cut).index(cut))
    values, vecs = np.linalg.eigh(a @ a.conj().swapaxes(-1, -2))
    values = values[..., ::-1][..., : min(a.shape[1:])]
    vecs, spectra = vecs[..., ::-1], np.sqrt(np.maximum(values, 0.0))
    bounds = [_deflate(*state) for state in zip(a, vecs, spectra)]
    return vecs, spectra, np.array(bounds)


def _deflate(a: np.ndarray, vecs: np.ndarray, spectrum: np.ndarray) -> float:
    """Deflate one cut's failing tails in place; bound the spectrum's rounding.

    Where :func:`gram_delta` accepts the spectrum, the bound is the Gram
    allowance delta / max(sigma_min, sqrt(delta)) and nothing is deflated.
    Otherwise the tail from the split k of :func:`_split` is deflated: Y =
    E_tail^dagger a for E_tail = vecs[:, k:], and the ``eigh`` W of Y
    Y^dagger rewrites E_tail as E_tail W and sigma from k on.  The new tail
    is deflated again until no index fails or its first one does.

    The computed G' = a a^dagger + E_1 has ||E_1|| of order c eps sigma_1^2
    for c columns (Higham, Accuracy and Stability of Numerical Algorithms,
    Sec. 3.5), and ``eigh`` returns the exact eigenvalues of G' + E_2,
    ||E_2|| of order d eps sigma_1^2 (Thm. 19.4); by Weyl's inequality
    delta = (rows + cols) eps sigma_1^2 bounds each eigenvalue's move.  As
    |sigma_i - sigma'_i| = |lambda_i - lambda'_i| / (sigma_i + sigma'_i) <=
    sqrt|lambda_i - lambda'_i|, a kept index gets min(sqrt(delta), delta /
    sigma'_i).  A tail deflated at k has the exact spectrum of Y Y^dagger =
    E_tail^dagger G E_tail up to three terms: the coupling X = E_top^dagger
    G E_tail, ||X|| <= delta, which moves it by min(||X||, ||X||^2 / eta) for
    the gap eta = sigma_(k-1)^2 - sigma_k^2 (Mathias, SIAM J. Matrix Anal.
    Appl. 19, 1998; Li & Li, Linear Algebra Appl. 395, 2005), so sigma by
    delta / sqrt(max(eta, delta)); Y's product rounding, (rows + cols) eps
    sigma_1; and the tail's own Gram allowance, with delta = (rows - k +
    cols) eps sigma_k^2.  Deeper tails add coupling and product again.  The
    largest, at the last index, is returned, summed over the splits this
    walk made.  Measured: Gram spectra within 0.61 of the kept allowance on
    every shape, deflated ones within 0.14 of this bound.
    """
    top, low = spectrum.item(0), spectrum.item(-1)
    delta = gram_delta(top, low, a.shape)
    if delta is not None:
        return delta / max(low, math.sqrt(delta))
    product, bound = sum(a.shape) * _EPS * top, 0.0
    start, (delta, k) = 0, _split(spectrum, a.shape, 0)
    while start < k < spectrum.size:
        tail = vecs[:, k:]
        y = tail.conj().T @ a
        values, w = np.linalg.eigh(y @ y.conj().T)
        vecs[:, k:] = tail @ w[:, ::-1]
        spectrum[k:] = np.sqrt(np.maximum(values[::-1][: spectrum.size - k], 0.0))
        eta = spectrum.item(k - 1) ** 2 - spectrum.item(k) ** 2
        bound += delta / math.sqrt(max(eta, delta)) + product
        start, (delta, k) = k, _split(spectrum, a.shape, k)
    return bound + (delta / max(spectrum.item(-1), math.sqrt(delta)) if delta else 0.0)


def _split(spectrum: np.ndarray, shape: tuple[int, int], start: int) -> tuple[float, int]:
    """Delta of the tail from ``start``, the Gram spectrum of a (rows - start)
    x cols matrix, and its first index that fails as in :func:`gram_delta`,
    moved down to a gap sigma_(k-1)^2 - sigma_k^2 > delta while k > start + 1,
    so that no tail starts inside a cluster that straddles the threshold."""
    top = spectrum.item(start)
    delta = (shape[0] - start + shape[1]) * _EPS * top * top
    kept = delta <= DEFAULT_TOLERANCES.spectra * np.maximum(
        spectrum[start:], math.sqrt(delta)
    )
    k = start + int(np.count_nonzero(kept))
    while start + 1 < k < spectrum.size and (
        spectrum.item(k - 1) ** 2 - spectrum.item(k) ** 2 <= delta
    ):
        k -= 1
    return delta, k


def gram_delta(top: float, low: float, shape: tuple[int, int]) -> float | None:
    """Eigenvalue rounding delta of a Gram spectrum that :func:`cut_svd` keeps whole.

    delta = (rows + cols) eps sigma_1^2 for sigma_1 = ``top``, derived in
    :func:`_deflate`.  None, so that the cut's tail is deflated, when the
    allowance min(sqrt(delta), delta / ``low``) at its smallest singular
    value exceeds ``DEFAULT_TOLERANCES.spectra``.  On Python floats: numpy
    calls on one value per state cost more than the test saves.
    """
    delta = sum(shape) * _EPS * top * top
    if delta > DEFAULT_TOLERANCES.spectra * max(low, math.sqrt(delta)):
        return None
    return delta


def reduced_density(state: TripartiteState, cut: Cut) -> np.ndarray:
    """Reduced density operator left after tracing out the cut's row subsystem.

    Computed as A^t A^* for A = ``matricize(state, cut)``; the result acts on
    the column pair, e.g. a (M*N) x (M*N) operator for ``Cut.A``.  It is
    Hermitian, positive semidefinite, and has unit trace.
    """
    a = matricize(state, cut)
    return a.T @ a.conj()


def unitarity_defect(u: np.ndarray) -> float:
    """Max-entry deviation of U @ U† from the identity (0 for exact unitaries)."""
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {u.shape}")
    return float(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))))


@functools.cache
def _lu_path(dims: tuple[int, int, int]) -> tuple:
    """numpy's greedy path for :func:`apply_local_unitaries`: it reads shapes alone."""
    operands = [np.empty((d, d)) for d in dims] + [np.empty(dims)]
    return tuple(np.einsum_path("ia,jb,kc,abc->ijk", *operands, optimize=True)[0])


def apply_local_unitaries(
    state: TripartiteState,
    u1: np.ndarray,
    u2: np.ndarray,
    u3: np.ndarray,
) -> TripartiteState:
    """Apply the product unitary u1 (x) u2 (x) u3 to the state.

    Each factor must be square of the matching subsystem dimension and
    unitary within ``DEFAULT_TOLERANCES.unitarity``; anything else is
    rejected.  The result is renormalized, since factors that pass the
    unitarity check may still scale the norm by more than ``NORM_TOL``.
    """
    factors = (u1, u2, u3)
    tol = DEFAULT_TOLERANCES.unitarity
    for pos, (mat, dim) in enumerate(zip(factors, state.dims), start=1):
        mat = np.asarray(mat)
        if mat.shape != (dim, dim):
            raise ValueError(
                f"factor {pos} has shape {mat.shape}, expected ({dim}, {dim})"
            )
        defect = unitarity_defect(mat)
        if defect > tol:
            raise ValueError(
                f"factor {pos} is not unitary (defect {defect:.3e} > {tol})"
            )
    path = _lu_path(state.dims)
    out = np.einsum("ia,jb,kc,abc->ijk", *factors, state.amplitudes, optimize=path)
    return TripartiteState.from_unnormalized(out)


def random_state(dims: tuple[int, int, int], seed=None) -> TripartiteState:
    """Random pure state: i.i.d. complex Gaussian amplitudes, normalized."""
    k, m, n = dims
    if min(dims) < 1:
        raise ValueError(f"dimensions must be positive, got {dims}")
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal((k, m, n)) + 1j * rng.standard_normal((k, m, n))
    return TripartiteState.from_unnormalized(amps)


def random_unitary(n: int, seed=None) -> np.ndarray:
    """Haar-style random n x n unitary from a QR-orthonormalized Gaussian matrix."""
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    # Fix column phases so the distribution is Haar rather than QR-dependent.
    phases = np.where(np.abs(d) > 0, d / np.abs(d), 1.0)
    return q * phases
