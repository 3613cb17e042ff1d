"""Pure tripartite states, their matricizations, and local-unitary action.

:func:`cut_svd` is the one factorisation of a state's cuts: one ``eigh`` of
each cut's Gram matrix, the party's reduction, with a QR/SVD route for the
cuts whose Gram spectrum cannot vouch for its own accuracy, and
:func:`cut_rounding` a bound on the rounding of the spectra it returns."""

from __future__ import annotations

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


def cut_svd(amplitudes: np.ndarray, cut: Cut) -> tuple[np.ndarray, np.ndarray]:
    """Left singular vectors and singular values of one cut of a stack of states.

    The one factorisation of a state's cuts.  ``amplitudes`` stacks the
    states' (K, M, N) tensors along a first axis; returns two stacks, one
    entry per state: the d x d left vectors and the descending spectrum.
    The Gram matrix a a^dagger of the cut a, d x c, is party p's reduction;
    its ``eigh``, reversed, gives the left vectors and sigma_i =
    sqrt(max(lambda_i, 0)).  A state whose Gram spectrum :func:`gram_delta`
    sends back, as every cut with more rows than columns and every
    rank-deficient cut is, takes the QR/SVD route instead.  The amplitudes
    alone decide the route, so the spectra and power sums that callers print
    depend on no tolerance.  On that route a wide cut, c >= 2 d and d c >=
    512, takes the SVD of the d x d factor R^t of a^t = Q R (Chan's R-SVD;
    with one BLAS thread QR lost at 8 x 32, 12 x 24 and 32 x 32, tied at
    16 x 32, won at 2 x 256, 4 x 128, 8 x 64 and 12 x 144, and a plain SVD
    made rank-deficient decisions from 12^3 to 64^3 1.3 to 3 times slower),
    any other cut one SVD, full only for a cut with more rows than columns.
    Numpy factors a stack one matrix at a time with the same LAPACK routine
    and workspace, so every state gets the bits it gets alone.
    """
    a = unfold(amplitudes, tuple(Cut).index(cut))
    shape = rows, cols = a.shape[1:]
    if rows <= cols:
        values, vecs = np.linalg.eigh(a @ a.conj().swapaxes(-1, -2))
        vecs, spectra = vecs[..., ::-1], np.sqrt(np.maximum(values[..., ::-1], 0.0))
        ends = zip(spectra[:, 0].tolist(), spectra[:, -1].tolist())
        fall = [i for i, end in enumerate(ends) if gram_delta(*end, shape) is None]
        if not fall:
            return vecs, spectra
        a = a[fall]
    if cols >= 2 * rows and rows * cols >= 512:
        a = np.linalg.qr(a.swapaxes(-1, -2), mode="r").swapaxes(-1, -2)
    left, values, _ = np.linalg.svd(a, full_matrices=rows > cols)
    if rows > cols:
        return left, values
    vecs[fall], spectra[fall] = left, values
    return vecs, spectra


def gram_delta(top: float, low: float, shape: tuple[int, int]) -> float | None:
    """Eigenvalue rounding delta of a Gram spectrum that :func:`cut_svd` keeps.

    delta = (rows + cols) eps sigma_1^2 for sigma_1 = ``top``, derived in
    :func:`cut_rounding`.  None, so that the cut takes the QR/SVD route,
    when the cut has more rows than columns or the allowance min(sqrt(delta),
    delta / ``low``) at its smallest singular value exceeds
    ``DEFAULT_TOLERANCES.spectra``.  On Python floats: numpy calls on one
    value per state cost more than the test saves.
    """
    delta = sum(shape) * _EPS * top * top
    if shape[0] > shape[1] or delta > DEFAULT_TOLERANCES.spectra * max(
        low, math.sqrt(delta)
    ):
        return None
    return delta


def cut_rounding(spectrum: np.ndarray, shape: tuple[int, int]) -> float:
    """Bound on the rounding of a :func:`cut_svd` spectrum of a cut, at any index.

    The QR/SVD route is backward stable.  The SVD returns the exact spectrum
    of a + E.  The QR route returns the exact SVD U S W^dagger of R^t + E_2,
    where a^t + E_1 = Q R is the Householder QR (Higham, Accuracy and
    Stability of Numerical Algorithms, Thm. 19.4) and E_2 the backward error
    of the small SVD; as Q^t has orthonormal rows, U S (W^dagger Q^t) is an
    SVD of a + E for E = E_1^t + E_2 Q^t.  By Weyl's inequality each singular
    value then moves by at most ||E||_2 <= ||E_1||_2 + ||E_2||_2, and the
    worst-case bounds on that over eps sigma_1 are low-degree polynomials in
    rows and cols; (rows + cols) eps sigma_1 is the allowance taken.

    The Gram route squares first.  The computed G' = a a^dagger + E_1 has
    |E_1| <= gamma_c |a| |a|^dagger entrywise for a cut of c columns
    (Higham, Sec. 3.5), of order c eps sigma_1^2 in norm, and ``eigh``
    returns the exact eigenvalues of G' + E_2, ||E_2||_2 of order d eps
    ||G||_2 = d eps sigma_1^2 (Householder tridiagonalisation, Thm. 19.4
    again).  By Weyl's inequality for Hermitian matrices each eigenvalue then
    moves by at most ||E_1||_2 + ||E_2||_2; delta = (rows + cols) eps
    sigma_1^2 is the allowance taken.  For sigma_i = sqrt(lambda_i) and
    sigma'_i = sqrt(max(lambda'_i, 0)), |sigma_i - sigma'_i| =
    |lambda_i - lambda'_i| / (sigma_i + sigma'_i) <= delta / sigma'_i, and
    |sigma_i - sigma'_i| <= sqrt|lambda_i - lambda'_i| <= sqrt(delta), so
    index i gets min(sqrt(delta), delta / sigma'_i): sharp for large sigma,
    loose near zero, and largest at the smallest sigma'_i, the bound
    returned.  Measured: on every shape, tall cuts and dimensions of 1
    included, Gram spectra stayed within 0.61 of the per-index allowance of
    an SVD's spectrum.

    The route is not passed in, and the bound needs none: a spectrum that
    :func:`gram_delta` sends back came from the QR/SVD route and gets that
    route's allowance; any other gets the Gram allowance, which is never
    below it, so it bounds the rounding of either route.  On Python floats.
    """
    top, low = spectrum.item(0), spectrum.item(-1)
    delta = gram_delta(top, low, shape)
    if delta is None:
        return sum(shape) * _EPS * top
    return delta / max(low, math.sqrt(delta))


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
    out = np.einsum("ia,jb,kc,abc->ijk", u1, u2, u3, state.amplitudes, optimize=True)
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
