"""Pure tripartite states, their matricizations, and local-unitary action.

:func:`cut_svd` is the one factorisation of a state's cuts."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .tolerances import DEFAULT_TOLERANCES, NORM_TOL


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
    """Reshape the amplitude tensor into the bipartite matrix of ``cut``.

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
    A wide cut a, d x c with c >= 2 d and d c >= 512, is factored through
    the R of a^t = Q R (Chan's R-SVD): a = R^t Q^t and Q^t has orthonormal
    rows, so the SVD of the d x d factor R^t gives the left vectors and
    spectrum of a, and the c x d right factor is never formed.  Smaller or squarer cuts
    take one SVD, where LAPACK's extra call costs more than it saves (the
    crossover measured with one BLAS thread: QR lost at 8 x 32, 12 x 24 and
    32 x 32, tied at 16 x 32, won at 2 x 256, 4 x 128, 8 x 64 and 12 x 144).
    Only a cut with more rows than columns needs the full left factor.  The
    states' matrices are stacked into one call per factorisation: numpy
    factors a stack one matrix at a time with the same LAPACK routine and
    workspace, so every state gets the bits it gets alone.  That saves the
    per-call overhead up to 16^3; from 24^3 up the larger buffers cost
    10-35 % more (one BLAS thread), which the decision's closed-form phase
    start more than repays.
    """
    a = unfold(amplitudes, tuple(Cut).index(cut))
    rows, cols = a.shape[1:]
    if cols >= 2 * rows and rows * cols >= 512:
        a = np.linalg.qr(a.swapaxes(-1, -2), mode="r").swapaxes(-1, -2)
    vecs, spectra, _ = np.linalg.svd(a, full_matrices=rows > cols)
    return vecs, spectra


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
