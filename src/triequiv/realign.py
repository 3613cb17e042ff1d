"""Realignment map and Kronecker-product factorization.

A matrix U on an (m*n)-dimensional product space is a Kronecker product
X (x) Y exactly when its realignment has rank one; the best rank-one
truncation of the realignment therefore yields the nearest Kronecker
product in Frobenius norm, and for unitary U it recovers unitary factors
after rescaling.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .states import unitarity_defect
from .tolerances import DEFAULT_TOLERANCES, RANK1_TOL


def vec(a: np.ndarray) -> np.ndarray:
    """Column-stacked entries of a matrix: (a11, ..., am1, a12, ..., amn)."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got {a.ndim} axes")
    return a.flatten(order="F")


def unvec(w: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec` for a rows x cols matrix."""
    w = np.asarray(w)
    if w.size != rows * cols:
        raise ValueError(f"vector of length {w.size} cannot fill {rows}x{cols}")
    return w.reshape((rows, cols), order="F")


def realign(z: np.ndarray, m: int, n: int) -> np.ndarray:
    """Realign an (m*n) x (m*n) matrix viewed as an m x m grid of n x n blocks.

    Row r = j*m + i of the result is vec(Z_ij), i.e. blocks are consumed down
    each block column first.  The map is an entry permutation, hence a
    Frobenius-norm isometry, and realign(X (x) Y) = vec(X) vec(Y)^t.
    """
    z = np.asarray(z, dtype=np.complex128)
    if z.shape != (m * n, m * n):
        raise ValueError(f"expected shape ({m * n}, {m * n}), got {z.shape}")
    blocks = z.reshape(m, n, m, n)  # [i, a, j, b] = Z[i*n + a, j*n + b]
    return np.ascontiguousarray(blocks.transpose(2, 0, 3, 1).reshape(m * m, n * n))


@dataclass(frozen=True)
class KronFactorization:
    """Nearest Kronecker factorization U ~ X (x) Y of an (m*n) x (m*n) matrix.

    ``defect`` is sigma2/sigma1 of the realigned matrix: zero exactly for
    Kronecker products, one for maximally non-decomposable inputs.
    ``decomposable`` is ``defect <= RANK1_TOL``; a caller who wants another
    threshold compares it with ``defect``.  For a unitary input that is
    decomposable, ``scale`` is the positive constant k with X X† = I/k, so
    sqrt(k) X and Y / sqrt(k) are the unitary factors.
    """

    x: np.ndarray
    y: np.ndarray
    scale: float
    defect: float
    decomposable: bool

    def product(self) -> np.ndarray:
        """The Kronecker product X (x) Y."""
        return np.kron(self.x, self.y)

    def unitary_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """Rescaled factors (sqrt(k) X, Y / sqrt(k)); unitary when U was."""
        root = np.sqrt(self.scale)
        return root * self.x, self.y / root


def kron_factorize(u: np.ndarray, m: int, n: int) -> KronFactorization:
    """Best Frobenius-norm approximation of U by a single Kronecker product.

    Takes the dominant singular triple of the realigned matrix; since
    realignment is an isometry this is optimal over all X (x) Y.  The scalar
    ambiguity (cX) (x) (Y/c) is fixed by balancing ||X||_F = ||Y||_F and
    making the largest-magnitude entry of X real and positive.
    """
    u = np.asarray(u, dtype=np.complex128)
    tilde = realign(u, m, n)
    w, s, vh = np.linalg.svd(tilde)
    if s[0] == 0.0:
        return KronFactorization(
            x=np.zeros((m, m), dtype=np.complex128),
            y=np.zeros((n, n), dtype=np.complex128),
            scale=1.0,
            defect=0.0,
            decomposable=True,
        )
    defect = float(s[1] / s[0]) if s.size > 1 else 0.0
    root = np.sqrt(s[0])
    x = unvec(root * w[:, 0], m, m)
    y = unvec(root * vh[0, :], n, n)

    pivot = x.flat[np.argmax(np.abs(x))]
    phase = pivot / abs(pivot)
    x = x * phase.conjugate()
    y = y * phase

    # ||X||_F^2 equals sigma1, so for decomposable unitaries k = m / sigma1.
    scale = m / float(s[0])
    return KronFactorization(
        x=x, y=y, scale=scale, defect=defect, decomposable=defect <= RANK1_TOL
    )


def is_unitarily_decomposable(u: np.ndarray, m: int, n: int) -> KronFactorization:
    """Test whether a unitary U factors as a Kronecker product of unitaries.

    Non-unitary input is rejected with ``ValueError`` (a caller bug, distinct
    from a unitary that merely fails to factor).  On a rank-one realignment
    the rescaled factors are verified to be unitary and to reproduce U within
    ``DEFAULT_TOLERANCES``; any verification failure downgrades the result to
    not-decomposable while keeping the diagnostic defect.
    """
    tols = DEFAULT_TOLERANCES
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (m * n, m * n):
        raise ValueError(f"expected shape ({m * n}, {m * n}), got {u.shape}")
    defect = unitarity_defect(u)
    if defect > tols.unitarity:
        raise ValueError(
            f"input is not unitary (defect {defect:.3e} > {tols.unitarity})"
        )
    f = kron_factorize(u, m, n)
    if not f.decomposable:
        return f
    u1, u2 = f.unitary_factors()
    residual = float(np.linalg.norm(u - f.product()))
    if (
        unitarity_defect(u1) > tols.unitarity
        or unitarity_defect(u2) > tols.unitarity
        or residual > tols.reconstruction
    ):
        return dataclasses.replace(f, decomposable=False)
    return f
