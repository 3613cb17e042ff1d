"""Unitary-invariant spectral quantities of single-cut reductions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import Cut, TripartiteState, cut_svd, reduced_density
from .tolerances import INVARIANT_TOL, check_tolerance

#: Imaginary residue above which a nominally real invariant is rejected.
_IMAG_TOL = 1e-12


@dataclass(frozen=True)
class InvariantVector:
    """Power sums Tr(rho^alpha), alpha = 1..max_order, for one cut's reduction."""

    cut: Cut
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("invariant vector must hold at least order 1")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    @property
    def max_order(self) -> int:
        return len(self.values)

    def value(self, alpha: int) -> float:
        """Power sum of order ``alpha`` (1-based)."""
        if not 1 <= alpha <= self.max_order:
            raise ValueError(f"order {alpha} outside 1..{self.max_order}")
        return self.values[alpha - 1]


def singular_spectrum(state: TripartiteState, cut: Cut) -> np.ndarray:
    """Descending singular values of the cut's matricization, from :func:`cut_svd`.

    The squares are the eigenvalues of the corresponding reduced density
    operator, so they sum to one for a normalized state.
    """
    return cut_svd(state.amplitudes[None], cut)[1][0]


def power_sums(spectrum, max_order: int) -> tuple[float, ...]:
    """Tr(rho^alpha), alpha = 1..max_order, from the singular values of rho's cut."""
    return tuple(float(np.sum(np.square(spectrum) ** a)) for a in range(1, max_order + 1))


def power_sum_invariants(
    state: TripartiteState, cut: Cut, max_order: int | None = None
) -> InvariantVector:
    """Power sums Tr(rho^alpha) of the cut's reduction, alpha = 1..max_order.

    Defaults to max_order = min(K, M, N).
    """
    if max_order is None:
        max_order = min(state.dims)
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    values = power_sums(singular_spectrum(state, cut), max_order)
    return InvariantVector(cut=cut, values=values)


def invariants_equal(
    v: InvariantVector, w: InvariantVector, tol: float = INVARIANT_TOL
) -> bool:
    """True when two invariant vectors of the same cut agree entrywise within tol."""
    check_tolerance("tol", tol)
    if v.cut is not w.cut:
        raise ValueError(f"cut mismatch: {v.cut} vs {w.cut}")
    if v.max_order != w.max_order:
        raise ValueError(f"length mismatch: {v.max_order} vs {w.max_order}")
    return max(abs(a - b) for a, b in zip(v.values, w.values)) <= tol


def check_nested(outer: int, inner: int, alpha: int, beta: int) -> None:
    """Raise ``ValueError`` unless :func:`nested_invariant` accepts these arguments."""
    if inner == outer:
        raise ValueError("inner and outer subsystems must differ")
    for name, label in (("outer", outer), ("inner", inner)):
        if label not in (1, 2, 3):
            raise ValueError(f"{name} subsystem must be 1, 2, or 3, got {label}")
    if alpha < 1 or beta < 1:
        raise ValueError(f"powers must be >= 1, got alpha={alpha}, beta={beta}")


def nested_invariant(
    state: TripartiteState, outer: int, inner: int, alpha: int, beta: int
) -> float:
    """Tr( Tr_outer( (Tr_inner |psi><psi|)^alpha ) )^beta.

    ``inner`` and ``outer`` are 1-based subsystem labels; ``inner`` is traced
    out first from the full projector, the result is raised to ``alpha``,
    then ``outer`` is traced out of what remains and the result raised to
    ``beta`` before the final trace.
    """
    check_nested(outer, inner, alpha, beta)
    # Tr_inner |psi><psi| on the other two parties, in their order.
    rho = reduced_density(state, tuple(Cut)[inner - 1])
    d1, d2 = (d for party, d in enumerate(state.dims, 1) if party != inner)
    mat = np.linalg.matrix_power(rho, alpha)
    axis = sorted({1, 2, 3} - {inner}).index(outer)
    reduced = np.trace(mat.reshape(d1, d2, d1, d2), axis1=axis, axis2=axis + 2)

    out = np.trace(np.linalg.matrix_power(reduced, beta))
    if abs(out.imag) > _IMAG_TOL:
        raise ArithmeticError(f"invariant has imaginary residue {out.imag:.3e}")
    return float(out.real)
