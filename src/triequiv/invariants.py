"""Unitary-invariant spectral quantities of single-cut reductions."""

from __future__ import annotations

import numpy as np

from .states import Cut, TripartiteState, cut_svd, reduced_density

#: Imaginary residue above which a nominally real invariant is rejected.
_IMAG_TOL = 1e-12


def singular_spectrum(state: TripartiteState, cut: Cut) -> np.ndarray:
    """Descending singular values of the cut's matricization, from :func:`cut_svd`.

    The squares are the eigenvalues of the corresponding reduced density
    operator, so they sum to one for a normalized state.
    """
    return cut_svd(state.amplitudes[None], cut)[1][0]


def power_sums(spectra, max_order: int) -> list[tuple[float, ...]]:
    """Tr(rho^alpha), alpha = 1..max_order: one tuple per cut's singular values in ``spectra``.

    Each sum has the bits of ``np.sum(np.square(s) ** a)``: all squares are raised
    once per order by a scalar exponent (numpy's ``pow`` with an array of exponents
    rounds differently), then summed per spectrum.  The reports print min(K, M, N)
    orders, which need not fix the spectrum: cut p has up to min(d_p, KMN/d_p)
    eigenvalues (max_order = d_p fixes it).
    """
    lam = np.square(np.concatenate(spectra))
    powers = np.array([lam**a for a in range(1, max_order + 1)]).reshape(max_order, lam.size)
    blocks = np.split(powers, np.cumsum([len(s) for s in spectra[:-1]]), axis=1)
    return [tuple(block.sum(axis=1).tolist()) for block in blocks]


def power_sum_invariants(
    state: TripartiteState, cut: Cut, max_order: int | None = None
) -> tuple[float, ...]:
    """:func:`power_sums` of the cut's reduction; max_order defaults to min(K, M, N)."""
    if max_order is None:
        max_order = min(state.dims)
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    return power_sums([singular_spectrum(state, cut)], max_order)[0]


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
