"""Default numerical tolerances shared across the package."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

#: Largest allowed deviation of a state's squared norm from one.
NORM_TOL = 1e-12

#: Realignment defect (sigma2/sigma1) below which a matrix counts as a
#: Kronecker product.
RANK1_TOL = 1e-8


def check_tolerance(name: str, value: float) -> float:
    """Return ``value`` if it is finite and > 0, else raise ``ValueError``.

    A negative tolerance refutes equal quantities, an infinite one accepts
    any pair.
    """
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value}")
    return value


@dataclass(frozen=True)
class Tolerances:
    """Bundle of the tolerances used by the equivalence decision pipeline.

    All comparisons are absolute; every quantity involved lives in [0, 1]
    up to a dimension factor.  Every field must pass :func:`check_tolerance`.
    """

    #: Largest allowed max-entry deviation of U @ U† from the identity.
    unitarity: float = 1e-10
    #: Largest allowed entrywise deviation between two singular spectra.
    spectra: float = 1e-9
    #: Largest allowed Frobenius/vector residual for a verified certificate.
    reconstruction: float = 1e-9

    def __post_init__(self) -> None:
        for field in fields(self):
            check_tolerance(f"{field.name} tolerance", getattr(self, field.name))


DEFAULT_TOLERANCES = Tolerances()
