"""Default numerical tolerances shared across the package."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

#: Largest allowed deviation of a state's squared norm from one.
NORM_TOL = 1e-12

#: Largest allowed max-entry deviation of U @ U† from the identity.
UNITARITY_TOL = 1e-10

#: Largest allowed entrywise deviation between two singular spectra.
SPECTRA_TOL = 1e-9

#: Largest allowed Frobenius/vector residual for a verified certificate.
RECON_TOL = 1e-9

#: Realignment defect (sigma2/sigma1) below which a matrix counts as a
#: Kronecker product.
RANK1_TOL = 1e-8

#: Default absolute tolerance when comparing invariant vectors.
INVARIANT_TOL = 1e-9

#: Relative singular-value threshold for numerical rank.
RANK_REL_TOL = 1e-8


@dataclass(frozen=True)
class Tolerances:
    """Bundle of the tolerances used by the equivalence decision pipeline.

    All comparisons are absolute; every quantity involved lives in [0, 1]
    up to a dimension factor.  Every field must be finite and positive: a
    negative tolerance refutes equal spectra, an infinite one certifies any
    pair.
    """

    unitarity: float = UNITARITY_TOL
    spectra: float = SPECTRA_TOL
    reconstruction: float = RECON_TOL

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{field.name} tolerance must be finite and > 0: {value}")


DEFAULT_TOLERANCES = Tolerances()
