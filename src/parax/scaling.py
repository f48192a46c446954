"""The expansion parameter eta of physical scaling mode.

Everything downstream (field chain, particle push) works in dimensionless
beam-frame variables.  A physical-mode config gives the characteristic
particle velocity vbar in SI units, and eta = vbar / c.
"""

from __future__ import annotations

import logging

log = logging.getLogger(__name__)

SPEED_OF_LIGHT = 299792458.0  # [m/s]

# Asymptotic regime is only formally justified for eta << 1; above this we warn.
ETA_WARN_THRESHOLD = 0.3


def compute_scaling(vbar: float) -> float:
    """eta = vbar / c for a characteristic particle velocity vbar [m/s].

    Raises ValueError unless 0 < vbar < c, and logs a warning on the
    ``parax.scaling`` logger when eta exceeds ETA_WARN_THRESHOLD.
    """
    if not 0.0 < vbar < SPEED_OF_LIGHT:
        raise ValueError("non-relativistic scaling requires 0 < vbar < c")
    eta = vbar / SPEED_OF_LIGHT
    if eta > ETA_WARN_THRESHOLD:
        log.warning("eta = %.3g > %g: asymptotic regime questionable",
                    eta, ETA_WARN_THRESHOLD)
    return eta
