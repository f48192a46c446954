"""The expansion parameter eta and its scaling modes.

Everything downstream (field chain, particle push) works in dimensionless
beam-frame variables.  A dimensionless-mode config gives eta itself; a
physical-mode config gives the characteristic particle velocity vbar in SI
units, and eta = vbar / c.
"""

from __future__ import annotations

import logging

log = logging.getLogger(__name__)

SPEED_OF_LIGHT = 299792458.0  # [m/s]

# Asymptotic regime is only formally justified for eta << 1; above this we warn.
ETA_WARN_THRESHOLD = 0.3


def check_eta(eta: float) -> float:
    """Return ``eta``, logging a warning on the ``parax.scaling`` logger when
    it exceeds ETA_WARN_THRESHOLD."""
    if eta > ETA_WARN_THRESHOLD:
        log.warning("eta = %.3g > %g: asymptotic regime questionable",
                    eta, ETA_WARN_THRESHOLD)
    return eta


def compute_scaling(vbar: float) -> float:
    """eta = vbar / c for a characteristic particle velocity vbar [m/s].

    Raises ValueError unless 0 < vbar < c, and warns as :func:`check_eta`.
    """
    if not 0.0 < vbar < SPEED_OF_LIGHT:
        raise ValueError("non-relativistic scaling requires 0 < vbar < c")
    return check_eta(vbar / SPEED_OF_LIGHT)
