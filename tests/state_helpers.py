"""State comparison for tests: the lab itself never compares two states."""

import numpy as np

from hlpuf_lab.qstate import ATOL


def same_state(a, b, atol: float = ATOL) -> bool:
    """Equality of two PureStates up to global phase: |<a|b>|^2 = 1."""
    if a.dim != b.dim:
        return False
    return abs(float(np.abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2) - 1.0) <= atol
