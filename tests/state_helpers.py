"""Scalar state oracles for tests: the lab itself never compares two states, mixes
states into a density matrix, or scores a two-outcome measurement one state at a time."""

import numpy as np

from hlpuf_lab.qstate import ATOL, DensityMatrix


def same_state(a, b, atol: float = ATOL) -> bool:
    """Equality of two PureStates up to global phase: |<a|b>|^2 = 1."""
    if a.dim != b.dim:
        return False
    return abs(float(np.abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2) - 1.0) <= atol


def mixture(states) -> DensityMatrix:
    """Convex mixture sum_i p_i |psi_i><psi_i| from (PureState, probability) pairs."""
    states = list(states)
    if not states:
        raise ValueError("mixture of nothing")
    probs = np.array([p for _, p in states], dtype=float)
    if np.any(probs < -ATOL):
        raise ValueError("negative probability")
    if abs(float(probs.sum()) - 1.0) > ATOL:
        raise ValueError(f"probabilities sum to {float(probs.sum())!r}, expected 1")
    dim = states[0][0].dim
    acc = np.zeros((dim, dim), dtype=complex)
    for psi, p in states:
        if psi.dim != dim:
            raise ValueError("dimension mismatch in mixture")
        acc += p * psi.outer()
    return DensityMatrix(acc)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """(1/2)||a - b||_1 via the Hermitian spectrum of the difference."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    eig = np.linalg.eigvalsh(a.entries - b.entries)
    return 0.5 * float(np.sum(np.abs(eig)))


def helstrom_success(a: DensityMatrix, b: DensityMatrix, prior_a: float) -> float:
    """Optimal probability of discriminating a (prior prior_a) from b (prior 1-prior_a).

    Equals (1/2)(1 + ||prior_a*a - (1-prior_a)*b||_1).
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    if not 0.0 <= prior_a <= 1.0:
        raise ValueError("prior_a must lie in [0, 1]")
    eig = np.linalg.eigvalsh(prior_a * a.entries - (1.0 - prior_a) * b.entries)
    return 0.5 * (1.0 + float(np.sum(np.abs(eig))))


def probability_a(meas, state) -> float:
    """Probability of a TwoOutcomeMeasurement's outcome 0 (hypothesis a) on a PureState."""
    amps = meas.basis.conj().T @ state.amplitudes
    return float(np.sum(np.abs(amps[meas.labels == 0]) ** 2))
