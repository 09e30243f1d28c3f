"""Exact quantum toolkit for pure states and density matrices of dimension 2/4/8.

Construction, Born-rule measurement, the optimal two-hypothesis (Helstrom)
measurement, and mutually unbiased basis families. Everything is dense
double-precision complex arithmetic; algebraic identities hold to ATOL, sampled
frequencies to Monte Carlo error. All values are immutable after construction
and randomness enters only through caller-supplied generators.
"""

from bisect import bisect_right
from functools import lru_cache

import numpy as np

ATOL = 1e-9

SUPPORTED_DIMS = (2, 4, 8)


class PureState:
    """Unit-norm complex state vector of dimension 2, 4 or 8."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes):
        amp = np.asarray(amplitudes, dtype=complex)
        if amp.ndim != 1 or amp.shape[0] not in SUPPORTED_DIMS:
            raise ValueError(f"amplitudes must be a vector of length in {SUPPORTED_DIMS}")
        norm2 = float(np.sum(np.abs(amp) ** 2))
        if abs(norm2 - 1.0) > ATOL:
            raise ValueError(f"state not normalized: |amp|^2 = {norm2!r}")
        amp = amp.copy()
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @classmethod
    def _wrap(cls, amplitudes: np.ndarray) -> "PureState":
        """A new state around a read-only vector already known to be a unit vector."""
        state = object.__new__(cls)
        object.__setattr__(state, "amplitudes", amplitudes)
        return state

    def __setattr__(self, name, value):
        raise AttributeError("PureState is immutable")

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def outer(self) -> np.ndarray:
        """Projector |psi><psi| as a plain ndarray."""
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def density(self) -> "DensityMatrix":
        return DensityMatrix(self.outer())

    def __repr__(self):
        return f"PureState({np.array2string(self.amplitudes, precision=6)})"


class DensityMatrix:
    """Hermitian, unit-trace, positive semidefinite matrix of dimension 2, 4 or 8."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        mat = np.asarray(entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] not in SUPPORTED_DIMS:
            raise ValueError(f"entries must be a square matrix with side in {SUPPORTED_DIMS}")
        if not np.allclose(mat, mat.conj().T, atol=ATOL, rtol=0.0):
            raise ValueError("matrix is not Hermitian")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > ATOL:
            raise ValueError(f"trace is {tr!r}, expected 1")
        if float(np.min(np.linalg.eigvalsh(mat))) < -ATOL:
            raise ValueError("matrix is not positive semidefinite")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


def bb84_state(bit: int, basis: int) -> PureState:
    """Conjugate-coding qubit: basis 0 gives {|0>,|1>}[bit], basis 1 gives {|+>,|->}[bit]."""
    if bit not in (0, 1) or basis not in (0, 1):
        raise ValueError("bit and basis must be 0 or 1")
    return bb84_family().basis_state(basis, bit)


class TwoOutcomeMeasurement:
    """Projective measurement realizing the Helstrom optimum for one state pair.

    ``basis`` holds orthonormal eigenvectors as columns; ``labels[i]`` maps
    column i to outcome 0 (hypothesis a) or 1 (hypothesis b).
    """

    __slots__ = ("basis", "labels")

    def __init__(self, basis: np.ndarray, labels: np.ndarray):
        self.basis = basis
        self.labels = labels


def helstrom_measurement(a: DensityMatrix, b: DensityMatrix,
                         prior_a: float = 0.5) -> TwoOutcomeMeasurement:
    """Projectors onto the nonnegative/negative eigenspaces of prior_a*a - (1-prior_a)*b.

    Zero eigenvalues count toward hypothesis a (deterministic tie-break; the
    success probability is unaffected). Measuring with it attains the Helstrom optimum
    (1/2)(1 + ||prior_a*a - (1-prior_a)*b||_1).
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    eig, vec = np.linalg.eigh(prior_a * a.entries - (1.0 - prior_a) * b.entries)
    labels = np.where(eig >= 0.0, 0, 1).astype(np.int8)
    return TwoOutcomeMeasurement(vec, labels)


def measure(state: PureState, basis: np.ndarray, rng: np.random.Generator):
    """Born-rule measurement in an orthonormal basis (columns of ``basis``).

    Returns (outcome index, post-measurement PureState = the outcome column).
    """
    basis = np.asarray(basis, dtype=complex)
    dim = state.dim
    if basis.shape != (dim, dim):
        raise ValueError("basis must be a square matrix matching the state dimension")
    if not np.allclose(basis.conj().T @ basis, np.eye(dim), atol=ATOL, rtol=0.0):
        raise ValueError("basis columns are not orthonormal")
    outcome = _draw(_born_cdf(basis.conj().T, state.amplitudes), rng)
    return outcome, PureState(basis[:, outcome])


def _born_cdf(adjoint: np.ndarray, amplitudes) -> np.ndarray:
    """The Born kernel: cumulative normalised |adjoint @ amplitudes|^2 (adjoint = basis^H)."""
    probs = np.abs(adjoint @ amplitudes) ** 2
    probs = probs / probs.sum()
    return np.cumsum(probs)


def _draw(cdf, rng: np.random.Generator) -> int:
    """One rng.random() draw against a Born CDF: the first index whose CDF exceeds it."""
    return min(bisect_right(cdf, rng.random()), len(cdf) - 1)


class MubFamily:
    """A list of pairwise mutually unbiased orthonormal bases of one dimension.

    The constructor refuses an invalid family, then builds, once,
    ``columns[theta, value]`` (the amplitudes of every basis state, never
    re-validated) and the Born CDF of every column in every family basis,
    which ``cdf(state, theta)`` returns in place of the kernel's output.
    """

    __slots__ = ("dim", "bases", "columns", "_adjoints", "_cdfs")

    def __init__(self, dim: int, bases):
        self.dim = dim
        self.bases = [np.asarray(b, dtype=complex) for b in bases]
        for b in self.bases:
            b.setflags(write=False)
        errs = self.check()
        if errs:
            raise ValueError("; ".join(errs))
        self.columns = np.ascontiguousarray(np.stack(self.bases).transpose(0, 2, 1))
        self.columns.setflags(write=False)
        self._adjoints = [b.conj().T for b in self.bases]
        # the kernel's own output for each column, keyed by its amplitude bytes
        self._cdfs = {col.tobytes(): [_born_cdf(adj, col).tolist() for adj in self._adjoints]
                      for col in self.columns.reshape(-1, dim)}

    def __len__(self):
        return len(self.bases)

    def check(self, atol: float = ATOL):
        """List of violated invariants (empty when the family is valid)."""
        errs = []
        eye = np.eye(self.dim)
        for t, b in enumerate(self.bases):
            if b.shape != (self.dim, self.dim):
                errs.append(f"basis {t} has wrong shape")
            elif not np.allclose(b.conj().T @ b, eye, atol=atol, rtol=0.0):
                errs.append(f"basis {t} is not unitary")
        target = 1.0 / self.dim
        for t1 in range(len(self.bases)):
            for t2 in range(t1 + 1, len(self.bases)):
                overlaps = np.abs(self.bases[t1].conj().T @ self.bases[t2]) ** 2
                dev = float(np.max(np.abs(overlaps - target)))
                if dev > atol:
                    errs.append(f"bases {t1},{t2} not unbiased (max deviation {dev:.3e})")
        return errs

    def cdf(self, state: PureState, theta: int):
        """The Born CDF of ``state`` in basis ``theta``, trusting the build-time check."""
        cdfs = self._cdfs.get(state.amplitudes.tobytes())
        if cdfs is None:  # not a family state
            return _born_cdf(self._adjoints[theta], state.amplitudes)
        return cdfs[theta]

    def measure(self, state: PureState, theta: int, rng: np.random.Generator) -> int:
        """``measure(state, self.bases[theta], rng)``'s outcome, drawn from ``cdf``."""
        return _draw(self.cdf(state, theta), rng)

    def basis_state(self, theta: int, index: int) -> PureState:
        """Column ``index`` of basis ``theta`` as a new PureState object."""
        return PureState._wrap(self.columns[theta, index])


_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
_CIRCULAR = np.array([[1.0, 1.0], [1.0j, -1.0j]], dtype=complex) / np.sqrt(2.0)


@lru_cache(maxsize=None)
def bb84_family() -> MubFamily:
    """The computational and Hadamard bases of one qubit (conjugate coding pair)."""
    return MubFamily(2, [np.eye(2, dtype=complex), _HADAMARD])


@lru_cache(maxsize=None)
def mub4_family() -> MubFamily:
    """All 5 mutually unbiased bases of dimension 4 (tensor construction)."""
    twist = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    bases = [
        np.eye(4, dtype=complex),
        np.kron(_HADAMARD, _HADAMARD),
        twist @ np.kron(_HADAMARD, _CIRCULAR),
        twist @ np.kron(_CIRCULAR, _HADAMARD),
        np.kron(_CIRCULAR, _CIRCULAR),
    ]
    return MubFamily(4, bases)


@lru_cache(maxsize=None)
def mub8_family() -> MubFamily:
    """9 mutually unbiased bases of dimension 8.

    Tensor products of the Hadamard-like and circular single-qubit bases with
    diagonal sign corrections; basis 0 is the computational basis. Ordering is
    fixed so basis indices are stable across runs.
    """
    u = np.diag([1, 1, 1, 1, 1, -1, -1, 1]).astype(complex)
    v = np.diag([1, 1, 1, -1, 1, -1, 1, 1]).astype(complex)
    w = np.diag([1, 1, 1, -1, 1, 1, -1, 1]).astype(complex)
    o, c = _HADAMARD, _CIRCULAR

    def k3(x, y, z):
        return np.kron(np.kron(x, y), z)

    bases = [
        np.eye(8, dtype=complex),
        k3(o, o, o),
        u @ k3(o, o, c),
        v @ k3(o, c, o),
        w @ k3(o, c, c),
        w @ k3(c, o, o),
        v @ k3(c, o, c),
        u @ k3(c, c, o),
        k3(c, c, c),
    ]
    return MubFamily(8, bases)
