"""Quantum states and Born-rule probability evaluation.

Pure states (quregisters) and mixed states (density operators) share one
evaluation path: everything that computes a probability goes through a
density operator, so gates, noise, and logic treat both uniformly.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .linalg import STRUCTURAL_TOL

MAX_QUBITS = 10


def check_qubit_count(n: int) -> None:
    """The register limit for circuits, formula composites and every state read
    from a file."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in 1..{MAX_QUBITS}, got {n}")


class QuRegister:
    """Unit vector on n qubits.

    Vectors whose squared norm is within ``STRUCTURAL_TOL`` of 1 are
    renormalized silently; anything further off, and the zero vector, is
    rejected as a genuine mistake rather than rounding.
    """

    def __init__(self, amplitudes):
        v = np.array(amplitudes, dtype=complex).reshape(-1)
        if not np.all(np.isfinite(v)):
            raise ValueError("amplitudes must be finite")
        self.n_qubits = linalg.n_qubits_of(v.size)
        norm_sq = float(np.vdot(v, v).real)
        if norm_sq == 0.0:
            raise ValueError("the zero vector is not a state")
        if abs(norm_sq - 1.0) > STRUCTURAL_TOL:
            raise ValueError(
                f"amplitudes are not normalized: sum of squared moduli is {norm_sq!r}"
            )
        v = v / np.sqrt(norm_sq)
        v.setflags(write=False)
        self.amplitudes = v

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def inner(self, other: "QuRegister") -> complex:
        """The inner product <self|other>."""
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def __repr__(self) -> str:
        return f"QuRegister(n_qubits={self.n_qubits})"


def qubit(c0: complex, c1: complex) -> QuRegister:
    """The single-qubit state c0|0> + c1|1>."""
    return QuRegister([c0, c1])


def basis_state(n_qubits: int, index) -> QuRegister:
    """Computational-basis state; ``index`` is an integer or a bit string."""
    if isinstance(index, str):
        if len(index) != n_qubits or any(c not in "01" for c in index):
            raise ValueError(f"bad basis label {index!r} for {n_qubits} qubits")
        index = int(index, 2)
    dim = 2**n_qubits
    if not 0 <= index < dim:
        raise IndexError(f"basis index {index} out of range for {n_qubits} qubits")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return QuRegister(v)


class DensityOperator:
    """Hermitian, positive semidefinite, unit-trace matrix on n qubits."""

    def __init__(self, matrix, tol: float = STRUCTURAL_TOL):
        m = linalg.as_matrix(matrix)
        self.n_qubits = linalg.n_qubits_of(m.shape[0])
        try:  # is_psd tests hermiticity first, once for both checks
            psd = linalg.is_psd(m, tol)
        except linalg.NotHermitianError:
            raise ValueError("density operator must be hermitian") from None
        if not psd:
            raise ValueError("density operator must be positive semidefinite")
        tr = linalg.trace(m)
        if abs(tr - 1.0) > tol:
            raise ValueError(f"density operator must have unit trace, got {tr}")
        self.matrix = m

    @classmethod
    def _unchecked(cls, matrix: np.ndarray) -> "DensityOperator":
        """Wrap, unchecked, a matrix that is a state by construction."""
        rho = cls.__new__(cls)
        rho.n_qubits, rho.matrix = linalg.n_qubits_of(matrix.shape[0]), matrix
        return rho

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        """trace(rho^2): 1 for pure states, 1/dim for the maximally mixed one."""
        return float(np.real(linalg.trace(self.matrix @ self.matrix)))

    def is_pure(self, tol: float = STRUCTURAL_TOL) -> bool:
        return abs(self.purity() - 1.0) <= tol

    def __repr__(self) -> str:
        return f"DensityOperator(n_qubits={self.n_qubits}, purity={self.purity():.6f})"


class Projector:
    """Hermitian idempotent matrix on n qubits; the carrier of properties."""

    def __init__(self, matrix, tol: float = STRUCTURAL_TOL):
        m = linalg.as_matrix(matrix)
        self.n_qubits = linalg.n_qubits_of(m.shape[0])
        if not linalg.is_projector(m, tol):
            raise ValueError("matrix is not a projector (hermitian idempotent)")
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def rank(self) -> int:
        return round(float(np.real(linalg.trace(self.matrix))))

    def __repr__(self) -> str:
        return f"Projector(n_qubits={self.n_qubits}, rank={self.rank})"


def projector_onto(psi: QuRegister) -> Projector:
    """Rank-1 projector |psi><psi|."""
    v = psi.amplitudes
    return Projector(np.outer(v, v.conj()))


class MaximalTest:
    """An n-outcome measurement given by a complete orthonormal basis."""

    def __init__(self, basis, tol: float = STRUCTURAL_TOL):
        basis = tuple(basis)
        if not basis:
            raise ValueError("a maximal test needs at least one basis vector")
        n = basis[0].n_qubits
        if any(e.n_qubits != n for e in basis):
            raise ValueError("basis vectors must share one qubit count")
        if len(basis) != basis[0].dim:
            raise ValueError(
                f"a maximal test on {n} qubits needs {basis[0].dim} outcomes, got {len(basis)}"
            )
        for i, ei in enumerate(basis):
            for j in range(i + 1, len(basis)):
                if abs(ei.inner(basis[j])) > tol:
                    raise ValueError(f"basis vectors {i} and {j} are not orthogonal")
        self.basis = basis
        self.n_qubits = n

    @property
    def n_outcomes(self) -> int:
        return len(self.basis)


def computational_test(n_qubits: int) -> MaximalTest:
    """The computational-basis maximal test on n qubits."""
    return MaximalTest([basis_state(n_qubits, i) for i in range(2**n_qubits)])


def pure_to_density(psi: QuRegister) -> DensityOperator:
    """The rank-1 density operator |psi><psi|."""
    v = psi.amplitudes
    return DensityOperator(np.outer(v, v.conj()))


def mix(states) -> DensityOperator:
    """Convex combination of density operators.

    ``states`` is a sequence of (weight, DensityOperator) pairs with
    non-negative weights summing to 1 within ``STRUCTURAL_TOL``.
    """
    pairs = list(states)
    if not pairs:
        raise ValueError("mix of an empty collection")
    total = sum(w for w, _ in pairs)
    if any(w < 0 for w, _ in pairs):
        raise ValueError("mixture weights must be non-negative")
    if abs(total - 1.0) > STRUCTURAL_TOL:
        raise ValueError(f"mixture weights must sum to 1, got {total!r}")
    n = pairs[0][1].n_qubits
    if any(rho.n_qubits != n for _, rho in pairs):
        raise ValueError("mixture components must share one qubit count")
    acc = np.zeros((2**n, 2**n), dtype=complex)
    for w, rho in pairs:
        acc += w * rho.matrix
    return DensityOperator(acc)


def born_probability(psi: QuRegister, test: MaximalTest, outcome_index: int) -> float:
    """Probability |<e_i|psi>|^2 of the i-th outcome of a maximal test."""
    if psi.n_qubits != test.n_qubits:
        raise ValueError("state and test act on different qubit counts")
    if not 0 <= outcome_index < test.n_outcomes:
        raise IndexError(
            f"outcome index {outcome_index} out of range for {test.n_outcomes} outcomes"
        )
    return abs(test.basis[outcome_index].inner(psi)) ** 2


def born_expectation(
    rho: DensityOperator, p: Projector, tol: float = STRUCTURAL_TOL
) -> float:
    """The value Re trace(rho @ P), clamped to [0, 1].

    A result outside [-tol, 1 + tol] signals a broken invariant upstream and
    raises instead of being clamped.
    """
    if rho.n_qubits != p.n_qubits:
        raise ValueError("state and projector act on different qubit counts")
    return clamp_probability(float(np.real(linalg.trace(linalg.matmul(rho.matrix, p.matrix)))), tol)


def clamp_probability(v: float, tol: float = STRUCTURAL_TOL) -> float:
    """``v`` clamped to [0, 1]; a value outside [-tol, 1 + tol] raises."""
    if v < -tol or v > 1.0 + tol:
        raise ValueError(f"expectation {v!r} outside [0, 1]: invariant broken upstream")
    return min(max(v, 0.0), 1.0)


def random_pure(n_qubits: int, rng=None) -> QuRegister:
    """Haar-ish random pure state (normalized complex Gaussian vector)."""
    rng = np.random.default_rng(rng)
    v = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return QuRegister(v / np.linalg.norm(v))


def random_density(n_qubits: int, rng=None, rank: int | None = None) -> DensityOperator:
    """Ginibre-sampled mixed state; full rank unless ``rank`` is given."""
    rng = np.random.default_rng(rng)
    dim = 2**n_qubits
    r = dim if rank is None else rank
    if not 1 <= r <= dim:
        raise ValueError(f"rank must be in 1..{dim}")
    g = rng.normal(size=(dim, r)) + 1j * rng.normal(size=(dim, r))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real)
