"""Quantum states and the Born rule.

Pure states (quregisters) and mixed states (density operators) share one
evaluation path: everything that computes a probability goes through a
density operator, so gates, noise, and logic treat both uniformly.  The Born
rule is one function, ``born_expectation``: the value Tr(rho P) a state gives
a projector.  The probability of outcome e of a test is
``born_expectation(pure_to_density(psi), projector_onto(e))``, and a family
of outcomes is a ``psa.Context``, which checks that they are orthogonal.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .linalg import STRUCTURAL_TOL

MAX_QUBITS = 10


def check_qubit_count(n: int) -> None:
    """The register limit for circuits, formula composites and every state read
    from a file: an integer (``bool`` is not one) in 1..``MAX_QUBITS``."""
    if not is_integer(n):
        raise ValueError(f"qubit count {n!r} is not an integer")
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in 1..{MAX_QUBITS}, got {n}")


class TargetError(ValueError):
    """A qubit list breaks the target rule; ``index`` is the position of the
    offending entry in the list."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def is_integer(value) -> bool:
    """True for a Python or numpy integer; ``bool`` is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_targets(targets, n_qubits: int, what: str = "target") -> None:
    """The target rule for the sequence of qubits a gate, noise or measure step
    acts on: at least one entry (an empty list raises a plain ``ValueError``),
    each an integer (``bool`` is not one) in 0..n_qubits-1 and none repeated,
    checked entry by entry in order.  ``what`` names the entries in the
    messages.  The circuit DSL and the channel builders both check here."""
    if not targets:
        raise ValueError(f"{what} set must be non-empty")
    for i, t in enumerate(targets):
        if not is_integer(t):
            raise TargetError(f"qubit index {t} is not an integer", i)
        if not 0 <= t < n_qubits:
            raise TargetError(f"qubit index {t} out of range for {n_qubits} qubits", i)
        if t in targets[:i]:
            raise TargetError(f"repeated {what} {t}", i)


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
    elif not is_integer(index):
        raise ValueError(f"basis index {index} is not an integer")
    dim = 2**n_qubits
    if not 0 <= index < dim:
        raise IndexError(f"basis index {index} out of range for {n_qubits} qubits")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return QuRegister(v)


def check_density(a: np.ndarray) -> None:
    """The state rule besides unit trace, on ``a`` or on each matrix of a stack
    ``(k, d, d)``: hermitian, then positive semidefinite, within
    ``STRUCTURAL_TOL``.  ``DensityOperator`` and ``simulate`` both check it
    here."""
    try:  # is_psd tests hermiticity first, once for both checks
        psd = linalg.is_psd(a)
    except linalg.NotHermitianError:
        raise ValueError("density operator must be hermitian") from None
    if not psd:
        raise ValueError("density operator must be positive semidefinite")


class DensityOperator:
    """Hermitian, positive semidefinite, unit-trace matrix on n qubits."""

    def __init__(self, matrix):
        m = linalg.as_matrix(matrix)
        self.n_qubits = linalg.n_qubits_of(m.shape[0])
        check_density(m)
        tr = linalg.trace(m)
        if abs(tr - 1.0) > STRUCTURAL_TOL:
            raise ValueError(f"density operator must have unit trace, got {tr}")
        self.matrix = m

    @classmethod
    def _unchecked(cls, matrix: np.ndarray) -> "DensityOperator":
        """Wrap, unchecked, a matrix that is a state by construction, and make
        it read-only."""
        matrix.setflags(write=False)
        rho = cls.__new__(cls)
        rho.n_qubits, rho.matrix = linalg.n_qubits_of(matrix.shape[0]), matrix
        return rho

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        """trace(rho^2): 1 for pure states, 1/dim for the maximally mixed one."""
        return float(np.vdot(self.matrix, self.matrix).real)  # sum |rho_ij|^2 = Tr(rho^2), rho hermitian

    def is_pure(self) -> bool:
        return abs(self.purity() - 1.0) <= STRUCTURAL_TOL

    def __repr__(self) -> str:
        return f"DensityOperator(n_qubits={self.n_qubits}, purity={self.purity():.6f})"


class Projector:
    """Hermitian idempotent matrix on n qubits; the carrier of properties.

    One made from a matrix has no ray and keeps the matrix it was checked
    with.  A rank-1 projector made by ``projector_onto`` keeps only its unit
    vector (its ray) as ``ray``: its ``matrix`` |u><u| is formed afresh on
    each read and never kept.
    """

    ray: np.ndarray | None = None

    def __init__(self, matrix):
        m = linalg.as_matrix(matrix)
        self.n_qubits = linalg.n_qubits_of(m.shape[0])
        if not linalg.is_projector(m):
            raise ValueError("matrix is not a projector (hermitian idempotent)")
        self._matrix = m

    @property
    def matrix(self) -> np.ndarray:
        """The dense, read-only matrix: the checked one, or a ray's |u><u|."""
        u = self.ray
        if u is None:
            return self._matrix
        m = np.outer(u, u.conj())
        m.setflags(write=False)
        return m

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    @property
    def rank(self) -> int:
        if self.ray is not None:
            return 1
        return round(float(np.real(linalg.trace(self.matrix))))

    def __repr__(self) -> str:
        return f"Projector(n_qubits={self.n_qubits}, rank={self.rank})"


def projector_onto(psi) -> Projector:
    """The rank-1 projector |psi><psi| onto a ``QuRegister`` or a unit vector,
    kept as its ray.  A vector is not normalized again: its squared norm must
    be within ``STRUCTURAL_TOL`` of 1."""
    if isinstance(psi, QuRegister):
        u = psi.amplitudes
    else:
        u = np.array(psi, dtype=complex)
        if u.ndim != 1 or not np.all(np.isfinite(u)):
            raise ValueError("a ray must be a finite vector")
        norm_sq = float(np.vdot(u, u).real)
        if abs(norm_sq - 1.0) > STRUCTURAL_TOL:
            raise ValueError(f"ray is not a unit vector: squared norm {norm_sq!r}")
        u.setflags(write=False)
    p = Projector.__new__(Projector)
    p.n_qubits, p.ray = linalg.n_qubits_of(u.size), u
    return p


def pure_to_density(psi: QuRegister) -> DensityOperator:
    """The rank-1 density operator |psi><psi|."""
    v = psi.amplitudes
    return DensityOperator(np.outer(v, v.conj()))


def born_expectation(rho: DensityOperator, p: Projector) -> float:
    """The value Re Tr(rho P), clamped to [0, 1] by ``clamp_probability``, in
    d**2 operations: <u|rho|u> for a ray u, else sum conj(P_ij) rho_ij (P is
    hermitian)."""
    if rho.n_qubits != p.n_qubits:
        raise ValueError("state and projector act on different qubit counts")
    if p.ray is not None:
        value = np.vdot(p.ray, rho.matrix @ p.ray)
    else:
        value = np.vdot(p.matrix, rho.matrix)
    return clamp_probability(float(value.real))


def clamp_probability(v: float) -> float:
    """``v`` clamped to [0, 1].  A value outside [-STRUCTURAL_TOL, 1 +
    STRUCTURAL_TOL] signals a broken invariant upstream and raises instead."""
    if v < -STRUCTURAL_TOL or v > 1.0 + STRUCTURAL_TOL:
        raise ValueError(f"expectation {v!r} outside [0, 1]: invariant broken upstream")
    return min(max(v, 0.0), 1.0)
