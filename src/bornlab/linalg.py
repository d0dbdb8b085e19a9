"""Dense complex linear algebra for multi-qubit operators.

Every state, gate, and Kraus matrix in this package is a dense
``complex128`` square matrix on the qubits it acts on (dimension 2**n for n
qubits).  Qubit 0 occupies the most significant position of a basis label,
so the register |x1 x2 .. xn> maps to row/column index sum(x_i * 2**(n - i))
and the last qubit is the least significant bit.
"""

from __future__ import annotations

import string

import numpy as np

#: Tolerance for structural predicates (hermitian / PSD / projector / unitary).
STRUCTURAL_TOL = 1e-10

#: Tolerance for arithmetic identities (gate algebra, trace laws).
IDENTITY_TOL = 1e-12


def as_matrix(entries) -> np.ndarray:
    """Coerce ``entries`` to an immutable square complex matrix.

    Rejects non-square shapes and non-finite entries.  The returned array is
    marked read-only so values can be shared between threads without copying.
    """
    a = np.array(entries, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    a.setflags(write=False)
    return a


def n_qubits_of(dim: int) -> int:
    """Qubit count for a power-of-2 dimension >= 2."""
    n = max(int(dim), 1).bit_length() - 1
    if dim < 2 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of 2 (>= 2)")
    return n


def max_abs(a: np.ndarray) -> float:
    """Entrywise max-norm."""
    return float(np.max(np.abs(a)))


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two square matrices of equal dimension."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose (adjoint)."""
    return a.conj().T


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; the left factor takes the higher-significance bits."""
    return np.kron(a, b)


def trace(a: np.ndarray) -> complex:
    """Sum of the diagonal entries."""
    return complex(np.trace(a))


def partial_trace(a: np.ndarray, n_qubits: int, traced_indices) -> np.ndarray:
    """Trace out the listed qubit positions of a 2**n x 2**n matrix.

    The result has dimension 2**(n - len(traced)); tracing every qubit yields
    the 1x1 matrix [[trace(a)]].
    """
    traced = sorted(set(traced_indices))
    dim = 2**n_qubits
    if a.shape != (dim, dim):
        raise ValueError(f"matrix of shape {a.shape} is not on {n_qubits} qubits")
    if traced and not (0 <= traced[0] and traced[-1] < n_qubits):
        raise IndexError(f"traced indices {traced} out of range for {n_qubits} qubits")
    keep = [q for q in range(n_qubits) if q not in traced]
    letters = string.ascii_letters
    row = list(letters[:n_qubits])
    col = list(letters[n_qubits : 2 * n_qubits])
    for q in traced:
        col[q] = row[q]
    out = "".join(row[q] for q in keep) + "".join(col[q] for q in keep)
    reduced = np.einsum(
        "".join(row + col) + "->" + out, a.reshape([2] * (2 * n_qubits))
    )
    d = 2 ** len(keep)
    return reduced.reshape(d, d)


def check_tol(tol: float) -> None:
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")


def is_hermitian(a: np.ndarray, tol: float = STRUCTURAL_TOL) -> bool:
    """True iff ``a`` equals its adjoint within ``tol`` in max-norm."""
    check_tol(tol)
    return max_abs(a - dagger(a)) <= tol


def is_psd(a: np.ndarray, tol: float = STRUCTURAL_TOL) -> bool:
    """True iff the hermitian matrix ``a`` has all eigenvalues >= -tol.

    Raises if ``a`` is not hermitian; the spectrum is computed with the
    symmetric eigensolver so eigenvalues are well-defined reals.
    """
    if not is_hermitian(a, tol):
        raise ValueError("is_psd requires a hermitian matrix")
    return bool(np.linalg.eigvalsh(a)[0] >= -tol)


def is_projector(a: np.ndarray, tol: float = STRUCTURAL_TOL) -> bool:
    """True iff ``a`` is hermitian and idempotent within ``tol``."""
    return is_hermitian(a, tol) and max_abs(matmul(a, a) - a) <= tol


def is_unitary(a: np.ndarray, tol: float = STRUCTURAL_TOL) -> bool:
    """True iff dagger(a) @ a is the identity within ``tol``."""
    return max_abs(matmul(dagger(a), a) - np.eye(a.shape[0])) <= tol
