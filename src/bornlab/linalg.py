"""Dense complex linear algebra for multi-qubit operators.

Every state, gate, and Kraus matrix in this package is a dense
``complex128`` square matrix on the qubits it acts on (dimension 2**n for n
qubits).  Qubit 0 occupies the most significant position of a basis label,
so the register |x1 x2 .. xn> maps to row/column index sum(x_i * 2**(n - i))
and the last qubit is the least significant bit.
"""

from __future__ import annotations

import numpy as np

#: Tolerance for structural predicates (hermitian / PSD / projector / unitary).
STRUCTURAL_TOL = 1e-10


def as_matrix(entries) -> np.ndarray:
    """Coerce ``entries`` to an immutable square complex matrix.

    Rejects non-square shapes and non-finite entries.  The returned array is
    marked read-only so values can be shared between threads without copying.
    """
    a = np.array(entries, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
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
    return float(np.abs(a).max())


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose (adjoint); of each matrix of a stack ``(k, d, d)``."""
    return a.conj().swapaxes(-1, -2)


def trace(a: np.ndarray) -> complex:
    """Sum of the diagonal entries."""
    return complex(np.trace(a))


def check_tol(tol: float) -> None:
    """The rule of every tolerance a caller sets, ``--tol`` among them."""
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")


def is_hermitian(a: np.ndarray, tol: float = STRUCTURAL_TOL) -> bool:
    """True iff ``a`` (or each matrix of a stack ``(k, d, d)``) equals its
    adjoint within ``tol`` in max-norm."""
    check_tol(tol)
    return max_abs(a - dagger(a)) <= tol


class NotHermitianError(ValueError):
    """``is_psd`` was given a matrix that is not hermitian."""


#: Unit roundoff of double precision.
UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _cholesky_certifies(a: np.ndarray, tol: float) -> bool:
    """True if a Cholesky factorisation proves lambda_min > -tol for ``a``
    (each matrix of a stack); False leaves the verdict open.

    If ``a + (tol/2) I`` factorises as R^H R in floating point, R is exact for
    ``a + (tol/2) I + E`` with |E| <= gamma |R^H||R| entrywise (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., Thm 10.3; gamma = (d+1)u,
    taken 4x larger for complex arithmetic and the shift's own rounding).  So
    ||E||_2 <= gamma ||R||_F^2 = gamma tr(a + (tol/2) I + E), and with
    tr(a) <= sqrt(d) ||a||_F this gives the ``bound`` below on ||E||_2.  Then
    lambda_min(a) >= -tol/2 - bound, which is > -tol when bound < tol/2: for
    a state (||a||_F <= 1) that holds up to d = 2**11 at the default tol.
    """
    d = a.shape[-1]
    gamma = 4 * (d + 1) * UNIT_ROUNDOFF
    frobenius = float(np.max(np.linalg.norm(a, axis=(-2, -1))))
    bound = gamma * (np.sqrt(d) * frobenius + d * tol / 2) / (1 - d * gamma)
    if not bound < tol / 2:
        return False
    try:
        np.linalg.cholesky(a + (tol / 2) * np.eye(d))
    except np.linalg.LinAlgError:
        return False
    return True


#: The most entries an array ``is_psd`` answers by ``eigvalsh`` alone.  Up to
#: here (one 8 x 8 matrix, a stack of sixteen 2 x 2 ones) the eigensolver
#: costs less than the certificate's fixed cost; from about twice as many
#: entries on (a 16 x 16 matrix, a stack of eight 4 x 4 ones) it costs more.
EIGVALSH_MAX_ENTRIES = 64


def is_psd(a: np.ndarray, tol: float = STRUCTURAL_TOL) -> bool:
    """True iff the hermitian matrix ``a`` (or every matrix of a stack
    ``(k, d, d)``) has all eigenvalues >= -tol.

    Raises ``NotHermitianError`` if ``a`` is not hermitian within ``tol``.
    The verdict is ``eigvalsh(a)[0] >= -tol``.  Blocks of 1 x 1 are answered
    by the real parts of their entries, which is what ``eigvalsh`` returns for
    them.  Any other array of more than ``EIGVALSH_MAX_ENTRIES`` entries first
    tries a Cholesky certificate (``_cholesky_certifies``), which answers True
    where it proves lambda_min > -tol; elsewhere the eigensolver answers.
    Both read the lower triangle, so the verdict is never looser than the
    eigensolver's alone.
    """
    if not is_hermitian(a, tol):
        raise NotHermitianError("is_psd requires a hermitian matrix")
    if a.shape[-2:] == (1, 1):
        return bool(a.real.min() >= -tol)
    if a.size > EIGVALSH_MAX_ENTRIES and _cholesky_certifies(a, tol):
        return True
    return bool(np.linalg.eigvalsh(a)[..., 0].min() >= -tol)


def sector_blocks(a: np.ndarray, n_qubits: int, measured) -> np.ndarray:
    """The diagonal blocks of ``a`` in the sectors of the measured qubits.

    Returns a ``(2**m, 2**(n-m), 2**(n-m))`` stack: block s holds the entries
    whose row and column both read s on the m measured qubits (sorted, the
    first the most significant), with the other qubits in register order.
    Raises unless every entry outside the blocks is exactly 0, which is what
    measuring those qubits leaves; the blocks' spectra then make up the
    spectrum of ``a``.
    """
    qs = sorted(set(measured))
    rest = [q for q in range(n_qubits) if q not in qs]
    m, r = 2 ** len(qs), 2 ** len(rest)
    if a.shape != (m * r, m * r) or not qs or not (0 <= qs[0] and qs[-1] < n_qubits):
        raise ValueError(f"bad sectors {qs} for a matrix of shape {a.shape} on {n_qubits} qubits")
    order = qs + rest
    t = a.reshape((2,) * (2 * n_qubits)).transpose(order + [n_qubits + q for q in order])
    blocks = t.reshape(m, r, m, r)[np.arange(m), :, np.arange(m), :]
    if np.count_nonzero(blocks) != np.count_nonzero(a):
        raise ValueError(f"matrix has non-zero entries between the sectors of qubits {qs}")
    return blocks


def is_projector(a: np.ndarray) -> bool:
    """True iff the square matrix ``a`` is hermitian and idempotent within
    ``STRUCTURAL_TOL`` in max-norm.  The product ``a @ a`` is formed only for
    a hermitian ``a``, in the buffer of the hermiticity residual."""
    residual = a - a.conj().T
    if not np.abs(residual).max() <= STRUCTURAL_TOL:
        return False
    np.matmul(a, a, out=residual)
    residual -= a
    return bool(np.abs(residual).max() <= STRUCTURAL_TOL)


def is_unitary(a: np.ndarray) -> bool:
    """True iff dagger(a) @ a is the identity within ``STRUCTURAL_TOL``."""
    return max_abs(dagger(a) @ a - np.eye(a.shape[0])) <= STRUCTURAL_TOL
