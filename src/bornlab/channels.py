"""Gates and Kraus-family quantum operations.

An operation keeps its Kraus matrices on their own 2**k space together with
the k target qubits they act on in an n-qubit register, so no 2**n x 2**n
Kraus matrix is built.  ``evolve`` picks its rule from the Kraus matrices.
When each A_i is a diagonal d_i times an X-string b_i (non-zero only at
(r, r xor b_i)), as for measurement, bit flip, depolarizing and every Pauli,
the channel is the sum over b of M_b * flip_b(rho): M_b = sum_{i: b_i = b}
d_i dagger(d_i) is a 2**k x 2**k mask broadcast over the targets' row and
column axes, and flip_b reverses those axes of the targets b flips.  Any
other family is contracted into the target axes of rho.
A gate is a unitary on its own 2**arity space, and ``lift_unitary`` places it
on its targets.  For multi-target gates the earlier-listed targets are the
controls and the last listed target is the negated qubit, so
``lift_unitary(toffoli, n, [c1, c2, t])`` computes AND-into-t.

Measurement is the non-unitary member of the same family: a Kraus channel of
computational-basis projectors that kills coherences between measured
sectors.  Noise channels model environment error with one tunable
probability:

    bitflip:      rho -> (1 - p) rho + p X rho X
    depolarizing: rho -> (1 - 3p/4) rho + (p/4)(X rho X + Y rho Y + Z rho Z)
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .linalg import STRUCTURAL_TOL, as_matrix
from .states import DensityOperator, check_targets

IDENTITY_1Q = as_matrix(np.eye(2))
PAULI_X = as_matrix([[0, 1], [1, 0]])
PAULI_Y = as_matrix([[0, -1j], [1j, 0]])
PAULI_Z = as_matrix([[1, 0], [0, -1]])
HADAMARD = as_matrix(np.array([[1, 1], [1, -1]]) / np.sqrt(2.0))
SQRT_NOT = as_matrix(np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2.0)


def _controlled_not(n_controls: int) -> np.ndarray:
    # Permutation swapping the last two basis states: flips the final bit
    # when every control bit is 1.
    dim = 2 ** (n_controls + 1)
    m = np.eye(dim)
    m[[dim - 2, dim - 1]] = m[[dim - 1, dim - 2]]
    return m


CNOT = as_matrix(_controlled_not(1))
TOFFOLI = as_matrix(_controlled_not(2))


class Gate:
    """A named unitary acting on ``arity`` qubits."""

    def __init__(self, name: str, matrix):
        m = as_matrix(matrix)
        if not linalg.is_unitary(m):
            raise ValueError(f"gate {name!r} is not unitary")
        self.name = name
        self.matrix = m
        self.arity = linalg.n_qubits_of(m.shape[0])

    def __repr__(self) -> str:
        return f"Gate({self.name!r}, arity={self.arity})"


#: The gates of the circuit DSL, keyed by their DSL names; each matrix is
#: checked for unitarity once, here.
GATES = {
    "id": Gate("I", IDENTITY_1Q),
    "not": Gate("Not", PAULI_X),
    "h": Gate("H", HADAMARD),
    "sqrtnot": Gate("SqrtNot", SQRT_NOT),
    "cnot": Gate("CNot", CNOT),
    "toffoli": Gate("Toffoli", TOFFOLI),
}

#: The noise kinds of the circuit DSL.
NOISE_KINDS = ("bitflip", "depolarizing")


def builtin_gate(name: str) -> Gate:
    """The gate of ``GATES`` called ``name``, in any letter case."""
    try:
        return GATES[name.lower()]
    except KeyError:
        raise ValueError(f"unknown gate {name!r}") from None


def check_noise_kind(kind: str) -> None:
    if kind not in NOISE_KINDS:
        raise ValueError(f"unknown noise kind {kind!r}")


def check_noise_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"noise probability {p} out of [0, 1]")


class QuantumOperation:
    """Trace-preserving completely positive map given by Kraus matrices.

    The Kraus matrices act on their own 2**k space: on qubits ``targets`` of
    an ``n_qubits`` register (index slot m is targets[m], slot 0 the most
    significant), identity elsewhere.  The default is the whole register, so
    ``QuantumOperation(dense_kraus)`` is the n-qubit map itself.

    The family must satisfy sum(dagger(A_i) @ A_i) == I within
    ``STRUCTURAL_TOL``; complete positivity then holds by construction of the
    Kraus form.
    """

    def __init__(self, kraus, targets=None, n_qubits=None):
        ks = tuple(as_matrix(k) for k in kraus)
        if not ks:
            raise ValueError("Kraus family must be non-empty")
        dim = ks[0].shape[0]
        if any(k.shape[0] != dim for k in ks):
            raise ValueError("Kraus matrices must share one dimension")
        self._place(ks, targets, n_qubits)
        total = sum(linalg.dagger(a) @ a for a in ks)
        if linalg.max_abs(total - np.eye(dim)) > STRUCTURAL_TOL:
            raise ValueError("Kraus family is not trace preserving")

    def _place(self, ks: tuple, targets, n_qubits) -> None:
        """Keep the Kraus matrices ``ks`` of one dimension on ``targets`` of
        an ``n_qubits`` register, after checking the targets."""
        k = linalg.n_qubits_of(ks[0].shape[0])
        n = k if n_qubits is None else n_qubits
        targets = tuple(range(n) if targets is None else targets)
        if len(targets) != k:
            raise ValueError(f"Kraus matrices of arity {k} need {k} targets, got {len(targets)}")
        check_targets(targets, n)
        self.kraus = ks
        self.targets = targets
        self.n_qubits = n

    @property
    def dim(self) -> int:
        """Dimension of the register the operation acts on."""
        return 2**self.n_qubits

    def __repr__(self) -> str:
        k = len(self.kraus)
        return f"QuantumOperation(n_qubits={self.n_qubits}, targets={self.targets}, n_kraus={k})"


def identity_operation(n_qubits: int) -> QuantumOperation:
    return QuantumOperation([np.eye(2**n_qubits)])


def _contract(a: np.ndarray, axes, t: np.ndarray) -> np.ndarray:
    """Multiply the 2**k matrix ``a`` into the k listed axes of the (2,)*2n
    tensor ``t``; slot m of ``a`` meets axis axes[m]."""
    k = len(axes)
    out = np.tensordot(a.reshape((2,) * (2 * k)), t, axes=(list(range(k, 2 * k)), list(axes)))
    return np.moveaxis(out, list(range(k)), list(axes))


def _flip_masks(kraus) -> dict[int, np.ndarray] | None:
    """{b: M_b} when every A_i is non-zero only at (r, r xor b_i), else None.

    Such an A_i is diag(d_i) times the X-string b_i, with d_i[r] = A_i[r, r
    xor b_i], and M_b = sum over i with b_i = b of d_i dagger(d_i), a
    2**k x 2**k matrix, summed in the order the family lists its matrices.
    numpy may fuse the multiply-add of a complex product, so d dagger(d)
    need not be exactly hermitian; each M_b is returned as (M + dagger(M))/2,
    which is, and which leaves a real symmetric M unchanged.
    """
    rows = np.arange(kraus[0].shape[0])
    masks: dict[int, np.ndarray] = {}
    for a in kraus:
        r, c = np.nonzero(a)
        b = int(r[0] ^ c[0]) if r.size else 0
        if np.any(r ^ c != b):
            return None
        d = a[rows, rows ^ b]
        masks[b] = masks.get(b, 0) + np.outer(d, d.conj())
    return {b: (m + linalg.dagger(m)) / 2 for b, m in masks.items()}


def _evolve_masked(masks: dict, targets, t: np.ndarray) -> np.ndarray:
    """sum_b M_b * flip_b(t) on the (2,)*2n tensor ``t``: mask slot m sits on
    the row axis targets[m] and the column axis n + targets[m], and flip_b
    reverses both axes of each target whose bit is set in b."""
    n, k = t.ndim // 2, len(targets)
    axes = [*targets, *(n + q for q in targets)]
    shape = [1] * (2 * n)
    for axis in axes:
        shape[axis] = 2
    out = None
    for b, mask in masks.items():
        placed = mask.reshape((2,) * (2 * k)).transpose(np.argsort(axes)).reshape(shape)
        flipped = [q for m, q in enumerate(targets) if b >> (k - 1 - m) & 1]
        term = placed * np.flip(t, [*flipped, *(n + q for q in flipped)])
        if out is None:
            out = term
        else:
            out += term
    return out


def _evolve_contracted(kraus, targets, t: np.ndarray) -> np.ndarray:
    """sum_i A_i t dagger(A_i) on the (2,)*2n tensor ``t``: each A_i contracted
    into the row axes of the targets and its conjugate into their column
    axes."""
    cols = [t.ndim // 2 + q for q in targets]
    out = np.zeros(t.shape, dtype=complex)
    for a in kraus:
        out += _contract(a.conj(), cols, _contract(a, targets, t))
    return out


def evolve(op: QuantumOperation, state: np.ndarray) -> np.ndarray:
    """The kernel behind every channel: sum_i A_i rho dagger(A_i) on a raw
    2**n x 2**n array.  A single-Kraus operation also takes a raw 2**n vector
    psi, and returns A psi by contracting A into the vector's target axes.
    The result is not checked.

    The rule for rho is read off the Kraus matrices.  When every A_i is a
    diagonal d_i times an X-string b_i (non-zero only at (r, r xor b_i):
    measurement projectors, bit flip, depolarizing, any Pauli), then
    (A_i rho dagger(A_i))[r, c] = d_i[r] conj(d_i[c]) rho[r xor b_i, c xor b_i],
    so the result is sum_b M_b * flip_b(rho): M_b = sum_{i: b_i = b}
    d_i dagger(d_i) is a 2**k x 2**k mask broadcast over the targets' row and
    column axes, and flip_b is ``np.flip`` of the row and column axes of the
    targets flipped by b, a view.  Measurement is one 0/1 mask, which leaves
    the entries between sectors exactly 0.  Every other family goes through
    ``_evolve_contracted``.
    """
    n = op.n_qubits
    if state.shape == (op.dim,):
        if len(op.kraus) != 1:
            raise ValueError("only a single-Kraus operation maps a vector to a vector")
        return _contract(op.kraus[0], op.targets, state.reshape((2,) * n)).reshape(state.shape)
    if state.shape != (op.dim, op.dim):
        raise ValueError("operation and state act on different qubit counts")
    t = state.reshape((2,) * (2 * n))
    masks = _flip_masks(op.kraus)
    if masks is not None:
        return _evolve_masked(masks, op.targets, t).reshape(state.shape)
    return _evolve_contracted(op.kraus, op.targets, t).reshape(state.shape)


def lift_unitary(gate: Gate, n_qubits: int, targets) -> QuantumOperation:
    """Single-Kraus operation rho -> U rho dagger(U): the gate's own 2**arity
    matrix on ``targets``, slot m of its index being qubit targets[m].

    Only the targets are checked here.  The completeness sum of the family
    {U} is dagger(U) U = I, which ``Gate`` proved once for its read-only
    matrix.
    """
    op = QuantumOperation.__new__(QuantumOperation)
    op._place((gate.matrix,), targets, n_qubits)
    return op


def apply(op: QuantumOperation, rho: DensityOperator) -> DensityOperator:
    """Evaluate the operation: sum_i A_i rho dagger(A_i).  ``op`` (a complete
    Kraus family) and ``rho`` were checked when built, so the result is a state
    and is not checked again: ``simulate`` and ``eval_formula_state`` check the
    state they return once."""
    return DensityOperator._unchecked(evolve(op, rho.matrix))


def measurement_channel(n_qubits: int, measured) -> QuantumOperation:
    """Projective dephasing of the listed qubits in the computational basis.

    One diagonal 2**m x 2**m Kraus projector per assignment of the m measured
    qubits; the channel zeroes coherences between distinct measured-basis
    sectors and leaves the diagonal untouched.  The list is checked as given,
    by the target rule of a ``measure`` line, and then sorted.

    The family is 2**m projectors of 2**m x 2**m entries, 16 GiB at m = 10,
    which is why ``simulate`` measures one qubit at a time.
    """
    qs = tuple(measured)
    if not qs:
        raise ValueError("measured qubit set must be non-empty")
    check_targets(qs, n_qubits, what="measured qubit")
    return QuantumOperation([np.diag(row) for row in np.eye(2 ** len(qs))], sorted(qs), n_qubits)


def noise_channel(kind: str, p: float, n_qubits: int, target: int) -> QuantumOperation:
    """Single-qubit noise on ``target``: a kind of ``NOISE_KINDS``, which
    may also be spelled with underscores (``bit_flip``)."""
    kind = kind.replace("_", "")
    check_noise_kind(kind)
    check_noise_probability(p)
    if kind == "bitflip":
        weighted = [(1.0 - p, IDENTITY_1Q), (p, PAULI_X)]
    else:
        q = p / 4.0
        weighted = [(1.0 - 3.0 * q, IDENTITY_1Q), (q, PAULI_X), (q, PAULI_Y), (q, PAULI_Z)]
    kraus = [np.sqrt(w) * m for w, m in weighted if w > 0.0]
    return QuantumOperation(kraus, [target], n_qubits)


def compose(ops) -> QuantumOperation:
    """Composite of operations applied in list order (first entry acts first).

    The Kraus family of the composite is the full set of ordered products,
    each lifted to the whole register by the contraction ``evolve`` uses; no
    compression pass is attempted at these sizes.
    """
    ops = list(ops)
    if not ops:
        raise ValueError("compose of an empty list")
    n = ops[0].n_qubits
    if any(op.n_qubits != n for op in ops):
        raise ValueError("composed operations must share one qubit count")
    dim = 2**n
    kraus = [np.eye(dim).reshape((2,) * (2 * n))]
    for op in ops:
        kraus = [_contract(b, op.targets, a) for b in op.kraus for a in kraus]
    return QuantumOperation([k.reshape(dim, dim) for k in kraus])
