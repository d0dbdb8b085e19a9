"""Gates and Kraus-family quantum operations.

An operation keeps its Kraus matrices on their own 2**k space together with
the k target qubits they act on in an n-qubit register, so no 2**n x 2**n
Kraus matrix is built.  ``evolve`` applies it by one of three rules: a
gather of the register's entries for a gate with a 0/1 matrix (``id``,
``not``, ``cnot``, ``toffoli``), masks for the channels (noise and
measurement), and contraction into the target axes for everything else
(``h``, ``sqrtnot``, families built by hand).  The first two read no
coherence, and ``evolve_diagonal`` applies them to the diagonal of rho
alone.  The masks act on block views of the register, one rule for noise
(one target) and measurement (m targets) alike.
A checked operation moves to other targets of its register by ``placed``,
which checks only the targets: a run builds each noise family once per
(kind, p) and places it on the target of every step.
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

import functools
import numbers
from collections.abc import Sequence

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


#: The Paulis by name, as ``noise_channel`` weighs them.
_PAULIS = {"I": IDENTITY_1Q, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


def _monomial(matrix: np.ndarray):
    """The (src, d) of a matrix with one non-zero entry per row, d[i] at
    column src[i], so that (A psi)[i] = d[i] psi[src[i]]; None for any other
    matrix."""
    rows, cols = np.nonzero(matrix)
    if not np.array_equal(rows, np.arange(len(matrix))):
        return None
    return cols, matrix[rows, cols]


#: The (src, d) of each Pauli, read once, here: P[r, r xor src[0]] = d[r].
_PAULI_MONOMIALS = {name: _monomial(p) for name, p in _PAULIS.items()}

#: The outer(d, conj(d)) of each Pauli's d, read once, here; every entry is +-1.
_PAULI_OUTERS = {name: as_matrix(np.outer(d, d.conj())) for name, (_, d) in _PAULI_MONOMIALS.items()}


def _pauli_masks(weighted) -> dict[int, np.ndarray]:
    """The masks {b: M_b} of rho -> sum of w P rho P over the (Pauli name, w)
    pairs: M_b = sum of w outer(d, conj(d)) over the Paulis P[r, r xor b] =
    d[r] that flip b (``_PAULI_MONOMIALS``, ``_PAULI_OUTERS``), in the order
    listed.  Every outer product has entries +-1, so the masks are exactly
    hermitian and a lone weight w enters them as w itself."""
    masks: dict[int, np.ndarray] = {}
    for name, w in weighted:
        src, _ = _PAULI_MONOMIALS[name]
        b = int(src[0])
        masks[b] = masks.get(b, 0) + w * _PAULI_OUTERS[name]
    return masks


class Gate:
    """A named unitary acting on ``arity`` qubits.  Its rule is read off the
    exact matrix once, here: a 0/1 matrix permutes the basis, (U psi)[i] =
    psi[_perm[i]], and ``evolve`` gathers by it; the identity returns its
    state.  Every other gate is contracted."""

    _perm = None
    _identity = False

    def __init__(self, name: str, matrix):
        m = as_matrix(matrix)
        if not linalg.is_unitary(m):
            raise ValueError(f"gate {name!r} is not unitary")
        self.name = name
        self.matrix = m
        self.arity = linalg.n_qubits_of(m.shape[0])
        src_d = _monomial(m)
        if src_d is not None and np.all(src_d[1] == 1):
            self._perm = src_d[0]
            self._identity = bool(np.all(self._perm == np.arange(len(m))))

    @property
    def mixing(self) -> bool:
        """True for a contracted gate (``h``, ``sqrtnot``): it mixes basis
        states by their amplitudes, so it reads the coherences of a state and
        has no form on its probabilities alone."""
        return self._perm is None

    def __repr__(self) -> str:
        return f"Gate({self.name!r}, arity={self.arity})"


#: The gates of the circuit DSL, keyed by their names; each matrix is
#: checked for unitarity, and its rule read, once, here.
GATES = {
    gate.name: gate
    for gate in (
        Gate("id", IDENTITY_1Q), Gate("not", PAULI_X), Gate("h", HADAMARD),
        Gate("sqrtnot", SQRT_NOT), Gate("cnot", CNOT), Gate("toffoli", TOFFOLI),
    )
}

#: The noise kinds of the circuit DSL, keyed by their names: each maps the
#: probability p to the (Pauli name, weight) pairs of rho -> sum of w P rho P.
NOISE_KINDS = {
    "bitflip": lambda p: [("I", 1.0 - p), ("X", p)],
    "depolarizing": lambda p: [("I", 1.0 - 3.0 * (p / 4.0)), ("X", p / 4.0), ("Y", p / 4.0), ("Z", p / 4.0)],
}


def builtin_gate(name: str) -> Gate:
    """The gate of ``GATES`` called exactly ``name``: the one lookup by name."""
    try:
        return GATES[name]
    except KeyError:
        raise ValueError(f"unknown gate {name!r}") from None


def check_noise_kind(kind: str) -> None:
    if kind not in NOISE_KINDS:
        raise ValueError(f"unknown noise kind {kind!r}")


def check_noise_probability(p: float) -> None:
    """The probability rule of a noise step: a real number (``bool`` is not
    one) in [0, 1]."""
    if isinstance(p, bool) or not isinstance(p, numbers.Real):
        raise ValueError(f"noise probability {p!r} is not a number")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"noise probability {p} out of [0, 1]")


class QuantumOperation:
    """Trace-preserving completely positive map given by Kraus matrices.

    The Kraus matrices act on their own 2**k space: on qubits ``targets`` of
    an ``n_qubits`` register (index slot m is targets[m], slot 0 the most
    significant), identity elsewhere.

    The family must satisfy sum(dagger(A_i) @ A_i) == I within
    ``STRUCTURAL_TOL``; complete positivity then holds by construction of the
    Kraus form.
    """

    # The rule ``evolve`` applies in place of the Kraus matrices, if any.
    _masks = None
    _perm = None
    _identity = False

    def __init__(self, kraus, targets, n_qubits):
        ks = tuple(as_matrix(k) for k in kraus)
        if not ks:
            raise ValueError("Kraus family must be non-empty")
        dim = ks[0].shape[0]
        if any(k.shape[0] != dim for k in ks):
            raise ValueError("Kraus matrices must share one dimension")
        self._place(ks, linalg.n_qubits_of(dim), targets, n_qubits)
        total = sum(linalg.dagger(a) @ a for a in ks)
        if linalg.max_abs(total - np.eye(dim)) > STRUCTURAL_TOL:
            raise ValueError("Kraus family is not trace preserving")

    def _place(self, ks, k: int, targets, n_qubits: int) -> None:
        """Keep the Kraus matrices ``ks`` on 2**k entries on ``targets`` of an
        ``n_qubits`` register, after checking the targets.  ``ks`` is any
        sequence; no matrix of it is read here."""
        targets = tuple(targets)
        if len(targets) != k:
            raise ValueError(f"Kraus matrices of arity {k} need {k} targets, got {len(targets)}")
        check_targets(targets, n_qubits)
        self.kraus = ks
        self.targets = targets
        self.n_qubits = n_qubits

    @property
    def dim(self) -> int:
        """Dimension of the register the operation acts on."""
        return 2**self.n_qubits

    def __repr__(self) -> str:
        k = len(self.kraus)
        return f"QuantumOperation(n_qubits={self.n_qubits}, targets={self.targets}, n_kraus={k})"


def _contract(a: np.ndarray, axes, t: np.ndarray) -> np.ndarray:
    """Multiply the 2**k matrix ``a`` into the k listed axes of the (2,)*2n
    tensor ``t``; slot m of ``a`` meets axis axes[m]."""
    k = len(axes)
    out = np.tensordot(a.reshape((2,) * (2 * k)), t, axes=(list(range(k, 2 * k)), list(axes)))
    return np.moveaxis(out, list(range(k)), list(axes))


def _evolve_masked(masks: dict, targets, n: int, state: np.ndarray) -> np.ndarray:
    """sum_b M_b * flip_b(rho), in mask order, on the raw 2**n x 2**n array
    ``state`` of rho with 2**k x 2**k masks, or on the raw 2**n vector of its
    diagonal with the masks' diagonals.

    Each copy of the register (rows, then columns; or the diagonal alone) is
    viewed as blocks around the sorted targets, of shape (2**g0, 2, 2**g1,
    ..., 2, 2**gk) where g0, ..., gk count the qubits before, between and
    after them.  Mask slot m sits on the axis of target targets[m] in each
    copy, and flip_b reverses, by basic slicing, that axis in each copy for
    each target whose slot bit is set in b.  The products and their sum are
    those of the (2,)*2n tensor form, entry for entry, the sign of a zero
    too: the view only merges the axes that neither the masks nor the flips
    touch.
    """
    k, copies = len(targets), next(iter(masks.values())).ndim
    slots = sorted(range(k), key=targets.__getitem__)  # the mask slots in register order
    block, below = [], -1
    for m in slots:
        block += [2 ** (targets[m] - below - 1), 2]
        below = targets[m]
    t = state.reshape((block + [2 ** (n - 1 - below)]) * copies)
    mask_shape = ([1, 2] * k + [1]) * copies
    mask_axes = [c * k + m for c in range(copies) for m in slots]
    out = None
    for b, mask in masks.items():
        flip = [slice(None)] * t.ndim
        for j, m in enumerate(slots):
            if b >> (k - 1 - m) & 1:
                for c in range(copies):
                    flip[c * (2 * k + 1) + 2 * j + 1] = slice(None, None, -1)
        placed = mask.reshape((2,) * (copies * k)).transpose(mask_axes).reshape(mask_shape)
        term = placed * t[tuple(flip)]
        if out is None:
            out = term
        else:
            out += term
    return out.reshape(state.shape)


def _evolve_contracted(kraus, targets, t: np.ndarray) -> np.ndarray:
    """sum_i A_i t dagger(A_i) on the (2,)*2n tensor ``t``: each A_i contracted
    into the row axes of the targets and its conjugate into their column
    axes."""
    cols = [t.ndim // 2 + q for q in targets]
    out = np.zeros(t.shape, dtype=complex)
    for a in kraus:
        out += _contract(a.conj(), cols, _contract(a, targets, t))
    return out


@functools.lru_cache(maxsize=256)
def _register_index(perm: tuple, targets: tuple, n: int) -> np.ndarray:
    """The read-only index idx with (U psi)[r] = psi[idx[r]] for the 2**k
    permutation (U psi)[i] = psi[perm[i]] placed on ``targets`` of an n-qubit
    register: the register's own index as a (2,)*n tensor, its target axes
    gathered by perm as one axis of 2**k (slot m is targets[m]).

    Each index is built once per (perm, targets, n) and kept in a table of at
    most 256 entries, at most 2**n <= 2**MAX_QUBITS integers each, so a
    formula's connectives and a circuit's repeated gates gather by one index.
    """
    order = [*targets, *(q for q in range(n) if q not in targets)]
    r = np.arange(2**n).reshape((2,) * n).transpose(order).reshape(len(perm), -1)
    idx = r[list(perm)].reshape((2,) * n).transpose(np.argsort(order)).ravel()
    idx.setflags(write=False)
    return idx


def evolve(op: QuantumOperation, state: np.ndarray) -> np.ndarray:
    """The kernel behind every channel: sum_i A_i rho dagger(A_i) on a raw
    2**n x 2**n array.  A single-Kraus operation also takes a raw 2**n vector
    psi, and returns A psi.  The result is not checked.

    An operation is applied by one of three rules, the first two without
    reading its Kraus matrices:

    - Gather.  A gate with a 0/1 matrix (``Gate``) permutes the basis, so
      U psi is ``psi[idx]`` and U rho dagger(U) is ``rho[idx[:, None], idx]``
      for the register index ``idx`` of ``_register_index``, built once per
      (permutation, targets, n) into a bounded table: the entries the
      contraction sums with exact zeros, without the multiplies.  The
      identity returns ``state`` itself, vector or matrix.
    - Masks, for the channels.  When every A_i is a diagonal d_i times an
      X-string b_i (non-zero only at (r, r xor b_i)), then
      (A_i rho dagger(A_i))[r, c] = d_i[r] conj(d_i[c]) rho[r xor b_i, c xor b_i],
      so the result is sum_b M_b * flip_b(rho): M_b = sum_{i: b_i = b}
      d_i dagger(d_i) is a 2**k x 2**k mask on the targets' row and column
      axes, and flip_b reverses those axes of the targets b flips, on block
      views of rho (``_evolve_masked``).
      ``measurement_channel`` records the one mask M_0 = I, which leaves the
      entries between sectors exactly 0; ``noise_channel`` the masks of its
      Paulis.
    - Contraction.  Every other operation is contracted into the target axes
      (``_evolve_contracted``; ``_contract`` on a vector).

    The first two rules read no coherence of rho, so they also map its
    diagonal alone: ``evolve_diagonal``.
    """
    n = op.n_qubits
    if state.shape == (op.dim,):
        if len(op.kraus) != 1:
            raise ValueError("only a single-Kraus operation maps a vector to a vector")
    elif state.shape != (op.dim, op.dim):
        raise ValueError("operation and state act on different qubit counts")
    if op._perm is not None:
        if op._identity:
            return state
        idx = _register_index(tuple(op._perm.tolist()), op.targets, n)
        return state[idx] if state.ndim == 1 else state[idx[:, None], idx]
    if state.ndim == 1:
        return _contract(op.kraus[0], op.targets, state.reshape((2,) * n)).reshape(state.shape)
    if op._masks is not None:
        return _evolve_masked(op._masks, op.targets, n, state)
    return _evolve_contracted(op.kraus, op.targets, state.reshape((2,) * (2 * n))).reshape(state.shape)


def evolve_diagonal(op: QuantumOperation, probs: np.ndarray) -> np.ndarray:
    """The diagonal of ``evolve(op, rho)`` from the diagonal ``probs`` of rho,
    a raw 2**n vector: real probabilities, or the complex diagonal itself,
    for the two rules that read no coherence.  The result is not checked.

    - Gather: ``probs[idx]``, which ``evolve`` already returns for a vector.
    - Masks: the diagonal of sum_b M_b * flip_b(rho) at r is
      sum_b M_b[r, r] rho[r xor b, r xor b], so each mask's diagonal weighs
      the flipped probabilities (``_evolve_masked`` of the diagonals).  The
      diagonals of the built-in masks are real with exact zero imaginary
      parts, so each product and sum repeats the one the matrix path makes,
      bit for bit: its real part on real probabilities, all of it on the
      complex diagonal (up to the sign of a zero).

    A contracted operation (``h``, ``sqrtnot``, families built by hand) reads
    the coherences and raises ``ValueError``.
    """
    if probs.shape != (op.dim,):
        raise ValueError("operation and probabilities act on different qubit counts")
    if op._masks is not None:
        diagonals = {b: np.diagonal(mask).real for b, mask in op._masks.items()}
        return _evolve_masked(diagonals, op.targets, op.n_qubits, probs)
    if op._perm is None:
        raise ValueError("a contracted operation reads coherences: it has no form on probabilities")
    return evolve(op, probs)


def lift_unitary(gate: Gate, n_qubits: int, targets) -> QuantumOperation:
    """Single-Kraus operation rho -> U rho dagger(U): the gate's own 2**arity
    matrix on ``targets``, slot m of its index being qubit targets[m].

    Only the targets are checked here.  The completeness sum of the family
    {U} is dagger(U) U = I, which ``Gate`` proved once for its read-only
    matrix; the operation takes the gate's rule with it.
    """
    op = QuantumOperation.__new__(QuantumOperation)
    op._place((gate.matrix,), gate.arity, targets, n_qubits)
    op._perm, op._identity = gate._perm, gate._identity
    return op


def placed(op: QuantumOperation, targets) -> QuantumOperation:
    """``op`` moved to ``targets`` of the same register: the operation shares
    its Kraus matrices and its rule (masks or gather), which were checked
    once, when ``op`` was built, and only the targets are checked here, the
    way ``lift_unitary`` places a checked ``Gate``."""
    new = QuantumOperation.__new__(QuantumOperation)
    new._place(op.kraus, len(op.targets), targets, op.n_qubits)
    new._masks, new._perm, new._identity = op._masks, op._perm, op._identity
    return new


def apply(op: QuantumOperation, rho: DensityOperator) -> DensityOperator:
    """Evaluate the operation: sum_i A_i rho dagger(A_i).  ``op`` (a complete
    Kraus family) and ``rho`` were checked when built, so the result is a state
    and is not checked again: ``simulate`` and ``eval_formula_state`` check the
    state they return once."""
    return DensityOperator._unchecked(evolve(op, rho.matrix))


class _SectorProjectors(Sequence):
    """The 2**m diagonal projectors |s><s| of a measurement on m qubits, as
    a sequence: each 2**m x 2**m matrix is built only when it is read."""

    def __init__(self, m: int):
        self._dim = 2**m

    def __len__(self) -> int:
        return self._dim

    def __getitem__(self, s: int) -> np.ndarray:
        s = range(self._dim)[s]
        p = np.zeros((self._dim, self._dim), dtype=complex)
        p[s, s] = 1.0
        p.setflags(write=False)
        return p


def measurement_channel(n_qubits: int, measured) -> QuantumOperation:
    """Projective dephasing of the listed qubits in the computational basis.

    One diagonal 2**m x 2**m Kraus projector per assignment of the m measured
    qubits; the channel zeroes coherences between distinct measured-basis
    sectors and leaves the diagonal untouched: its one mask is M_0 = I on
    the measured qubits, and ``evolve`` applies it in one pass over rho,
    whatever m is.  The list is checked as given, by the target rule of a
    ``measure`` line, and then sorted.

    The projectors sum to I exactly by construction, so the family is placed
    the way ``lift_unitary`` places a gate, with no completeness sum, and
    ``op.kraus`` builds each projector only when it is read: all 2**m of
    them would take 16 GiB at m = 10.  The mask takes 4**m floats.
    """
    qs = tuple(measured)
    check_targets(qs, n_qubits, "measured qubit")
    op = QuantumOperation.__new__(QuantumOperation)
    op._place(_SectorProjectors(len(qs)), len(qs), sorted(qs), n_qubits)
    op._masks = {0: np.eye(2 ** len(qs))}
    return op


def noise_channel(kind: str, p: float, n_qubits: int, target: int) -> QuantumOperation:
    """Single-qubit noise of a kind of ``NOISE_KINDS`` on ``target``: Kraus
    matrices sqrt(w) P over the kind's (Pauli name, weight) pairs at ``p``,
    and masks built from the weights w themselves."""
    check_noise_kind(kind)
    check_noise_probability(p)
    weighted = [(name, w) for name, w in NOISE_KINDS[kind](p) if w > 0.0]
    op = QuantumOperation([np.sqrt(w) * _PAULIS[name] for name, w in weighted], [target], n_qubits)
    op._masks = _pauli_masks(weighted)
    return op
