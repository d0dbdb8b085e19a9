"""Probabilistic truth semantics over density operators.

Truth convention: the last qubit (least significant bit) of a register
carries the truth value, with |1> true and |0> false.  A state's truth
probability is the Born expectation of the truth projector, and the
connectives obey the product laws

    p(not rho)        = 1 - p(rho)
    p(and(rho, sigma)) = p(rho) * p(sigma)

where conjunction is the Toffoli gate on the two truth qubits with a fresh
|0> ancilla appended as the new truth qubit, and disjunction is the
De Morgan composite of the two.

A formula denotes a composite of every atom occurrence and every ancilla
(``eval_formula_state``, at most ``MAX_QUBITS`` qubits).  Its truth
probability is read from the truth qubit alone, and each connective touches
only the truth qubits of independently prepared parts, so ``eval_formula``
traces every atom and every ``&``/``|`` result down to its truth qubit and
applies no connective to more than three qubits, whatever the formula's size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import apply, builtin_gate, lift_unitary
from .states import DensityOperator, check_qubit_count, clamp_probability

_KET0 = np.array([[1, 0], [0, 0]], dtype=complex)


def truth_probability(rho: DensityOperator) -> float:
    """Probability that the information stored by ``rho`` is true: its
    diagonal weight where the last bit is 1, summed as complex numbers the way
    ``born_expectation`` sums the trace of ``rho`` times that diagonal
    projector."""
    last_bit = np.arange(rho.dim) & 1
    return clamp_probability(float(np.real(np.sum(np.diagonal(rho.matrix) * last_bit))))


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Not:
    child: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class GateApp:
    """Extension point: apply a single-qubit gate to the truth qubit, named
    exactly as in a circuit (``builtin_gate``).

    Genuinely quantum gates (h, sqrtnot) carry no truth-functional law, so
    they have no surface syntax; they are available to programmatic formula
    trees only.
    """

    gate: str
    child: "Formula"


Formula = Atom | Not | And | Or | GateApp


def _on_truth_qubit(gate: str, rho: DensityOperator) -> DensityOperator:
    """A named single-qubit gate on the truth (last) qubit."""
    g = builtin_gate(gate)
    if g.arity != 1:
        raise ValueError(f"formula gate {gate!r} must be single-qubit")
    return apply(lift_unitary(g, rho.n_qubits, [rho.n_qubits - 1]), rho)


def qcl_not(rho: DensityOperator) -> DensityOperator:
    """Negation: the Not gate on the truth qubit."""
    return _on_truth_qubit("not", rho)


def qcl_and(rho: DensityOperator, sigma: DensityOperator) -> DensityOperator:
    """Conjunction: Toffoli from both truth qubits into a fresh |0> ancilla, the new
    truth qubit, on rho (x) sigma (x) |0><0| (a product of states, not rechecked).
    The result spans n + m + 1 qubits, at most ``MAX_QUBITS``.

    The joint is one broadcast product, entry (i j s, k l t) being
    (rho[i, k] * sigma[j, l]) * ket0[s, t]: the multiplies of
    ``np.kron(np.kron(rho, sigma), ket0)``, in its order, so the same bits."""
    n, m = rho.n_qubits, sigma.n_qubits
    check_qubit_count(n + m + 1)
    a, b, z = rho.matrix, sigma.matrix, _KET0
    product = a[:, None, None, :, None, None] * b[None, :, None, None, :, None] * z[None, None, :, None, None, :]
    joint = DensityOperator._unchecked(product.reshape(2 ** (n + m + 1), -1))
    return apply(lift_unitary(builtin_gate("toffoli"), n + m + 1, [n - 1, n + m - 1, n + m]), joint)


def qcl_or(rho: DensityOperator, sigma: DensityOperator) -> DensityOperator:
    """Disjunction as the De Morgan composite not(and(not rho, not sigma))."""
    return qcl_not(qcl_and(qcl_not(rho), qcl_not(sigma)))


def _truth_qubit(rho: DensityOperator) -> DensityOperator:
    """The truth qubit's reduced state: every other qubit traced out, as the
    trace over the first index of ``rho`` read as ``(h, 2, h, 2)``, where
    h = dim / 2 indexes the qubits before the last."""
    h = rho.dim // 2
    return DensityOperator._unchecked(np.trace(rho.matrix.reshape(h, 2, h, 2), axis1=0, axis2=2))


def _composite(ast: Formula, bindings, reduced: bool = False) -> DensityOperator:
    """The composite, one public connective per node; positivity is unchecked.

    With ``reduced``, each atom and each ``&``/``|`` result is traced down to
    its truth qubit.  That is exact: the connectives above a node touch only
    its truth qubit, and the parts they join are independent copies.
    """
    keep = _truth_qubit if reduced else (lambda rho: rho)
    match ast:
        case Atom(name):
            try:
                return keep(bindings[name])
            except KeyError:
                raise ValueError(f"unbound atom {name!r}") from None
        case Not(child):
            return qcl_not(_composite(child, bindings, reduced))
        case And(left, right):
            return keep(qcl_and(_composite(left, bindings, reduced), _composite(right, bindings, reduced)))
        case Or(left, right):
            return keep(qcl_or(_composite(left, bindings, reduced), _composite(right, bindings, reduced)))
        case GateApp(gate, child):
            return _on_truth_qubit(gate, _composite(child, bindings, reduced))
        case _:
            raise TypeError(f"malformed formula node: {ast!r}")


def eval_formula_state(ast: Formula, bindings) -> DensityOperator:
    """Build the composite state denoted by a formula tree.

    Every occurrence of an atom contributes a fresh copy of its bound state
    (independent preparations), which is what makes e.g. `a | !a` evaluate
    to 0.75 rather than 1 at p(a) = 0.5.  The composite is a unitary conjugate
    of the atoms' tensor product with |0><0| ancillas and has their spectrum,
    so one positivity check, here, sees what a check per connective would.
    A composite over ``MAX_QUBITS`` qubits is rejected before it is built.
    """
    return DensityOperator(_composite(ast, bindings).matrix)


def eval_formula(ast: Formula, bindings) -> float:
    """Truth probability of the state denoted by the formula.

    Computed on the truth qubit's 2x2 reduced state, which equals the partial
    trace of ``eval_formula_state`` to its last qubit, so the formula's size is
    not limited by the composite's.  That state is checked once, here; the
    atoms were checked where they were made.
    """
    return truth_probability(DensityOperator(_composite(ast, bindings, reduced=True).matrix))
