"""The local-contraction kernel against a dense reference.

The reference embeds every Kraus matrix into the full register with
``np.kron`` and a basis permutation, and applies it as a dense product; it
uses nothing from ``bornlab.channels``.  Circuits are generated by
hypothesis: every DSL gate with its targets in any order, both noise kinds,
partial and full measurement, run by ``simulate`` from |0..0> (whose leading
gates run on a state vector), or from a random mixed state by ``apply`` of
the operations ``simulate`` builds for the steps.  The channels whose
builders record masks (noise and measurement) are also drawn on their own,
and ``evolve`` is checked against both the contraction path and the
reference on them.  The gathers of the 0/1 gates ``id``, ``not``, ``cnot``
and ``toffoli`` and the joint measurement must equal, with
``np.array_equal``, what they replace: the contraction of the gate's matrix,
and one single-qubit measurement after another.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bornlab.channels import (
    Gate,
    _contract,
    _evolve_contracted,
    apply,
    builtin_gate,
    evolve,
    lift_unitary,
    measurement_channel,
    noise_channel,
)
from bornlab.circuits import CircuitIr, GateStep, MeasureStep, NoiseStep, simulate

from conftest import random_density

S = 1 / np.sqrt(2)
I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]])
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1, -1])
CNOT = np.eye(4)[[0, 1, 3, 2]]
GATES = {
    "id": I2,
    "not": X,
    "h": np.array([[S, S], [S, -S]]),
    "sqrtnot": np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2,
    "cnot": CNOT,
    "toffoli": np.eye(8)[[0, 1, 2, 3, 4, 5, 7, 6]],
}
ARITY = {g: u.shape[0].bit_length() - 1 for g, u in GATES.items()}
PAULI_WEIGHTS = {
    "bitflip": lambda p: [(1 - p, I2), (p, X)],
    "depolarizing": lambda p: [(1 - 3 * p / 4, I2), (p / 4, X), (p / 4, Y), (p / 4, Z)],
}

ORACLE = settings(max_examples=80, deadline=None)


def embed(u, n, targets):
    """``u`` on ``targets`` (slot 0 = targets[0]), identity on the rest."""
    order = list(targets) + [q for q in range(n) if q not in targets]
    full = np.kron(u, np.eye(2 ** (n - len(targets))))
    # Register index i in the kron's qubit order: bit s is qubit order[s].
    bits = (np.arange(2**n)[:, None] >> (n - 1 - np.array(order))) & 1
    perm = (bits << (n - 1 - np.arange(n))).sum(axis=1)
    return full[np.ix_(perm, perm)]


def measurement_kraus(n, qs):
    return [embed(np.diag(e), n, qs) for e in np.eye(2 ** len(qs))]


def step_kraus(n, step):
    if isinstance(step, GateStep):
        return [embed(GATES[step.name], n, step.targets)]
    if isinstance(step, NoiseStep):
        weighted = PAULI_WEIGHTS[step.kind](step.p)
        return [np.sqrt(w) * embed(m, n, [step.target]) for w, m in weighted if w > 0]
    return measurement_kraus(n, step.targets)


def reference_simulate(ir, rho):
    for step in ir.steps:
        rho = sum(k @ rho @ k.conj().T for k in step_kraus(ir.n_qubits, step))
    return rho


def apply_steps(ir, rho):
    """``apply`` of the operation ``simulate`` builds for each of the IR's
    steps, folded over the state ``rho``."""
    n = ir.n_qubits
    for step in ir.steps:
        if isinstance(step, GateStep):
            op = lift_unitary(builtin_gate(step.name), n, step.targets)
        elif isinstance(step, NoiseStep):
            op = noise_channel(step.kind, step.p, n, step.target)
        else:
            op = measurement_channel(n, step.targets)
        rho = apply(op, rho)
    return rho


@st.composite
def circuits(draw):
    n = draw(st.integers(1, 6))
    steps = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.booleans()):
            name = draw(st.sampled_from([g for g in GATES if ARITY[g] <= n]))
            targets = draw(st.permutations(range(n)))[: ARITY[name]]
            steps.append(GateStep(name, tuple(targets)))
        else:
            kind = draw(st.sampled_from(sorted(PAULI_WEIGHTS)))
            steps.append(NoiseStep(kind, draw(st.floats(0, 1)), draw(st.integers(0, n - 1))))
    measured = draw(st.sampled_from(["none", "all", "some"]))
    if measured == "all":
        steps.append(MeasureStep(tuple(range(n))))
    elif measured == "some":
        qs = draw(st.sets(st.integers(0, n - 1), min_size=1))
        steps.append(MeasureStep(tuple(sorted(qs))))
    return CircuitIr(n, tuple(steps))


REVERSED = CircuitIr(
    4,
    (
        GateStep("h", (3,)),
        GateStep("h", (2,)),
        GateStep("toffoli", (3, 2, 0)),
        GateStep("cnot", (0, 1)),
        NoiseStep("depolarizing", 0.3, 1),
        MeasureStep((0, 3)),
    ),
)

# Noise-free from |0..0>: every step runs on the state vector, and
# ``sqrtnot`` makes the amplitudes complex.
COMPLEX_PURE = CircuitIr(
    3,
    (
        GateStep("sqrtnot", (1,)),
        GateStep("h", (0,)),
        GateStep("cnot", (1, 2)),
        GateStep("sqrtnot", (2,)),
        GateStep("toffoli", (2, 0, 1)),
    ),
)
# A gate on the vector, then the handoff to the density matrix at the noise
# step, a gate on the matrix and a partial measurement.
HANDOFF = CircuitIr(
    4,
    (
        GateStep("sqrtnot", (3,)),
        GateStep("cnot", (3, 1)),
        NoiseStep("depolarizing", 0.25, 1),
        GateStep("toffoli", (1, 3, 0)),
        MeasureStep((0, 2)),
    ),
)


@ORACLE
@given(circuits(), st.one_of(st.none(), st.integers(0, 2**32 - 1)))
@example(REVERSED, None)
@example(REVERSED, 5)
@example(COMPLEX_PURE, None)
@example(HANDOFF, None)
def test_simulate_matches_dense_reference(ir, seed):
    dim = 2**ir.n_qubits
    if seed is None:
        rho0 = np.zeros((dim, dim))
        rho0[0, 0] = 1
        got = simulate(ir).matrix
    else:
        state = random_density(ir.n_qubits, rng=seed)
        rho0 = state.matrix
        got = apply_steps(ir, state).matrix
    assert np.max(np.abs(got - reference_simulate(ir, rho0))) <= 1e-12


def exactly_hermitian_density(n, seed):
    rho = random_density(n, rng=seed).matrix
    return (rho + rho.conj().T) / 2


def check_masked_evolve(op, kraus, rho):
    """``evolve`` takes the mask path the builder recorded for ``op``, agrees
    with the contraction path and with the dense reference family ``kraus``
    within 1e-12, and keeps an exactly hermitian ``rho`` exactly hermitian."""
    n, targets = op.n_qubits, op.targets
    assert op._masks is not None
    got = evolve(op, rho)
    contracted = _evolve_contracted(op.kraus, targets, rho.reshape((2,) * (2 * n)))
    reference = sum(a @ rho @ a.conj().T for a in kraus)
    assert np.max(np.abs(got - contracted.reshape(rho.shape))) <= 1e-12
    assert np.max(np.abs(got - reference)) <= 1e-12
    assert np.array_equal(got, got.conj().T)
    return got


@st.composite
def mask_operations(draw):
    """A noise channel or a measurement on drawn targets of a 1-6 qubit
    register, with its dense reference family."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        kind = draw(st.sampled_from(sorted(PAULI_WEIGHTS)))
        step = NoiseStep(kind, draw(st.floats(0, 1)), draw(st.integers(0, n - 1)))
        return noise_channel(step.kind, step.p, n, step.target), step_kraus(n, step)
    qs = draw(st.permutations(range(n)))[: draw(st.integers(1, n))]
    return measurement_channel(n, qs), measurement_kraus(n, sorted(qs))


@ORACLE
@given(mask_operations(), st.integers(0, 2**32 - 1))
def test_masked_evolve_matches_contraction_and_reference(op_kraus, seed):
    op, kraus = op_kraus
    check_masked_evolve(op, kraus, exactly_hermitian_density(op.n_qubits, seed))


@pytest.mark.parametrize(
    "kind, p, groups",
    [("bitflip", 0.0, [0]), ("bitflip", 1.0, [1]), ("depolarizing", 0.0, [0]), ("depolarizing", 1.0, [0, 1])],
)
def test_noise_at_the_ends_of_its_range(kind, p, groups):
    op = noise_channel(kind, p, 3, 1)
    assert list(op._masks) == groups
    check_masked_evolve(op, step_kraus(3, NoiseStep(kind, p, 1)), exactly_hermitian_density(3, 17))


def test_identity_family_returns_rho_unchanged():
    rho = exactly_hermitian_density(4, 23)
    op = lift_unitary(builtin_gate("id"), 4, [3])
    assert evolve(op, rho) is rho


def contracted(op, state):
    """``op`` applied by contracting its Kraus matrices, vector or matrix."""
    n = op.n_qubits
    if state.ndim == 1:
        return _contract(op.kraus[0], op.targets, state.reshape((2,) * n)).reshape(state.shape)
    return _evolve_contracted(op.kraus, op.targets, state.reshape((2,) * (2 * n))).reshape(state.shape)


def gaussian_state(shape, seed):
    """Complex Gaussian entries: the gather must match on any array."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@st.composite
def permutation_gates(draw):
    """A 0/1 gate on drawn targets, in any order, of 1-8 qubits: ``id`` and
    ``not`` from 1 qubit up, ``cnot`` from 2, ``toffoli`` from 3."""
    n = draw(st.integers(1, 8))
    name = draw(st.sampled_from([g for g in ("id", "not", "cnot", "toffoli") if ARITY[g] <= n]))
    targets = draw(st.permutations(range(n)))[: ARITY[name]]
    return lift_unitary(builtin_gate(name), n, targets)


@ORACLE
@given(permutation_gates(), st.booleans(), st.integers(0, 2**32 - 1))
def test_the_gather_equals_the_contraction(op, vector, seed):
    dim = 2**op.n_qubits
    assert op._perm is not None and op._masks is None
    state = gaussian_state((dim,) if vector else (dim, dim), seed)
    assert np.array_equal(evolve(op, state), contracted(op, state))


@pytest.mark.parametrize("name, targets", [("toffoli", (8, 3, 1)), ("cnot", (9, 0)), ("not", (4,))])
def test_the_gather_equals_the_contraction_on_ten_qubits(name, targets):
    op = lift_unitary(builtin_gate(name), 10, targets)
    rho = random_density(10, rng=41).matrix
    psi = gaussian_state(2**10, 43)
    for state in (psi, rho):
        assert np.array_equal(evolve(op, state), contracted(op, state))


@pytest.mark.parametrize("n, targets", [(2, (0, 1)), (3, (2, 0)), (5, (1, 4))])
def test_a_user_permutation_gate_is_gathered(n, targets):
    # Any gate with a 0/1 matrix takes the gather, not only the DSL's.
    op = lift_unitary(Gate("swap", np.eye(4)[[0, 2, 1, 3]]), n, targets)
    assert op._perm.tolist() == [0, 2, 1, 3] and not op._identity
    for state in (gaussian_state(2**n, n), gaussian_state((2**n, 2**n), n + 1)):
        assert np.array_equal(evolve(op, state), contracted(op, state))


def test_a_non_permutation_monomial_gate_is_contracted():
    # One non-zero per row but not 0/1: the phase gate S multiplies, so it
    # cannot be a gather.
    op = lift_unitary(Gate("s", np.diag([1, 1j])), 2, [1])
    assert op._perm is None and op._masks is None
    rho = gaussian_state((4, 4), 47)
    assert np.array_equal(evolve(op, rho), contracted(op, rho))


@ORACLE
@given(
    st.integers(1, 7).flatmap(lambda n: st.tuples(st.just(n), st.permutations(range(n)))),
    st.integers(1, 7),
    st.integers(0, 2**32 - 1),
)
def test_the_joint_measurement_equals_one_qubit_after_another(n_order, m, seed):
    n, order = n_order
    qs = order[:m]
    rho = gaussian_state((2**n, 2**n), seed)
    chained = rho
    for q in qs:
        chained = evolve(measurement_channel(n, [q]), chained)
    assert np.array_equal(evolve(measurement_channel(n, qs), rho), chained)
