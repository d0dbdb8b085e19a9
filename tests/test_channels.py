"""Gates, lifting, Kraus application, measurement and noise."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornlab import channels, linalg
from bornlab.channels import (
    GATES,
    Gate,
    NOISE_KINDS,
    PAULI_Y,
    PAULI_Z,
    QuantumOperation,
    _evolve_contracted,
    apply,
    builtin_gate,
    evolve,
    evolve_diagonal,
    lift_unitary,
    measurement_channel,
    noise_channel,
)
from bornlab.circuits import parse_circuit
from bornlab.states import (
    DensityOperator,
    TargetError,
    basis_state,
    pure_to_density,
    qubit,
)

from conftest import random_density, random_kraus_family

INV_SQRT2 = 1.0 / np.sqrt(2.0)

# Spans the single-qubit operator space, so equality of channel outputs on
# these four states is equality of the channels as linear maps.
SPANNING_1Q = [
    pure_to_density(qubit(1, 0)),
    pure_to_density(qubit(0, 1)),
    pure_to_density(qubit(INV_SQRT2, INV_SQRT2)),
    pure_to_density(qubit(INV_SQRT2, 1j * INV_SQRT2)),
]


def channels_equal(op1, op2, states, tol=1e-12):
    return all(
        linalg.max_abs(apply(op1, r).matrix - apply(op2, r).matrix) <= tol for r in states
    )


class TestBuiltinGates:
    def test_sqrt_not_squares_to_not(self):
        s = builtin_gate("sqrtnot").matrix
        assert linalg.max_abs(s @ s - builtin_gate("not").matrix) <= 1e-12

    def test_hadamard_squares_to_identity(self):
        h = builtin_gate("h").matrix
        assert linalg.max_abs(h @ h - np.eye(2)) <= 1e-12

    def test_toffoli_flips_the_last_bit_when_controls_are_set(self):
        t = builtin_gate("toffoli").matrix
        out = t @ basis_state(3, "110").amplitudes
        np.testing.assert_array_equal(out, basis_state(3, "111").amplitudes)

    def test_cnot_is_the_standard_permutation(self):
        np.testing.assert_array_equal(
            builtin_gate("cnot").matrix,
            np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0.0]]),
        )

    def test_dsl_aliases_resolve(self):
        assert all(builtin_gate(name).name == name for name in GATES)
        assert builtin_gate("h").arity == 1
        assert builtin_gate("toffoli").arity == 3

    def test_repr_names_the_gate_and_its_arity(self):
        assert repr(builtin_gate("cnot")) == "Gate('cnot', arity=2)"
        assert repr(Gate("swap", np.eye(4)[[0, 2, 1, 3]])) == "Gate('swap', arity=2)"

    @pytest.mark.parametrize("name", ["phase", "H", "Not", "CNOT"])
    def test_unknown_name(self, name):
        with pytest.raises(ValueError, match=f"^unknown gate '{name}'$"):
            builtin_gate(name)


class TestLiftUnitary:
    def test_not_on_single_qubit(self):
        op = lift_unitary(builtin_gate("not"), 1, [0])
        out = apply(op, pure_to_density(basis_state(1, 0)))
        np.testing.assert_allclose(out.matrix, np.diag([0, 1.0]), atol=1e-15)

    def test_double_hadamard_is_identity(self):
        op = lift_unitary(builtin_gate("h"), 3, [1])
        rho = pure_to_density(basis_state(3, 0))
        out = apply(op, apply(op, rho))
        assert linalg.max_abs(out.matrix - rho.matrix) <= 1e-12

    def test_lifted_kraus_element_is_unitary(self):
        for gate, targets in [("h", [2]), ("cnot", [2, 0]), ("toffoli", [1, 3, 0])]:
            op = lift_unitary(builtin_gate(gate), 4, targets)
            assert len(op.kraus) == 1
            u = op.kraus[0]
            assert linalg.is_unitary(u)
            assert linalg.max_abs(linalg.dagger(u) @ u - np.eye(len(u))) <= 1e-12

    def test_cnot_respects_target_order(self):
        # control on qubit 1, negated qubit 0: |01> -> |11>
        op = lift_unitary(builtin_gate("cnot"), 2, [1, 0])
        out = apply(op, pure_to_density(basis_state(2, "01")))
        np.testing.assert_allclose(
            out.matrix, pure_to_density(basis_state(2, "11")).matrix, atol=1e-15
        )

    def test_bad_targets(self):
        with pytest.raises(ValueError, match="arity"):
            lift_unitary(builtin_gate("cnot"), 2, [0])
        with pytest.raises(ValueError, match="repeated target 0"):
            lift_unitary(builtin_gate("cnot"), 2, [0, 0])
        with pytest.raises(ValueError, match="out of range"):
            lift_unitary(builtin_gate("not"), 1, [1])

    @pytest.mark.parametrize("bad", [0.5, 1.0, True, np.float64(1.0), np.bool_(True)], ids=repr)
    @pytest.mark.parametrize(
        "build, index",
        [
            (lambda bad: lift_unitary(builtin_gate("cnot"), 3, [2, bad]), 1),
            (lambda bad: noise_channel("bitflip", 0.1, 3, bad), 0),
            (lambda bad: measurement_channel(3, [2, bad]), 1),
        ],
        ids=["lift_unitary", "noise_channel", "measurement_channel"],
    )
    def test_non_integer_qubits_are_rejected_at_their_index(self, build, index, bad):
        with pytest.raises(TargetError, match=f"^qubit index {bad} is not an integer$") as exc:
            build(bad)
        assert exc.value.index == index

    def test_numpy_integer_qubits_are_accepted(self):
        qs = np.array([2, 0])
        assert lift_unitary(builtin_gate("cnot"), 3, qs).targets == (2, 0)
        assert noise_channel("bitflip", 0.1, 3, qs[0]).targets == (2,)
        assert measurement_channel(3, qs).targets == (0, 2)

    def test_the_gate_matrix_is_not_checked_again(self, monkeypatch):
        # ``Gate`` proved the matrix unitary; only the targets are checked.
        built, init = [], QuantumOperation.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(QuantumOperation, "__init__", counting_init)
        op = lift_unitary(builtin_gate("toffoli"), 4, [1, 3, 0])
        assert built == [] and op.targets == (1, 3, 0) and op.n_qubits == 4
        assert op.kraus[0] is builtin_gate("toffoli").matrix
        noise_channel("bitflip", 0.1, 4, 2)
        assert len(built) == 1


class TestEvolve:
    def test_vector_form_is_the_gate_times_the_vector(self):
        rng = np.random.default_rng(29)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        op = lift_unitary(builtin_gate("sqrtnot"), 3, [1])
        out = evolve(op, psi)
        want = np.kron(np.eye(2), np.kron(op.kraus[0], np.eye(2))) @ psi
        np.testing.assert_allclose(out, want, atol=1e-15)
        rho = np.outer(psi, psi.conj())
        np.testing.assert_allclose(evolve(op, rho), np.outer(out, out.conj()), atol=1e-14)

    def test_vector_needs_a_single_kraus_operation(self):
        for op in (noise_channel("bitflip", 0.1, 2, 0), measurement_channel(2, [1])):
            with pytest.raises(ValueError, match="single-Kraus"):
                evolve(op, np.array([1.0, 0.0, 0.0, 0.0], dtype=complex))

    @pytest.mark.parametrize(
        "op, groups",
        [
            (measurement_channel(3, [0, 2]), [0]),
            (noise_channel("bitflip", 0.1, 3, 1), [0, 1]),
            (noise_channel("depolarizing", 0.1, 3, 1), [0, 1]),
        ],
        ids=repr,
    )
    def test_diagonal_times_x_string_families_take_the_mask_path(self, op, groups):
        assert list(op._masks) == groups

    @pytest.mark.parametrize("name", ["h", "sqrtnot"])
    def test_other_gates_take_the_contraction_path(self, name):
        op = lift_unitary(builtin_gate(name), 3, [1])
        assert op._masks is None and op._perm is None

    @pytest.mark.parametrize(
        "name, perm",
        [("cnot", [0, 1, 3, 2]), ("toffoli", [0, 1, 2, 3, 4, 5, 7, 6]), ("not", [1, 0]), ("id", [0, 1])],
    )
    def test_permutation_gates_take_the_gather_path(self, name, perm):
        gate = builtin_gate(name)
        op = lift_unitary(gate, 3, range(gate.arity))
        assert op._masks is None
        assert op._perm is gate._perm
        assert op._perm.tolist() == perm
        assert op._identity is (name == "id")

    def test_the_register_index_moves_the_target_bits(self):
        # cnot 2 0 on 3 qubits: qubit 0 (the most significant bit) flips
        # where qubit 2 (the least significant) is set.
        op = lift_unitary(builtin_gate("cnot"), 3, [2, 0])
        psi = np.arange(8, dtype=complex)
        assert evolve(op, psi).tolist() == [0, 5, 2, 7, 4, 1, 6, 3]

    @pytest.mark.parametrize("name", ["not", "cnot", "toffoli", "id"])
    def test_the_register_index_table_holds_each_gates_gather(self, name):
        # Reference: (U psi)[r] = psi[idx[r]], where idx[r] is r with the
        # target bits replaced by perm of their slot value (slot 0 the most
        # significant), read bit by bit from the register index r.
        perm = builtin_gate(name)._perm.tolist()
        k = builtin_gate(name).arity
        for n in range(1, 7):
            for targets in itertools.permutations(range(n), k):
                want = []
                for r in range(2**n):
                    bit = [r >> (n - 1 - q) & 1 for q in range(n)]
                    slot = sum(bit[q] << (k - 1 - m) for m, q in enumerate(targets))
                    for m, q in enumerate(targets):
                        bit[q] = perm[slot] >> (k - 1 - m) & 1
                    want.append(sum(b << (n - 1 - q) for q, b in enumerate(bit)))
                idx = channels._register_index(tuple(perm), targets, n)
                assert idx.tolist() == want, (n, targets)
                assert not idx.flags.writeable
                assert channels._register_index(tuple(perm), targets, n) is idx

    def test_operations_built_by_hand_are_contracted(self):
        # A Pauli string built by hand is contracted: only the builders
        # record masks.
        op = QuantumOperation([np.kron(PAULI_Y, PAULI_Z)], [2, 0], 3)
        assert op._masks is None
        rho = random_density(3, rng=11).matrix
        want = _evolve_contracted(op.kraus, op.targets, rho.reshape((2,) * 6)).reshape(8, 8)
        np.testing.assert_array_equal(evolve(op, rho), want)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: noise_channel("depolarizing", 0.3, 3, 1),
            lambda: measurement_channel(3, [2, 0]),
            lambda: lift_unitary(GATES["not"], 3, [1]),
            lambda: lift_unitary(GATES["id"], 3, [1]),
            lambda: lift_unitary(GATES["cnot"], 3, [2, 0]),
            lambda: lift_unitary(GATES["toffoli"], 3, [1, 2, 0]),
        ],
        ids=["noise_channel", "measurement_channel", "not", "id", "cnot", "toffoli"],
    )
    def test_the_mask_path_reads_no_kraus_matrix(self, build):
        class Unreadable:
            def fail(self, *args):
                raise AssertionError("evolve read the Kraus matrices")

            __getattr__ = __len__ = __iter__ = __getitem__ = fail

        op, rho = build(), random_density(3, rng=13).matrix
        want = evolve(op, rho)
        op.kraus = Unreadable()
        np.testing.assert_array_equal(evolve(op, rho), want)

    @pytest.mark.parametrize("n, target", [(1, 0), (3, 1), (4, 3)])
    def test_the_identity_returns_the_state_it_was_given(self, n, target):
        op = lift_unitary(GATES["id"], n, [target])
        rng = np.random.default_rng(n)
        psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        rho = random_density(n, rng=rng)
        for state in (psi, rho.matrix):
            out = evolve(op, state)
            assert out is state
            assert np.array_equal(out, state)
        out = apply(op, rho)
        assert np.array_equal(out.matrix, rho.matrix)
        assert not out.matrix.flags.writeable

    def test_the_identity_on_ten_qubits_allocates_no_matrix(self):
        # Structure, not time: the 2**20-entry (16 MiB) matrix is returned,
        # not multiplied by a mask of ones into a new array.
        rho = random_density(10, rng=3)
        op = lift_unitary(GATES["id"], 10, [3])
        tracemalloc.start()
        try:
            out = evolve(op, rho.matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert np.array_equal(out, rho.matrix)

    def test_shape_mismatch(self):
        op = lift_unitary(builtin_gate("h"), 2, [0])
        with pytest.raises(ValueError, match="qubit count"):
            evolve(op, np.ones(8, dtype=complex))


@st.composite
def markov_operations(draw):
    """An operation whose rule reads no coherence, on 1-6 qubits: a 0/1 gate,
    either noise kind at p in {0, 0.5, 1} or drawn, or a measurement, on
    targets in any order."""
    n = draw(st.integers(1, 6))
    order = draw(st.permutations(range(n)))
    kind = draw(st.sampled_from(["gate", "noise", "measure"]))
    if kind == "gate":
        gate = GATES[draw(st.sampled_from([g for g in GATES if not GATES[g].mixing and GATES[g].arity <= n]))]
        return lift_unitary(gate, n, order[: gate.arity])
    if kind == "noise":
        p = draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
        return noise_channel(draw(st.sampled_from(sorted(NOISE_KINDS))), p, n, order[0])
    return measurement_channel(n, order[: draw(st.integers(1, n))])


class TestEvolveDiagonal:
    @given(markov_operations(), st.integers(0, 2**32 - 1))
    def test_it_is_the_diagonal_of_evolve_bit_for_bit(self, op, seed):
        rho = random_density(op.n_qubits, rng=seed).matrix
        got = evolve_diagonal(op, np.diagonal(rho).real.copy())
        assert got.dtype == float
        assert np.array_equal(got, np.diagonal(evolve(op, rho)).real)

    @pytest.mark.parametrize("name", sorted(GATES))
    def test_only_the_contracted_gates_mix(self, name):
        gate = GATES[name]
        assert gate.mixing is (name in ("h", "sqrtnot"))
        assert gate.mixing is (gate._perm is None)

    @pytest.mark.parametrize(
        "op",
        [lift_unitary(GATES["h"], 2, [1]), QuantumOperation([np.kron(PAULI_Y, PAULI_Z)], [1, 0], 2)],
        ids=["h", "by hand"],
    )
    def test_a_contracted_operation_has_no_form_on_probabilities(self, op):
        with pytest.raises(ValueError, match="^a contracted operation reads coherences"):
            evolve_diagonal(op, np.array([1.0, 0.0, 0.0, 0.0]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="qubit count"):
            evolve_diagonal(noise_channel("bitflip", 0.1, 2, 0), np.ones(8) / 8)


def _broadcast_masked(masks, targets, t):
    """The mask rule on the (2,)*2n tensor ``t`` of rho (or the (2,)*n tensor
    of its diagonal, with the masks' diagonals): each mask reshaped onto the
    target axes of every copy of the register and broadcast against
    ``np.flip`` of the flipped targets' axes, summed in mask order.  The
    reference that the block views of ``_evolve_masked`` must equal bit for
    bit."""
    k, copies = len(targets), next(iter(masks.values())).ndim
    n = t.ndim // copies

    def lifted(qubits):
        return [c * n + q for c in range(copies) for q in qubits]

    axes = lifted(targets)
    shape = [1] * t.ndim
    for axis in axes:
        shape[axis] = 2
    out = None
    for b, mask in masks.items():
        placed = mask.reshape((2,) * len(axes)).transpose(np.argsort(axes)).reshape(shape)
        term = placed * np.flip(t, lifted([q for m, q in enumerate(targets) if b >> (k - 1 - m) & 1]))
        if out is None:
            out = term
        else:
            out += term
    return out


def _with_signed_zeros(a, rng):
    """``a`` with about a third of its real and imaginary parts replaced by
    zeros of either sign."""
    parts = a.view(float)
    zero = rng.random(parts.shape) < 1 / 3
    parts[zero] = np.copysign(0.0, rng.normal(size=int(zero.sum())))
    return a


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and np.array_equal(got, want)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


@st.composite
def mask_operations(draw):
    """Noise of either kind at p in {0, 0.5, 1} or drawn, on any target, or a
    measurement of 1..n qubits listed in any order, on 1-7 qubits."""
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        p = draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
        return noise_channel(draw(st.sampled_from(sorted(NOISE_KINDS))), p, n, draw(st.integers(0, n - 1)))
    order = draw(st.permutations(range(n)))
    return measurement_channel(n, order[: draw(st.integers(1, n))])


class TestMaskRule:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(mask_operations(), st.integers(0, 2**32 - 1))
    def test_block_views_give_the_broadcast_form_bit_for_bit(self, op, seed):
        rng, n = np.random.default_rng(seed), op.n_qubits
        dim = 2**n
        rho = _with_signed_zeros(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)), rng)
        want = _broadcast_masked(op._masks, op.targets, rho.reshape((2,) * (2 * n))).reshape(rho.shape)
        _assert_same_bits(evolve(op, rho), want)
        for diagonal in (np.diagonal(rho).real.copy(), np.diagonal(rho).copy()):
            masks = {b: np.diagonal(mask).real for b, mask in op._masks.items()}
            want = _broadcast_masked(masks, op.targets, diagonal.reshape((2,) * n)).reshape(diagonal.shape)
            _assert_same_bits(evolve_diagonal(op, diagonal), want)


class TestApply:
    def test_hadamard_on_ket0(self):
        op = lift_unitary(builtin_gate("h"), 1, [0])
        out = apply(op, pure_to_density(basis_state(1, 0)))
        np.testing.assert_allclose(out.matrix, np.full((2, 2), 0.5), atol=1e-12)

    def test_random_operations_preserve_trace(self):
        rng = np.random.default_rng(67)
        for n in (1, 2):
            op = QuantumOperation(random_kraus_family(n, rng), range(n), n)
            rho = random_density(n, rng=rng)
            out = apply(op, rho)
            assert abs(linalg.trace(out.matrix) - 1.0) <= 1e-10

    def test_rejects_non_trace_preserving_family(self):
        with pytest.raises(ValueError, match="trace preserving"):
            QuantumOperation([np.eye(2) * 0.5], [0], 1)

    def test_unitary_lift_preserves_purity(self):
        rng = np.random.default_rng(71)
        rho = random_density(2, rng=rng, rank=2)
        op = lift_unitary(builtin_gate("sqrtnot"), 2, [1])
        assert abs(apply(op, rho).purity() - rho.purity()) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="qubit count"):
            apply(lift_unitary(GATES["id"], 2, [0]), random_density(1, rng=3))

    def test_result_is_not_checked_again(self, monkeypatch):
        rho, calls = random_density(2, rng=5), []
        monkeypatch.setattr(linalg, "is_psd", lambda *args: calls.append(args))
        apply(lift_unitary(builtin_gate("h"), 2, [1]), rho)
        assert calls == []


class TestMeasurementChannel:
    def test_dephases_the_hadamard_state(self):
        rho = DensityOperator(np.full((2, 2), 0.5))
        out = apply(measurement_channel(1, {0}), rho)
        np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-12)

    def test_basis_state_is_a_fixed_point(self):
        rho = pure_to_density(basis_state(1, 0))
        out = apply(measurement_channel(1, {0}), rho)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-15)

    def test_preserves_the_diagonal(self):
        rng = np.random.default_rng(73)
        rho = random_density(3, rng=rng)
        out = apply(measurement_channel(3, {0, 2}), rho)
        np.testing.assert_allclose(
            np.diagonal(out.matrix), np.diagonal(rho.matrix), atol=1e-12
        )

    def test_idempotent_as_a_map(self):
        rng = np.random.default_rng(79)
        rho = random_density(2, rng=rng)
        ch = measurement_channel(2, {0, 1})
        once = apply(ch, rho)
        twice = apply(ch, once)
        assert linalg.max_abs(twice.matrix - once.matrix) <= 1e-12

    def test_partial_measurement_keeps_unmeasured_coherence(self):
        plus = qubit(INV_SQRT2, INV_SQRT2).amplitudes
        rho = DensityOperator(np.outer(np.kron(plus, plus), np.kron(plus, plus).conj()))
        out = apply(measurement_channel(2, {0}), rho)
        # qubit 1 coherence survives inside each measured sector
        assert abs(out.matrix[0, 1]) > 0.2

    def test_projectors_are_built_when_read(self):
        op = measurement_channel(3, [2, 0])
        assert op.targets == (0, 2)
        assert len(op.kraus) == 4
        for s, p in enumerate(op.kraus):
            assert np.array_equal(p, np.diag(np.eye(4)[s]).astype(complex))
            assert not p.flags.writeable
        assert np.array_equal(op.kraus[-1], op.kraus[3])
        with pytest.raises(IndexError):
            op.kraus[4]
        total = sum(linalg.dagger(a) @ a for a in op.kraus)
        assert np.array_equal(total, np.eye(4))

    def test_measuring_every_qubit_keeps_exactly_the_diagonal(self):
        rho = random_density(6, rng=83).matrix
        out = evolve(measurement_channel(6, range(6)), rho)
        assert np.array_equal(out, np.diag(np.diagonal(rho)))

    def test_bad_indices(self):
        with pytest.raises(ValueError, match="non-empty"):
            measurement_channel(2, set())
        with pytest.raises(ValueError, match="out of range"):
            measurement_channel(2, {2})


class TestNoiseChannel:
    def test_zero_probability_is_the_identity_channel(self):
        for kind in ("bitflip", "depolarizing"):
            op = noise_channel(kind, 0.0, 1, 0)
            assert channels_equal(op, lift_unitary(GATES["id"], 1, [0]), SPANNING_1Q)

    def test_certain_bit_flip(self):
        op = noise_channel("bitflip", 1.0, 1, 0)
        out = apply(op, pure_to_density(basis_state(1, 0)))
        np.testing.assert_allclose(out.matrix, np.diag([0, 1.0]), atol=1e-15)

    def test_full_depolarizing_is_the_pauli_twirl(self):
        op = noise_channel("depolarizing", 1.0, 1, 0)
        for rho in SPANNING_1Q:
            out = apply(op, rho)
            np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-12)

    def test_acts_only_on_the_target(self):
        op = noise_channel("bitflip", 1.0, 2, 1)
        out = apply(op, pure_to_density(basis_state(2, "00")))
        np.testing.assert_allclose(
            out.matrix, pure_to_density(basis_state(2, "01")).matrix, atol=1e-15
        )

    def test_underscore_spelling_is_rejected_as_in_the_dsl(self):
        # The builder and a ``noise`` line accept the same kinds.
        with pytest.raises(ValueError, match="^unknown noise kind 'bit_flip'$"):
            noise_channel("bit_flip", 0.5, 1, 0)
        with pytest.raises(ValueError, match="unknown noise kind 'bit_flip'$"):
            parse_circuit("qubits 1\nnoise bit_flip 0.5 0\n")

    @given(st.floats(0, 1), st.data())
    def test_bit_flip_moves_exactly_its_weight(self, p, data):
        # The masks are built from p itself, so a basis state keeps exactly
        # 1 - p and its flip gets exactly p.
        n = data.draw(st.integers(1, 3))
        index, target = data.draw(st.integers(0, 2**n - 1)), data.draw(st.integers(0, n - 1))
        rho = pure_to_density(basis_state(n, index))
        out = np.diagonal(apply(noise_channel("bitflip", p, n, target), rho).matrix)
        flipped = index ^ (1 << (n - 1 - target))
        if p < 1:
            assert out[index] == 1 - p
        if p > 0:
            assert out[flipped] == p
        assert np.count_nonzero(out) == (p > 0) + (p < 1)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError, match="probability"):
            noise_channel("bitflip", 1.5, 1, 0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="noise kind"):
            noise_channel("amplitude_damping", 0.1, 1, 0)

    def test_every_kind_weighs_its_paulis_as_a_distribution(self):
        for kind, weights in NOISE_KINDS.items():
            for p in (0.0, 0.25, 0.5, 1.0):
                ws = [w for _, w in weights(p)]
                assert all(w >= 0.0 for w in ws), (kind, p)
                assert sum(ws) == 1.0, (kind, p)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Gate("skew", [[1, 1], [0, 1]]), "gate 'skew' is not unitary"),
        (lambda: QuantumOperation([], [0], 1), "Kraus family must be non-empty"),
        (lambda: QuantumOperation([np.eye(2), np.eye(4)], [0], 1), "Kraus matrices must share one dimension"),
    ],
    ids=["non-unitary gate", "no Kraus matrices", "two Kraus dimensions"],
)
def test_every_constructor_rejection_reads_exactly(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message
