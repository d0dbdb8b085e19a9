"""Truth probability, probabilistic connectives, and formula evaluation."""

import functools
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornlab import channels, linalg
from bornlab.channels import apply, builtin_gate, lift_unitary
from bornlab.circuits import parse_circuit, simulate
from bornlab.qcl import (
    And,
    Atom,
    GateApp,
    Not,
    Or,
    eval_formula,
    eval_formula_state,
    qcl_and,
    qcl_not,
    qcl_or,
    truth_probability,
)
from bornlab.states import (
    DensityOperator,
    Projector,
    basis_state,
    born_expectation,
    pure_to_density,
    qubit,
)

from conftest import counting_is_psd, random_density, random_pure

INV_SQRT2 = 1.0 / np.sqrt(2.0)

TRUE = pure_to_density(basis_state(1, 1))
FALSE = pure_to_density(basis_state(1, 0))
HALF = pure_to_density(qubit(INV_SQRT2, INV_SQRT2))


def diag_truth_probability(rho):
    """Independent oracle: sum the diagonal over odd indices (last bit 1)."""
    return float(np.real(sum(rho.matrix[i, i] for i in range(rho.dim) if i & 1)))


class TestTruthProbability:
    def test_true_qubit(self):
        assert truth_probability(TRUE) == 1.0

    def test_superposition_reads_the_c1_weight(self):
        rng = np.random.default_rng(97)
        for _ in range(10):
            psi = random_pure(1, rng)
            p = truth_probability(pure_to_density(psi))
            assert abs(p - abs(psi.amplitudes[1]) ** 2) <= 1e-12

    def test_register_ending_in_zero_is_false(self):
        for bits in ("00", "10", "110"):
            rho = pure_to_density(basis_state(len(bits), bits))
            assert truth_probability(rho) == 0.0

    def test_depends_only_on_the_last_qubit(self):
        rng = np.random.default_rng(101)
        for n in (2, 3):
            rho = random_density(n, rng=rng)
            reduced_matrix = np.einsum("iaib->ab", rho.matrix.reshape(2 ** (n - 1), 2, 2 ** (n - 1), 2))
            from bornlab.states import DensityOperator

            reduced = DensityOperator(reduced_matrix)
            assert abs(truth_probability(rho) - truth_probability(reduced)) <= 1e-12

    def test_matches_the_truth_projector(self):
        rng = np.random.default_rng(103)
        for n in range(1, 8):
            for rho in (random_density(n, rng=rng), pure_to_density(random_pure(n, rng))):
                truth = Projector(np.diag(np.arange(2**n) & 1).astype(complex))
                expected = born_expectation(rho, truth)
                assert abs(truth_probability(rho) - expected) <= 1e-15


class TestNot:
    def test_flips_basis_states(self):
        np.testing.assert_allclose(qcl_not(FALSE).matrix, TRUE.matrix, atol=1e-15)

    def test_half_is_a_fixed_point_of_the_law(self):
        assert abs(truth_probability(qcl_not(HALF)) - 0.5) <= 1e-12

    def test_law_on_random_mixed_states(self):
        rng = np.random.default_rng(103)
        for _ in range(25):
            rho = random_density(2, rng=rng)
            lhs = diag_truth_probability(qcl_not(rho))
            rhs = 1.0 - diag_truth_probability(rho)
            assert abs(lhs - rhs) <= 1e-12


@st.composite
def signed_zero_matrices(draw):
    """A 2**n x 2**n complex matrix on 1-3 qubits whose real and imaginary
    parts are drawn from [-1, 1], zeros of either sign among them, wrapped
    unchecked: ``qcl_and`` reads the entries of its operands, not their
    positivity."""
    dim = 2 ** draw(st.integers(1, 3))
    part = st.sampled_from([0.0, -0.0]) | st.floats(-1.0, 1.0)
    parts = draw(st.lists(part, min_size=2 * dim * dim, max_size=2 * dim * dim))
    return DensityOperator._unchecked(np.array(parts).view(complex).reshape(dim, dim))


class TestAnd:
    def test_classical_corner_true_true(self):
        assert truth_probability(qcl_and(TRUE, TRUE)) == 1.0

    def test_half_times_half(self):
        assert abs(truth_probability(qcl_and(HALF, HALF)) - 0.25) <= 1e-12

    def test_false_annihilates(self):
        rng = np.random.default_rng(107)
        for n in (1, 2):
            rho = random_density(n, rng=rng)
            assert truth_probability(qcl_and(rho, FALSE)) == 0.0

    def test_product_law_on_random_mixed_pairs(self):
        rng = np.random.default_rng(109)
        for _ in range(15):
            rho = random_density(int(rng.integers(1, 3)), rng=rng)
            sigma = random_density(int(rng.integers(1, 3)), rng=rng)
            got = truth_probability(qcl_and(rho, sigma))
            want = truth_probability(rho) * truth_probability(sigma)
            assert abs(got - want) <= 1e-12

    def test_output_keeps_all_qubits(self):
        out = qcl_and(random_density(2, rng=0), random_density(1, rng=1))
        assert out.n_qubits == 4

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(signed_zero_matrices(), signed_zero_matrices())
    def test_the_joint_is_the_double_kron_bit_for_bit(self, rho, sigma):
        # The reference forms rho (x) sigma (x) |0><0| by np.kron and then
        # applies the Toffoli.  The entries hold zeros of either sign, which
        # a multiply in another order, or on other operands, would change.
        n, m = rho.n_qubits, sigma.n_qubits
        joint = DensityOperator._unchecked(np.kron(np.kron(rho.matrix, sigma.matrix), KET0))
        want = apply(lift_unitary(builtin_gate("toffoli"), n + m + 1, [n - 1, n + m - 1, n + m]), joint).matrix
        got = qcl_and(rho, sigma).matrix
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))


class TestResultsAreReadOnly:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: apply(lift_unitary(builtin_gate("h"), 1, [0]), FALSE),
            lambda: qcl_not(HALF),
            lambda: qcl_and(HALF, TRUE),
            lambda: qcl_or(HALF, FALSE),
            lambda: simulate(parse_circuit("qubits 2\ngate h 0\nnoise bitflip 0.1 1\n")),
        ],
        ids=["apply", "qcl_not", "qcl_and", "qcl_or", "simulate"],
    )
    def test_writing_into_a_result_raises(self, make):
        with pytest.raises(ValueError, match="read-only"):
            make().matrix[0, 0] = 0.5


class TestOr:
    def test_false_or_false(self):
        assert truth_probability(qcl_or(FALSE, FALSE)) == 0.0

    def test_true_dominates(self):
        rng = np.random.default_rng(113)
        rho = random_density(1, rng=rng)
        assert abs(truth_probability(qcl_or(TRUE, rho)) - 1.0) <= 1e-12

    def test_de_morgan_arithmetic(self):
        assert abs(truth_probability(qcl_or(HALF, HALF)) - 0.75) <= 1e-12


class TestEvalFormula:
    def test_negated_false_atom(self):
        assert eval_formula(Not(Atom("a")), {"a": FALSE}) == 1.0

    def test_conjunction_of_two_half_states(self):
        p = eval_formula(And(Atom("a"), Atom("b")), {"a": HALF, "b": HALF})
        assert abs(p - 0.25) <= 1e-12

    def test_excluded_middle_fails_probabilistically(self):
        p = eval_formula(Or(Atom("a"), Not(Atom("a"))), {"a": HALF})
        assert abs(p - 0.75) <= 1e-12

    def test_unbound_atom(self):
        with pytest.raises(ValueError, match="unbound atom"):
            eval_formula(Atom("missing"), {})

    def test_ten_conjunctions_build_the_toffoli_index_once(self):
        # Each reduced conjunction is the Toffoli on qubits 0, 1, 2 of a
        # 3-qubit register: one gather index, built by the first of them.
        atoms = [Atom(f"a{k}") for k in range(11)]
        channels._register_index.cache_clear()
        p = eval_formula(functools.reduce(And, atoms), {atom.name: HALF for atom in atoms})
        info = channels._register_index.cache_info()
        assert (info.misses, info.hits) == (1, 9)
        assert abs(p - 0.5**11) <= 1e-15

    def test_malformed_tree(self):
        with pytest.raises(TypeError, match="malformed"):
            eval_formula("not a node", {})

    @pytest.mark.parametrize(
        "build,classical",
        [
            (lambda a, b: And(a, b), lambda x, y: x and y),
            (lambda a, b: Or(a, b), lambda x, y: x or y),
            (lambda a, b: Not(And(a, b)), lambda x, y: not (x and y)),
            (lambda a, b: Or(Not(a), b), lambda x, y: (not x) or y),
        ],
    )
    def test_reproduces_boolean_truth_tables(self, build, classical):
        for x, y in itertools.product((0, 1), repeat=2):
            bindings = {"a": (TRUE if x else FALSE), "b": (TRUE if y else FALSE)}
            p = eval_formula(build(Atom("a"), Atom("b")), bindings)
            assert p == float(classical(x, y))

    def test_gate_application_extension_point(self):
        # h on |0> gives the even superposition; no truth law is claimed,
        # the node simply applies the gate to the truth qubit.
        p = eval_formula(GateApp("h", Atom("a")), {"a": FALSE})
        assert abs(p - 0.5) <= 1e-12
        state = eval_formula_state(GateApp("h", GateApp("h", Atom("a"))), {"a": FALSE})
        assert abs(truth_probability(state) - 0.0) <= 1e-12

    def test_gate_application_rejects_multi_qubit_gates(self):
        with pytest.raises(ValueError, match="single-qubit"):
            eval_formula(GateApp("cnot", Atom("a")), {"a": FALSE})

    def test_gate_application_takes_the_circuit_names_only(self):
        # One lookup for formula trees and circuit lines: ``gate H 0`` is
        # rejected, and so is ``H`` here.
        with pytest.raises(ValueError, match="^unknown gate 'H'$"):
            eval_formula(GateApp("H", Atom("a")), {"a": FALSE})


# --- properties of the evaluator ---------------------------------------------

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)
MAX_COMPOSITE_QUBITS = 8  # uncapped trees reach 20+ qubits


def reference_state(ast, bindings):
    """The composite built step by step, independently of ``qcl``: each
    connective spelled out with ``np.kron``, ``lift_unitary`` and ``apply``."""

    def on_truth_qubit(gate, rho):
        return apply(lift_unitary(builtin_gate(gate), rho.n_qubits, [rho.n_qubits - 1]), rho)

    def conjunction(rho, sigma):
        n, m = rho.n_qubits, sigma.n_qubits
        joint = DensityOperator(np.kron(np.kron(rho.matrix, sigma.matrix), KET0))
        return apply(lift_unitary(builtin_gate("toffoli"), n + m + 1, [n - 1, n + m - 1, n + m]), joint)

    match ast:
        case Atom(name):
            return bindings[name]
        case Not(child):
            return on_truth_qubit("not", reference_state(child, bindings))
        case GateApp(gate, child):
            return on_truth_qubit(gate, reference_state(child, bindings))
        case And(left, right):
            return conjunction(reference_state(left, bindings), reference_state(right, bindings))
        case Or(left, right):
            negated = (on_truth_qubit("not", reference_state(x, bindings)) for x in (left, right))
            return on_truth_qubit("not", conjunction(*negated))


@st.composite
def atom_states(draw):
    """Bindings for atoms a (one qubit), b and c (one or two qubits each),
    pure or mixed; returns the bindings and each atom's qubit count."""
    sizes = {"a": 1, "b": draw(st.integers(1, 2)), "c": draw(st.integers(1, 2))}
    bindings = {
        name: random_density(q, rng=draw(st.integers(0, 2**32 - 1)), rank=draw(st.integers(1, 2**q)))
        for name, q in sizes.items()
    }
    return bindings, sizes


@st.composite
def formula_trees(draw, sizes, budget, depth=0):
    """A tree of all five node kinds whose composite spans at most ``budget``
    qubits; returns the tree and its composite's qubit count."""
    kinds = ["atom"]
    if depth < 5:
        kinds += ["not", "gate"] + (["and", "or"] if budget >= 3 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "atom":
        name = draw(st.sampled_from([name for name, q in sizes.items() if q <= budget]))
        return Atom(name), sizes[name]
    if kind in ("not", "gate"):
        child, q = draw(formula_trees(sizes, budget, depth + 1))
        if kind == "not":
            return Not(child), q
        return GateApp(draw(st.sampled_from(["h", "sqrtnot", "not", "id"])), child), q
    left, n = draw(formula_trees(sizes, budget - 2, depth + 1))
    right, m = draw(formula_trees(sizes, budget - 1 - n, depth + 1))
    return (And if kind == "and" else Or)(left, right), n + m + 1


@st.composite
def formula_pairs(draw):
    """Bindings and two trees whose conjunction spans at most the cap."""
    bindings, sizes = draw(atom_states())
    left, n = draw(formula_trees(sizes, 3))
    right, _ = draw(formula_trees(sizes, MAX_COMPOSITE_QUBITS - 1 - n))
    return bindings, left, right


CHECKED_TREE = Or(Not(Atom("a")), And(GateApp("h", Atom("b")), Atom("a")))
CHECKED_BINDINGS = {"a": HALF, "b": random_density(2, rng=7)}


class TestFormulaProperties:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_state_equals_the_step_by_step_composite(self, data):
        bindings, sizes = data.draw(atom_states())
        ast, q = data.draw(formula_trees(sizes, MAX_COMPOSITE_QUBITS))
        state = eval_formula_state(ast, bindings)
        assert state.n_qubits == q
        np.testing.assert_array_equal(state.matrix, reference_state(ast, bindings).matrix)

    @settings(max_examples=100, deadline=None)
    @given(formula_pairs())
    def test_connective_laws(self, case):
        bindings, a, b = case
        pa, pb = eval_formula(a, bindings), eval_formula(b, bindings)
        assert abs(eval_formula(Not(a), bindings) - (1.0 - pa)) <= 1e-12
        assert abs(eval_formula(And(a, b), bindings) - pa * pb) <= 1e-12
        assert abs(eval_formula(Or(a, b), bindings) - (1.0 - (1.0 - pa) * (1.0 - pb))) <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_reduced_evaluation_equals_the_composite_and_checks_one_qubit(self, data):
        bindings, sizes = data.draw(atom_states())
        ast, _ = data.draw(formula_trees(sizes, MAX_COMPOSITE_QUBITS))
        want = truth_probability(eval_formula_state(ast, bindings))
        checked = []
        with mock.patch.object(linalg, "is_psd", counting_is_psd(checked)):
            got = eval_formula(ast, bindings)
        assert abs(got - want) <= 1e-12
        assert checked == [(2, 2)]

    def test_the_composite_is_checked_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(linalg, "is_psd", counting_is_psd(calls))
        eval_formula_state(CHECKED_TREE, CHECKED_BINDINGS)
        assert calls == [(2**6, 2**6)]  # the 6-qubit composite, once

    def test_eval_formula_checks_one_truth_qubit_state(self, monkeypatch):
        calls = []
        monkeypatch.setattr(linalg, "is_psd", counting_is_psd(calls))
        eval_formula(CHECKED_TREE, CHECKED_BINDINGS)
        assert calls == [(2, 2)]  # the reduced truth qubit, once

