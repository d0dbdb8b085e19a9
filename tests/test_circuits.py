"""DSL parsing, simulation, distributions, sampling, and formula files."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornlab import channels, linalg
from bornlab.channels import GATES, NOISE_KINDS
from bornlab.circuits import (
    MAX_FORMULA_DEPTH,
    CircuitIr,
    CircuitParseError,
    FormulaParseError,
    GateStep,
    Histogram,
    MeasureStep,
    NoiseStep,
    histogram_csv,
    histogram_record,
    histogram_table,
    inject_noise,
    measured_positions,
    outcome_distribution,
    parse_circuit,
    parse_formula,
    parse_formula_file,
    pretty_print,
    sample,
    simulate,
)
from bornlab.circuits import _marginalize, _unit_vector
from bornlab.qcl import And, Atom, Not, Or
from bornlab.states import basis_state, pure_to_density, random_density

from conftest import THREE_QUBIT_DEMO, counting_is_psd


class TestParseCircuit:
    def test_demo_circuit(self):
        ir = parse_circuit(THREE_QUBIT_DEMO)
        assert ir.n_qubits == 3
        assert len(ir.steps) == 6
        assert ir.steps[0] == GateStep("not", (0,))
        assert ir.steps[-1] == MeasureStep(None)

    def test_empty_gate_list_is_valid(self):
        ir = parse_circuit("qubits 1\nmeasure all\n")
        assert ir.steps == (MeasureStep(None),)

    def test_comments_and_blank_lines(self):
        ir = parse_circuit("# header\nqubits 2\n\ngate h 0  # trailing\n")
        assert ir.steps == (GateStep("h", (0,)),)

    def test_repeated_target_is_rejected(self):
        with pytest.raises(CircuitParseError, match="repeated target"):
            parse_circuit("qubits 2\ngate cnot 0 0\n")

    def test_unknown_gate(self):
        with pytest.raises(CircuitParseError, match="unknown gate"):
            parse_circuit("qubits 1\ngate phase 0\n")

    def test_arity_mismatch(self):
        with pytest.raises(CircuitParseError, match="expects 2 targets"):
            parse_circuit("qubits 2\ngate cnot 0\n")

    def test_index_out_of_range(self):
        with pytest.raises(CircuitParseError, match="out of range"):
            parse_circuit("qubits 1\ngate not 1\n")

    def test_measure_must_be_last(self):
        with pytest.raises(CircuitParseError, match="after 'measure'"):
            parse_circuit("qubits 1\nmeasure all\ngate h 0\n")

    def test_missing_header(self):
        with pytest.raises(CircuitParseError, match="qubits"):
            parse_circuit("gate h 0\n")

    def test_errors_carry_line_and_column(self):
        try:
            parse_circuit("qubits 2\ngate h 0\ngate zz 1\n")
        except CircuitParseError as err:
            assert err.line == 3
            assert err.column == 6
        else:
            pytest.fail("expected a parse error")

    def test_noise_line(self):
        ir = parse_circuit("qubits 2\nnoise depolarizing 0.25 1\n")
        assert ir.steps == (NoiseStep("depolarizing", 0.25, 1),)

    def test_noise_probability_range(self):
        with pytest.raises(CircuitParseError, match="out of"):
            parse_circuit("qubits 1\nnoise bitflip 1.5 0\n")

    def test_measure_subset_is_sorted_and_distinct(self):
        ir = parse_circuit("qubits 3\nmeasure 2 0\n")
        assert ir.steps == (MeasureStep((0, 2)),)
        with pytest.raises(CircuitParseError, match="repeated measured"):
            parse_circuit("qubits 3\nmeasure 1 1\n")


class TestPrettyPrintRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            THREE_QUBIT_DEMO,
            "qubits 1\nmeasure all\n",
            "qubits 4\ngate toffoli 0 2 3\nnoise bitflip 0.05 2\nmeasure 0 3\n",
            "qubits 2\ngate sqrtnot 1\ngate cnot 1 0\n",
        ],
    )
    def test_parse_is_inverse_of_pretty_print(self, text):
        ir = parse_circuit(text)
        assert parse_circuit(pretty_print(ir)) == ir

    def test_ir_validation_on_manual_construction(self):
        with pytest.raises(ValueError, match="final step"):
            CircuitIr(2, (MeasureStep(None), GateStep("h", (0,))))
        with pytest.raises(ValueError, match="unknown gate"):
            CircuitIr(1, (GateStep("rx", (0,)),))


@st.composite
def circuit_irs(draw, max_qubits=6):
    n = draw(st.integers(1, max_qubits))
    names = sorted(g for g in GATES if GATES[g].arity <= n)
    steps = []
    for _ in range(draw(st.integers(0, 8))):
        order = draw(st.permutations(range(n)))
        if draw(st.booleans()):
            name = draw(st.sampled_from(names))
            steps.append(GateStep(name, tuple(order[: GATES[name].arity])))
        else:
            kind = draw(st.sampled_from(NOISE_KINDS))
            steps.append(NoiseStep(kind, draw(st.floats(0.0, 1.0)), order[0]))
    if draw(st.booleans()):
        measured = draw(st.none() | st.sets(st.integers(0, n - 1), min_size=1))
        steps.append(MeasureStep(None if measured is None else tuple(sorted(measured))))
    return CircuitIr(n, tuple(steps))


# Statements shaped like the grammar's, with fields drawn from valid and
# invalid values, so that generated text reaches every rule of the step
# checker and not only the syntax checks.
_field = st.sampled_from(["0", "1", "2", "-1", "11", "0.5", "1.5", "-0.0", "nan", "x", "all"])
_fields = st.lists(_field, max_size=4).map(" ".join)
_statement = st.one_of(
    st.tuples(st.just("qubits"), _field),
    st.tuples(st.just("gate"), st.sampled_from([*GATES, "H", "phase"]), _fields),
    st.tuples(st.just("noise"), st.sampled_from([*NOISE_KINDS, "bit_flip"]), _field, _field),
    st.tuples(st.just("measure"), _fields),
    st.tuples(st.sampled_from(["qubits", "gate", "noise", "measure", "#", "end"]), _fields),
).map(" ".join)
circuit_like_text = st.lists(_statement, max_size=8).map("\n".join)


class TestParseProperties:
    @settings(max_examples=200, deadline=None)
    @given(circuit_irs())
    def test_parse_inverts_pretty_print(self, ir):
        assert parse_circuit(pretty_print(ir)) == ir

    @settings(max_examples=400, deadline=None)
    @given(st.text() | circuit_like_text)
    def test_any_text_raises_only_circuit_parse_errors(self, text):
        try:
            parse_circuit(text)
        except CircuitParseError:
            pass


class TestSimulate:
    def test_demo_circuit_is_the_identity_wire(self):
        rho = simulate(parse_circuit(THREE_QUBIT_DEMO))
        expected = pure_to_density(basis_state(3, 0)).matrix
        assert linalg.max_abs(rho.matrix - expected) <= 1e-12

    def test_hadamard_then_measure_is_maximally_mixed(self):
        rho = simulate(parse_circuit("qubits 1\ngate h 0\nmeasure all\n"))
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)

    def test_noiseless_circuits_preserve_purity(self):
        ir = parse_circuit("qubits 2\ngate h 0\ngate cnot 0 1\ngate sqrtnot 1\n")
        rho = simulate(ir)
        assert rho.is_pure(1e-10)

    def test_custom_input_state(self):
        ir = parse_circuit("qubits 1\ngate not 0\n")
        out = simulate(ir, input_state=pure_to_density(basis_state(1, 1)))
        np.testing.assert_allclose(
            out.matrix, pure_to_density(basis_state(1, 0)).matrix, atol=1e-15
        )

    def test_input_dimension_mismatch(self):
        ir = parse_circuit("qubits 2\n")
        with pytest.raises(ValueError, match="qubits"):
            simulate(ir, input_state=random_density(1, rng=3))

    def test_disjoint_gate_steps_commute(self):
        a = simulate(parse_circuit("qubits 2\ngate not 0\ngate h 1\n"))
        b = simulate(parse_circuit("qubits 2\ngate h 1\ngate not 0\n"))
        assert linalg.max_abs(a.matrix - b.matrix) <= 1e-12

    def test_measured_circuit_checks_positivity_once_on_its_sector_blocks(self, monkeypatch):
        # Structure, not time: a 10-qubit noise-free circuit ending in
        # ``measure 0`` runs one positivity check and one hermiticity check,
        # on its two 512 x 512 sector blocks, and no eigensolver on the
        # 1024 x 1024 matrix.
        psd_shapes, hermitian_shapes, eig_shapes = [], [], []
        is_hermitian, eigvalsh = linalg.is_hermitian, np.linalg.eigvalsh

        def counting_is_hermitian(a, *args, **kwargs):
            hermitian_shapes.append(a.shape)
            return is_hermitian(a, *args, **kwargs)

        def counting_eigvalsh(a, *args, **kwargs):
            eig_shapes.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(linalg, "is_psd", counting_is_psd(psd_shapes))
        monkeypatch.setattr(linalg, "is_hermitian", counting_is_hermitian)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        ir = parse_circuit("qubits 10\ngate h 9\ngate h 3\ngate toffoli 9 3 0\nmeasure 0\n")
        dist = outcome_distribution(simulate(ir))
        assert psd_shapes == [(2, 512, 512)]
        assert hermitian_shapes == [(2, 512, 512)]
        assert all(shape[-1] < 1024 for shape in eig_shapes)
        assert sum(p for label, p in dist.items() if label[0] == "1") == pytest.approx(0.25, abs=1e-12)

    def test_noise_and_measure_steps_contract_nothing_register_sized(self, monkeypatch):
        # Structure, not time: depolarizing noise and measurement are masks on
        # the 1024 x 1024 matrix.  The one contraction is the leading ``h``,
        # on the 1024-amplitude vector.
        contracted, tensordot_sizes = [], []
        contract, tensordot = channels._contract, np.tensordot

        def counting_contract(a, axes, t):
            contracted.append(t.shape)
            return contract(a, axes, t)

        def counting_tensordot(a, b, *args, **kwargs):
            tensordot_sizes.append(max(a.size, b.size))
            return tensordot(a, b, *args, **kwargs)

        monkeypatch.setattr(channels, "_contract", counting_contract)
        monkeypatch.setattr(np, "tensordot", counting_tensordot)
        ir = parse_circuit("qubits 10\ngate h 0\nnoise depolarizing 0.2 0\nmeasure 0 3\n")
        dist = outcome_distribution(simulate(ir))
        assert contracted == [(2,) * 10]
        assert all(size < 4**10 for size in tensordot_sizes)
        assert sum(p for label, p in dist.items() if label[0] == "1") == pytest.approx(0.5, abs=1e-12)
        assert all(label[3] == "0" for label in dist)

    def test_noise_free_prefix_checks_the_norm_after_each_gate(self, monkeypatch):
        # A gate that breaks the norm is caught at its own step on the vector.
        ir = parse_circuit("qubits 2\ngate h 0\ngate cnot 0 1\nmeasure all\n")
        bad = GATES["cnot"].matrix * 1.1
        monkeypatch.setattr(GATES["cnot"], "matrix", bad)
        with pytest.raises(ValueError, match=r"step 2 \(.*cnot.*\) left a vector that is not of unit norm"):
            simulate(ir)

    @pytest.mark.parametrize("measure", ["", "measure 0\n"])
    @pytest.mark.parametrize(
        "entries, broken", [([(0, 1)], "hermitian"), ([(0, 1), (1, 0)], "positive semidefinite")]
    )
    def test_broken_result_fails_the_density_operator_check(self, monkeypatch, measure, entries, broken):
        # A noise step that adds 1e-6 to entry (0, 1) of |0+><0+|, inside the
        # sector of ``measure 0``, leaves a non-hermitian state; adding it to
        # (1, 0) too leaves an eigenvalue of -1e-6.  Either is caught once, on
        # the returned state, with the message ``DensityOperator`` gives.
        evolve = channels.evolve

        def skewing_evolve(op, state):
            out = evolve(op, state)
            if any(np.count_nonzero(k - np.diag(np.diagonal(k))) for k in op.kraus):
                out = out.copy()
                for entry in entries:
                    out[entry] += 1e-6
            return out

        monkeypatch.setattr(channels, "evolve", skewing_evolve)
        ir = parse_circuit("qubits 2\ngate h 1\nnoise bitflip 0.1 1\n" + measure)
        with pytest.raises(ValueError, match=f"^density operator must be {broken}$"):
            simulate(ir)

    def test_returned_state_is_read_only(self):
        rho = simulate(parse_circuit("qubits 2\ngate h 0\nnoise bitflip 0.1 1\nmeasure 1\n"))
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 2.0


class TestOutcomeDistribution:
    def test_basis_state_is_a_point_mass(self):
        dist = outcome_distribution(pure_to_density(basis_state(3, 0)))
        assert dist == {"000": 1.0}

    def test_maximally_mixed_qubit(self):
        from bornlab.states import DensityOperator

        dist = outcome_distribution(DensityOperator(np.eye(2) / 2))
        assert set(dist) == {"0", "1"}
        assert abs(dist["0"] - 0.5) <= 1e-12

    def test_demo_circuit_distribution(self):
        dist = outcome_distribution(simulate(parse_circuit(THREE_QUBIT_DEMO)))
        assert abs(dist["000"] - 1.0) <= 1e-12
        assert set(dist) == {"000"}

    def test_sums_to_one(self):
        rng = np.random.default_rng(79)
        dist = outcome_distribution(random_density(3, rng=rng))
        assert abs(sum(dist.values()) - 1.0) <= 1e-10


class TestSample:
    def test_deterministic_for_fixed_seed(self):
        ir = parse_circuit("qubits 1\ngate h 0\nmeasure all\n")
        assert sample(ir, 500, 42) == sample(ir, 500, 42)

    def test_point_mass_circuit(self):
        ir = parse_circuit(THREE_QUBIT_DEMO)
        for seed in range(10):
            assert sample(ir, 1024, seed).counts == {"000": 1024}

    def test_noisy_demo_keeps_the_modal_outcome(self):
        ir = inject_noise(parse_circuit(THREE_QUBIT_DEMO), "bitflip", 0.05)
        h = sample(ir, 1024, 7)
        assert max(h.counts, key=h.counts.get) == "000"
        assert len(h.counts) >= 2

    def test_subset_measurement_marginalizes(self):
        ir = parse_circuit("qubits 2\ngate not 1\nmeasure 1\n")
        h = sample(ir, 64, 1)
        assert h.counts == {"1": 64}

    def test_histogram_invariants(self):
        with pytest.raises(ValueError, match="sum to shots"):
            Histogram(shots=2, counts={"0": 1}, seed=0)
        with pytest.raises(ValueError, match="one length"):
            Histogram(shots=2, counts={"0": 1, "01": 1}, seed=0)

    def test_shots_must_be_positive(self):
        ir = parse_circuit("qubits 1\n")
        with pytest.raises(ValueError, match="shots"):
            sample(ir, 0, 0)

    def test_shots_must_fit_one_multinomial_draw(self):
        ir = parse_circuit("qubits 1\n")
        assert sample(ir, 2**63 - 1, 0).counts == {"0": 2**63 - 1}
        with pytest.raises(ValueError, match="shots must be <= 9223372036854775807"):
            sample(ir, 2**63, 0)

    def test_seed_must_be_non_negative(self):
        ir = parse_circuit("qubits 1\n")
        with pytest.raises(ValueError, match="seed must be >= 0"):
            sample(ir, 1, -1)

    def test_empirical_frequency_tracks_the_distribution(self):
        ir = parse_circuit("qubits 1\ngate h 0\nmeasure all\n")
        h = sample(ir, 100_000, 2026)
        freq = h.counts["0"] / h.shots
        assert 0.494 <= freq <= 0.506  # ~4 sigma at 1e5 shots


def _idle_qubits(ir):
    """Qubits no gate or noise step acts on: they stay |0> exactly."""
    touched = set()
    for step in ir.steps:
        if isinstance(step, GateStep):
            touched.update(step.targets)
        elif isinstance(step, NoiseStep):
            touched.add(step.target)
    return set(range(ir.n_qubits)) - touched


class TestSampleProperties:
    @settings(max_examples=150, deadline=None)
    @given(circuit_irs(max_qubits=4), st.integers(1, 10**12), st.integers(0, 2**63))
    def test_counts_follow_the_exact_distribution(self, ir, shots, seed):
        h = sample(ir, shots, seed)
        assert sum(h.counts.values()) == shots
        positions = measured_positions(ir)
        dist = _marginalize(outcome_distribution(simulate(ir)), positions)
        idle = [i for i, q in enumerate(positions) if q in _idle_qubits(ir)]
        for label in h.counts:
            assert label in dist
            assert all(label[i] == "0" for i in idle)
        assert histogram_record(sample(ir, shots, seed)) == histogram_record(h)
        n = 10**6
        counts = sample(ir, n, seed).counts
        for label, p in dist.items():
            # 6 sigma, plus 6 counts for the Poisson tail of a label with n p near 1.
            # A sure label's p may round to just above 1 (bitflip 0.5 gives two
            # halves of 0.5000000000000001), which makes p (1 - p) a tiny negative.
            bound = 6.0 * math.sqrt(max(n * p * (1.0 - p), 0.0)) + 6.0
            assert abs(counts.get(label, 0) - n * p) <= bound, (label, p)


class TestHistogramSerialization:
    def setup_method(self):
        self.h = Histogram(shots=4, counts={"10": 1, "00": 3}, seed=9)

    def test_table(self):
        assert histogram_table(self.h) == "shots 4\nseed 9\n00 3\n10 1\n"

    def test_csv(self):
        assert histogram_csv(self.h) == "# shots=4 seed=9\noutcome,count\n00,3\n10,1\n"

    def test_record_round_trips_through_json(self):
        import json

        payload = json.loads(histogram_record(self.h))
        assert payload == {"shots": 4, "seed": 9, "counts": {"00": 3, "10": 1}}


class TestInjectNoise:
    def test_adds_one_step_per_gate_target(self):
        ir = parse_circuit("qubits 2\ngate cnot 0 1\nmeasure all\n")
        noisy = inject_noise(ir, "depolarizing", 0.1)
        kinds = [type(s).__name__ for s in noisy.steps]
        assert kinds == ["GateStep", "NoiseStep", "NoiseStep", "MeasureStep"]
        assert noisy.steps[1] == NoiseStep("depolarizing", 0.1, 0)
        assert noisy.steps[2] == NoiseStep("depolarizing", 0.1, 1)

    def test_rejects_bad_spec(self):
        ir = parse_circuit("qubits 1\n")
        with pytest.raises(ValueError, match="noise kind"):
            inject_noise(ir, "thermal", 0.1)
        with pytest.raises(ValueError, match="probability"):
            inject_noise(ir, "bitflip", 2.0)


class TestParseFormula:
    def test_precedence_not_binds_tightest(self):
        assert parse_formula("!a & b") == And(Not(Atom("a")), Atom("b"))

    def test_and_binds_tighter_than_or(self):
        assert parse_formula("a | b & c") == Or(Atom("a"), And(Atom("b"), Atom("c")))

    def test_parentheses_group(self):
        assert parse_formula("(a | b) & c") == And(Or(Atom("a"), Atom("b")), Atom("c"))

    def test_left_associativity(self):
        assert parse_formula("a & b & c") == And(And(Atom("a"), Atom("b")), Atom("c"))

    def test_error_positions(self):
        with pytest.raises(FormulaParseError, match="column 5"):
            parse_formula("a & $b")
        with pytest.raises(FormulaParseError, match="unexpected end"):
            parse_formula("a &")
        with pytest.raises(FormulaParseError, match="expected '\\)'"):
            parse_formula("(a | b")

    @pytest.mark.parametrize(
        "text", ["(" * 3000 + "a" + ")" * 3000, "!" * 3000 + "a"], ids=["parentheses", "negations"]
    )
    def test_deep_nesting_is_a_parse_error_at_the_first_token_too_deep(self, text):
        with pytest.raises(FormulaParseError, match=f"column {MAX_FORMULA_DEPTH + 1}: formula nested deeper"):
            parse_formula(text)

    def test_depth_counts_each_link_of_a_chain(self):
        chain = " & ".join(["a"] * (MAX_FORMULA_DEPTH + 1))
        assert isinstance(parse_formula("!" * MAX_FORMULA_DEPTH + "a"), Not)
        assert isinstance(parse_formula("!" * (MAX_FORMULA_DEPTH - 1) + "(a)"), Not)
        assert isinstance(parse_formula(chain), And)
        with pytest.raises(FormulaParseError, match="nested deeper"):
            parse_formula(chain + " | b")
        with pytest.raises(FormulaParseError, match="nested deeper"):
            parse_formula("b | !" + chain)


_formula_token = st.sampled_from(["a", "b_1", "!", "&", "|", "(", ")", " ", "$", "1"])
_formula_like = st.lists(_formula_token, max_size=30).map("".join)
_deep_prefix = st.tuples(st.sampled_from(["!", "(", "!(", "a&", "a|"]), st.integers(0, 300))


class TestParseFormulaProperties:
    @settings(max_examples=400, deadline=None)
    @given(st.text() | _formula_like | st.tuples(_deep_prefix, _formula_like).map(lambda t: t[0][0] * t[0][1] + t[1]))
    def test_any_text_raises_only_formula_parse_errors(self, text):
        try:
            parse_formula(text)
        except FormulaParseError:
            pass


class TestParseFormulaFile:
    def test_literal_atoms(self):
        text = (
            "# two even superpositions\n"
            "atom a = (0.70710678, 0, 0.70710678, 0)\n"
            "atom b = (0.70710678, 0, 0.70710678, 0)\n"
            "formula = a & b\n"
        )
        ast, bindings = parse_formula_file(text)
        assert ast == And(Atom("a"), Atom("b"))
        assert set(bindings) == {"a", "b"}
        from bornlab.qcl import eval_formula

        assert abs(eval_formula(ast, bindings) - 0.25) <= 1e-9

    def test_circuit_atom(self, tmp_path):
        (tmp_path / "h.qc").write_text("qubits 1\ngate h 0\n", encoding="utf-8")
        text = "atom a = h.qc\nformula = a\n"
        ast, bindings = parse_formula_file(text, base_dir=tmp_path)
        assert abs(bindings["a"].matrix[0, 0] - 0.5) <= 1e-12

    def test_literals_are_normalized(self):
        ast, bindings = parse_formula_file("atom a = (1, 0, 1, 0)\nformula = a\n")
        assert abs(bindings["a"].matrix[0, 1] - 0.5) <= 1e-12

    def test_unit_vector_of_moderate_magnitude_matches_plain_division_bit_for_bit(self):
        # The power-of-two prescale is exact, so a vector far from overflow and
        # underflow gets the bits of plain division.
        rng = np.random.default_rng(83)
        for _ in range(200):
            dim = 2 ** int(rng.integers(1, 6))
            v = (rng.normal(size=dim) + 1j * rng.normal(size=dim)) * 10.0 ** rng.uniform(-100, 100)
            assert np.array_equal(_unit_vector(v), v / np.linalg.norm(v))

    def test_missing_formula_line(self):
        with pytest.raises(FormulaParseError, match="missing 'formula"):
            parse_formula_file("atom a = (1, 0, 0, 0)\n")

    def test_duplicate_atom(self):
        with pytest.raises(FormulaParseError, match="duplicate atom"):
            parse_formula_file("atom a = (1,0,0,0)\natom a = (0,0,1,0)\nformula = a\n")

    def test_bad_literal(self):
        with pytest.raises(FormulaParseError, match="4 numbers"):
            parse_formula_file("atom a = (1, 0)\nformula = a\n")

    def test_missing_circuit_file(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read circuit"):
            parse_formula_file("atom a = nope.qc\nformula = a\n", base_dir=tmp_path)
