"""DSL parsing, simulation, distributions, sampling, and formula files."""

import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bornlab import channels, circuits, linalg
from bornlab.channels import GATES, NOISE_KINDS
from bornlab.circuits import (
    MAX_FORMULA_DEPTH,
    CircuitIr,
    GateStep,
    Histogram,
    InputError,
    MeasureStep,
    NoiseStep,
    inject_noise,
    measured_positions,
    outcome_distribution,
    output_distribution,
    parse_circuit,
    parse_formula,
    parse_formula_file,
    pretty_print,
    sample,
    simulate,
)
from bornlab.circuits import PROB_FLOOR, _by_label, _unit_vector
from bornlab.cli import main
from bornlab.qcl import And, Atom, Not, Or, _truth_qubit
from bornlab.states import DensityOperator, basis_state, pure_to_density

from conftest import THREE_QUBIT_DEMO, counting_is_psd, random_density


def _marginalize(dist: dict[str, float], positions) -> dict[str, float]:
    """The marginal of a labelled distribution on ``positions``, label by
    label: the definition ``sample``'s distribution is tested against."""
    out: dict[str, float] = {}
    for label, p in dist.items():
        key = "".join(label[q] for q in positions)
        out[key] = out.get(key, 0.0) + p
    return out


class TestParseCircuit:
    def test_demo_circuit(self):
        ir = parse_circuit(THREE_QUBIT_DEMO)
        assert ir.n_qubits == 3
        assert len(ir.steps) == 6
        assert ir.steps[0] == GateStep("not", (0,))
        assert ir.steps[-1] == MeasureStep((0, 1, 2))

    def test_empty_gate_list_is_valid(self):
        ir = parse_circuit("qubits 1\nmeasure all\n")
        assert ir.steps == (MeasureStep((0,)),)

    def test_measure_all_is_the_list_of_every_qubit(self):
        every = parse_circuit("qubits 3\ngate h 0\nmeasure all\n")
        listed = parse_circuit("qubits 3\ngate h 0\nmeasure 2 0 1\n")
        assert every == listed
        assert every.steps[-1] == MeasureStep((0, 1, 2))
        assert pretty_print(every).endswith("\nmeasure all\n")
        assert pretty_print(listed).endswith("\nmeasure all\n")

    def test_comments_and_blank_lines(self):
        ir = parse_circuit("# header\nqubits 2\n\ngate h 0  # trailing\n")
        assert ir.steps == (GateStep("h", (0,)),)

    def test_repeated_target_is_rejected(self):
        with pytest.raises(InputError, match="repeated target"):
            parse_circuit("qubits 2\ngate cnot 0 0\n")

    def test_unknown_gate(self):
        with pytest.raises(InputError, match="unknown gate"):
            parse_circuit("qubits 1\ngate phase 0\n")

    def test_arity_mismatch(self):
        with pytest.raises(InputError, match="expects 2 targets"):
            parse_circuit("qubits 2\ngate cnot 0\n")

    def test_index_out_of_range(self):
        with pytest.raises(InputError, match="out of range"):
            parse_circuit("qubits 1\ngate not 1\n")

    def test_measure_must_be_last(self):
        with pytest.raises(InputError, match="after 'measure'"):
            parse_circuit("qubits 1\nmeasure all\ngate h 0\n")

    def test_missing_header(self):
        with pytest.raises(InputError, match="qubits"):
            parse_circuit("gate h 0\n")

    def test_errors_carry_line_and_column(self):
        try:
            parse_circuit("qubits 2\ngate h 0\ngate zz 1\n")
        except InputError as err:
            assert err.line == 3
            assert err.column == 6
        else:
            pytest.fail("expected a parse error")

    def test_noise_line(self):
        ir = parse_circuit("qubits 2\nnoise depolarizing 0.25 1\n")
        assert ir.steps == (NoiseStep("depolarizing", 0.25, 1),)

    def test_noise_probability_range(self):
        with pytest.raises(InputError, match="out of"):
            parse_circuit("qubits 1\nnoise bitflip 1.5 0\n")

    def test_measure_subset_is_sorted_and_distinct(self):
        ir = parse_circuit("qubits 3\nmeasure 2 0\n")
        assert ir.steps == (MeasureStep((0, 2)),)
        with pytest.raises(InputError, match="repeated measured"):
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

    def test_an_ir_measuring_out_of_order_round_trips(self):
        ir = CircuitIr(3, (GateStep("h", (0,)), MeasureStep((2, 0))))
        assert ir.steps[-1] == MeasureStep((0, 2))
        assert parse_circuit(pretty_print(ir)) == ir

    @pytest.mark.parametrize("p", [np.float64(0.1), np.float32(0.1), 0, 1], ids=repr)
    def test_a_noise_probability_of_any_number_type_round_trips(self, p):
        ir = inject_noise(parse_circuit("qubits 1\ngate h 0\n"), "bitflip", p)
        assert type(ir.steps[1].p) is float
        assert parse_circuit(pretty_print(ir)) == ir

    def test_a_bool_noise_probability_is_rejected(self):
        with pytest.raises(ValueError, match="^noise probability True is not a number$"):
            CircuitIr(1, (NoiseStep("bitflip", True, 0),))
        with pytest.raises(ValueError, match="^noise probability False is not a number$"):
            inject_noise(parse_circuit("qubits 1\ngate h 0\n"), "bitflip", False)

    def test_measure_errors_point_at_the_token_as_written(self):
        # The measured set is sorted only after the step checks.
        with pytest.raises(InputError, match=r"^line 2, column 13: repeated measured qubit 2$"):
            parse_circuit("qubits 3\nmeasure 2 0 2\n")

    def test_a_measure_step_lists_its_qubits_and_the_ir_sorts_them(self):
        with pytest.raises(TypeError):
            MeasureStep()
        ir = CircuitIr(2, (GateStep("h", (0,)), MeasureStep((1, 0))))
        assert ir.steps[-1] == MeasureStep((0, 1))

    def test_ir_validation_on_manual_construction(self):
        with pytest.raises(ValueError, match="final step"):
            CircuitIr(2, (MeasureStep((0, 1)), GateStep("h", (0,))))
        with pytest.raises(ValueError, match="unknown gate"):
            CircuitIr(1, (GateStep("rx", (0,)),))


_ONE_QUBIT = parse_circuit("qubits 1\ngate h 0\n")

# Every fault of an IR built by hand or of a library number argument, and its
# exact message: each raises a plain ``ValueError`` that names the argument.
LIBRARY_DIAGNOSTICS = {
    "empty measured set": (
        lambda: CircuitIr(1, (GateStep("h", (0,)), MeasureStep(()))),
        "measured qubit set must be non-empty",
    ),
    "step after measure": (
        lambda: CircuitIr(1, (MeasureStep((0,)), GateStep("h", (0,)))),
        "measure must be the final step: no statements allowed after 'measure'",
    ),
    "unknown gate": (lambda: CircuitIr(1, (GateStep("H", (0,)),)), "unknown gate 'H'"),
    "gate arity": (lambda: CircuitIr(2, (GateStep("cnot", (0,)),)), "gate 'cnot' expects 2 targets, got 1"),
    "target out of range": (lambda: CircuitIr(1, (GateStep("not", (1,)),)), "qubit index 1 out of range for 1 qubits"),
    "unknown noise kind": (lambda: CircuitIr(1, (NoiseStep("bit_flip", 0.1, 0),)), "unknown noise kind 'bit_flip'"),
    "bool probability": (
        lambda: CircuitIr(1, (NoiseStep("bitflip", True, 0),)),
        "noise probability True is not a number",
    ),
    "text probability": (
        lambda: CircuitIr(1, (NoiseStep("bitflip", "0.1", 0),)),
        "noise probability '0.1' is not a number",
    ),
    "probability out of range": (
        lambda: CircuitIr(1, (NoiseStep("bitflip", 1.5, 0),)),
        "noise probability 1.5 out of [0, 1]",
    ),
    "bool qubit count": (lambda: CircuitIr(True, ()), "qubit count True is not an integer"),
    "float qubit count": (lambda: CircuitIr(2.0, ()), "qubit count 2.0 is not an integer"),
    "qubit count out of range": (lambda: CircuitIr(11, ()), "qubit count must be in 1..10, got 11"),
    "injected text probability": (
        lambda: inject_noise(_ONE_QUBIT, "bitflip", "0.1"),
        "noise probability '0.1' is not a number",
    ),
    "injected nan": (lambda: inject_noise(_ONE_QUBIT, "depolarizing", math.nan), "noise probability nan out of [0, 1]"),
    "bool shots": (lambda: Histogram(shots=True, counts={"0": 1}, seed=0), "shots True is not an integer"),
    "float seed": (lambda: Histogram(shots=1, counts={"0": 1}, seed=0.5), "seed 0.5 is not an integer"),
    "float counts": (lambda: Histogram(shots=2, counts={"0": 1.5, "1": 0.5}, seed=0), "counts must be non-negative integers"),
}


@pytest.mark.parametrize("make, message", LIBRARY_DIAGNOSTICS.values(), ids=LIBRARY_DIAGNOSTICS)
def test_every_library_diagnostic_reads_exactly(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert type(exc.value) is ValueError
    assert str(exc.value) == message


def test_a_step_of_unknown_type_is_a_type_error():
    with pytest.raises(TypeError) as exc:
        CircuitIr(1, ("gate h 0",))
    assert str(exc.value) == "unknown step 'gate h 0'"


@st.composite
def circuit_irs(draw, max_qubits=6, noise=True):
    n = draw(st.integers(1, max_qubits))
    names = sorted(g for g in GATES if GATES[g].arity <= n)
    steps = []
    for _ in range(draw(st.integers(0, 8))):
        order = draw(st.permutations(range(n)))
        if not noise or draw(st.booleans()):
            name = draw(st.sampled_from(names))
            steps.append(GateStep(name, tuple(order[: GATES[name].arity])))
        else:
            kind = draw(st.sampled_from(sorted(NOISE_KINDS)))
            steps.append(NoiseStep(kind, draw(st.floats(0.0, 1.0)), order[0]))
    if draw(st.booleans()):
        measured = draw(st.just(set(range(n))) | st.sets(st.integers(0, n - 1), min_size=1))
        steps.append(MeasureStep(tuple(sorted(measured))))
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
        except InputError:
            pass


def _message(call):
    """The message of the ``ValueError`` that ``call()`` raises, or None."""
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


def _line_message(text):
    """The message ``parse_circuit(text)`` raises, without its "line L,
    column C: " prefix, or None."""
    message = _message(lambda: parse_circuit(text))
    return None if message is None else re.sub(r"^line \d+, column \d+: ", "", message)


_GATE_OF_ARITY = {GATES[name].arity: name for name in ("h", "cnot", "toffoli")}
_qubit_lists = st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(-1, n), min_size=1, max_size=4))
)


class TestTargetRule:
    """A ``gate``, ``noise`` or ``measure`` line and the channel builder given
    the same qubit list accept the same lists and fail with the same message."""

    @settings(max_examples=300, deadline=None)
    @given(_qubit_lists)
    def test_lines_and_channel_builders_share_one_rule(self, case):
        n, qs = case
        header, fields = f"qubits {n}\n", " ".join(map(str, qs))
        measured = _line_message(f"{header}measure {fields}\n")
        assert measured == _message(lambda: channels.measurement_channel(n, qs))
        if measured is None:
            ir = parse_circuit(f"{header}measure {fields}\n")
            assert channels.measurement_channel(n, qs).targets == ir.steps[-1].targets
        noisy = _line_message(f"{header}noise bitflip 0.1 {qs[0]}\n")
        assert noisy == _message(lambda: channels.noise_channel("bitflip", 0.1, n, qs[0]))
        if len(qs) in _GATE_OF_ARITY:
            name = _GATE_OF_ARITY[len(qs)]
            gated = _line_message(f"{header}gate {name} {fields}\n")
            assert gated == _message(lambda: channels.lift_unitary(GATES[name], n, qs))


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
        assert rho.is_pure()

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

    @pytest.mark.parametrize(
        "text",
        [
            # On the vector: ``h`` is contracted from its matrix; ``cnot`` is
            # a gather and never reads its matrix.
            "qubits 2\ngate cnot 0 1\ngate h 0\nmeasure all\n",
            # On the matrix, after a noise step.
            "qubits 2\nnoise bitflip 0.1 1\ngate h 0\nmeasure all\n",
        ],
    )
    def test_a_gate_that_breaks_the_total_is_caught_where_the_run_ends(self, text, monkeypatch):
        ir = parse_circuit(text)
        monkeypatch.setattr(GATES["h"], "matrix", GATES["h"].matrix * 1.1)
        with pytest.raises(ValueError, match=r"^the circuit left probabilities that sum to 1\.21[0-9]*, not 1$"):
            simulate(ir)

    def test_an_empty_measured_set_is_rejected_by_the_ir_and_the_channel(self):
        # Circuit text cannot spell it: a bare ``measure`` is a usage error.
        for make in (lambda: CircuitIr(1, (MeasureStep(()),)), lambda: channels.measurement_channel(1, [])):
            with pytest.raises(ValueError, match="^measured qubit set must be non-empty$"):
                make()

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


def _diagonals(n):
    """2**n real entries, many at or next to the floor."""
    floor = st.sampled_from([0.0, -0.0, PROB_FLOOR, np.nextafter(PROB_FLOOR, 1.0), 1e-300, -1e-3])
    return st.lists(floor | st.floats(-1.0, 1.0), min_size=2**n, max_size=2**n).map(np.array)


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

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4).flatmap(_diagonals))
    def test_labels_keep_what_the_floor_rule_keeps_in_index_order(self, probs):
        # The loop the labelling stands for: every entry above the floor, in
        # index order, as a Python float.
        n = probs.size.bit_length() - 1
        want = {format(i, f"0{n}b"): float(p) for i, p in enumerate(probs) if float(p) > PROB_FLOOR}
        got = _by_label(n, probs)
        assert got == want
        assert list(got) == list(want)
        assert all(type(p) is float for p in got.values())


def _simulated_distribution(ir):
    return outcome_distribution(simulate(ir))


def _multinomial_counts(dist: dict[str, float], shots: int, seed: int) -> dict[str, int]:
    """The non-zero counts of one seeded multinomial draw of ``shots`` over
    the sorted labels of ``dist``."""
    labels = sorted(dist)
    sums = np.array([dist[label] for label in labels])
    tallies = np.random.default_rng(seed).multinomial(shots, sums / sums.sum())
    return {label: int(c) for label, c in zip(labels, tallies) if c > 0}


def _drawn(ir, rho, shots, seed):
    """The histogram ``sample`` draws from the state ``rho``'s distribution."""
    dist = _marginalize(outcome_distribution(rho), measured_positions(ir))
    return Histogram(shots=shots, counts=_multinomial_counts(dist, shots, seed), seed=seed)


@st.composite
def noisy_irs(draw):
    """A random 1-10 qubit circuit under ``inject_noise`` of either kind at p
    in {0, 0.5, 1} or drawn, and whether a mixing gate follows its noise.
    That is drawn first and the circuit made to agree, so both paths of
    ``output_distribution`` are drawn: a mixing gate is inserted after the
    first gate, or every mixing gate after the first becomes ``not``."""
    base = draw(circuit_irs(max_qubits=10, noise=False))
    n, steps, mixes = base.n_qubits, list(base.steps), draw(st.booleans())
    gates = [i for i, step in enumerate(steps) if isinstance(step, GateStep)]
    if mixes:
        if not gates:
            steps.insert(0, GateStep("not", (draw(st.integers(0, n - 1)),)))
            gates = [0]
        at = draw(st.integers(gates[0] + 1, len(steps) - isinstance(steps[-1], MeasureStep)))
        steps.insert(at, GateStep(draw(st.sampled_from(["h", "sqrtnot"])), (draw(st.integers(0, n - 1)),)))
    else:
        steps = [
            GateStep("not", step.targets) if i in gates[1:] and GATES[step.name].mixing else step
            for i, step in enumerate(steps)
        ]
    kind = draw(st.sampled_from(sorted(NOISE_KINDS)))
    p = draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
    return inject_noise(CircuitIr(n, tuple(steps)), kind, p), mixes


# h 0 | cnot 0 1 | toffoli 0 1 2 | measure all, the input of two record goldens.
TEN_QUBIT_CIRCUIT = (Path(__file__).resolve().parent / "circuits" / "ten_qubit.qc").read_text(encoding="utf-8")


class TestOutputDistribution:
    @settings(max_examples=120, deadline=None)
    @given(noisy_irs(), st.integers(1, 10**6), st.integers(0, 2**32 - 1))
    def test_noisy_circuits_give_the_diagonal_of_simulate_exactly(self, case, shots, seed):
        ir, mixes = case
        runs = []

        def counting_simulate(ir):
            runs.append(ir)
            return simulate(ir)

        with pytest.MonkeyPatch.context() as m:  # the state is simulated exactly when a mixing gate follows noise
            m.setattr(circuits, "simulate", counting_simulate)
            got = output_distribution(ir)
        assert len(runs) == mixes
        rho = simulate(ir)
        want = outcome_distribution(rho)
        assert got == want
        assert list(got) == list(want)
        assert sample(ir, shots, seed) == _drawn(ir, rho, shots, seed)

    @pytest.mark.parametrize("kind", sorted(NOISE_KINDS))
    def test_noise_after_the_last_mixing_gate_allocates_no_matrix(self, kind):
        # Structure, not time: the 4**10-entry matrix alone takes 16 MiB.
        ir = inject_noise(parse_circuit(TEN_QUBIT_CIRCUIT), kind, 0.01)
        tracemalloc.start()
        try:
            got = output_distribution(ir)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert got == _simulated_distribution(ir)

    def test_the_probabilities_are_checked_once_for_their_sum(self, monkeypatch):
        calls = []

        def leaking(op, probs):
            calls.append(op)
            return 0.999 * channels.evolve_diagonal(op, probs)

        ir = parse_circuit("qubits 2\ngate h 0\nnoise bitflip 0.1 0\ngate cnot 0 1\nmeasure all\n")
        monkeypatch.setattr(circuits, "evolve_diagonal", leaking)
        for run in (output_distribution, lambda ir: sample(ir, 10, 0)):
            with pytest.raises(ValueError, match=r"^the circuit left probabilities that sum to 0\.99[0-9]*, not 1$"):
                run(ir)
        assert len(calls) == 4

    @settings(max_examples=80, deadline=None)
    @given(circuit_irs(max_qubits=10, noise=False))
    def test_noise_free_circuits_give_the_diagonal_of_simulate_exactly(self, ir):
        got, want = output_distribution(ir), _simulated_distribution(ir)
        assert got == want
        assert list(got) == list(want)
        positions = measured_positions(ir)
        got, want = _marginalize(got, positions), _marginalize(want, positions)
        assert got == want
        assert list(got) == list(want)

    @settings(max_examples=60, deadline=None)
    @given(circuit_irs(max_qubits=4).filter(lambda ir: any(isinstance(s, NoiseStep) for s in ir.steps)))
    def test_noisy_circuits_give_what_simulate_gives(self, ir):
        got, want = output_distribution(ir), _simulated_distribution(ir)
        assert got == want
        assert list(got) == list(want)

    def test_a_noisy_circuit_runs_its_gates_once(self, monkeypatch):
        # The path is chosen from the steps alone: the gate prefix runs once,
        # on the probability path or inside ``simulate``, not once before
        # the choice and again after it.
        prefixes, prefix = [], circuits._gate_prefix

        def counting_prefix(ir):
            prefixes.append(ir)
            return prefix(ir)

        monkeypatch.setattr(circuits, "_gate_prefix", counting_prefix)
        for mixing in ("", "gate h 1\n"):
            ir = parse_circuit(f"qubits 3\ngate h 0\ngate cnot 0 2\nnoise bitflip 0.1 2\n{mixing}measure all\n")
            want = _simulated_distribution(ir)
            prefixes.clear()
            assert output_distribution(ir) == want
            assert prefixes == [ir]

    def test_a_non_unit_gate_fails_with_the_message_of_simulate(self, monkeypatch):
        ir = parse_circuit("qubits 2\ngate cnot 0 1\ngate h 0\nmeasure all\n")
        monkeypatch.setattr(GATES["h"], "matrix", GATES["h"].matrix * 1.1)
        message = r"^the circuit left probabilities that sum to 1\.21[0-9]*, not 1$"
        for run in (simulate, output_distribution, lambda ir: sample(ir, 10, 0)):
            with pytest.raises(ValueError, match=message):
                run(ir)

    @pytest.mark.parametrize("noise", ["", "noise bitflip 0.1 0\n", "noise bitflip 0.1 0\ngate h 1\n"])
    def test_every_run_path_checks_its_total_once_at_its_end(self, noise, monkeypatch):
        # The vector path, the probability tail and the matrix path: one
        # check per run, whatever the number of steps.
        totals, check = [], circuits._check_total

        def counting_check(total):
            totals.append(total)
            check(total)

        monkeypatch.setattr(circuits, "_check_total", counting_check)
        ir = parse_circuit(f"qubits 3\ngate h 0\ngate cnot 0 1\ngate h 2\n{noise}gate toffoli 0 1 2\nmeasure 0 2\n")
        for run in (simulate, output_distribution, lambda ir: sample(ir, 10, 0)):
            totals.clear()
            run(ir)
            assert totals == [pytest.approx(1.0, abs=1e-12)]


def _matrix_fold(ir):
    """``simulate`` with every step after the gate prefix on the matrix, the
    reference its diagonal stretches must equal: the leading gates on the
    vector |0..0>, then |psi><psi| and one ``apply`` per remaining step."""
    n, steps = ir.n_qubits, list(ir.steps)
    psi = np.eye(1, 2**n, dtype=complex)[0]
    while steps and isinstance(steps[0], GateStep):
        psi = channels.evolve(circuits._operation(n, steps.pop(0)), psi)
    rho = DensityOperator._unchecked(np.outer(psi, psi.conj()))
    for step in steps:
        rho = channels.apply(circuits._operation(n, step), rho)
    return rho.matrix


@st.composite
def staged_irs(draw):
    """A 1-6 qubit circuit in the stretches ``simulate`` tells apart: a gate
    prefix of 0/1 gates alone (a basis state) or with a mixing gate in it (a
    superposition, mostly), then noise and gates of every kind, so that
    mixing gates follow noise, then ``measure all``, a partial measure (on
    two or more qubits) or none."""
    n = draw(st.integers(1, 6))
    names = sorted(g for g in GATES if GATES[g].arity <= n)

    def gate(pool):
        name, order = draw(st.sampled_from(pool)), draw(st.permutations(range(n)))
        return GateStep(name, tuple(order[: GATES[name].arity]))

    steps = [gate([g for g in names if not GATES[g].mixing]) for _ in range(draw(st.integers(0, 3)))]
    if draw(st.booleans()):
        steps.insert(draw(st.integers(0, len(steps))), gate(["h", "sqrtnot"]))
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.booleans()):
            steps.append(gate(names))
        else:
            kind = draw(st.sampled_from(sorted(NOISE_KINDS)))
            p = draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
            steps.append(NoiseStep(kind, p, draw(st.integers(0, n - 1))))
    ending = draw(st.sampled_from(["all", "some", "none"]))
    if ending == "all":
        steps.append(MeasureStep(tuple(range(n))))
    elif ending == "some" and n > 1:
        measured = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
        steps.append(MeasureStep(tuple(sorted(measured))))
    return CircuitIr(n, tuple(steps))


# A basis state under noise, the one mixing gate, then noise and measure all.
HEAD_SPAN_TAIL = "qubits 3\ngate cnot 0 1\nnoise depolarizing 0.3 1\ngate h 1\nnoise bitflip 0.2 1\nmeasure all\n"
# A superposition under noise, a mixing gate, and a partial measure.
SPAN_THEN_PARTIAL = "qubits 3\ngate sqrtnot 2\nnoise bitflip 0.2 2\ngate h 0\ngate not 2\nmeasure 0 2\n"


class TestDiagonalStretches:
    @settings(max_examples=200, deadline=None)
    @given(staged_irs(), st.integers(1, 10**6), st.integers(0, 2**32 - 1))
    @example(parse_circuit(HEAD_SPAN_TAIL), 100, 0)
    @example(parse_circuit(SPAN_THEN_PARTIAL), 100, 0)
    def test_simulate_gives_the_matrix_fold_entry_for_entry(self, ir, shots, seed):
        want = _matrix_fold(ir)
        assert np.array_equal(simulate(ir).matrix, want)
        rho = DensityOperator._unchecked(want)
        got, expected = output_distribution(ir), outcome_distribution(rho)
        assert got == expected
        assert list(got) == list(expected)
        assert sample(ir, shots, seed) == _drawn(ir, rho, shots, seed)

    def test_the_eight_qubit_slot_applies_only_its_mixing_gate(self, monkeypatch):
        # ``cnot`` on |0..0> leaves a basis state, so its noise runs on the
        # diagonal; ``sqrtnot`` is the one step on the matrix; its noise and
        # ``measure all`` run on the matrix's diagonal.
        text = "qubits 8\ngate cnot 4 3\ngate sqrtnot 2\nmeasure all\n"
        ir = inject_noise(parse_circuit(text), "depolarizing", 0.01)
        applied, apply = [], circuits.apply

        def counting_apply(op, rho):
            applied.append(op.targets)
            return apply(op, rho)

        monkeypatch.setattr(circuits, "apply", counting_apply)
        got = simulate(ir).matrix
        assert applied == [(2,)]
        assert np.array_equal(got, _matrix_fold(ir))

    @pytest.mark.parametrize(
        "text",
        [
            "qubits 2\ngate not 0\nnoise bitflip 0.1 1\n",
            "qubits 2\nnoise bitflip 0.1 1\ngate h 0\nmeasure 1\n",
            "qubits 2\ngate h 0\nnoise bitflip 0.1 1\nmeasure all\n",
            "qubits 2\ngate h 0\nnoise bitflip 0.1 1\ngate h 1\nnoise bitflip 0.1 0\nmeasure all\n",
        ],
        ids=["head-to-the-end", "head-then-span", "tail-from-the-vector", "span-then-tail"],
    )
    @pytest.mark.parametrize(
        "broken, message",
        [
            ("negative", r"^density operator must be positive semidefinite$"),
            ("leaking", r"^the circuit left probabilities that sum to 0\.99[0-9]*, not 1$"),
        ],
    )
    def test_a_broken_diagonal_fails_the_checks_of_the_returned_state(self, monkeypatch, text, broken, message):
        # One diagonal step per circuit: moving 0.75 from its largest entry
        # to its smallest keeps the sum and leaves a negative probability;
        # scaling it by 0.999 leaks.
        calls, evolve_diagonal = [], channels.evolve_diagonal

        def breaking(op, probs):
            calls.append(op)
            out = evolve_diagonal(op, probs)
            if broken == "leaking":
                return 0.999 * out
            out = out.copy()
            out[np.argmin(out.real)] -= 0.75
            out[np.argmax(out.real)] += 0.75
            return out

        monkeypatch.setattr(circuits, "evolve_diagonal", breaking)
        with pytest.raises(ValueError, match=message):
            simulate(parse_circuit(text))
        assert len(calls) == 1


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

    def test_an_ir_labels_its_outcomes_as_its_text_does(self):
        # Labels read the measured qubits in register order, however the IR
        # listed them: qubit 0 is in superposition, qubit 2 stays 0.
        ir = CircuitIr(3, (GateStep("h", (0,)), MeasureStep((2, 0))))
        text = sample(parse_circuit("qubits 3\ngate h 0\nmeasure 2 0\n"), 1000, 5)
        assert sample(ir, 1000, 5) == text
        assert set(text.counts) == {"00", "10"}

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

    @pytest.mark.parametrize(
        "shots, seed, message",
        [
            (2.5, 0, "shots 2.5 is not an integer"),
            (True, 0, "shots True is not an integer"),
            (5, 1.5, "seed 1.5 is not an integer"),
            (5, False, "seed False is not an integer"),
            (0, 0, "shots must be >= 1"),
            (2**70, 0, "shots must be <= 9223372036854775807"),
            (1, -5, "seed must be >= 0"),
        ],
    )
    def test_sample_and_histogram_share_one_rule_for_shots_and_seed(self, shots, seed, message):
        ir = parse_circuit("qubits 1\n")
        for make in (lambda: sample(ir, shots, seed), lambda: Histogram(shots=shots, counts={"0": shots}, seed=seed)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                make()

    def test_numpy_integer_shots_and_seed_are_accepted(self):
        assert sample(parse_circuit("qubits 1\n"), np.int64(3), np.uint32(1)).counts == {"0": 3}

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
        assert sample(ir, shots, seed) == h
        n = 10**6
        counts = sample(ir, n, seed).counts
        for label, p in dist.items():
            # 6 sigma, plus 6 counts for the Poisson tail of a label with n p near 1.
            # A sure label's p may round to just above 1 (bitflip 0.5 gives two
            # halves of 0.5000000000000001), which makes p (1 - p) a tiny negative.
            bound = 6.0 * math.sqrt(max(n * p * (1.0 - p), 0.0)) + 6.0
            assert abs(counts.get(label, 0) - n * p) <= bound, (label, p)


_TESTS = Path(__file__).resolve().parent
SAMPLED_FILES = sorted((_TESTS.parent / "demos").glob("*.qc")) + sorted((_TESTS / "circuits").glob("*.qc"))


class TestSampleCommand:
    @pytest.mark.parametrize("noise", [None, "bitflip:0.05", "depolarizing:0.1"])
    @pytest.mark.parametrize("path", SAMPLED_FILES, ids=lambda path: path.name)
    def test_the_histogram_is_drawn_from_what_run_prints(self, capsys, path, noise):
        # ``sample``'s counts are one multinomial draw over the marginal, on
        # the measured qubits, of the probabilities ``run`` prints.
        flags = [] if noise is None else ["--noise", noise]
        assert main(["run", str(path), "--format", "record", *flags]) == 0
        probabilities = json.loads(capsys.readouterr().out)["probabilities"]
        positions = measured_positions(parse_circuit(path.read_text(encoding="utf-8")))
        dist = _marginalize(probabilities, positions)
        for seed in (0, 11):
            args = ["sample", str(path), "--shots", "1000", "--seed", str(seed), "--format", "record"]
            assert main([*args, *flags]) == 0
            assert json.loads(capsys.readouterr().out)["counts"] == _multinomial_counts(dist, 1000, seed)


class TestEachStepIsCheckedOnce:
    def test_the_reader_checks_each_step_once_and_inject_noise_none(self, monkeypatch):
        # ``parse_circuit`` checks each line, for its column, and builds the IR
        # without a second pass; ``inject_noise`` adds steps of a checked kind
        # and p on checked targets.  An IR built by hand checks every step.
        calls, check = [], circuits._check_step

        def counting_check(*args):
            calls.append(args)
            check(*args)

        monkeypatch.setattr(circuits, "_check_step", counting_check)
        text = (Path(__file__).parent / "circuits" / "eight_qubit_mixing.qc").read_text(encoding="utf-8")
        ir = parse_circuit(text)
        assert len(ir.steps) == 13 and len(calls) == 13
        calls.clear()
        noisy = inject_noise(ir, "depolarizing", 0.05)
        assert calls == [] and len(noisy.steps) > 13
        assert CircuitIr(noisy.n_qubits, noisy.steps) == noisy
        assert len(calls) == len(noisy.steps)


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
        with pytest.raises(InputError, match="column 5"):
            parse_formula("a & $b")
        with pytest.raises(InputError, match="unexpected end"):
            parse_formula("a &")
        with pytest.raises(InputError, match="expected '\\)'"):
            parse_formula("(a | b")

    @pytest.mark.parametrize(
        "text", ["(" * 3000 + "a" + ")" * 3000, "!" * 3000 + "a"], ids=["parentheses", "negations"]
    )
    def test_deep_nesting_is_a_parse_error_at_the_first_token_too_deep(self, text):
        with pytest.raises(InputError, match=f"column {MAX_FORMULA_DEPTH + 1}: formula nested deeper"):
            parse_formula(text)

    @pytest.mark.parametrize(
        "text, char, column",
        [("a & \u00e9", "\u00e9", 5), ("a\uff11", "\uff11", 2), ("a\u00b2 | b", "\u00b2", 2), ("\u00e9a", "\u00e9", 1)],
        ids=["latin-letter", "full-width-digit", "superscript-digit", "leading-letter"],
    )
    def test_a_name_is_ascii_letters_digits_and_underscores(self, text, char, column):
        # The rule of an atom line's name: a character no ``atom`` line can
        # bind is not read as part of a name.
        with pytest.raises(InputError, match=f"^line 1, column {column}: unexpected character {char!r}$"):
            parse_formula(text)

    def test_depth_counts_each_link_of_a_chain(self):
        chain = " & ".join(["a"] * (MAX_FORMULA_DEPTH + 1))
        assert isinstance(parse_formula("!" * MAX_FORMULA_DEPTH + "a"), Not)
        assert isinstance(parse_formula("!" * (MAX_FORMULA_DEPTH - 1) + "(a)"), Not)
        assert isinstance(parse_formula(chain), And)
        with pytest.raises(InputError, match="nested deeper"):
            parse_formula(chain + " | b")
        with pytest.raises(InputError, match="nested deeper"):
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
        except InputError:
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

    def test_a_circuit_atom_is_bound_to_its_truth_qubit(self, tmp_path):
        text = "qubits 2\ngate h 0\ngate cnot 0 1\nnoise depolarizing 0.3 1\ngate sqrtnot 1\n"
        (tmp_path / "bell.qc").write_text(text, encoding="utf-8")
        _, bindings = parse_formula_file("atom a = bell.qc\nformula = a\n", base_dir=tmp_path)
        want = _truth_qubit(simulate(parse_circuit(text)))
        assert bindings["a"].n_qubits == 1
        assert np.array_equal(bindings["a"].matrix, want.matrix)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("atom a = (1, 0, 0, 0)\nformula = a & \u00e9\n", "line 2, column 15: unexpected character '\u00e9'"),
            ("atom \u00e9 = (1, 0, 0, 0)\nformula = a\n", "line 1, column 1: bad atom name '\u00e9'"),
            ("atom a\uff11 = (1, 0, 0, 0)\nformula = a\n", "line 1, column 1: bad atom name 'a\uff11'"),
            ("atom a = (1, 0, 0, 0)\nformula = a\u00b2\n", "line 2, column 12: unexpected character '\u00b2'"),
        ],
        ids=["formula-letter", "atom-letter", "atom-full-width-digit", "formula-superscript-digit"],
    )
    def test_atom_lines_and_formulas_share_one_name_rule(self, text, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            parse_formula_file(text)

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

    def test_a_formula_line_may_come_before_its_atoms(self):
        ast, bindings = parse_formula_file("formula = a & !b\natom a = (0, 0, 1, 0)\natom b = (1, 0, 0, 0)\n")
        assert ast == And(Atom("a"), Not(Atom("b")))
        from bornlab.qcl import eval_formula

        assert eval_formula(ast, bindings) == 1.0

    def test_the_first_unbound_atom_is_reported_at_its_column(self):
        with pytest.raises(InputError, match=r"^line 1, column 11: unbound atom 'c'$") as exc:
            parse_formula_file("formula = c | b & a\natom a = (1, 0, 0, 0)\n")
        assert (exc.value.line, exc.value.column) == (1, 11)

    def test_missing_formula_line(self):
        with pytest.raises(InputError, match="missing 'formula"):
            parse_formula_file("atom a = (1, 0, 0, 0)\n")

    def test_duplicate_atom(self):
        with pytest.raises(InputError, match="duplicate atom"):
            parse_formula_file("atom a = (1,0,0,0)\natom a = (0,0,1,0)\nformula = a\n")

    def test_bad_literal(self):
        with pytest.raises(InputError, match="4 numbers"):
            parse_formula_file("atom a = (1, 0)\nformula = a\n")

    def test_missing_circuit_file(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read circuit"):
            parse_formula_file("atom a = nope.qc\nformula = a\n", base_dir=tmp_path)

    def test_atoms_whose_files_hold_one_circuit_share_one_simulated_state(self, tmp_path, monkeypatch):
        (tmp_path / "sub").mkdir()
        (tmp_path / "bell.qc").write_text("qubits 2\ngate h 0\ngate cnot 0 1\n", encoding="utf-8")
        (tmp_path / "one.qc").write_text("qubits 1\ngate not 0\n", encoding="utf-8")
        (tmp_path / "copy.qc").write_text("qubits 2\ngate h 0\ngate cnot 0 1\n", encoding="utf-8")
        runs, run = [], circuits.simulate

        def counting_simulate(ir):
            runs.append(ir)
            return run(ir)

        monkeypatch.setattr(circuits, "simulate", counting_simulate)
        text = (
            "atom a = bell.qc\natom b = sub/../bell.qc\natom c = one.qc\natom d = ./bell.qc\n"
            "atom e = copy.qc\nformula = a & b & c & d & e\n"
        )
        _, bindings = parse_formula_file(text, base_dir=tmp_path)
        assert len(runs) == 2
        assert bindings["a"] is bindings["b"] is bindings["d"] is bindings["e"]
        assert bindings["c"] is not bindings["a"]
        assert not bindings["a"].matrix.flags.writeable

    def test_a_shared_circuit_path_is_named_as_written(self, tmp_path):
        (tmp_path / "sub").mkdir()
        with pytest.raises(InputError, match=re.escape(repr(str(tmp_path / "sub/../nope.qc")))):
            parse_formula_file("atom a = sub/../nope.qc\natom b = nope.qc\nformula = a & b\n", base_dir=tmp_path)


class TestNoiseFamilies:
    @pytest.mark.parametrize("mixing", ["", "gate h 5\n"], ids=["probabilities", "simulate"])
    def test_a_noisy_sample_checks_one_family_per_call(self, mixing, tmp_path, monkeypatch, capsys):
        # Every noise step of one (kind, p) shares the family that the run's
        # first such step checked; the next call checks its own again.
        built, init = [], channels.QuantumOperation.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(channels.QuantumOperation, "__init__", counting_init)
        path = tmp_path / "six.qc"
        path.write_text(
            f"qubits 6\ngate h 0\ngate cnot 0 1\ngate toffoli 0 1 2\ngate not 4\ngate cnot 4 3\n{mixing}measure 0 1 2 3\n",
            encoding="utf-8",
        )
        outputs = []
        for _ in range(2):
            built.clear()
            assert main(["sample", str(path), "--shots", "1000", "--noise", "depolarizing:0.05"]) == 0
            assert len(built) == 1
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
