"""Command-line behavior: outputs, formats, determinism, and exit codes."""

import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bornlab import circuits, cli, linalg, psa, states
from bornlab.circuits import InputError, parse_chsh_file, parse_circuit, parse_formula_file, parse_psa_file
from bornlab.cli import FORMATS, build_parser, main

from conftest import THREE_QUBIT_DEMO

DEMOS = Path(__file__).resolve().parents[1] / "demos"
CIRCUITS = Path(__file__).resolve().parent / "circuits"  # inputs of the larger record goldens
HADAMARD = "qubits 1\ngate h 0\nmeasure all\n"

ZERO_STATE_PSA = """\
state pure 1 0
context computational
vector 1 0
vector 0 1
end
context hadamard
vector 0.70710678 0.70710678
vector 0.70710678 -0.70710678
end
"""


@pytest.fixture
def demo_circuit(tmp_path):
    path = tmp_path / "demo.qc"
    path.write_text(THREE_QUBIT_DEMO, encoding="utf-8")
    return path


class TestParser:
    def test_built_once_and_shared_by_every_call(self, demo_circuit, capsys):
        assert build_parser() is build_parser()
        assert main(["run", str(demo_circuit)]) == 0
        first = capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["run", str(demo_circuit), "--tol", "1e-9"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(["run", str(demo_circuit)]) == 0
        assert capsys.readouterr().out == first


class TestRun:
    def test_demo_circuit_prints_one_line(self, demo_circuit, capsys):
        assert main(["run", str(demo_circuit)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == ["000 1.000000"]

    def test_nonexistent_file_names_the_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.qc"
        assert main(["run", str(missing)]) == 1
        err = capsys.readouterr().err
        assert "nope.qc" in err

    @pytest.mark.parametrize(
        "exc, message",
        [
            (MemoryError("Unable to allocate 16.0 MiB"), "error: out of memory: Unable to allocate 16.0 MiB\n"),
            (MemoryError(), "error: out of memory\n"),
        ],
        ids=["with-message", "without-message"],
    )
    def test_running_out_of_memory_is_one_error_line(self, demo_circuit, capsys, monkeypatch, exc, message):
        def exhausted(args):
            raise exc

        monkeypatch.setitem(cli._COMMANDS, "run", exhausted)
        assert main(["run", str(demo_circuit)]) == 1
        assert capsys.readouterr().err == message

    def test_malformed_line_reports_the_line_number(self, tmp_path, capsys):
        path = tmp_path / "bad.qc"
        path.write_text("qubits 1\ngate h 0\ngate wat 0\n", encoding="utf-8")
        assert main(["run", str(path)]) == 1
        assert "line 3" in capsys.readouterr().err

    def test_record_format_has_full_precision(self, tmp_path, capsys):
        path = tmp_path / "h.qc"
        path.write_text(HADAMARD, encoding="utf-8")
        assert main(["run", str(path), "--format", "record"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["probabilities"]["0"] - 0.5) <= 1e-12

    def test_bit_flip_at_one_half_records_exact_halves(self, tmp_path, capsys):
        # Noise weighs by p itself (``noise_weights``), not by sqrt(p) squared.
        path = tmp_path / "bitflip.qc"
        path.write_text("qubits 2\nnoise bitflip 0.5 1\nmeasure 0\n", encoding="utf-8")
        assert main(["run", str(path), "--format", "record"]) == 0
        assert json.loads(capsys.readouterr().out) == {"probabilities": {"00": 0.5, "01": 0.5}}

    def test_csv_format(self, tmp_path, capsys):
        path = tmp_path / "h.qc"
        path.write_text(HADAMARD, encoding="utf-8")
        assert main(["run", str(path), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "outcome,probability"
        assert lines[1] == "0,0.500000"


class TestSample:
    def test_noiseless_demo_is_a_point_mass(self, demo_circuit, capsys):
        assert main(["sample", str(demo_circuit), "--shots", "1024", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "shots 1024" in out
        assert "seed 7" in out
        assert "000 1024" in out

    def test_output_file_is_byte_identical_across_runs(self, demo_circuit, tmp_path):
        args = [
            "sample", str(demo_circuit),
            "--noise", "bitflip:0.05",
            "--shots", "1024", "--seed", "3",
            "--format", "record",
        ]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_noisy_demo_keeps_modal_outcome_with_spread(self, demo_circuit, capsys):
        assert (
            main(["sample", str(demo_circuit), "--noise", "bitflip:0.05", "--format", "record"])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 0  # default seed echoed
        counts = payload["counts"]
        assert max(counts, key=counts.get) == "000"
        assert len(counts) >= 2

    def test_bad_noise_spec(self, demo_circuit, capsys):
        assert main(["sample", str(demo_circuit), "--noise", "bitflip=0.05"]) == 1
        assert "noise spec" in capsys.readouterr().err

    def test_rejects_non_positive_shots(self, demo_circuit, capsys):
        assert main(["sample", str(demo_circuit), "--shots", "0"]) == 1
        assert "shots" in capsys.readouterr().err

    def test_rejects_a_negative_seed(self, demo_circuit, capsys):
        assert main(["sample", str(demo_circuit), "--seed", "-1"]) == 1
        assert "seed must be >= 0" in capsys.readouterr().err


class TestHistogramSerialization:
    """The exact bytes of each histogram format, on a circuit whose counts
    no seed can move: ``not 0`` on two qubits gives {"10": 4} at 4 shots."""

    def sample(self, fmt, tmp_path, capsys):
        path = tmp_path / "not.qc"
        path.write_text("qubits 2\ngate not 0\n", encoding="utf-8")
        assert main(["sample", str(path), "--shots", "4", "--seed", "9", "--format", fmt]) == 0
        return capsys.readouterr().out

    def test_table(self, tmp_path, capsys):
        assert self.sample("table", tmp_path, capsys) == "shots 4\nseed 9\n10 4\n"

    def test_csv(self, tmp_path, capsys):
        assert self.sample("csv", tmp_path, capsys) == "# shots=4 seed=9\noutcome,count\n10,4\n"

    def test_record(self, tmp_path, capsys):
        want = '{\n  "counts": {\n    "10": 4\n  },\n  "seed": 9,\n  "shots": 4\n}\n'
        assert self.sample("record", tmp_path, capsys) == want


# Ten qubits, measured in full: q0 = q4 = q9 and q6 are fair coins, the rest 0.
TEN_QUBITS_MEASURED = """\
qubits 10
gate h 0
gate cnot 0 9
gate toffoli 0 9 4
gate h 6
gate id 2
measure all
"""


class TestNoiseFreeCircuits:
    """``run`` and ``sample`` read the outcomes of a circuit where no mixing
    gate follows noise off its state vector and probability vector, with the
    bytes of the density-matrix path."""

    COMMANDS = (["run", "--format", "record"], ["sample", "--shots", "1000", "--seed", "5", "--format", "record"])

    def _outputs(self, path, capsys, flags=()):
        outputs = []
        for command in self.COMMANDS:
            assert main([command[0], str(path), *command[1:], *flags]) == 0
            outputs.append(capsys.readouterr().out)
        return outputs

    def _outputs_without_a_state(self, path, capsys, monkeypatch, flags=()):
        """The outputs with every density-matrix path patched to fail, after
        checking them against the outputs of that path."""
        with monkeypatch.context() as m:  # the outputs of the density-matrix path
            for owner in (circuits, cli):
                m.setattr(owner, "output_distribution", lambda ir: circuits.outcome_distribution(circuits.simulate(ir)))
            expected = self._outputs(path, capsys, flags)

        def fail(*args, **kwargs):
            raise AssertionError("a density matrix was formed or checked")

        with monkeypatch.context() as m:
            for owner, name in [
                (circuits, "simulate"),
                (circuits, "apply"),
                (circuits, "check_density"),
                (linalg, "is_psd"),
                (states, "check_density"),
                (states.DensityOperator, "__init__"),
                (states.DensityOperator, "_unchecked"),
            ]:
                m.setattr(owner, name, fail)
            outputs = self._outputs(path, capsys, flags)
        assert outputs == expected
        return outputs

    def test_noise_after_the_last_mixing_gate_forms_no_state(self, capsys, monkeypatch):
        path = CIRCUITS / "ten_qubit.qc"
        for noise in ("bitflip:0.05", "depolarizing:0.01"):
            run, sampled = self._outputs_without_a_state(path, capsys, monkeypatch, ["--noise", noise])
            probabilities = json.loads(run)["probabilities"]
            assert len(probabilities) == 8 and abs(sum(probabilities.values()) - 1.0) <= 1e-12
            assert set(json.loads(sampled)["counts"]) <= set(probabilities)

    def test_run_and_sample_form_no_state(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "ten.qc"
        path.write_text(TEN_QUBITS_MEASURED, encoding="utf-8")
        run, sampled = self._outputs_without_a_state(path, capsys, monkeypatch)
        probabilities = json.loads(run)["probabilities"]
        assert sorted(probabilities) == ["0000000000", "0000001000", "1000100001", "1000101001"]
        assert all(abs(p - 0.25) <= 1e-12 for p in probabilities.values())
        counts = json.loads(sampled)["counts"]
        assert set(counts) <= set(probabilities) and sum(counts.values()) == 1000


class TestEval:
    def test_negation_of_false(self, tmp_path, capsys):
        path = tmp_path / "f.qf"
        path.write_text("atom a = (1, 0, 0, 0)\nformula = !a\n", encoding="utf-8")
        assert main(["eval", str(path)]) == 0
        assert capsys.readouterr().out == "1.000000\n"

    def test_product_law(self, tmp_path, capsys):
        path = tmp_path / "f.qf"
        path.write_text(
            "atom a = (0.70710678, 0, 0.70710678, 0)\n"
            "atom b = (0.70710678, 0, 0.70710678, 0)\n"
            "formula = a & b\n",
            encoding="utf-8",
        )
        assert main(["eval", str(path)]) == 0
        assert capsys.readouterr().out == "0.250000\n"

    def test_excluded_middle(self, tmp_path, capsys):
        path = tmp_path / "f.qf"
        path.write_text(
            "atom a = (0.70710678, 0, 0.70710678, 0)\nformula = a | !a\n",
            encoding="utf-8",
        )
        assert main(["eval", str(path)]) == 0
        assert capsys.readouterr().out == "0.750000\n"

    def test_csv_heads_the_value_with_its_key(self, capsys):
        assert main(["eval", str(DEMOS / "and_of_halves.qf"), "--format", "csv"]) == 0
        assert capsys.readouterr().out == "truth_probability\n0.250000\n"

    def test_circuit_bound_atom(self, tmp_path, capsys):
        (tmp_path / "h.qc").write_text(HADAMARD, encoding="utf-8")
        path = tmp_path / "f.qf"
        path.write_text("atom a = h.qc\nformula = a\n", encoding="utf-8")
        assert main(["eval", str(path)]) == 0
        assert capsys.readouterr().out == "0.500000\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "literal, want",
        [
            ("(1e200, 0, 1e200, 0)", "0.500000"),
            ("(1e-200, 0, 1e-200, 0)", "0.500000"),
            ("(3e-160, 0, 4e-160, 0)", "0.640000"),
        ],
    )
    def test_literals_far_from_unit_norm_are_normalized(self, literal, want, tmp_path, capsys):
        path = tmp_path / "f.qf"
        path.write_text(f"atom a = {literal}\nformula = a\n", encoding="utf-8")
        assert main(["eval", str(path)]) == 0
        assert capsys.readouterr().out == want + "\n"

    @pytest.mark.parametrize(
        "literal, message",
        [
            ("(0, 0, 0, 0)", "zero vector"),
            ("(inf, 0, 1, 0)", "amplitudes must be finite"),
            ("(nan, 0, 1, 0)", "amplitudes must be finite"),
        ],
    )
    def test_zero_and_non_finite_literals_are_rejected(self, literal, message, tmp_path, capsys):
        path = tmp_path / "f.qf"
        path.write_text(f"atom a = {literal}\nformula = a\n", encoding="utf-8")
        assert main(["eval", str(path)]) == 1
        assert capsys.readouterr().err == f"error: line 1, column 1: {message}\n"

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_a_keyword_may_touch_its_equals_sign(self, fmt, tmp_path, capsys):
        outputs = []
        for text in ("atom a = (0.6, 0, 0.8, 0)\nformula = a\n", "atom a=(0.6, 0, 0.8, 0)\nformula=a\n"):
            path = tmp_path / "f.qf"
            path.write_text(text, encoding="utf-8")
            assert main(["eval", str(path), "--format", fmt]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        if fmt == "table":
            assert outputs[1] == "0.640000\n"

    def test_unbound_atom(self, tmp_path, capsys):
        path = tmp_path / "f.qf"
        path.write_text("atom a = (1, 0, 0, 0)\nformula = a & b\n", encoding="utf-8")
        assert main(["eval", str(path)]) == 1
        assert "unbound atom" in capsys.readouterr().err

    def test_too_deep_a_formula_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "f.qf"
        path.write_text("atom a = (1, 0, 0, 0)\nformula = " + "!" * 3000 + "a\n", encoding="utf-8")
        assert main(["eval", str(path)]) == 1
        assert "line 2, column 111: formula nested deeper than" in capsys.readouterr().err


class TestPsaTable:
    def test_zero_state_through_two_contexts(self, tmp_path, capsys):
        path = tmp_path / "zero.psa"
        path.write_text(ZERO_STATE_PSA, encoding="utf-8")
        assert main(["psa-table", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "computational P0 1.000000",
            "computational P1 0.000000",
            "hadamard P0 0.500000",
            "hadamard P1 0.500000",
        ]

    def test_shared_projector_prints_equal_intensities(self, tmp_path, capsys):
        inv = float(1 / np.sqrt(2))
        text = (
            "state circuit bell.qc\n"
            "context one\n"
            "projector 1 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0\n"
            "projector 0 0 0 0  0 1 0 0  0 0 1 0  0 0 0 1\n"
            "end\n"
            "context two\n"
            "projector 1 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0\n"
            f"vector 0 {inv!r} {inv!r} 0\n"
            f"vector 0 {inv!r} {-inv!r} 0\n"
            "vector 0 0 0 1\n"
            "end\n"
        )
        (tmp_path / "bell.qc").write_text("qubits 2\ngate h 0\ngate cnot 0 1\n", encoding="utf-8")
        path = tmp_path / "shared.psa"
        path.write_text(text, encoding="utf-8")
        assert main(["psa-table", str(path), "--format", "record"]) == 0
        rows = json.loads(capsys.readouterr().out)
        by_key = {(r["context"], r["projector"]): r["intensity"] for r in rows}
        assert abs(by_key[("one", "P0")] - by_key[("two", "P0")]) <= 1e-12

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "state, scale, want",
        [
            ("1e308 1e308", "1e308", ("0.500000", "1.000000")),
            ("1e-200 1e-200", "1e-200", ("0.500000", "1.000000")),
            ("3e-160 4e-160", "1e-320", ("0.360000", "0.980000")),
        ],
    )
    def test_amplitudes_far_from_unit_norm_are_normalized(self, state, scale, want, tmp_path, capsys):
        path = tmp_path / "big.psa"
        path.write_text(
            f"state pure {state}\ncontext computational\nvector 1 0\nvector 0 1\nend\n"
            f"context hadamard\nvector {scale} {scale}\nvector {scale} -{scale}\nend\n",
            encoding="utf-8",
        )
        assert main(["psa-table", str(path)]) == 0
        values = [line.split()[-1] for line in capsys.readouterr().out.splitlines()]
        assert (values[0], values[2]) == want

    @pytest.mark.parametrize(
        "state, vector, message",
        [
            ("0 0", "1 0", "line 1: zero vector"),
            ("inf 0", "1 0", "line 1: amplitudes must be finite"),
            ("1 0", "0 0", "line 3: zero vector"),
            ("1 0", "nan 0", "line 3: amplitudes must be finite"),
            ("1 0", "inf 0", "line 3: amplitudes must be finite"),
        ],
    )
    def test_zero_and_non_finite_amplitudes_are_rejected(self, state, vector, message, tmp_path, capsys):
        path = tmp_path / "bad.psa"
        path.write_text(f"state pure {state}\ncontext c\nvector {vector}\nend\n", encoding="utf-8")
        assert main(["psa-table", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_incomplete_context_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.psa"
        path.write_text(
            "state pure 1 0\ncontext broken\nvector 1 0\nend\n", encoding="utf-8"
        )
        assert main(["psa-table", str(path)]) == 1
        err = capsys.readouterr().err
        assert "broken" in err and "identity" in err

    def test_a_repeated_context_name_is_rejected_at_its_line(self, tmp_path, capsys):
        path = tmp_path / "twice.psa"
        path.write_text(ZERO_STATE_PSA + "context hadamard\nvector 1 0\nvector 0 1\nend\n", encoding="utf-8")
        assert main(["psa-table", str(path)]) == 1
        assert capsys.readouterr().err == "error: line 10: duplicate context 'hadamard'\n"

    def test_a_context_on_another_qubit_count_is_rejected_by_name(self, tmp_path, capsys):
        path = tmp_path / "sizes.psa"
        path.write_text(
            "state pure 1 0 0 0\ncontext fine\nvector 1 0 0 0\nprojector 0 0 0 0  0 1 0 0  0 0 1 0  0 0 0 1\nend\n"
            "context small\nvector 1 0\nvector 0 1\nend\n",
            encoding="utf-8",
        )
        assert main(["psa-table", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == "error: line 6: context 'small' and the state act on different qubit counts (1 and 2)\n"

    def test_csv_format(self, tmp_path, capsys):
        path = tmp_path / "zero.psa"
        path.write_text(ZERO_STATE_PSA, encoding="utf-8")
        assert main(["psa-table", str(path), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "context,projector,intensity"
        assert lines[1] == "computational,P0,1.000000"

    def test_csv_quotes_names_that_hold_a_comma_or_a_quote(self, tmp_path, capsys):
        path = tmp_path / "names.psa"
        body = "vector 1 0\nvector 0 1\nend\n"
        path.write_text(f"state pure 1 0\ncontext a,b\n{body}context \"q\n{body}", encoding="utf-8")
        assert main(["psa-table", str(path), "--format", "csv"]) == 0
        assert list(csv.reader(io.StringIO(capsys.readouterr().out))) == [
            ["context", "projector", "intensity"],
            ["a,b", "P0", "1.000000"],
            ["a,b", "P1", "0.000000"],
            ['"q', "P0", "1.000000"],
            ['"q', "P1", "0.000000"],
        ]

    @pytest.mark.parametrize(
        "command, text",
        [
            ("psa-table", "state pure {amps}\ncontext c\nvector 1 0\nvector 0 1\nend\n"),
            ("psa-table", "state pure 1 0\ncontext c\nvector {amps}\nend\n"),
            ("chsh", "state pure {amps}\nobservable a 1 0 0 -1\n"),
        ],
    )
    def test_states_past_the_qubit_limit_are_rejected(self, command, text, tmp_path, capsys):
        path = tmp_path / "big.in"
        path.write_text(text.format(amps=" ".join(["1"] + ["0"] * 2047)), encoding="utf-8")
        assert main([command, str(path)]) == 1
        assert "qubit count must be in 1..10, got 11" in capsys.readouterr().err


def counting_complex_tokens(monkeypatch):
    """Record the tokens of every ``_complex_tokens`` call."""
    calls, complex_tokens = [], circuits._complex_tokens

    def counting(tokens, *args, **kwargs):
        calls.append(tokens)
        return complex_tokens(tokens, *args, **kwargs)

    monkeypatch.setattr(circuits, "_complex_tokens", counting)
    return calls


def other_literals(text):
    """``text`` with every ``vector`` line that repeats an earlier one written
    with other literals of the same values (``1`` as ``1.0``)."""
    seen, lines = set(), []
    for line in text.splitlines():
        if line.startswith("vector ") and line in seen:
            line = "vector " + " ".join(repr(float(tok)) for tok in line.split()[1:])
        seen.add(line)
        lines.append(line)
    return "\n".join(lines) + "\n"


class TestSharedLines:
    """A ``vector`` or ``projector`` line that repeats an earlier line's
    tokens is read once, and every context that holds it shares it."""

    SPACED = (
        "state pure 0 1 0 0\n"
        "context a\n"
        "vector 1 0 0 0\n"
        "vector 0 1 0 0\n"
        "projector 0 0 0 0  0 0 0 0  0 0 1 0  0 0 0 1\n"
        "end\n"
        "context b\n"
        "vector  1 0  0 0\n"
        "vector 0 1 0 0\n"
        "projector 0 0 0 0 0 0 0 0 0 0 1 0 0 0 0 1\n"
        "end\n"
    )

    def test_a_repeated_line_is_parsed_once_and_shared(self, monkeypatch):
        calls = counting_complex_tokens(monkeypatch)
        _, contexts = parse_psa_file(self.SPACED)
        assert len(calls) == 4  # the state and three distinct lines
        (_, a), (_, b) = contexts
        assert all(p is q for p, q in zip(a.projectors, b.projectors, strict=True))

    def test_each_shared_projector_is_valued_once(self, monkeypatch):
        state, contexts = parse_psa_file(self.SPACED)
        valued, intensity = [], psa.intensity

        def counting(rho, p):
            valued.append(p)
            return intensity(rho, p)

        monkeypatch.setattr(psa, "intensity", counting)
        table = psa.global_valuation(state, [context for _, context in contexts])
        assert len(valued) == len({id(p) for p in valued}) == 3
        assert [table[(1, i)] for i in range(3)] == [table[(0, i)] for i in range(3)] == [0.0, 1.0, 0.0]

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_the_table_is_that_of_a_file_that_reads_every_line(self, fmt, tmp_path, monkeypatch, capsys):
        shared = (DEMOS / "kochen_specker.psa").read_text(encoding="utf-8")
        (tmp_path / "shared.psa").write_text(shared, encoding="utf-8")
        (tmp_path / "apart.psa").write_text(other_literals(shared), encoding="utf-8")
        calls, results = counting_complex_tokens(monkeypatch), []
        for name in ("shared.psa", "apart.psa"):
            calls.clear()
            assert main(["psa-table", str(tmp_path / name), "--format", fmt]) == 0
            results.append((capsys.readouterr(), len(calls)))
        (shared_out, shared_calls), (apart_out, apart_calls) = results
        assert shared_out == apart_out and shared_out.err == ""
        assert (shared_calls, apart_calls) == (1 + 18, 1 + 36)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("vector 1 x", "bad complex literal 'x'"),
            ("vector 0 0", "zero vector"),
            ("projector 1 1 0 1", "matrix is not a projector (hermitian idempotent)"),
            ("projector 1 0 0", "3 entries do not form a square matrix"),
        ],
    )
    def test_a_bad_repeated_line_fails_at_its_first_occurrence(self, line, message, tmp_path, capsys):
        body = f"context a\nvector 1 0\n{line}\nend\ncontext b\n{line}\nvector 0 1\nend\n"
        path = tmp_path / "bad.psa"
        path.write_text("state pure 1 0\n" + body, encoding="utf-8")
        assert main(["psa-table", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: line 4: {message}\n")


class TestChsh:
    def test_singlet_optimal_preset(self, capsys):
        assert main(["chsh", "singlet-optimal"]) == 0
        assert capsys.readouterr().out == "2.828427\n"

    def test_csv_heads_the_value_with_its_key(self, capsys):
        assert main(["chsh", "singlet-optimal", "--format", "csv"]) == 0
        assert capsys.readouterr().out == "S\n2.828427\n"

    def test_product_preset_stays_classical(self, capsys):
        assert main(["chsh", "product"]) == 0
        value = float(capsys.readouterr().out)
        assert abs(value) <= 2.0

    def test_input_file(self, tmp_path, capsys):
        inv = float(1 / np.sqrt(2))
        text = (
            f"state pure 0 {inv!r} {-inv!r} 0\n"
            "observable a 1 0 0 -1\n"
            "observable ap 0 1 1 0\n"
            f"observable b {-inv!r} {-inv!r} {-inv!r} {inv!r}\n"
            f"observable bp {-inv!r} {inv!r} {inv!r} {inv!r}\n"
        )
        path = tmp_path / "s.chsh"
        path.write_text(text, encoding="utf-8")
        assert main(["chsh", str(path)]) == 0
        assert capsys.readouterr().out == "2.828427\n"

    def test_spectrum_violation(self, tmp_path, capsys):
        text = (
            "state matrix 1 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0\n"
            "observable a 0.5 0 0 -0.5\n"
            "observable ap 0 1 1 0\n"
            "observable b 1 0 0 -1\n"
            "observable bp 0 1 1 0\n"
        )
        path = tmp_path / "bad.chsh"
        path.write_text(text, encoding="utf-8")
        assert main(["chsh", str(path)]) == 1
        assert "eigenvalues" in capsys.readouterr().err

    def test_every_preset_runs_and_is_named_in_the_help(self, capsys):
        for name in psa.CHSH_PRESETS:
            assert main(["chsh", name, "--format", "record"]) == 0
            assert json.loads(capsys.readouterr().out) == {"S": psa.chsh_value(*psa.chsh_preset(name))}
        with pytest.raises(SystemExit):
            main(["--help"])
        # argparse may wrap the help line after the hyphen of a name.
        text = " ".join(capsys.readouterr().out.split()).replace("- ", "-")
        assert f"chsh evaluate S for an input file or preset ({', '.join(psa.CHSH_PRESETS)})" in text

    def test_missing_observable(self, tmp_path, capsys):
        path = tmp_path / "short.chsh"
        path.write_text(
            "state matrix 1 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0\nobservable a 1 0 0 -1\n",
            encoding="utf-8",
        )
        assert main(["chsh", str(path)]) == 1
        assert "missing observables" in capsys.readouterr().err


# Every diagnostic a user can meet in an input file or the --noise flag, as
# ``main`` prints it: (command, input text, more flags, stderr).  A formula
# file or valuation state may name ``bad.qc``, a circuit with an unknown gate.
CSTATE = "state pure 1 0 0 0\n"
DIAGNOSTICS = {
    "gate-usage": ("run", "qubits 1\ngate\n", [], "line 2, column 1: usage: gate <name> <target>..."),
    "noise-usage": (
        "run", "qubits 1\nnoise bitflip 0.1\n", [],
        "line 2, column 1: usage: noise <bitflip|depolarizing> <p> <target>",
    ),
    "measure-usage": ("run", "qubits 1\nmeasure\n", [], "line 2, column 1: usage: measure all | measure <i>..."),
    "gate-name": ("run", "qubits 1\ngate H 0\n", [], "line 2, column 6: unknown gate 'H'"),
    "circuit-statement": ("run", "qubits 1\n  reset 0\n", [], "line 2, column 3: unknown statement 'reset'"),
    "noise-flag": ("run", "qubits 1\n", ["--noise", "bitflip:x"], "bad noise probability 'x'"),
    "complex-literal": ("psa-table", "state pure 1 x\n", [], "line 1: bad complex literal 'x'"),
    "square-matrix": ("psa-table", "state matrix 1 0 0\n", [], "line 1: 3 entries do not form a square matrix"),
    "in-circuit": (
        "psa-table", "state circuit bad.qc\n", [],
        "line 1: in circuit '{dir}/bad.qc': line 2, column 6: unknown gate 'wat'",
    ),
    "literal-shape": (
        "eval", "atom a = (1, 0, 0, 0\nformula = a\n", [],
        "line 1, column 1: literal must look like (c0_re, c0_im, c1_re, c1_im)",
    ),
    "literal-number": (
        "eval", "atom a = (1, 0, x, 0)\nformula = a\n", [],
        "line 1, column 1: bad number in literal '(1, 0, x, 0)'",
    ),
    "atom-usage": (
        "eval", "atom a\nformula = a\n", [],
        "line 1, column 1: usage: atom <name> = <literal or circuit path>",
    ),
    "atom-name": ("eval", "atom 1a = (1, 0, 0, 0)\nformula = a\n", [], "line 1, column 1: bad atom name '1a'"),
    "atom-circuit": (
        "eval", "atom a = bad.qc\nformula = a\n", [],
        "line 1, column 1: in circuit '{dir}/bad.qc': line 2, column 6: unknown gate 'wat'",
    ),
    "formula-duplicate": (
        "eval", "atom a = (1, 0, 0, 0)\nformula = a\nformula = a\n", [],
        "line 3, column 1: duplicate formula line",
    ),
    "formula-usage": (
        "eval", "atom a = (1, 0, 0, 0)\nformula a\n", [], "line 2, column 1: usage: formula = <expression>"
    ),
    "formula-statement": ("eval", "let a = 1\n", [], "line 1, column 1: unknown statement 'let'"),
    "unbound-atom": ("eval", "atom a = (1, 0, 0, 0)\nformula = a & b\n", [], "line 2, column 15: unbound atom 'b'"),
    # The expression's column counts from the first non-blank after the statement's '='.
    "formula-stray-equals": (
        "eval", "atom a = (1, 0, 0, 0)\nformula = a =\n", [], "line 2, column 13: unexpected character '='"
    ),
    "formula-only-equals": (
        "eval", "atom a = (1, 0, 0, 0)\nformula = =\n", [], "line 2, column 11: unexpected character '='"
    ),
    # A formula file's keyword ends at its first blank or '='.
    "formula-double-equals": (
        "eval", "atom a = (1, 0, 0, 0)\nformula==a\n", [], "line 2, column 9: unexpected character '='"
    ),
    "keyword-equals": ("eval", "x=1\n", [], "line 1, column 1: unknown statement 'x'"),
    "leading-equals": ("eval", "=a\n", [], "line 1, column 1: unknown statement '=a'"),
    "atom-equals": (
        "eval", "atom=a\nformula = a\n", [], "line 1, column 1: usage: atom <name> = <literal or circuit path>"
    ),
    "state-circuit-usage": ("psa-table", "state circuit a.qc b.qc\n", [], "line 1: usage: state circuit <path>"),
    "state-kind": ("psa-table", "state mixed 1 0\n", [], "line 1: unknown state kind 'mixed'"),
    "state-duplicate": ("psa-table", "state pure 1 0\nstate pure 1 0\n", [], "line 2: duplicate state declaration"),
    "state-usage": ("psa-table", "state pure\n", [], "line 1: usage: state <circuit|pure|matrix> ..."),
    "state-missing": ("psa-table", "context c\nvector 1 0\nvector 0 1\nend\n", [], "missing 'state' declaration"),
    "context-open": (
        "psa-table", "state pure 1 0\ncontext c\ncontext d\n", [],
        "line 3: previous context not closed with 'end'",
    ),
    "context-usage": ("psa-table", "state pure 1 0\ncontext\n", [], "line 2: usage: context <name>"),
    "vector-outside": ("psa-table", "state pure 1 0\nvector 1 0\n", [], "line 2: 'vector' outside a context block"),
    "end-outside": ("psa-table", "state pure 1 0\nend\n", [], "line 2: 'end' without a context block"),
    "psa-statement": ("psa-table", "state pure 1 0\nfoo 1\n", [], "line 2: unknown statement 'foo'"),
    "context-unclosed": (
        "psa-table", "state pure 1 0\ncontext c\nvector 1 0\n", [], "line 2: context 'c' not closed with 'end'"
    ),
    "no-contexts": ("psa-table", "state pure 1 0\n", [], "no contexts declared"),
    "context-qubits": (
        "psa-table",
        "state pure 1 0 0 0\ncontext fine\nvector 1 0 0 0\nprojector 0 0 0 0  0 1 0 0  0 0 1 0  0 0 0 1\nend\n"
        "context small\nvector 1 0\nvector 0 1\nend\n",
        [],
        "line 6: context 'small' and the state act on different qubit counts (1 and 2)",
    ),
    "chsh-statement": ("chsh", CSTATE + "foo\n", [], "line 2: unknown statement 'foo'"),
    "observable-usage": (
        "chsh", CSTATE + "observable a\n", [], "line 2: usage: observable <a|ap|b|bp> <4 entries>"
    ),
    "observable-name": (
        "chsh", CSTATE + "observable c 1 0 0 -1\n", [], "line 2: observable name must be a, ap, b, or bp"
    ),
    "observable-alias": (
        "chsh", CSTATE + "observable a' 0 1 1 0\n", [], "line 2: observable name must be a, ap, b, or bp"
    ),
    "observable-duplicate": (
        "chsh", CSTATE + "observable a 1 0 0 -1\nobservable a 1 0 0 -1\n", [],
        "line 3: duplicate observable 'a'",
    ),
    "missing-observables": ("chsh", CSTATE + "observable ap 0 1 1 0\n", [], "missing observables: a, b, bp"),
}


@pytest.fixture
def input_dir(tmp_path):
    """A directory that holds ``bad.qc``, the circuit some diagnostics name."""
    (tmp_path / "bad.qc").write_text("qubits 1\ngate wat 0\n", encoding="utf-8")
    return tmp_path


@pytest.mark.parametrize("command, text, flags, message", DIAGNOSTICS.values(), ids=DIAGNOSTICS)
def test_every_diagnostic_reads_exactly(command, text, flags, message, input_dir, capsys):
    path = input_dir / "input"
    path.write_text(text, encoding="utf-8")
    assert main([command, str(path), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: " + message.format(dir=input_dir) + "\n"


# The library reader of each command's input file, given its text and directory.
READERS = {
    "run": lambda text, base_dir: parse_circuit(text),
    "eval": parse_formula_file,
    "psa-table": parse_psa_file,
    "chsh": parse_chsh_file,
}
FILE_FAULTS = {key: entry for key, entry in DIAGNOSTICS.items() if not entry[2]}


@pytest.mark.parametrize("command, text, flags, message", FILE_FAULTS.values(), ids=FILE_FAULTS)
def test_every_located_error_carries_its_line(command, text, flags, message, input_dir):
    """Every reader raises exactly ``InputError``, with the message's line, or
    none when the message names none (a fault of the whole file)."""
    with pytest.raises(ValueError) as exc:
        READERS[command](text, input_dir)
    assert type(exc.value) is InputError
    assert str(exc.value) == message.format(dir=input_dir)
    located = re.match(r"line (\d+)", message)
    assert exc.value.line == (int(located.group(1)) if located else None)


class TestTolFlag:
    """--tol is accepted only where a tolerance is read."""

    @pytest.mark.parametrize("command", ["run", "sample", "eval"])
    def test_rejected_where_it_would_be_ignored(self, command, demo_circuit, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, str(demo_circuit), "--tol", "1e-6"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    def test_accepted_by_chsh_and_psa_table(self, tmp_path, capsys):
        assert main(["chsh", "singlet-optimal", "--tol", "1e-6"]) == 0
        assert capsys.readouterr().out == "2.828427\n"
        path = tmp_path / "z.psa"
        path.write_text(ZERO_STATE_PSA, encoding="utf-8")
        assert main(["psa-table", str(path), "--tol", "1e-6"]) == 0
        assert "hadamard P0 0.500000" in capsys.readouterr().out

    def test_non_positive_tol_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "z.psa"
        path.write_text(ZERO_STATE_PSA, encoding="utf-8")
        assert main(["psa-table", str(path), "--tol", "0"]) == 1
        assert "tol must be positive" in capsys.readouterr().err
        assert main(["chsh", "singlet-optimal", "--tol", "-1"]) == 1
        assert "tol must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_is_an_error(self, tol, tmp_path, capsys):
        # Each input passes its checks only when the tolerance is off.
        skew = tmp_path / "skew.psa"
        skew.write_text("state pure 1 0\ncontext c\nvector 1 0\nvector 0.6 0.8\nend\n", encoding="utf-8")
        half = tmp_path / "half.chsh"
        half.write_text(
            "state pure 1 0 0 0\nobservable a 0.5 0 0 -1\nobservable ap 0 1 1 0\n"
            "observable b 1 0 0 -1\nobservable bp 0 1 1 0\n",
            encoding="utf-8",
        )
        for argv in (["psa-table", str(skew)], ["chsh", str(half)], ["chsh", "singlet-optimal"]):
            assert main([*argv, "--tol", tol]) == 1
            assert "tol must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    @pytest.mark.parametrize(
        "command, text",
        [
            ("psa-table", "state pure 1 0\n"),  # no context
            ("psa-table", "state pure 1 0\nfoo\ncontext c\nvector 1 0\nvector 0 1\nend\n"),
            ("chsh", "state pure 1 0 0 0\nfoo\n"),
            ("chsh", None),  # no file at all
        ],
        ids=["psa-no-context", "psa-earlier-error", "chsh-earlier-error", "missing-file"],
    )
    def test_checked_before_the_input_is_read(self, command, text, tol, tmp_path, capsys):
        path = tmp_path / "input"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        assert main([command, str(path), "--tol", tol]) == 1
        assert capsys.readouterr().err == "error: tol must be positive and finite\n"


# The command that reads each kind of demo file, by extension.
DEMO_COMMANDS = {".qc": "run", ".qf": "eval", ".psa": "psa-table"}
# What each demo prints in the table format, where it is pinned.
DEMO_TABLES = {
    "three_qubit_demo.qc": "000 1.000000\n",
    "hadamard.qc": "0 0.500000\n1 0.500000\n",
    "and_of_halves.qf": "0.250000\n",
    "excluded_middle.qf": "0.750000\n",
    "zero_state.psa": (
        "computational P0 1.000000\ncomputational P1 0.000000\nhadamard P0 0.500000\nhadamard P1 0.500000\n"
    ),
}


# Committed record outputs of every command on the demos and the CHSH presets,
# and of noisy 9- and 10-qubit circuits: a change that moves any byte of them
# shows here.
RECORD_GOLDENS = {
    **{
        f"run/{demo}_{noise.partition(':')[0] or 'ideal'}": ["run", str(DEMOS / f"{demo}.qc")]
        + (["--noise", noise] if noise else [])
        for demo in ("hadamard", "three_qubit_demo")
        for noise in ("", "bitflip:0.05", "depolarizing:0.1")
    },
    **{
        f"run/{circuit}_{noise.partition(':')[0]}": ["run", str(CIRCUITS / f"{circuit}.qc"), "--noise", noise]
        for circuit, noise in (
            ("nine_qubit", "bitflip:0.01"),
            ("ten_qubit", "bitflip:0.05"),
            ("ten_qubit", "depolarizing:0.01"),
            ("eight_qubit_mixing", "bitflip:0.05"),
            ("eight_qubit_mixing", "depolarizing:0.1"),
        )
    },
    # A toffoli and a mixing gate after injected noise: these runs form the
    # density matrix.
    **{
        f"sample/eight_qubit_mixing_{noise.partition(':')[0]}": [
            "sample", str(CIRCUITS / "eight_qubit_mixing.qc"), "--noise", noise, "--shots", "1024", "--seed", "7",
        ]
        for noise in ("bitflip:0.05", "depolarizing:0.1")
    },
    **{f"eval/{demo}": ["eval", str(DEMOS / f"{demo}.qf")] for demo in ("and_of_halves", "excluded_middle")},
    **{f"psa-table/{demo}": ["psa-table", str(DEMOS / f"{demo}.psa")] for demo in ("kochen_specker", "zero_state")},
    **{f"chsh/{preset}": ["chsh", preset] for preset in ("singlet-optimal", "product")},
}


class TestDemoFiles:
    """The demo inputs shipped in demos/ stay working."""

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("demo", sorted(DEMOS.iterdir()), ids=lambda path: path.name)
    def test_every_demo_runs(self, demo, fmt, capsys):
        assert main([DEMO_COMMANDS[demo.suffix], str(demo), "--format", fmt]) == 0
        out, err = capsys.readouterr()
        assert err == "" and out
        if fmt == "table" and demo.name in DEMO_TABLES:
            assert out == DEMO_TABLES[demo.name]

    def test_kochen_specker_rays_keep_one_intensity_across_contexts(self, capsys):
        path = DEMOS / "kochen_specker.psa"
        assert main(["psa-table", str(path), "--format", "record"]) == 0
        rows = json.loads(capsys.readouterr().out)
        rays = {}  # (context, projector label) -> the ray's text in the file
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.startswith("context "):
                context, count = line.split()[1], 0
            elif line.startswith("vector "):
                rays[context, f"P{count}"], count = line.split(None, 1)[1], count + 1
        by_ray, by_context = {}, {}
        for row in rows:
            by_ray.setdefault(rays[row["context"], row["projector"]], []).append(row["intensity"])
            by_context.setdefault(row["context"], []).append(row["intensity"])
        assert len(by_ray) == 18 and all(len(values) == 2 for values in by_ray.values())
        assert all(a == b for a, b in by_ray.values())  # bit for bit
        assert len(by_context) == 9
        assert all(len(values) == 4 and abs(sum(values) - 1.0) <= 1e-9 for values in by_context.values())
        assert sorted({round(a, 12) for a, _ in by_ray.values()}) == [0.0, 0.25, 0.5, 1.0]

    @pytest.mark.parametrize("demo", ["hadamard", "three_qubit_demo"])
    @pytest.mark.parametrize("noise", [None, "bitflip:0.05", "depolarizing:0.1"])
    def test_sample_records_match_their_goldens(self, demo, noise, capsys):
        # Committed outputs at 1024 shots and seed 7: a change to the sampler
        # that moves any count shows here.
        tests = Path(__file__).resolve().parent
        argv = ["sample", str(tests.parent / "demos" / f"{demo}.qc"), "--shots", "1024", "--seed", "7"]
        argv += ["--format", "record"] + (["--noise", noise] if noise else [])
        assert main(argv) == 0
        tag = noise.split(":")[0] if noise else "ideal"
        golden = tests / "golden" / "sample" / f"{demo}_{tag}.json"
        assert capsys.readouterr().out.encode() == golden.read_bytes()

    @pytest.mark.parametrize("golden, argv", RECORD_GOLDENS.items(), ids=RECORD_GOLDENS)
    def test_records_match_their_goldens(self, golden, argv, capsys):
        assert main([*argv, "--format", "record"]) == 0
        path = Path(__file__).resolve().parent / "golden" / f"{golden}.json"
        assert capsys.readouterr().out.encode() == path.read_bytes()


BELL = "qubits 2\ngate h 0\ngate cnot 0 1\nmeasure all\n"
# Each command's input (file name, text, flags); each reads ``bell.qc``, the
# main input or a circuit that a ``state circuit`` line or an atom names.
BOM_INPUTS = {
    "run": ("bell.qc", BELL, ["--noise", "bitflip:0.1"]),
    "sample": ("bell.qc", BELL, ["--seed", "3"]),
    "eval": ("f.qf", "atom a = bell.qc\natom b = (0.6, 0, 0.8, 0)\nformula = a & !b\n", []),
    "psa-table": (
        "v.psa", "state circuit bell.qc\ncontext z\nvector 1 0 0 0\nvector 0 1 0 0\nvector 0 0 1 0\nvector 0 0 0 1\nend\n", []
    ),
    "chsh": (
        "s.chsh",
        "state circuit bell.qc\nobservable a 1 0 0 -1\nobservable ap 0 1 1 0\n"
        "observable b 0 1 1 0\nobservable bp 0 -1j 1j 0\n",
        [],
    ),
}


class TestByteOrderMark:
    """A file saved with a UTF-8 byte-order mark reads as the same file
    without it."""

    @pytest.mark.parametrize("command, name, text, flags", [(c, *e) for c, e in BOM_INPUTS.items()], ids=BOM_INPUTS)
    def test_every_command_reads_a_file_that_starts_with_a_mark(self, command, name, text, flags, tmp_path, capsys):
        outputs = []
        for bom in ("", "\ufeff"):
            (tmp_path / "bell.qc").write_text(bom + BELL, encoding="utf-8")
            (tmp_path / name).write_text(bom + text, encoding="utf-8")
            assert main([command, str(tmp_path / name), *flags, "--format", "record"]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0].err == ""
        assert outputs[1] == outputs[0]

    def test_the_library_drops_one_leading_mark_and_no_other(self):
        assert parse_circuit("\ufeff" + BELL) == parse_circuit(BELL)
        with pytest.raises(InputError, match="^line 1, column 13: unexpected character '\\?'$"):
            parse_formula_file("\ufeffformula = a ?\n")
        with pytest.raises(InputError, match="^line 1, column 1: expected 'qubits <n>' as the first statement$"):
            parse_circuit("\ufeff\ufeff" + BELL)
        with pytest.raises(InputError, match=re.escape("line 2, column 1: unknown statement '\\ufeffgate'")):
            parse_circuit("qubits 2\n\ufeffgate h 0\n")


# Each command's input file, and a statement that would change its output
# if a comment's text could run as a statement.
COMMENTED_INPUTS = {
    "run": ("qubits 1\n", "gate not 0"),
    "eval": ("atom a = (1, 0, 0, 0)\nformula = a\n", "formula = !a"),
    "psa-table": ("state pure 1 0\ncontext z\nvector 1 0\nvector 0 1\nend\n", "state pure 0 1"),
    "chsh": (
        "state pure 1 0 0 0\nobservable a 1 0 0 -1\nobservable ap 0 1 1 0\n"
        "observable b 0 1 1 0\nobservable bp 0 -1j 1j 0\n",
        "observable a 0 1 1 0",
    ),
}
# The breaks of ``str.splitlines`` that end no line of an input file.
BLANK_BREAKS = pytest.mark.parametrize(
    "brk", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
    ids=["VT", "FF", "FS", "GS", "RS", "NEL", "LS", "PS"],
)


class TestLineBreaks:
    """A line ends only at LF, CR LF or CR: the other breaks of
    ``str.splitlines`` are blanks inside it."""

    @BLANK_BREAKS
    @pytest.mark.parametrize("command", COMMENTED_INPUTS)
    def test_a_comment_runs_to_the_end_of_its_line(self, command, brk, tmp_path, capsys):
        text, hidden = COMMENTED_INPUTS[command]
        outputs = []
        for comment in ("", f"# not a statement:{brk}{hidden}\n"):
            (tmp_path / "input").write_text(text + comment, encoding="utf-8")
            assert main([command, str(tmp_path / "input")]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0].err == ""
        assert outputs[1] == outputs[0]

    @BLANK_BREAKS
    def test_the_other_breaks_separate_tokens_on_one_line(self, brk):
        message = "^line 2, column 10: expected a qubit index, got 'gate'$"
        with pytest.raises(InputError, match=message):
            parse_circuit(f"qubits 1\ngate h 0{brk}gate not 0\n")
        with pytest.raises(InputError, match="^line 1, column 1: missing 'formula =' line$"):
            parse_formula_file(f"atom a = (1, 0, 0, 0){brk}\n")


@pytest.mark.parametrize(
    "command, name, text, where",
    [
        ("eval", "f.qf", "atom a = latin1.qc\nformula = a\n", "line 1, column 1"),
        ("psa-table", "v.psa", "state circuit latin1.qc\ncontext z\nvector 1 0\nvector 0 1\nend\n", "line 1"),
    ],
    ids=["eval", "psa-table"],
)
def test_a_circuit_file_that_is_not_utf8_is_named(command, name, text, where, tmp_path, capsys):
    (tmp_path / "latin1.qc").write_bytes(b"\xff" + HADAMARD.encode())
    (tmp_path / name).write_text(text, encoding="utf-8")
    assert main([command, str(tmp_path / name)]) == 1
    circuit = str(tmp_path / "latin1.qc")
    reason = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    assert capsys.readouterr() == ("", f"error: {where}: cannot read circuit {circuit!r}: {reason}\n")


@pytest.mark.parametrize("command", ["run", "sample", "eval", "psa-table", "chsh"])
def test_an_input_file_that_is_not_utf8_is_named(command, tmp_path, capsys):
    path = tmp_path / "latin1.in"
    path.write_bytes(b"\xff" + HADAMARD.encode())
    assert main([command, str(path)]) == 1
    reason = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    assert capsys.readouterr() == ("", f"error: cannot read {str(path)!r}: {reason}\n")


class TestModuleEntryPoint:
    """``python -m bornlab.cli`` exits with the status ``main`` returns."""

    ROOT = Path(__file__).resolve().parents[1]

    def run(self, *argv):
        path = os.pathsep.join([str(self.ROOT / "src"), os.environ.get("PYTHONPATH", "")])
        return subprocess.run(
            [sys.executable, "-m", "bornlab.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            cwd=self.ROOT,
            timeout=60,
        )

    def test_a_demo_run_exits_0_with_its_distribution(self, capsys):
        done = self.run("run", "demos/three_qubit_demo.qc")
        assert main(["run", str(self.ROOT / "demos" / "three_qubit_demo.qc")]) == 0
        assert (done.returncode, done.stdout, done.stderr) == (0, capsys.readouterr().out, "")

    def test_a_missing_input_exits_1_with_one_error_line(self, tmp_path):
        done = self.run("run", str(tmp_path / "nope.qc"))
        assert done.returncode == 1 and done.stdout == ""
        assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: ")

    def test_an_unknown_flag_exits_2(self):
        done = self.run("run", "demos/three_qubit_demo.qc", "--bogus")
        assert done.returncode == 2 and done.stdout == ""
        assert "unrecognized arguments: --bogus" in done.stderr
