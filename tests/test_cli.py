"""Command-line behavior: outputs, formats, determinism, and exit codes."""

import json

import numpy as np
import pytest

from bornlab.cli import build_parser, main

from conftest import THREE_QUBIT_DEMO

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
            ("1 0", "nan 0", "line 3: matrix entries must be finite"),
            ("1 0", "inf 0", "line 3: matrix entries must be finite"),
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

    def test_csv_format(self, tmp_path, capsys):
        path = tmp_path / "zero.psa"
        path.write_text(ZERO_STATE_PSA, encoding="utf-8")
        assert main(["psa-table", str(path), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "context,projector,intensity"
        assert lines[1] == "computational,P0,1.000000"

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


class TestChsh:
    def test_singlet_optimal_preset(self, capsys):
        assert main(["chsh", "singlet-optimal"]) == 0
        assert capsys.readouterr().out == "2.828427\n"

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

    def test_missing_observable(self, tmp_path, capsys):
        path = tmp_path / "short.chsh"
        path.write_text(
            "state matrix 1 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0\nobservable a 1 0 0 -1\n",
            encoding="utf-8",
        )
        assert main(["chsh", str(path)]) == 1
        assert "missing observables" in capsys.readouterr().err


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


class TestDemoFiles:
    """The demo inputs shipped in demos/ stay working."""

    def test_demo_directory(self, capsys):
        from pathlib import Path

        demos = Path(__file__).resolve().parents[1] / "demos"
        assert main(["run", str(demos / "three_qubit_demo.qc")]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "000 1.000000"
        assert main(["eval", str(demos / "and_of_halves.qf")]) == 0
        assert capsys.readouterr().out == "0.250000\n"
        assert main(["eval", str(demos / "excluded_middle.qf")]) == 0
        assert capsys.readouterr().out == "0.750000\n"
        assert main(["psa-table", str(demos / "zero_state.psa")]) == 0
        assert "hadamard P0 0.500000" in capsys.readouterr().out

    @pytest.mark.parametrize("demo", ["hadamard", "three_qubit_demo"])
    @pytest.mark.parametrize("noise", [None, "bitflip:0.05", "depolarizing:0.1"])
    def test_sample_records_match_their_goldens(self, demo, noise, capsys):
        # Committed outputs at 1024 shots and seed 7: a change to the sampler
        # that moves any count shows here.
        from pathlib import Path

        tests = Path(__file__).resolve().parent
        argv = ["sample", str(tests.parent / "demos" / f"{demo}.qc"), "--shots", "1024", "--seed", "7"]
        argv += ["--format", "record"] + (["--noise", noise] if noise else [])
        assert main(argv) == 0
        tag = noise.split(":")[0] if noise else "ideal"
        golden = tests / "golden" / "sample" / f"{demo}_{tag}.json"
        assert capsys.readouterr().out.encode() == golden.read_bytes()
