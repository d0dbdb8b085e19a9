"""The advertised 10-qubit limit holds under a 2 GiB address-space cap.

Each circuit or formula runs through ``bornlab`` in a child interpreter whose
address space is capped, so an allocation that scales with 4**n per Kraus
matrix or per formula composite fails there as a ``MemoryError`` instead of
exhausting the machine.
"""

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
CAP_BYTES = 2 * 2**30
ENV = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

CHILD = f"""\
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({CAP_BYTES}, resource.RLIM_INFINITY))
from bornlab.cli import main
sys.exit(main([*sys.argv[1:], "--format", "record"]))
"""


def _label(n, ones):
    return "".join("1" if q in ones else "0" for q in range(n))


def _measure_all_expected():
    # q0 = q9 from a Bell pair, q2 uniform, q4 set, q6 flipped with p = 0.25.
    out = {}
    for a, b, flip in itertools.product((0, 1), repeat=3):
        ones = {4} | ({0, 9} if a else set()) | ({2} if b else set()) | ({6} if flip else set())
        out[_label(10, ones)] = 0.25 * (0.25 if flip else 0.75)
    return out


def _toffoli_expected():
    # Controls 8 and 3 uniform, the negated qubit 1 is their AND.
    out = {}
    for a, b in itertools.product((0, 1), repeat=2):
        ones = ({8} if a else set()) | ({3} if b else set()) | ({1} if a and b else set())
        out[_label(10, ones)] = 0.25
    return out


CASES = {
    "measure_all": (
        "qubits 10\ngate h 0\ngate cnot 0 9\ngate not 4\ngate h 2\n"
        "noise bitflip 0.25 6\nmeasure all\n",
        _measure_all_expected(),
    ),
    "toffoli_non_adjacent": (
        "qubits 10\ngate h 8\ngate h 3\ngate toffoli 8 3 1\nmeasure 8 3 1\n",
        _toffoli_expected(),
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_ten_qubit_circuit_runs_under_a_2_gib_cap(case, tmp_path):
    text, expected = CASES[case]
    path = tmp_path / f"{case}.qc"
    path.write_text(text, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-c", CHILD, "run", str(path)],
        capture_output=True, text=True, env=ENV, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    probs = json.loads(done.stdout)["probabilities"]
    assert probs.keys() == expected.keys()
    for label, p in expected.items():
        assert abs(probs[label] - p) <= 1e-12, label


RECONSTRUCT_CHILD = f"""\
import resource
resource.setrlimit(resource.RLIMIT_AS, ({CAP_BYTES}, resource.RLIM_INFINITY))
from bornlab.psa import reconstruct_density
from bornlab.states import basis_state, projector_onto
samples = [(projector_onto(basis_state(8, i)), 1.0 if i == 0 else 0.0) for i in range(3)]
try:
    reconstruct_density(samples, 8)
except ValueError as exc:
    print(exc)
"""


def test_too_few_reconstruction_samples_fail_before_the_pauli_basis_is_built():
    # The 4**8 Pauli matrices of 8 qubits take 64 GiB.
    done = subprocess.run(
        [sys.executable, "-c", RECONSTRUCT_CHILD], capture_output=True, text=True, env=ENV, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert "not informationally complete (needs rank 65536)" in done.stdout


def _conjunction_file(tmp_path, n_atoms):
    """A left-nested conjunction of one-qubit literal atoms with distinct truth
    probabilities; returns its path and the product of those probabilities."""
    probs = [(k + 1) / (n_atoms + 2) for k in range(n_atoms)]
    lines = [f"atom a{k} = ({(1 - p) ** 0.5!r}, 0, {p**0.5!r}, 0)" for k, p in enumerate(probs)]
    lines.append("formula = " + " & ".join(f"a{k}" for k in range(n_atoms)))
    path = tmp_path / f"and{n_atoms}.qf"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path, math.prod(probs)


@pytest.mark.parametrize("n_atoms", [6, 20])
def test_a_conjunction_past_the_register_limit_evaluates_under_a_2_gib_cap(n_atoms, tmp_path):
    # Six one-qubit atoms make an 11-qubit composite, twenty make 39 qubits.
    path, want = _conjunction_file(tmp_path, n_atoms)
    done = subprocess.run(
        [sys.executable, "-c", CHILD, "eval", str(path)],
        capture_output=True, text=True, env=ENV, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert abs(json.loads(done.stdout)["truth_probability"] - want) <= 1e-12


COMPOSITE_CHILD = f"""\
import pathlib, resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({CAP_BYTES}, resource.RLIM_INFINITY))
from bornlab.circuits import parse_formula_file
from bornlab.qcl import eval_formula_state
try:
    eval_formula_state(*parse_formula_file(pathlib.Path(sys.argv[1]).read_text()))
except ValueError as exc:
    print(exc)
"""


def test_an_eleven_qubit_composite_is_rejected_before_it_is_built(tmp_path):
    path, _ = _conjunction_file(tmp_path, 6)
    done = subprocess.run(
        [sys.executable, "-c", COMPOSITE_CHILD, str(path)],
        capture_output=True, text=True, env=ENV, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "qubit count must be in 1..10, got 11"
