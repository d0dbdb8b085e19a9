"""The advertised 10-qubit limit, and every accepted shot count, holds under a
2 GiB address-space cap, and so does reconstruction's 6-qubit limit.

Each circuit, formula, valuation or sample runs through ``bornlab`` in a child
interpreter whose address space is capped, so an allocation that scales with
4**n per Kraus matrix, per formula composite or per shot fails there as a
``MemoryError`` instead of exhausting the machine.
"""

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def _late_mixing_expected():
    # q0 and q5 set, q3 flipped with p = 0.25, q7 uniform after h and
    # depolarizing noise, q9 uniform after sqrtnot, q1 flipped with p = 0.1.
    out = {}
    for a, b, flip3, flip1 in itertools.product((0, 1), repeat=4):
        ones = {0, 5} | {q for q, bit in ((7, a), (9, b), (3, flip3), (1, flip1)) if bit}
        out[_label(10, ones)] = 0.25 * (0.25 if flip3 else 0.75) * (0.1 if flip1 else 0.9)
    return out


CASES = {
    # A basis state under noise, then the mixing gates, then noise again and
    # measure all: only the two mixing gates and the noise between them run
    # on the matrix.
    "basis_head_late_mixing": (
        "qubits 10\ngate not 0\ngate cnot 0 5\nnoise bitflip 0.25 3\ngate h 7\n"
        "noise depolarizing 0.2 7\ngate sqrtnot 9\nnoise bitflip 0.1 1\nmeasure all\n",
        _late_mixing_expected(),
    ),
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


HADAMARD = SRC.parent / "demos" / "hadamard.qc"


@pytest.mark.parametrize("shots", [10**10, 2**63 - 1])
def test_huge_shot_counts_sample_under_a_2_gib_cap(shots):
    # One shot per int8 would already need 9.3 GiB at 10**10 shots.
    done = subprocess.run(
        [sys.executable, "-c", CHILD, "sample", str(HADAMARD), "--shots", str(shots)],
        capture_output=True, text=True, env=ENV, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stdout)
    assert record["shots"] == shots
    assert record["counts"].keys() == {"0", "1"}
    assert sum(record["counts"].values()) == shots


def test_shots_past_int64_are_rejected_without_a_traceback():
    done = subprocess.run(
        [sys.executable, "-c", CHILD, "sample", str(HADAMARD), "--shots", str(2**63)],
        capture_output=True, text=True, env=ENV, timeout=120,
    )
    assert done.returncode == 1
    assert done.stderr == "error: shots must be <= 9223372036854775807\n"


RECONSTRUCT_CHILD = f"""\
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({CAP_BYTES}, resource.RLIM_INFINITY))
from bornlab.psa import reconstruct_density
from bornlab.states import basis_state, projector_onto
n, count = map(int, sys.argv[1:])
p = projector_onto(basis_state(n, 0))
try:
    reconstruct_density([(p, 0.5)] * count, n)
except ValueError as exc:
    print(exc)
"""


@pytest.mark.parametrize(
    "n, count, message",
    [
        # 4**8 rows of 4**8 coordinates would take 32 GiB.
        (8, 3, "projector family is not informationally complete (needs rank 65536)"),
        # Enough samples, but 4**7 rows of 4**7 coordinates would take 2.1 GB.
        (7, 4**7, "reconstruction is limited to 6 qubits, got 7"),
    ],
    ids=["too-few-samples", "past-the-limit"],
)
def test_reconstruction_fails_before_its_rows_are_built(n, count, message):
    done = subprocess.run(
        [sys.executable, "-c", RECONSTRUCT_CHILD, str(n), str(count)],
        capture_output=True, text=True, env=ENV, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == message + "\n"


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


def _balanced_conjunction(operands):
    """The operands joined by ``&`` in a balanced tree: a left-nested chain of
    more than ``MAX_FORMULA_DEPTH`` links is refused."""
    if len(operands) == 1:
        return operands[0]
    half = len(operands) // 2
    return f"({_balanced_conjunction(operands[:half])} & {_balanced_conjunction(operands[half:])})"


def test_many_atoms_naming_one_ten_qubit_circuit_evaluate_under_a_2_gib_cap(tmp_path):
    # One 16 MiB state per atom would take 2.3 GiB; the atoms share one state,
    # under three spellings of the path.  The circuit's truth qubit reads 0
    # with certainty, so every negated atom is true, and the conjunction is
    # as true as the literal t.
    circuits = SRC.parent / "tests" / "circuits"
    spellings = [circuits / "ten_qubit.qc", circuits / "." / "ten_qubit.qc", circuits / ".." / "circuits" / "ten_qubit.qc"]
    lines = [f"atom c{k} = {spellings[k % 3]}" for k in range(150)]
    lines.append(f"atom t = ({0.7 ** 0.5!r}, 0, {0.3 ** 0.5!r}, 0)")
    lines.append("formula = " + _balanced_conjunction([f"!c{k}" for k in range(150)] + ["t"]))
    path = tmp_path / "shared.qf"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-c", CHILD, "eval", str(path)],
        capture_output=True, text=True, env=ENV, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert abs(json.loads(done.stdout)["truth_probability"] - 0.3) <= 1e-12


def test_many_atoms_naming_distinct_ten_qubit_circuits_end_without_a_traceback(tmp_path):
    # 150 distinct circuit texts are simulated one by one; their full 16 MiB
    # states would take 2.3 GiB.  Whether the states fit under the cap or
    # not, ``bornlab eval`` ends in a result or in one ``error:`` line.  No
    # circuit flips the truth qubit 9, so every negated atom is true.
    lines = []
    for k in range(150):
        flips = "".join(f"gate not {q}\n" for q in range(10) if k >> q & 1)
        (tmp_path / f"c{k}.qc").write_text(f"qubits 10\n{flips}", encoding="utf-8")
        lines.append(f"atom c{k} = c{k}.qc")
    lines.append("formula = " + _balanced_conjunction([f"!c{k}" for k in range(150)]))
    path = tmp_path / "distinct.qf"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-c", CHILD, "eval", str(path)],
        capture_output=True, text=True, env=ENV, timeout=300,
    )
    assert "Traceback" not in done.stderr
    if done.returncode == 0:
        assert json.loads(done.stdout)["truth_probability"] == 1.0
    else:
        assert done.returncode == 1
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


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


MEASUREMENT_CHILD = f"""\
import json, resource, time, tracemalloc
resource.setrlimit(resource.RLIMIT_AS, ({CAP_BYTES}, resource.RLIM_INFINITY))
from bornlab.channels import measurement_channel
tracemalloc.start()
start = time.perf_counter()
op = measurement_channel(10, range(10))
seconds = time.perf_counter() - start
peak = tracemalloc.get_traced_memory()[1]
print(json.dumps({{"seconds": seconds, "peak": peak, "n_kraus": len(op.kraus)}}))
"""


def test_the_joint_measurement_of_ten_qubits_is_built_without_its_projectors():
    # Its 1024 projectors of 1024 x 1024 complex entries would take 16 GiB;
    # the operation keeps one 1024 x 1024 float mask (8 MiB) and builds a
    # projector only when it is read.
    done = subprocess.run(
        [sys.executable, "-c", MEASUREMENT_CHILD], capture_output=True, text=True, env=ENV, timeout=120
    )
    assert done.returncode == 0, done.stderr
    built = json.loads(done.stdout)
    assert built["n_kraus"] == 1024
    assert built["peak"] < 20 * 2**20
    assert built["seconds"] < 1.0


@pytest.fixture(scope="module")
def walsh_file(tmp_path_factory):
    """A valuation file: the state |0..0> on 10 qubits and one full context of
    the 1024 +-1 rows of the Walsh-Hadamard matrix, as ``vector`` lines."""
    h = np.ones((1, 1), dtype=int)
    for _ in range(10):
        h = np.kron(h, [[1, 1], [1, -1]])
    lines = ["state pure 1" + " 0" * 1023, "context walsh"]
    lines += ["vector " + " ".join(map(str, row)) for row in h]
    path = tmp_path_factory.mktemp("walsh") / "walsh10.psa"
    path.write_text("\n".join(lines + ["end"]) + "\n", encoding="utf-8")
    return path


def test_a_full_ten_qubit_context_of_vectors_is_valued_under_a_2_gib_cap(walsh_file):
    # Its 1024 projectors of 1024 x 1024 complex entries would take 16 GiB.
    done = subprocess.run(
        [sys.executable, "-c", CHILD, "psa-table", str(walsh_file)],
        capture_output=True, text=True, env=ENV, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    rows = json.loads(done.stdout)
    assert len(rows) == 1024
    assert all(row["intensity"] == 1 / 1024 for row in rows)


VALUATION_CHILD = f"""\
import json, pathlib, resource, sys, tracemalloc
resource.setrlimit(resource.RLIMIT_AS, ({CAP_BYTES}, resource.RLIM_INFINITY))
from bornlab.circuits import parse_psa_file
from bornlab.psa import global_valuation
text = pathlib.Path(sys.argv[1]).read_text(encoding="utf-8")
tracemalloc.start()
state, contexts = parse_psa_file(text)
table = global_valuation(state, [context for _, context in contexts])
peak = tracemalloc.get_traced_memory()[1]
formed = sum(
    any(getattr(value, "ndim", 0) == 2 for value in vars(p).values())
    for _, context in contexts
    for p in context.projectors
)
print(json.dumps({{"peak": peak, "formed": formed, "rows": len(table)}}))
"""


def test_a_full_ten_qubit_context_of_vectors_forms_no_matrix_per_member(walsh_file):
    # Structure, not time: the members keep their rays, and the checks and
    # the Born rule work on them, so the peak stays below eight 1024 x 1024
    # complex matrices (the state, its checks and the Gram matrix).
    done = subprocess.run(
        [sys.executable, "-c", VALUATION_CHILD, str(walsh_file)],
        capture_output=True, text=True, env=ENV, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    valued = json.loads(done.stdout)
    assert valued["rows"] == 1024
    assert valued["formed"] == 0
    assert valued["peak"] < 8 * 2**24
