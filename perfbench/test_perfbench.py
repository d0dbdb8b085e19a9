"""Tests for the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import reference as ref
from perfbench import run, workloads
from perfbench.reference import CheckFailed
from perfbench.trace import TRACED, Tracer

ROOT = Path(__file__).resolve().parent.parent


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_writes_identical_files(workload, tmp_path):
    workloads.build(workload, 7, tmp_path / "a")
    workloads.build(workload, 7, tmp_path / "b")
    workloads.build(workload, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_tiny_run_passes_checks_and_traces_every_name(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        for workload in workloads.WORKLOADS:
            wl = workloads.build(workload, 3, tmp_path / workload, tiny=True)
            for op in wl.ops + ([wl.probe] if wl.probe else []):
                op.check(op.run())
    finally:
        tracer.uninstall()
    for module, attr, name, _ in TRACED:
        assert tracer.counters[name + ".calls"] >= 1, (module, attr)
    layers = run.layer_metrics(tracer, 1, None)
    for layer in ("cli", "circuits", "channels", "states", "qcl", "psa"):
        assert layers[f"{layer}.self_s"] > 0, layer
    assert layers["linalg.is_psd.self_s"] > 0


def test_uninstall_restores_originals():
    import bornlab.circuits
    import bornlab.qcl
    import bornlab.states

    before = (bornlab.circuits.apply, bornlab.qcl.apply, bornlab.states.DensityOperator.__init__)
    tracer = Tracer()
    tracer.install()
    assert bornlab.circuits.apply is not before[0] and bornlab.qcl.apply is bornlab.circuits.apply
    tracer.uninstall()
    assert (bornlab.circuits.apply, bornlab.qcl.apply, bornlab.states.DensityOperator.__init__) == before


def _first(wl, kind, text=""):
    return next(op for op in wl.ops if op.kind == kind and text in op.label)


def test_perturbed_distribution_is_caught(tmp_path):
    op = _first(workloads.build("dense-sim", 1, tmp_path, tiny=True), "run")
    record = json.loads(op.run())
    op.check(json.dumps(record))
    label = max(record["probabilities"], key=record["probabilities"].get)
    record["probabilities"][label] -= 1e-6
    with pytest.raises(CheckFailed):
        op.check(json.dumps(record))


def test_perturbed_truth_value_is_caught(tmp_path):
    op = _first(workloads.build("logic", 1, tmp_path, tiny=True), "eval")
    p = json.loads(op.run())["truth_probability"]
    with pytest.raises(CheckFailed):
        op.check(json.dumps({"truth_probability": p + 1e-6}))


def test_perturbed_histogram_is_caught(tmp_path):
    wl = workloads.build("small-register", 1, tmp_path, tiny=True)
    op = _first(wl, "sample", "3q")
    record = json.loads(op.run())
    op.check(json.dumps(record))
    counts = record["counts"]
    hi, lo = max(counts, key=counts.get), min(counts, key=counts.get)
    moved = dict(counts, **{hi: counts[hi] - record["shots"] // 20, lo: counts[lo] + record["shots"] // 20})
    with pytest.raises(CheckFailed):
        op.check(json.dumps(dict(record, counts=moved)))
    with pytest.raises(CheckFailed):
        op.check(json.dumps(dict(record, counts=dict(counts, **{hi: counts[hi] + 1}))))


def test_repeated_sample_must_match_bytes(tmp_path):
    wl = workloads.build("small-register", 1, tmp_path, tiny=True)
    i = next(i for i, op in enumerate(wl.ops) if op.kind == "sample")
    first, repeat = wl.ops[i], wl.ops[i + 1]
    out = first.run()
    first.check(out)
    with pytest.raises(CheckFailed):
        repeat.check(out.replace("\n", " \n", 1))


def test_latency_is_a_median_over_passes_and_scaled_to_nominal_speed():
    # Three slots over three passes; one pass of slot 0 ran ten times slower.
    records = [
        {"slot": slot, "seconds": base * (10 if (slot, p) == (0, 1) else 1), "error": None}
        for p in range(3)
        for slot, base in enumerate((1.0, 2.0, 4.0))
    ]
    m = run.latency_metrics(records, "seconds")
    assert m["latency_p50_s"] == 2.0
    assert m["latency_p90_s"] == pytest.approx(3.6)
    assert m["ops_per_s"] == pytest.approx(3 / 7)


def test_timed_scales_by_the_kernel_and_leaves_it_out_of_wall_time():
    def work():
        return sum(i * i for i in range(2_000_000))  # about 0.2-0.4 s

    t0 = time.perf_counter()
    result, error, wall, scaled_s, cal = run.timed(work)
    total = time.perf_counter() - t0
    assert (result, error) == (sum(i * i for i in range(2_000_000)), None)
    # The kernel ran before, after and at least once during the call, and
    # none of those runs is counted in ``wall``.
    assert wall > 0.1 and total - wall > 2.5 * cal
    assert scaled_s == pytest.approx(wall * run.NOMINAL_CALIBRATION_S / cal)
    _, error, _, _, _ = run.timed(lambda: 1 / 0)
    assert isinstance(error, ZeroDivisionError)


def test_reference_matches_golden_noisy_distributions():
    """The noisy-circuit reference reproduces the distributions that
    ``bornlab run --noise`` printed, rounded to 1e-9, when the benchmark was
    introduced."""
    golden = json.loads((Path(__file__).parent / "golden" / "noisy_distributions.json").read_text())
    for case in golden:
        n = case["qubits"]
        steps = ref.with_noise([("gate", name, tuple(t)) for _, name, t in case["steps"]], *case["noise"])
        ref.check_distribution(case["probabilities"], ref.circuit_probs(n, steps), n)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        assert run.parse_args(["--workload", name, "--seed", "1", "--seconds", "1"]).workload == name
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER


def test_command_prints_result_line():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-register", "--seed", "5", "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, _ in run.PER_LAYER}


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "logic", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout == ""
