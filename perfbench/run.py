"""Run one bornlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload dense-sim --seed 1 --seconds 30 --trace 0

Steps, all in this one process:

1. Cap the address space (``RLIMIT_AS``) so an allocation blow-up becomes a
   recorded ``MemoryError``, and pin BLAS to one thread.
2. Set up ``SETUP_REPEATS`` times: import bornlab (timed in a fresh
   interpreter), write the workload's input files from ``--seed``, and warm
   up on a shrunken copy of the workload.  ``setup_s`` is the median.
3. Closed loop, one client: run the operation list in whole passes, each
   operation timed on its own and then checked against the reference
   models, until ``--seconds`` is used up to the nearest whole pass.  A
   calibration kernel samples the machine's speed around and during each
   operation (see ``timed``).
4. With ``--trace 1`` the loop runs under the layer tracer and the spans go
   to ``.perfbench_out/``; per-layer metrics are reported per pass.
5. Run the workload's limit probe once, if it has one: every run of
   dense-sim, traced runs of logic.

The second-to-last line of standard output is a JSON report (all metrics,
sample counts, failures with their exception types, environment, probe);
the last line is the result object.  The exit status is nonzero when any
output failed its correctness check.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

# Successful operations peak below 0.8 GiB of address space (an 8-qubit
# ``measure all``), so 2 GiB leaves them room while a 10-qubit ``measure all``
# (17 GB of Kraus matrices) fails within a few seconds.
ADDRESS_SPACE_CAP = 2 * 2**30
SETUP_REPEATS = 7
BLAS_THREADS = 1

# The speed of a small shared host drifts by a third within seconds: one
# fixed numpy computation took 0.10-0.16 s within 40 s on a 2-vCPU VM, with
# no steal time, so process CPU time drifts the same way.  Every timing is
# therefore scaled to a nominal machine speed: it is multiplied by
# NOMINAL_CALIBRATION_S over the mean duration of the calibration kernel,
# which runs just before, just after and every SAMPLE_INTERVAL_S during the
# timed call.  The constant is the kernel's median time on that VM, so the
# scaled times are in seconds at its typical speed.  The report holds the
# unscaled wall times as well.
NOMINAL_CALIBRATION_S = 0.008
SAMPLE_INTERVAL_S = 0.1

END_TO_END = {
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metrics, per pass of the operation list: (name, unit).  A
# "<layer>.self_s" name is the self time of all of that layer's spans.
PER_LAYER = [
    ("cli.self_s", "s"),
    ("circuits.self_s", "s"),
    ("circuits.parse.self_s", "s"),
    ("circuits.simulate.self_s", "s"),
    ("circuits.sample.self_s", "s"),
    ("circuits.sample.shots", "count"),
    ("channels.self_s", "s"),
    ("channels.apply.calls", "count"),
    ("channels.apply.self_s", "s"),
    ("channels.apply.flops_computed", "flop"),
    ("channels.kraus.bytes_computed", "B"),
    ("channels.measurement_channel.self_s", "s"),
    ("channels.measurement_channel.memory_errors", "count"),
    ("channels.noise_channel.self_s", "s"),
    ("channels.lift_unitary.self_s", "s"),
    ("channels.operation_check.self_s", "s"),
    ("states.self_s", "s"),
    ("states.density_check.calls", "count"),
    ("states.density_check.self_s", "s"),
    ("states.projector_check.self_s", "s"),
    ("linalg.is_psd.calls", "count"),
    ("linalg.is_psd.self_s", "s"),
    ("qcl.self_s", "s"),
    ("qcl.eval.self_s", "s"),
    ("qcl.and.calls", "count"),
    ("qcl.composite_qubits.max", "qubits"),
    ("psa.self_s", "s"),
    ("psa.context_check.self_s", "s"),
    ("psa.valuation.self_s", "s"),
    ("psa.reconstruct.self_s", "s"),
    ("psa.reconstruct.trace_products", "count"),
    ("limit_probe_s", "s"),
]


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("dense-sim", "logic", "small-register"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    import numpy

    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        so = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(so, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def import_seconds() -> tuple[float, float]:
    """Time ``import bornlab`` in a fresh interpreter.  Also return the
    median of three calibration kernel runs in that interpreter, just after
    the import, to scale it by."""
    code = (
        "import time; t = time.perf_counter(); import bornlab; t = time.perf_counter() - t\n"
        "import statistics; from perfbench.run import calibration_seconds\n"
        "print(t, statistics.median(calibration_seconds() for _ in range(3)))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    import_s, cal = map(float, done.stdout.split())
    return import_s, cal


_CAL_MATRIX = None


def calibration_seconds() -> float:
    """Wall time of a fixed mix of BLAS and interpreter work that no bornlab
    code runs: four 192x192 complex products and a 30000-step Python loop,
    about 8 ms."""
    global _CAL_MATRIX
    if _CAL_MATRIX is None:
        import numpy

        _CAL_MATRIX = numpy.random.default_rng(0).random((192, 192)) * (1 + 1j)
    t0 = time.perf_counter()
    for _ in range(4):
        _CAL_MATRIX @ _CAL_MATRIX
    total = 0
    for i in range(30_000):
        total += i * i
    return time.perf_counter() - t0


def timed(fn, sample: bool = True):
    """Call ``fn()``; return ``(result, error, wall_s, scaled_s, cal_s)``.

    ``error`` is the exception ``fn`` raised, or None.  The calibration
    kernel runs just before and just after the call and, when ``sample`` is
    true, from a SIGALRM handler every ``SAMPLE_INTERVAL_S`` during it.  The
    handler's time is left out of ``wall_s``.  ``cal_s`` is the mean kernel
    time and ``scaled_s`` is ``wall_s`` at the nominal machine speed.
    """
    cals = [calibration_seconds()]
    paused = 0.0

    def on_alarm(signum, frame):
        nonlocal paused
        t0 = time.perf_counter()
        cals.append(calibration_seconds())
        paused += time.perf_counter() - t0

    previous = signal.signal(signal.SIGALRM, on_alarm)
    if sample:
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    result, error = None, None
    t0 = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # the caller records it
        # Drop the frames: they hold what the call had allocated, which after
        # a MemoryError is most of the address-space cap.
        error = exc.with_traceback(None)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - t0 - paused
        signal.signal(signal.SIGALRM, previous)
    cals.append(calibration_seconds())
    cal = statistics.fmean(cals)
    return result, error, wall, wall * NOMINAL_CALIBRATION_S / cal, cal


def vm_peak_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmPeak:"):
                return int(line.split()[1]) / 1024
    return float("nan")


def run_loop(wl, seconds: float, tracer):
    """Whole passes over ``wl.ops`` until ``seconds`` is reached, rounded to
    the nearest pass.  Returns per-operation records and the pass count."""
    from perfbench.reference import CheckFailed

    records = []
    passes = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for i, op in enumerate(wl.ops):
            if tracer is not None:
                tracer.op_id = passes * len(wl.ops) + i
            # Kernel runs inside a traced operation would count as its self time.
            out, exc, elapsed, scaled_s, cal = timed(op.run, sample=tracer is None)
            error = None if exc is None else f"{type(exc).__name__}: {exc}"
            failed_check = False
            if error is None:
                try:
                    op.check(out)
                except CheckFailed as exc:
                    error, failed_check = f"CheckFailed: {exc}", True
            records.append(
                {
                    "slot": i,
                    "label": op.label,
                    "seconds": elapsed,
                    "scaled_s": scaled_s,
                    "cal_s": cal,
                    "error": error,
                    "check": failed_check,
                }
            )
            del out
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) / 2 >= seconds:
            return records, passes, now - start


def run_probe(probe) -> dict:
    from perfbench.reference import CheckFailed

    t0 = time.perf_counter()
    try:
        out = probe.run()
    except Exception as exc:  # the probe exists to record this failure
        return {"operation": probe.label, "outcome": f"{type(exc).__name__}: {exc}", "seconds": time.perf_counter() - t0}
    seconds = time.perf_counter() - t0
    try:
        probe.check(out)
        outcome = "ok"
    except CheckFailed as exc:
        outcome = f"CheckFailed: {exc}"
    return {"operation": probe.label, "outcome": outcome, "seconds": seconds}


def latency_metrics(records: list[dict], key: str) -> dict[str, float]:
    """Latency percentiles and throughput from the per-slot medians of
    ``key`` over the passes, successful operations only.

    Each slot of the operation list is one operation; its latency is the
    median of its passes, so one slow pass of a slot does not move the
    percentiles.  ``ops_per_s`` is operations per second of summed latency.
    """
    by_slot: dict[int, list[float]] = {}
    for r in records:
        if r["error"] is None:
            by_slot.setdefault(r["slot"], []).append(r[key])
    per_op = [statistics.median(v) for v in by_slot.values()]
    if len(per_op) < 2:
        return {"latency_p50_s": float("nan"), "latency_p90_s": float("nan"), "ops_per_s": float("nan")}
    return {
        "latency_p50_s": statistics.median(per_op),
        "latency_p90_s": statistics.quantiles(per_op, n=10, method="inclusive")[8],
        "ops_per_s": len(per_op) / sum(per_op),
    }


def layer_metrics(tracer, passes: int, probe: dict | None) -> dict[str, float]:
    self_s = tracer.self_times()
    values: dict[str, float] = {}
    for name, _ in PER_LAYER:
        if name == "limit_probe_s":
            values[name] = probe["seconds"] if probe is not None else 0.0
        elif name.endswith(".memory_errors"):
            values[name] = float(probe is not None and probe["outcome"].startswith("MemoryError"))
        elif name.endswith(".max"):
            values[name] = tracer.maxima.get(name, 0.0)
        elif name.endswith(".self_s"):
            span = name.removesuffix(".self_s")
            whole_layer = "." not in span
            values[name] = (tracer.layer_self_time(span) if whole_layer else self_s.get(span, 0.0)) / passes
        else:
            values[name] = tracer.counters.get(name, 0.0) / passes
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bornlab" / "__init__.py").is_file():
        print(f"error: no bornlab sources under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    # One thread: a BLAS call split over the host's few cores waits for the
    # slowest of them, which on a shared host measures the neighbours.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_CAP if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE_CAP, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    sys.path[:0] = [str(SRC), str(ROOT)]

    import numpy

    import bornlab
    from perfbench import workloads
    from perfbench.trace import MODULES, Tracer

    if not Path(bornlab.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported bornlab from {bornlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    threads = blas_threads()
    if threads is not None and threads > nproc:
        print(f"error: BLAS uses {threads} threads on {nproc} processors", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        def build_and_warm_up():
            wl = workloads.build(args.workload, args.seed, workdir / "ops")
            warm = workloads.build(args.workload, args.seed, workdir / "warm", tiny=True)
            for op in warm.ops:
                op.check(op.run())
            return wl

        setups = []
        for _ in range(SETUP_REPEATS):
            import_s, import_cal = import_seconds()
            wl, exc, build_s, build_scaled, _ = timed(build_and_warm_up)
            if exc is not None:
                raise exc
            setups.append(
                {
                    "import_s": import_s,
                    "build_and_warmup_s": build_s,
                    "scaled_s": import_s * NOMINAL_CALIBRATION_S / import_cal + build_scaled,
                }
            )

        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            records, passes, elapsed = run_loop(wl, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        peak_vm_mb = vm_peak_mb()
        run_it = wl.probe is not None and (args.trace or not wl.probe_traced_only)
        probe = run_probe(wl.probe) if run_it else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [r for r in records if r["error"] is not None]
    check_failures = sum(r["check"] for r in records)
    op_seconds = sum(r["seconds"] for r in records)
    metrics = {
        **latency_metrics(records, "scaled_s"),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(s["scaled_s"] for s in setups),
    }
    wall = {
        **latency_metrics(records, "seconds"),
        "setup_s": statistics.median(s["import_s"] + s["build_and_warmup_s"] for s in setups),
    }
    cals = [r["cal_s"] for r in records]
    by_label: dict[str, list[float]] = {}
    for r in records:
        by_label.setdefault(r["label"], []).append(r["scaled_s"])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "measured_s": elapsed,
        "passes": passes,
        "ops_per_pass": len(wl.ops),
        "latency_samples": sum(r["error"] is None for r in records),
        "metrics": {**metrics, "failed_ratio": len(failures) / len(records)},
        "unscaled_wall_metrics": wall,
        "calibration_s": {"nominal": NOMINAL_CALIBRATION_S, "median": statistics.median(cals), "min": min(cals), "max": max(cals)},
        "setup": setups,
        "latency_by_label_s": {k: statistics.median(v) for k, v in sorted(by_label.items())},
        "failures": [{"label": r["label"], "error": r["error"][:300]} for r in failures],
        "limit_probe": probe,
        "environment": {
            "address_space_cap_bytes": cap,
            "peak_vm_mb": peak_vm_mb,
            "nproc": nproc,
            "blas_threads": threads,
            "blas_threads_requested": BLAS_THREADS,
            "numpy": numpy.__version__,
            "python": sys.version.split()[0],
        },
    }
    if tracer is not None:
        values = layer_metrics(tracer, passes, probe)
        report["traced_ops_per_s"] = metrics["ops_per_s"]
        report["layer_share_of_op_time"] = {layer: tracer.layer_self_time(layer) / op_seconds for layer in MODULES}
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        result_metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        result_metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    correct = check_failures == 0 and not (probe and probe["outcome"].startswith("CheckFailed"))
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": result_metrics,
    }
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
