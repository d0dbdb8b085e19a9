"""Layer tracing by wrapping bornlab's public functions from outside.

A ``Tracer`` replaces each traced callable with a wrapper that records a span
(name, start, end, parent span, operation id) and call counts, keeping
everything in memory until the run ends.  A function is replaced under every
name that refers to it in every bornlab module, so ``circuits.apply``,
``qcl.apply`` and ``channels.apply`` are all traced; a constructor is
replaced on its class.  ``uninstall`` puts the originals back.

A span's self time is its duration minus the time its child spans cover; a
layer's self time is the sum over its spans.  Work in a function that is not
traced counts toward the nearest traced caller.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

MODULES = ("cli", "circuits", "channels", "states", "linalg", "qcl", "psa")


def _apply_flops(args, kwargs, result):
    # Two dense complex products per Kraus matrix, 8 real flops per
    # complex multiply-add.
    op = args[0]
    return {"apply.flops_computed": len(op.kraus) * 2 * 8 * op.dim**3}


def _kraus_bytes(args, kwargs, result):
    op = args[0]  # the QuantumOperation just constructed
    return {"kraus.bytes_computed": sum(k.nbytes for k in op.kraus)}


def _shots(args, kwargs, result):
    return {"sample.shots": args[1] if len(args) > 1 else kwargs["shots"]}


def _trace_products(args, kwargs, result):
    samples, n = args[0], args[1]
    return {"reconstruct.trace_products": len(samples) * 4**n}


def _composite(args, kwargs, result):
    return {"composite_qubits.max": result.n_qubits}


# (module, attribute, name, extra counters).  Calls are counted under
# "<name>.calls".  Extra counters are named relative to the module; a name
# ending in ".max" keeps the largest value instead of the sum.
TRACED = [
    ("cli", "main", "cli", None),
    ("circuits", "parse_circuit", "circuits.parse", None),
    ("circuits", "parse_formula_file", "circuits.parse", None),
    ("circuits", "simulate", "circuits.simulate", None),
    ("circuits", "outcome_distribution", "circuits.distribution", None),
    ("circuits", "sample", "circuits.sample", _shots),
    ("channels", "apply", "channels.apply", _apply_flops),
    ("channels", "lift_unitary", "channels.lift_unitary", None),
    ("channels", "measurement_channel", "channels.measurement_channel", None),
    ("channels", "noise_channel", "channels.noise_channel", None),
    ("channels", "QuantumOperation.__init__", "channels.operation_check", _kraus_bytes),
    ("states", "DensityOperator.__init__", "states.density_check", None),
    ("states", "Projector.__init__", "states.projector_check", None),
    ("linalg", "is_psd", "linalg.is_psd", None),
    ("qcl", "eval_formula", "qcl.eval", None),
    ("qcl", "qcl_and", "qcl.and", _composite),
    ("qcl", "qcl_or", "qcl.or", _composite),
    ("qcl", "qcl_not", "qcl.not", _composite),
    ("psa", "Context.__init__", "psa.context_check", None),
    ("psa", "intensity", "psa.valuation", None),
    ("psa", "chsh_value", "psa.chsh", None),
    ("psa", "reconstruct_density", "psa.reconstruct", _trace_products),
]
# Counted but not spanned: their time stays with the enclosing qcl.eval span.
COUNT_ONLY = {"qcl.and", "qcl.or", "qcl.not"}


class Tracer:
    """Spans and counters for one run; install, run operations, uninstall."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, module: str, name: str, extra):
        tracer = self
        span = name not in COUNT_ONLY

        def wrapper(*args, **kwargs):
            if not span:
                result = fn(*args, **kwargs)
            else:
                record = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else None, tracer.op_id]
                tracer._stack.append(len(tracer.spans))
                tracer.spans.append(record)
                record[1] = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[2] = time.perf_counter()
                    tracer._stack.pop()
            tracer.counters[name + ".calls"] += 1
            if extra is not None:
                for key, value in extra(args, kwargs, result).items():
                    counter = f"{module}.{key}"
                    if counter.endswith(".max"):
                        tracer.maxima[counter] = max(tracer.maxima[counter], value)
                    else:
                        tracer.counters[counter] += value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every entry of ``TRACED`` under all names that refer to it."""
        modules = [importlib.import_module("bornlab")]
        modules += [importlib.import_module(f"bornlab.{m}") for m in MODULES]
        for module, attr, name, extra in TRACED:
            owner = importlib.import_module(f"bornlab.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._replace(cls, meth, self._wrap(vars(cls)[meth], module, name, extra))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, module, name, extra)
            for mod in modules:
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, alias, wrapper)

    def _replace(self, owner, name, value) -> None:
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return dict(out)

    def layer_self_time(self, layer: str) -> float:
        """Self time of all spans of one module, in seconds."""
        return sum(v for k, v in self.self_times().items() if k == layer or k.startswith(layer + "."))

    def write(self, path: Path) -> None:
        """Write one JSON line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as f:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")
