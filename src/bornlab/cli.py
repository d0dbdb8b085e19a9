"""Command-line front end.

Subcommands:

    run        print the exact outcome distribution of a circuit file
    sample     draw seeded shots from a circuit and emit a histogram
    eval       evaluate the truth probability of a formula file
    psa-table  print the intensity of every projector in every context
    chsh       evaluate the CHSH combination for a state and four observables

Everything is deterministic given its flags: the sampler is seeded (default
seed 0, echoed into the output), results print at 6 decimals, and the
``record`` format carries full precision JSON.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from pathlib import Path

from .circuits import (
    inject_noise,
    output_distribution,
    parse_chsh_file,
    parse_circuit,
    parse_formula_file,
    parse_psa_file,
    sample,
)
from .linalg import STRUCTURAL_TOL, check_tol
from .psa import CHSH_PRESETS, chsh_preset, chsh_value, global_valuation
from .qcl import eval_formula

FORMATS = ("table", "csv", "record")


def _parse_noise_flag(spec: str) -> tuple[str, float]:
    kind, sep, ptext = spec.partition(":")
    if not sep:
        raise ValueError("noise spec must look like bitflip:0.05 or depolarizing:0.1")
    try:
        return kind, float(ptext)
    except ValueError:
        raise ValueError(f"bad noise probability {ptext!r}") from None


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _json_dump(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv(rows) -> str:
    """``rows`` as CSV lines ending in ``\n``; only fields that hold a comma, a
    quote or a line break are quoted."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _read_input(args) -> tuple[str, Path]:
    """The input file's text, and the directory its relative paths resolve in."""
    path = Path(args.input)
    return path.read_text(encoding="utf-8"), path.parent


def _read_circuit(args):
    ir = parse_circuit(_read_input(args)[0])
    if args.noise:
        ir = inject_noise(ir, *_parse_noise_flag(args.noise))
    return ir


def _scalar(args, key: str, value: float) -> str:
    if args.fmt == "record":
        return _json_dump({key: value})
    text = f"{value + 0.0:.6f}"
    return _csv([[key], [text]]) if args.fmt == "csv" else text + "\n"


def cmd_run(args) -> str:
    dist = output_distribution(_read_circuit(args))
    labels = sorted(dist)
    if args.fmt == "table":
        return "".join(f"{l} {dist[l]:.6f}\n" for l in labels)
    if args.fmt == "csv":
        return _csv([("outcome", "probability"), *((l, f"{dist[l]:.6f}") for l in labels)])
    return _json_dump({"probabilities": dist})


def cmd_sample(args) -> str:
    h = sample(_read_circuit(args), args.shots, args.seed)
    labels = sorted(h.counts)
    if args.fmt == "table":
        return f"shots {h.shots}\nseed {h.seed}\n" + "".join(f"{l} {h.counts[l]}\n" for l in labels)
    if args.fmt == "csv":
        head = [(f"# shots={h.shots} seed={h.seed}",), ("outcome", "count")]
        return _csv([*head, *((l, h.counts[l]) for l in labels)])
    return _json_dump({"shots": h.shots, "seed": h.seed, "counts": h.counts})


def cmd_eval(args) -> str:
    ast, bindings = parse_formula_file(*_read_input(args))
    return _scalar(args, "truth_probability", eval_formula(ast, bindings))


def cmd_psa_table(args) -> str:
    check_tol(args.tol)
    state, contexts = parse_psa_file(*_read_input(args), tol=args.tol)
    table = global_valuation(state, [context for _, context in contexts])
    rows = [(contexts[ci][0], f"P{pi}", v) for (ci, pi), v in table.items()]
    if args.fmt == "table":
        return "".join(f"{c} {l} {v:.6f}\n" for c, l, v in rows)
    if args.fmt == "csv":
        return _csv([("context", "projector", "intensity"), *((c, l, f"{v:.6f}") for c, l, v in rows)])
    return _json_dump([{"context": c, "projector": l, "intensity": v} for c, l, v in rows])


def cmd_chsh(args) -> str:
    check_tol(args.tol)
    if args.input in CHSH_PRESETS:
        rho, a, ap, b, bp = chsh_preset(args.input)
    else:
        rho, a, ap, b, bp = parse_chsh_file(*_read_input(args))
    return _scalar(args, "S", chsh_value(rho, a, ap, b, bp, tol=args.tol))


_COMMANDS = {
    "run": cmd_run,
    "sample": cmd_sample,
    "eval": cmd_eval,
    "psa-table": cmd_psa_table,
    "chsh": cmd_chsh,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process and shared by every ``main``
    call; callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="bornlab",
        description="Density-operator circuit simulation, truth-probability "
        "evaluation, and intensive projector valuations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, input_help):
        sp.add_argument("input", help=input_help)
        sp.add_argument("--format", dest="fmt", choices=FORMATS, default="table")
        sp.add_argument("--output", default=None, help="write results to a file")

    p = sub.add_parser("run", help="print the exact outcome distribution")
    common(p, "circuit file")
    p.add_argument("--noise", default=None, help="inject <bitflip|depolarizing>:<p> after every gate")

    p = sub.add_parser("sample", help="draw seeded shots and emit a histogram")
    common(p, "circuit file")
    p.add_argument("--noise", default=None, help="inject <bitflip|depolarizing>:<p> after every gate")
    p.add_argument("--shots", type=int, default=1024)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("eval", help="evaluate the truth probability of a formula file")
    common(p, "formula file")

    p = sub.add_parser("psa-table", help="print intensities per context and projector")
    common(p, "valuation input file")
    p.add_argument("--tol", type=float, default=STRUCTURAL_TOL, help="tolerance of the context checks")

    p = sub.add_parser(
        "chsh", help=f"evaluate S for an input file or preset ({', '.join(CHSH_PRESETS)})"
    )
    common(p, "input file or preset name")
    p.add_argument("--tol", type=float, default=STRUCTURAL_TOL, help="tolerance of the observable checks")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _emit(_COMMANDS[args.command](args), args.output)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
