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


def _render(args, header, rows, record, preamble=()) -> str:
    """``record`` as indented JSON with sorted keys, or ``header`` and ``rows``
    as the format ``args.fmt`` says; no other function reads ``args.fmt``.

    ``table`` is the ``preamble`` pairs and then ``rows``, fields joined by
    one blank; ``csv`` is a ``# key=value ...`` line for the ``preamble``,
    then ``header`` and ``rows``, quoting only fields that hold a comma, a
    quote or a line break.  Both print a float at 6 decimals (``-0.0`` as
    ``0.000000``), and ints and strings as they are."""
    if args.fmt == "record":
        return json.dumps(record, indent=2, sort_keys=True) + "\n"

    def text(x) -> str:
        return f"{x + 0.0:.6f}" if isinstance(x, float) else str(x)

    if args.fmt == "table":
        return "".join(" ".join(map(text, row)) + "\n" for row in [*preamble, *rows])
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if preamble:
        writer.writerow(["# " + " ".join(f"{key}={text(value)}" for key, value in preamble)])
    writer.writerows([header, *([text(x) for x in row] for row in rows)])
    return out.getvalue()


def _read_input(args) -> tuple[str, Path]:
    """The input file's text, and the directory its relative paths resolve in.
    A file that is not UTF-8 is named in the message, as a circuit file named
    inside an input is."""
    path = Path(args.input)
    try:
        return path.read_text(encoding="utf-8"), path.parent
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read {str(path)!r}: {exc}") from exc


def _read_circuit(args):
    ir = parse_circuit(_read_input(args)[0])
    if args.noise:
        ir = inject_noise(ir, *_parse_noise_flag(args.noise))
    return ir


def cmd_run(args) -> str:
    dist = output_distribution(_read_circuit(args))
    rows = [(label, dist[label]) for label in sorted(dist)]
    return _render(args, ("outcome", "probability"), rows, {"probabilities": dist})


def cmd_sample(args) -> str:
    h = sample(_read_circuit(args), args.shots, args.seed)
    rows = [(label, h.counts[label]) for label in sorted(h.counts)]
    record = {"shots": h.shots, "seed": h.seed, "counts": h.counts}
    return _render(args, ("outcome", "count"), rows, record, (("shots", h.shots), ("seed", h.seed)))


def cmd_eval(args) -> str:
    ast, bindings = parse_formula_file(*_read_input(args))
    p = eval_formula(ast, bindings)
    return _render(args, ("truth_probability",), [(p,)], {"truth_probability": p})


def cmd_psa_table(args) -> str:
    check_tol(args.tol)
    state, contexts = parse_psa_file(*_read_input(args), tol=args.tol)
    table = global_valuation(state, [context for _, context in contexts])
    header = ("context", "projector", "intensity")
    rows = [(contexts[ci][0], f"P{pi}", v) for (ci, pi), v in table.items()]
    return _render(args, header, rows, [dict(zip(header, row)) for row in rows])


def cmd_chsh(args) -> str:
    check_tol(args.tol)
    if args.input in CHSH_PRESETS:
        rho, a, ap, b, bp = chsh_preset(args.input)
    else:
        rho, a, ap, b, bp = parse_chsh_file(*_read_input(args))
    s = chsh_value(rho, a, ap, b, bp, tol=args.tol)
    return _render(args, ("S",), [(s,)], {"S": s})


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
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
