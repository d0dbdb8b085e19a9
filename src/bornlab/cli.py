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
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .circuits import (
    inject_noise,
    histogram_csv,
    histogram_record,
    histogram_table,
    outcome_distribution,
    parse_circuit,
    parse_formula_file,
    sample,
    simulate,
)
from .linalg import STRUCTURAL_TOL, n_qubits_of
from .psa import Context, Psa, chsh_preset, chsh_value, intensity
from .qcl import eval_formula
from .states import DensityOperator, QuRegister, pure_to_density

FORMATS = ("table", "csv", "record")
CHSH_PRESETS = ("singlet-optimal", "product")


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    input_path: str
    shots: int = 1024
    seed: int = 0
    noise: tuple[str, float] | None = None
    fmt: str = "table"
    tol: float = STRUCTURAL_TOL
    output: str | None = None

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.noise is not None and not 0.0 <= self.noise[1] <= 1.0:
            raise ValueError("noise probability must be in [0, 1]")
        if self.fmt not in FORMATS:
            raise ValueError(f"unknown format {self.fmt!r}")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


def _parse_noise_flag(spec: str) -> tuple[str, float]:
    kind, sep, ptext = spec.partition(":")
    if not sep:
        raise ValueError("noise spec must look like bitflip:0.05 or depolarizing:0.1")
    if kind not in ("bitflip", "depolarizing"):
        raise ValueError(f"unknown noise kind {kind!r}")
    try:
        p = float(ptext)
    except ValueError:
        raise ValueError(f"bad noise probability {ptext!r}") from None
    return kind, p


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _json_dump(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _read_circuit(cfg: RunConfig):
    ir = parse_circuit(Path(cfg.input_path).read_text(encoding="utf-8"))
    if cfg.noise is not None:
        ir = inject_noise(ir, *cfg.noise)
    return ir


def cmd_run(cfg: RunConfig) -> int:
    dist = outcome_distribution(simulate(_read_circuit(cfg)))
    labels = sorted(dist)
    if cfg.fmt == "table":
        text = "".join(f"{l} {dist[l]:.6f}\n" for l in labels)
    elif cfg.fmt == "csv":
        text = "outcome,probability\n" + "".join(f"{l},{dist[l]:.6f}\n" for l in labels)
    else:
        text = _json_dump({"probabilities": dist})
    _emit(text, cfg.output)
    return 0


def cmd_sample(cfg: RunConfig) -> int:
    h = sample(_read_circuit(cfg), cfg.shots, cfg.seed)
    text = {"table": histogram_table, "csv": histogram_csv, "record": histogram_record}[
        cfg.fmt
    ](h)
    _emit(text, cfg.output)
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    path = Path(cfg.input_path)
    ast, bindings = parse_formula_file(path.read_text(encoding="utf-8"), base_dir=path.parent)
    p = eval_formula(ast, bindings)
    if cfg.fmt == "record":
        text = _json_dump({"truth_probability": p})
    else:
        text = f"{p + 0.0:.6f}\n"
    _emit(text, cfg.output)
    return 0


def _parse_complex_tokens(tokens, lineno: int) -> np.ndarray:
    values = []
    for tok in tokens:
        try:
            values.append(complex(tok))
        except ValueError:
            raise ValueError(f"line {lineno}: bad complex literal {tok!r}") from None
    return np.array(values, dtype=complex)


def _square_from_tokens(tokens, lineno: int) -> np.ndarray:
    flat = _parse_complex_tokens(tokens, lineno)
    dim = int(round(np.sqrt(flat.size)))
    if dim * dim != flat.size:
        raise ValueError(f"line {lineno}: {flat.size} entries do not form a square matrix")
    return flat.reshape(dim, dim)


def _state_from_tokens(kind: str, tokens, base_dir: Path, lineno: int) -> DensityOperator:
    if kind == "circuit":
        if len(tokens) != 1:
            raise ValueError(f"line {lineno}: usage: state circuit <path>")
        path = base_dir / tokens[0]
        return simulate(parse_circuit(path.read_text(encoding="utf-8")))
    if kind == "pure":
        v = _parse_complex_tokens(tokens, lineno)
        norm = np.linalg.norm(v)
        if norm == 0.0:
            raise ValueError(f"line {lineno}: zero state vector")
        return pure_to_density(QuRegister(v / norm))
    if kind == "matrix":
        return DensityOperator(_square_from_tokens(tokens, lineno))
    raise ValueError(f"line {lineno}: unknown state kind {kind!r}")


def _parse_psa_file(text: str, base_dir: Path, tol: float):
    """Input grammar: one ``state`` line, then named context blocks.

        state circuit <path> | state pure <c...> | state matrix <c... row-major>
        context <name>
        vector <c0> ... <c_dim-1>          # rank-1 projector onto the vector
        projector <c...>                   # full matrix, row-major
        end
    """
    from .states import Projector  # local import keeps module surface tidy

    state: DensityOperator | None = None
    contexts: list[tuple[str, Context]] = []
    current: tuple[str, int, list] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        kw = toks[0]
        if kw == "state":
            if state is not None:
                raise ValueError(f"line {lineno}: duplicate state declaration")
            if len(toks) < 3:
                raise ValueError(f"line {lineno}: usage: state <circuit|pure|matrix> ...")
            state = _state_from_tokens(toks[1], toks[2:], base_dir, lineno)
        elif kw == "context":
            if current is not None:
                raise ValueError(f"line {lineno}: previous context not closed with 'end'")
            if len(toks) != 2:
                raise ValueError(f"line {lineno}: usage: context <name>")
            current = (toks[1], lineno, [])
        elif kw == "vector":
            if current is None:
                raise ValueError(f"line {lineno}: 'vector' outside a context block")
            v = _parse_complex_tokens(toks[1:], lineno)
            norm = np.linalg.norm(v)
            if norm == 0.0:
                raise ValueError(f"line {lineno}: zero vector")
            v = v / norm
            current[2].append(Projector(np.outer(v, v.conj())))
        elif kw == "projector":
            if current is None:
                raise ValueError(f"line {lineno}: 'projector' outside a context block")
            current[2].append(Projector(_square_from_tokens(toks[1:], lineno)))
        elif kw == "end":
            if current is None:
                raise ValueError(f"line {lineno}: 'end' without a context block")
            name, start, items = current
            try:
                contexts.append((name, Context(items, tol=tol)))
            except ValueError as exc:
                raise ValueError(f"line {start}: context {name!r}: {exc}") from exc
            current = None
        else:
            raise ValueError(f"line {lineno}: unknown statement {kw!r}")
    if current is not None:
        raise ValueError(f"context {current[0]!r} not closed with 'end'")
    if state is None:
        raise ValueError("missing 'state' declaration")
    if not contexts:
        raise ValueError("no contexts declared")
    return state, contexts


def cmd_psa_table(cfg: RunConfig) -> int:
    path = Path(cfg.input_path)
    state, contexts = _parse_psa_file(
        path.read_text(encoding="utf-8"), path.parent, cfg.tol
    )
    psa = Psa(state)
    rows = [
        (name, f"P{pi}", intensity(psa, p))
        for name, context in contexts
        for pi, p in enumerate(context.projectors)
    ]
    if cfg.fmt == "table":
        text = "".join(f"{c} {l} {v:.6f}\n" for c, l, v in rows)
    elif cfg.fmt == "csv":
        text = "context,projector,intensity\n" + "".join(
            f"{c},{l},{v:.6f}\n" for c, l, v in rows
        )
    else:
        text = _json_dump(
            [{"context": c, "projector": l, "intensity": v} for c, l, v in rows]
        )
    _emit(text, cfg.output)
    return 0


_OBSERVABLE_NAMES = {"a": "a", "ap": "ap", "a'": "ap", "b": "b", "bp": "bp", "b'": "bp"}


def _parse_chsh_file(text: str, base_dir: Path):
    state: DensityOperator | None = None
    observables: dict[str, np.ndarray] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        kw = toks[0]
        if kw == "state":
            if state is not None:
                raise ValueError(f"line {lineno}: duplicate state declaration")
            if len(toks) < 3:
                raise ValueError(f"line {lineno}: usage: state <circuit|pure|matrix> ...")
            state = _state_from_tokens(toks[1], toks[2:], base_dir, lineno)
        elif kw == "observable":
            if len(toks) < 3:
                raise ValueError(f"line {lineno}: usage: observable <a|ap|b|bp> <4 entries>")
            name = toks[1]
            if name not in _OBSERVABLE_NAMES:
                raise ValueError(f"line {lineno}: observable name must be a, ap, b, or bp")
            key = _OBSERVABLE_NAMES[name]
            if key in observables:
                raise ValueError(f"line {lineno}: duplicate observable {key!r}")
            observables[key] = _square_from_tokens(toks[2:], lineno)
        else:
            raise ValueError(f"line {lineno}: unknown statement {kw!r}")
    if state is None:
        raise ValueError("missing 'state' declaration")
    missing = [k for k in ("a", "ap", "b", "bp") if k not in observables]
    if missing:
        raise ValueError(f"missing observables: {', '.join(missing)}")
    return state, observables["a"], observables["ap"], observables["b"], observables["bp"]


def cmd_chsh(cfg: RunConfig) -> int:
    if cfg.input_path in CHSH_PRESETS:
        rho, a, ap, b, bp = chsh_preset(cfg.input_path)
    else:
        path = Path(cfg.input_path)
        rho, a, ap, b, bp = _parse_chsh_file(path.read_text(encoding="utf-8"), path.parent)
    s = chsh_value(rho, a, ap, b, bp, tol=cfg.tol)
    if cfg.fmt == "record":
        text = _json_dump({"S": s})
    else:
        text = f"{s + 0.0:.6f}\n"
    _emit(text, cfg.output)
    return 0


_COMMANDS = {
    "run": cmd_run,
    "sample": cmd_sample,
    "eval": cmd_eval,
    "psa-table": cmd_psa_table,
    "chsh": cmd_chsh,
}


def build_parser() -> argparse.ArgumentParser:
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
        noise = _parse_noise_flag(args.noise) if getattr(args, "noise", None) else None
        cfg = RunConfig(
            subcommand=args.command,
            input_path=args.input,
            shots=getattr(args, "shots", 1024),
            seed=getattr(args, "seed", 0),
            noise=noise,
            fmt=args.fmt,
            tol=getattr(args, "tol", STRUCTURAL_TOL),
            output=args.output,
        )
        return _COMMANDS[cfg.subcommand](cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
