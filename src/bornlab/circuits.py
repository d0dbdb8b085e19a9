"""Line-oriented circuit DSL, exact simulation, and seeded shot sampling.

Circuit grammar (UTF-8, one statement per line, ``#`` starts a comment):

    qubits <n>
    gate <name> <target> [<target> ...]      name in {id, not, h, sqrtnot,
                                                      cnot, toffoli}
    noise <bitflip|depolarizing> <p> <target>
    measure all | measure <i> [<j> ...]      optional, must be last

Outcome labels are big-endian: character i of a label is qubit i, so the
last character is the truth qubit read by the logic layer.  Sampling draws
from the exact output distribution with a seeded PCG64 generator
(``numpy.random.default_rng``), so a (circuit, shots, seed) triple always
reproduces the same histogram.

Formula files for the logic layer are parsed here as well: an ``atom``
preamble binds names to literal qubits or circuit files, and a single
``formula`` line gives the expression, with precedence ! > & > |.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import linalg
from .channels import apply, builtin_gate, evolve, lift_unitary  # noqa: F401 (perfbench traces apply)
from .channels import measurement_channel, noise_channel
from .qcl import And, Atom, Formula, Not, Or
from .states import DensityOperator, QuRegister, pure_to_density

MAX_QUBITS = 10

GATE_ARITY = {"id": 1, "not": 1, "h": 1, "sqrtnot": 1, "cnot": 2, "toffoli": 3}
NOISE_KINDS = ("bitflip", "depolarizing")


class CircuitParseError(ValueError):
    """Syntax or validation error in circuit text, with line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class GateStep:
    name: str
    targets: tuple[int, ...]


@dataclass(frozen=True)
class NoiseStep:
    kind: str
    p: float
    target: int


@dataclass(frozen=True)
class MeasureStep:
    targets: tuple[int, ...] | None = None  # None means all qubits


Step = GateStep | NoiseStep | MeasureStep


@dataclass(frozen=True)
class CircuitIr:
    n_qubits: int
    steps: tuple[Step, ...] = ()

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in 1..{MAX_QUBITS}")
        for i, step in enumerate(self.steps):
            if isinstance(step, GateStep):
                arity = GATE_ARITY.get(step.name)
                if arity is None:
                    raise ValueError(f"unknown gate {step.name!r}")
                if len(step.targets) != arity:
                    raise ValueError(
                        f"gate {step.name!r} expects {arity} targets, got {len(step.targets)}"
                    )
                self._check_targets(step.targets)
            elif isinstance(step, NoiseStep):
                if step.kind not in NOISE_KINDS:
                    raise ValueError(f"unknown noise kind {step.kind!r}")
                if not 0.0 <= step.p <= 1.0:
                    raise ValueError(f"noise probability must be in [0, 1], got {step.p}")
                self._check_targets((step.target,))
            elif isinstance(step, MeasureStep):
                if step.targets is not None:
                    if not step.targets:
                        raise ValueError("measure step needs at least one qubit")
                    self._check_targets(step.targets)
                if i != len(self.steps) - 1:
                    raise ValueError("measure must be the final step")
            else:
                raise TypeError(f"unknown step {step!r}")

    def _check_targets(self, targets):
        if len(set(targets)) != len(targets):
            raise ValueError(f"target indices must be distinct, got {list(targets)}")
        for t in targets:
            if not 0 <= t < self.n_qubits:
                raise ValueError(f"target {t} out of range for {self.n_qubits} qubits")


_TOKEN_RE = re.compile(r"\S+")


def _line_tokens(line: str) -> list[tuple[str, int]]:
    return [(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(line)]


def _parse_index(tok: str, lineno: int, col: int, n_qubits: int) -> int:
    try:
        value = int(tok)
    except ValueError:
        raise CircuitParseError(f"expected a qubit index, got {tok!r}", lineno, col) from None
    if not 0 <= value < n_qubits:
        raise CircuitParseError(
            f"qubit index {value} out of range for {n_qubits} qubits", lineno, col
        )
    return value


def parse_circuit(text: str) -> CircuitIr:
    """Parse circuit text into its IR; errors carry line and column."""
    n_qubits: int | None = None
    steps: list[Step] = []
    measured = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _line_tokens(raw.split("#", 1)[0])
        if not toks:
            continue
        kw, col = toks[0]
        if n_qubits is None:
            if kw != "qubits":
                raise CircuitParseError("expected 'qubits <n>' as the first statement", lineno, col)
            if len(toks) != 2:
                raise CircuitParseError("usage: qubits <n>", lineno, col)
            val, vcol = toks[1]
            try:
                n_qubits = int(val)
            except ValueError:
                raise CircuitParseError(f"expected an integer, got {val!r}", lineno, vcol) from None
            if not 1 <= n_qubits <= MAX_QUBITS:
                raise CircuitParseError(f"qubit count must be in 1..{MAX_QUBITS}", lineno, vcol)
            continue
        if measured:
            raise CircuitParseError("no statements allowed after 'measure'", lineno, col)
        if kw == "qubits":
            raise CircuitParseError("duplicate 'qubits' declaration", lineno, col)
        if kw == "gate":
            if len(toks) < 2:
                raise CircuitParseError("usage: gate <name> <target>...", lineno, col)
            name, ncol = toks[1]
            arity = GATE_ARITY.get(name)
            if arity is None:
                raise CircuitParseError(f"unknown gate {name!r}", lineno, ncol)
            if len(toks) - 2 != arity:
                raise CircuitParseError(
                    f"gate {name!r} expects {arity} targets, got {len(toks) - 2}", lineno, ncol
                )
            targets = []
            for tok, tcol in toks[2:]:
                t = _parse_index(tok, lineno, tcol, n_qubits)
                if t in targets:
                    raise CircuitParseError(f"repeated target {t}", lineno, tcol)
                targets.append(t)
            steps.append(GateStep(name, tuple(targets)))
        elif kw == "noise":
            if len(toks) != 4:
                raise CircuitParseError("usage: noise <bitflip|depolarizing> <p> <target>", lineno, col)
            kind, kcol = toks[1]
            if kind not in NOISE_KINDS:
                raise CircuitParseError(f"unknown noise kind {kind!r}", lineno, kcol)
            ptok, pcol = toks[2]
            try:
                p = float(ptok)
            except ValueError:
                raise CircuitParseError(f"expected a probability, got {ptok!r}", lineno, pcol) from None
            if not 0.0 <= p <= 1.0:
                raise CircuitParseError(f"probability {p} out of [0, 1]", lineno, pcol)
            ttok, tcol = toks[3]
            target = _parse_index(ttok, lineno, tcol, n_qubits)
            steps.append(NoiseStep(kind, p, target))
        elif kw == "measure":
            if len(toks) < 2:
                raise CircuitParseError("usage: measure all | measure <i>...", lineno, col)
            if len(toks) == 2 and toks[1][0] == "all":
                steps.append(MeasureStep(None))
            else:
                qs: list[int] = []
                for tok, tcol in toks[1:]:
                    q = _parse_index(tok, lineno, tcol, n_qubits)
                    if q in qs:
                        raise CircuitParseError(f"repeated measured qubit {q}", lineno, tcol)
                    qs.append(q)
                steps.append(MeasureStep(tuple(sorted(qs))))
            measured = True
        else:
            raise CircuitParseError(f"unknown statement {kw!r}", lineno, col)
    if n_qubits is None:
        raise CircuitParseError("empty circuit: expected 'qubits <n>'", 1, 1)
    return CircuitIr(n_qubits, tuple(steps))


def pretty_print(ir: CircuitIr) -> str:
    """Canonical text for an IR; parse_circuit(pretty_print(ir)) == ir."""
    lines = [f"qubits {ir.n_qubits}"]
    for step in ir.steps:
        if isinstance(step, GateStep):
            lines.append("gate " + step.name + " " + " ".join(map(str, step.targets)))
        elif isinstance(step, NoiseStep):
            lines.append(f"noise {step.kind} {step.p!r} {step.target}")
        elif isinstance(step, MeasureStep):
            if step.targets is None:
                lines.append("measure all")
            else:
                lines.append("measure " + " ".join(map(str, step.targets)))
    return "\n".join(lines) + "\n"


def inject_noise(ir: CircuitIr, kind: str, p: float) -> CircuitIr:
    """Insert a noise step on each target of every gate step, after the gate."""
    if kind not in NOISE_KINDS:
        raise ValueError(f"unknown noise kind {kind!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"noise probability must be in [0, 1], got {p}")
    out: list[Step] = []
    for step in ir.steps:
        out.append(step)
        if isinstance(step, GateStep):
            out.extend(NoiseStep(kind, p, t) for t in step.targets)
    return CircuitIr(ir.n_qubits, tuple(out))


def simulate(ir: CircuitIr, input_state: DensityOperator | None = None) -> DensityOperator:
    """Fold the circuit's steps over the input state (default |0..0><0..0|).

    Steps are applied with ``evolve`` to the raw matrix; a measure step is
    the single-qubit measurement channel on each measured qubit in turn, the
    joint channel exactly.  Trace and hermiticity are checked after every
    step; positivity (``eigvalsh``) once, in the returned ``DensityOperator``.
    """
    n = ir.n_qubits
    if input_state is None:
        rho = np.zeros((2**n, 2**n), dtype=complex)
        rho[0, 0] = 1.0
    else:
        if input_state.n_qubits != n:
            raise ValueError(f"input state has {input_state.n_qubits} qubits, circuit has {n}")
        rho = input_state.matrix
    for i, step in enumerate(ir.steps, start=1):
        if isinstance(step, GateStep):
            rho = evolve(lift_unitary(builtin_gate(step.name), n, step.targets), rho)
        elif isinstance(step, NoiseStep):
            rho = evolve(noise_channel(step.kind, step.p, n, step.target), rho)
        else:
            for q in step.targets if step.targets is not None else range(n):
                rho = evolve(measurement_channel(n, [q]), rho)
        if abs(linalg.trace(rho) - 1.0) > linalg.STRUCTURAL_TOL or not linalg.is_hermitian(rho):
            raise ValueError(f"step {i} ({step}) left a non-hermitian or non-unit-trace state")
    return DensityOperator(rho)


# Diagonal entries at or below this are floating-point dust, not
# probabilities; dropping them cannot move the distribution sum by more than
# dim * PROB_FLOOR, far inside the 1e-10 sum tolerance.
PROB_FLOOR = 1e-15


def outcome_distribution(rho: DensityOperator) -> dict[str, float]:
    """Computational-basis probabilities: the diagonal of rho, by label.

    Zero and sub-``PROB_FLOOR`` entries are omitted; the remaining values
    sum to 1 within tolerance.
    """
    n = rho.n_qubits
    diag = np.real(np.diagonal(rho.matrix))
    out: dict[str, float] = {}
    for i, p in enumerate(diag):
        p = float(p)
        if p > PROB_FLOOR:
            out[format(i, f"0{n}b")] = p
    return out


def _marginalize(dist: dict[str, float], positions) -> dict[str, float]:
    out: dict[str, float] = {}
    for label, p in dist.items():
        key = "".join(label[q] for q in positions)
        out[key] = out.get(key, 0.0) + p
    return out


def measured_positions(ir: CircuitIr) -> tuple[int, ...]:
    """Qubits reported by sampling: the measure step's set, or all qubits."""
    if ir.steps and isinstance(ir.steps[-1], MeasureStep):
        m = ir.steps[-1]
        if m.targets is not None:
            return m.targets
    return tuple(range(ir.n_qubits))


@dataclass(frozen=True)
class Histogram:
    """Counts of sampled outcomes, tagged with the shots and seed that made it."""

    shots: int
    counts: dict[str, int]
    seed: int

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if sum(self.counts.values()) != self.shots:
            raise ValueError("histogram counts must sum to shots")
        lengths = {len(label) for label in self.counts}
        if len(lengths) > 1:
            raise ValueError("outcome labels must share one length")
        if any(c < 0 for c in self.counts.values()):
            raise ValueError("counts must be non-negative")


def sample(ir: CircuitIr, shots: int, seed: int) -> Histogram:
    """Draw ``shots`` outcomes from the exact output distribution.

    The distribution is computed once by exact simulation, then sampled
    categorically; identical (ir, shots, seed) triples give identical
    histograms.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    dist = _marginalize(outcome_distribution(simulate(ir)), measured_positions(ir))
    labels = sorted(dist)
    probs = np.array([dist[l] for l in labels])
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    draws = rng.choice(len(labels), size=shots, p=probs)
    tallies = np.bincount(draws, minlength=len(labels))
    counts = {labels[i]: int(c) for i, c in enumerate(tallies) if c > 0}
    return Histogram(shots=shots, counts=counts, seed=seed)


def histogram_table(h: Histogram) -> str:
    lines = [f"shots {h.shots}", f"seed {h.seed}"]
    lines += [f"{label} {h.counts[label]}" for label in sorted(h.counts)]
    return "\n".join(lines) + "\n"


def histogram_csv(h: Histogram) -> str:
    lines = [f"# shots={h.shots} seed={h.seed}", "outcome,count"]
    lines += [f"{label},{h.counts[label]}" for label in sorted(h.counts)]
    return "\n".join(lines) + "\n"


def histogram_record(h: Histogram) -> str:
    payload = {"shots": h.shots, "seed": h.seed, "counts": dict(sorted(h.counts.items()))}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# --- formula text -----------------------------------------------------------


class FormulaParseError(ValueError):
    """Syntax error in formula text, with line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _tokenize_formula(text: str, line: int, col_offset: int) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        col = col_offset + i
        if c.isspace():
            i += 1
        elif c in "!&|()":
            tokens.append((c, c, col))
            i += 1
        elif c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], col))
            i = j
        else:
            raise FormulaParseError(f"unexpected character {c!r}", line, col)
    return tokens


class _FormulaParser:
    def __init__(self, tokens: list[tuple[str, str, int]], line: int, end_col: int):
        self.tokens = tokens
        self.pos = 0
        self.line = line
        self.end_col = end_col

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def parse(self) -> Formula:
        node = self.parse_or()
        tok = self.peek()
        if tok is not None:
            raise FormulaParseError(f"unexpected token {tok[1]!r}", self.line, tok[2])
        return node

    def parse_or(self) -> Formula:
        node = self.parse_and()
        while (tok := self.peek()) is not None and tok[0] == "|":
            self.pos += 1
            node = Or(node, self.parse_and())
        return node

    def parse_and(self) -> Formula:
        node = self.parse_unary()
        while (tok := self.peek()) is not None and tok[0] == "&":
            self.pos += 1
            node = And(node, self.parse_unary())
        return node

    def parse_unary(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise FormulaParseError("unexpected end of formula", self.line, self.end_col)
        kind, text, col = tok
        self.pos += 1
        if kind == "!":
            return Not(self.parse_unary())
        if kind == "(":
            node = self.parse_or()
            closing = self.peek()
            if closing is None or closing[0] != ")":
                raise FormulaParseError("expected ')'", self.line, self.end_col if closing is None else closing[2])
            self.pos += 1
            return node
        if kind == "ident":
            return Atom(text)
        raise FormulaParseError(f"unexpected token {text!r}", self.line, col)


def parse_formula(text: str, line: int = 1, col_offset: int = 1) -> Formula:
    """Parse a formula expression (atoms, !, &, |, parentheses)."""
    tokens = _tokenize_formula(text, line, col_offset)
    return _FormulaParser(tokens, line, col_offset + len(text)).parse()


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_LITERAL_RE = re.compile(r"\(([^)]*)\)\Z")


def _atom_literal(value: str, lineno: int) -> DensityOperator:
    m = _LITERAL_RE.match(value)
    if m is None:
        raise FormulaParseError("literal must look like (c0_re, c0_im, c1_re, c1_im)", lineno, 1)
    parts = [p.strip() for p in m.group(1).split(",")]
    if len(parts) != 4:
        raise FormulaParseError(f"literal needs 4 numbers, got {len(parts)}", lineno, 1)
    try:
        c0_re, c0_im, c1_re, c1_im = (float(p) for p in parts)
    except ValueError:
        raise FormulaParseError(f"bad number in literal {value!r}", lineno, 1) from None
    v = np.array([c0_re + 1j * c0_im, c1_re + 1j * c1_im])
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise FormulaParseError("literal qubit must be nonzero", lineno, 1)
    return pure_to_density(QuRegister(v / norm))


def _atom_circuit(value: str, base_dir: Path, lineno: int) -> DensityOperator:
    path = base_dir / value
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"line {lineno}: cannot read circuit {str(path)!r}: {exc}") from exc
    try:
        return simulate(parse_circuit(text))
    except CircuitParseError as exc:
        raise ValueError(f"in circuit {str(path)!r}: {exc}") from exc


def parse_formula_file(text: str, base_dir=".") -> tuple[Formula, dict[str, DensityOperator]]:
    """Parse a formula file: atom bindings plus one formula line.

        atom a = (0.70710678, 0, 0.70710678, 0)   # c0 and c1, re/im parts
        atom b = some_circuit.qc                   # output state of the circuit
        formula = a & !b

    Literal qubits are normalized; circuit paths resolve relative to
    ``base_dir``.  Returns the formula tree and the atom bindings.
    """
    base = Path(base_dir)
    bindings: dict[str, DensityOperator] = {}
    ast: Formula | None = None
    last_line = 1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kw = line.split(None, 1)[0]
        if kw == "atom":
            body = line[len("atom"):].strip()
            name, eq, value = body.partition("=")
            name, value = name.strip(), value.strip()
            if not eq or not name or not value:
                raise FormulaParseError("usage: atom <name> = <literal or circuit path>", lineno, 1)
            if not _IDENT_RE.match(name):
                raise FormulaParseError(f"bad atom name {name!r}", lineno, 1)
            if name in bindings:
                raise FormulaParseError(f"duplicate atom {name!r}", lineno, 1)
            if value.startswith("("):
                bindings[name] = _atom_literal(value, lineno)
            else:
                bindings[name] = _atom_circuit(value, base, lineno)
        elif kw == "formula":
            if ast is not None:
                raise FormulaParseError("duplicate formula line", lineno, 1)
            body = line[len("formula"):].strip()
            if not body.startswith("="):
                raise FormulaParseError("usage: formula = <expression>", lineno, 1)
            expr = body[1:].strip()
            if not expr:
                raise FormulaParseError("usage: formula = <expression>", lineno, 1)
            col_offset = raw.find(expr) + 1
            ast = parse_formula(expr, line=lineno, col_offset=col_offset)
        else:
            raise FormulaParseError(f"unknown statement {kw!r}", lineno, 1)
    if ast is None:
        raise FormulaParseError("missing 'formula =' line", last_line, 1)
    return ast, bindings
