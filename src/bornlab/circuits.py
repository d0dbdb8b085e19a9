"""The input files: circuits, formulas, valuation inputs and CHSH inputs.

Circuit grammar (UTF-8, one statement per line, ``#`` starts a comment):

    qubits <n>
    gate <name> <target> [<target> ...]      name in {id, not, h, sqrtnot,
                                                      cnot, toffoli}
    noise <bitflip|depolarizing> <p> <target>
    measure all | measure <i> [<j> ...]      optional, must be last

Circuits are simulated exactly here too.  Outcome labels are big-endian:
character i of a label is qubit i, so the last character is the truth qubit
read by the logic layer.  Sampling is one multinomial draw of all the shots
over the exact outcome distribution, from a seeded PCG64 generator
(``numpy.random.default_rng``): its cost does not grow with the shots (1 to
2**63 - 1), and a (circuit, shots, seed) triple always reproduces the same
histogram.

Formula files for the logic layer bind names to literal qubits or circuit
files in an ``atom`` preamble, and a single ``formula`` line gives the
expression, with precedence ! > & > |.  Valuation (psa) and CHSH files share
one ``state`` line and one line loop.  Every state, vector and matrix read
from a file spans at most ``MAX_QUBITS`` qubits.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import linalg
from .channels import apply, evolve, lift_unitary
from .channels import GATES, check_noise_kind, check_noise_probability
from .channels import measurement_channel, noise_channel
from .linalg import STRUCTURAL_TOL
from .psa import Context
from .qcl import And, Atom, Formula, Not, Or
from .states import MAX_QUBITS, DensityOperator, Projector, QuRegister, check_qubit_count
from .states import check_density, pure_to_density


class _LocatedError(ValueError):
    """An error in input text, with its line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class CircuitParseError(_LocatedError):
    """Syntax or validation error in circuit text, with line and column."""


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


class _StepError(ValueError):
    """A step breaks a rule; ``token`` indexes the offending token of the
    step's text form (0 is the keyword, then the fields in order)."""

    def __init__(self, message: str, token: int):
        super().__init__(message)
        self.token = token


def _check_step(n_qubits: int, step: Step, previous: Step | None) -> None:
    """Every rule a circuit step obeys, given the step before it."""
    if isinstance(previous, MeasureStep):
        raise _StepError("measure must be the final step: no statements allowed after 'measure'", 0)
    if isinstance(step, GateStep):
        gate = GATES.get(step.name)
        if gate is None:
            raise _StepError(f"unknown gate {step.name!r}", 1)
        if len(step.targets) != gate.arity:
            raise _StepError(
                f"gate {step.name!r} expects {gate.arity} targets, got {len(step.targets)}", 1
            )
        targets, first, what = step.targets, 2, "target"
    elif isinstance(step, NoiseStep):
        for token, check, value in ((1, check_noise_kind, step.kind), (2, check_noise_probability, step.p)):
            try:
                check(value)
            except ValueError as exc:
                raise _StepError(str(exc), token) from None
        targets, first, what = (step.target,), 3, "target"
    elif isinstance(step, MeasureStep):
        if step.targets is None:
            return
        if not step.targets:
            raise _StepError("measure step needs at least one qubit", 0)
        targets, first, what = step.targets, 1, "measured qubit"
    else:
        raise TypeError(f"unknown step {step!r}")
    for i, t in enumerate(targets):
        if not 0 <= t < n_qubits:
            raise _StepError(f"qubit index {t} out of range for {n_qubits} qubits", first + i)
        if t in targets[:i]:
            raise _StepError(f"repeated {what} {t}", first + i)


@dataclass(frozen=True)
class CircuitIr:
    n_qubits: int
    steps: tuple[Step, ...] = ()

    def __post_init__(self):
        check_qubit_count(self.n_qubits)
        for previous, step in zip((None, *self.steps), self.steps):
            _check_step(self.n_qubits, step, previous)


_TOKEN_RE = re.compile(r"\S+")


def _line_tokens(line: str) -> list[tuple[str, int]]:
    return [(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(line)]


def _number(convert, what: str, token: tuple[str, int], lineno: int):
    tok, col = token
    try:
        return convert(tok)
    except ValueError:
        raise CircuitParseError(f"expected {what}, got {tok!r}", lineno, col) from None


def _parse_step(toks: list[tuple[str, int]], lineno: int) -> Step:
    """The step a statement spells; only its syntax is checked here."""
    (kw, col), args = toks[0], toks[1:]

    def index(token):
        return _number(int, "a qubit index", token, lineno)

    if kw == "gate":
        if not args:
            raise CircuitParseError("usage: gate <name> <target>...", lineno, col)
        return GateStep(args[0][0], tuple(map(index, args[1:])))
    if kw == "noise":
        if len(args) != 3:
            raise CircuitParseError("usage: noise <bitflip|depolarizing> <p> <target>", lineno, col)
        return NoiseStep(args[0][0], _number(float, "a probability", args[1], lineno), index(args[2]))
    if kw == "measure":
        if not args:
            raise CircuitParseError("usage: measure all | measure <i>...", lineno, col)
        if len(args) == 1 and args[0][0] == "all":
            return MeasureStep(None)
        return MeasureStep(tuple(map(index, args)))
    if kw == "qubits":
        raise CircuitParseError("duplicate 'qubits' declaration", lineno, col)
    raise CircuitParseError(f"unknown statement {kw!r}", lineno, col)


def parse_circuit(text: str) -> CircuitIr:
    """Parse circuit text into its IR; errors carry line and column."""
    n_qubits: int | None = None
    steps: list[Step] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _line_tokens(raw.split("#", 1)[0])
        if not toks:
            continue
        if n_qubits is None:
            kw, col = toks[0]
            if kw != "qubits":
                raise CircuitParseError("expected 'qubits <n>' as the first statement", lineno, col)
            if len(toks) != 2:
                raise CircuitParseError("usage: qubits <n>", lineno, col)
            n_qubits = _number(int, "an integer", toks[1], lineno)
            try:
                check_qubit_count(n_qubits)
            except ValueError as exc:
                raise CircuitParseError(str(exc), lineno, toks[1][1]) from None
            continue
        step = _parse_step(toks, lineno)
        try:
            _check_step(n_qubits, step, steps[-1] if steps else None)
        except _StepError as exc:
            raise CircuitParseError(str(exc), lineno, toks[exc.token][1]) from None
        if isinstance(step, MeasureStep) and step.targets is not None:
            step = MeasureStep(tuple(sorted(step.targets)))
        steps.append(step)
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
    check_noise_kind(kind)
    check_noise_probability(p)
    out: list[Step] = []
    for step in ir.steps:
        out.append(step)
        if isinstance(step, GateStep):
            out.extend(NoiseStep(kind, p, t) for t in step.targets)
    return CircuitIr(ir.n_qubits, tuple(out))


def simulate(ir: CircuitIr, input_state: DensityOperator | None = None) -> DensityOperator:
    """Fold the circuit's steps over the input state (default |0..0><0..0|).

    Without ``input_state`` the circuit starts from the vector |0..0>, and
    its leading gate steps act on that vector (``evolve`` of the lifted gate:
    2**n work per gate, not 4**n), its norm checked after each.  At the first
    noise or measure step, or at the end, the vector becomes |psi><psi|.
    Each remaining step is one ``apply``, its trace checked after each (2**n
    work); a measure step is the single-qubit measurement channel on each
    measured qubit in turn, the joint channel exactly.  Hermiticity and
    positivity are checked once, on the returned state, by
    ``states.check_density``: on the diagonal blocks of the measured sectors
    when the circuit ends in a measure step (their spectra make up the
    final matrix's spectrum), else on the whole matrix.
    """
    n = ir.n_qubits
    steps = list(enumerate(ir.steps, start=1))
    if input_state is None:
        psi = np.eye(1, 2**n, dtype=complex)[0]
        while steps and isinstance(steps[0][1], GateStep):
            i, step = steps.pop(0)
            psi = evolve(lift_unitary(GATES[step.name], n, step.targets), psi)
            if abs(np.vdot(psi, psi).real - 1.0) > STRUCTURAL_TOL:
                raise ValueError(f"step {i} ({step}) left a vector that is not of unit norm")
        rho = DensityOperator._unchecked(np.outer(psi, psi.conj()))
    else:
        rho = input_state
    if rho.n_qubits != n:
        raise ValueError(f"input state has {rho.n_qubits} qubits, circuit has {n}")
    for i, step in steps:
        if isinstance(step, GateStep):
            rho = apply(lift_unitary(GATES[step.name], n, step.targets), rho)
        elif isinstance(step, NoiseStep):
            rho = apply(noise_channel(step.kind, step.p, n, step.target), rho)
        else:
            for q in measured_positions(ir):
                rho = apply(measurement_channel(n, [q]), rho)
        if abs(linalg.trace(rho.matrix) - 1.0) > STRUCTURAL_TOL:
            raise ValueError(f"step {i} ({step}) left a state that is not of unit trace")
    matrix = rho.matrix
    ends_in_measure = bool(ir.steps) and isinstance(ir.steps[-1], MeasureStep)
    check_density(linalg.sector_blocks(matrix, n, measured_positions(ir)) if ends_in_measure else matrix)
    matrix.setflags(write=False)
    return DensityOperator._unchecked(matrix)


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


#: The most shots one multinomial draw takes: its count is an int64.
MAX_SHOTS = int(np.iinfo(np.int64).max)


def sample(ir: CircuitIr, shots: int, seed: int) -> Histogram:
    """Draw ``shots`` outcomes from the exact output distribution.

    The distribution is computed once by exact simulation, then all the
    shots are drawn at once as one multinomial over its outcomes: time and
    memory grow with the outcomes, not the shots.  Identical (ir, shots,
    seed) triples give identical histograms.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if shots > MAX_SHOTS:
        raise ValueError(f"shots must be <= {MAX_SHOTS}")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    dist = _marginalize(outcome_distribution(simulate(ir)), measured_positions(ir))
    labels = sorted(dist)
    probs = np.array([dist[l] for l in labels])
    probs = probs / probs.sum()
    tallies = np.random.default_rng(seed).multinomial(shots, probs)
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


class FormulaParseError(_LocatedError):
    """Syntax error in formula text, with line and column."""


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


#: The deepest formula tree the parser accepts, counting each ``!``, ``(`` and
#: ``&``/``|`` link: parsing and evaluation stay far inside the recursion limit.
MAX_FORMULA_DEPTH = 100


class _FormulaParser:
    """Recursive descent.  Each parse method returns a tree and its depth and is
    given ``nesting``, the ``!`` and ``(`` around it: too deep fails going down."""

    def __init__(self, tokens: list[tuple[str, str, int]], line: int, end_col: int):
        self.tokens = tokens
        self.pos = 0
        self.line = line
        self.end_col = end_col

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def parse(self) -> Formula:
        node, _ = self.parse_or(0)
        tok = self.peek()
        if tok is not None:
            raise FormulaParseError(f"unexpected token {tok[1]!r}", self.line, tok[2])
        return node

    def check_depth(self, depth: int, col: int) -> int:
        if depth > MAX_FORMULA_DEPTH:
            raise FormulaParseError(f"formula nested deeper than {MAX_FORMULA_DEPTH} levels", self.line, col)
        return depth

    def parse_chain(self, op: str, node_type, operand, nesting: int):
        node, depth = operand(nesting)
        while (tok := self.peek()) is not None and tok[0] == op:
            self.pos += 1
            right, right_depth = operand(nesting)
            node, depth = node_type(node, right), self.check_depth(max(depth, right_depth) + 1, tok[2])
        return node, depth

    def parse_or(self, nesting: int):
        return self.parse_chain("|", Or, self.parse_and, nesting)

    def parse_and(self, nesting: int):
        return self.parse_chain("&", And, self.parse_unary, nesting)

    def parse_unary(self, nesting: int):
        tok = self.peek()
        if tok is None:
            raise FormulaParseError("unexpected end of formula", self.line, self.end_col)
        kind, text, col = tok
        self.pos += 1
        if kind == "ident":
            return Atom(text), 0
        if kind not in ("!", "("):
            raise FormulaParseError(f"unexpected token {text!r}", self.line, col)
        self.check_depth(nesting + 1, col)
        if kind == "!":
            child, depth = self.parse_unary(nesting + 1)
            return Not(child), self.check_depth(depth + 1, col)
        node, depth = self.parse_or(nesting + 1)
        closing = self.peek()
        if closing is None or closing[0] != ")":
            raise FormulaParseError("expected ')'", self.line, self.end_col if closing is None else closing[2])
        self.pos += 1
        return node, self.check_depth(depth + 1, col)


def parse_formula(text: str, line: int = 1, col_offset: int = 1) -> Formula:
    """Parse a formula expression (atoms, !, &, |, parentheses)."""
    tokens = _tokenize_formula(text, line, col_offset)
    return _FormulaParser(tokens, line, col_offset + len(text)).parse()


# --- states in input files ---------------------------------------------------


def _complex_tokens(tokens, square: bool = False) -> np.ndarray:
    """Complex literals as a vector, or as a row-major square matrix.  Either
    spans at most ``MAX_QUBITS`` qubits, checked before any token is parsed."""
    dim = math.isqrt(len(tokens)) if square else len(tokens)
    check_qubit_count(max(dim - 1, 1).bit_length())  # the qubits that index dim entries
    values = []
    for tok in tokens:
        try:
            values.append(complex(tok))
        except ValueError:
            raise ValueError(f"bad complex literal {tok!r}") from None
    v = np.array(values, dtype=complex)
    if not square:
        return v
    if dim * dim != v.size:
        raise ValueError(f"{v.size} entries do not form a square matrix")
    return v.reshape(dim, dim)


def _unit_vector(amplitudes: np.ndarray) -> np.ndarray:
    """``amplitudes`` over its norm, taken after scaling the largest real or
    imaginary part into [0.5, 1): no finite non-zero vector overflows or
    underflows to zero.  The scale is a power of two, so a vector of moderate
    magnitude gets the same bits as without it.  A non-finite entry is passed
    on for the caller to reject."""
    parts = np.ascontiguousarray(amplitudes, dtype=complex).view(float)  # re, im, re, ...
    largest = float(np.abs(parts).max(initial=0.0))
    if not math.isfinite(largest):
        return amplitudes
    if largest == 0.0:
        raise ValueError("zero vector")
    v = np.ldexp(parts, -math.frexp(largest)[1]).view(complex)
    return v / np.linalg.norm(v)


def _pure_state(amplitudes: np.ndarray) -> DensityOperator:
    return pure_to_density(QuRegister(_unit_vector(amplitudes)))


def _circuit_state(value: str, base_dir: Path) -> DensityOperator:
    """The output state of the circuit file ``value``, relative to ``base_dir``."""
    path = base_dir / value
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read circuit {str(path)!r}: {exc}") from exc
    try:
        return simulate(parse_circuit(text))
    except CircuitParseError as exc:
        raise ValueError(f"in circuit {str(path)!r}: {exc}") from exc


# --- formula files ------------------------------------------------------------

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_LITERAL_RE = re.compile(r"\(([^)]*)\)\Z")


def _atom_literal(value: str) -> DensityOperator:
    m = _LITERAL_RE.match(value)
    if m is None:
        raise ValueError("literal must look like (c0_re, c0_im, c1_re, c1_im)")
    parts = [p.strip() for p in m.group(1).split(",")]
    if len(parts) != 4:
        raise ValueError(f"literal needs 4 numbers, got {len(parts)}")
    try:
        c0_re, c0_im, c1_re, c1_im = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"bad number in literal {value!r}") from None
    return _pure_state(np.array([c0_re + 1j * c0_im, c1_re + 1j * c1_im]))


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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kw = line.split(None, 1)[0]
        body = line[len(kw):].strip()
        try:
            if kw == "atom":
                name, eq, value = (part.strip() for part in body.partition("="))
                if not eq or not name or not value:
                    raise ValueError("usage: atom <name> = <literal or circuit path>")
                if not _IDENT_RE.match(name):
                    raise ValueError(f"bad atom name {name!r}")
                if name in bindings:
                    raise ValueError(f"duplicate atom {name!r}")
                bindings[name] = _atom_literal(value) if value.startswith("(") else _circuit_state(value, base)
            elif kw == "formula":
                expr = body[1:].strip()
                if ast is not None:
                    raise ValueError("duplicate formula line")
                if not body.startswith("=") or not expr:
                    raise ValueError("usage: formula = <expression>")
                ast = parse_formula(expr, line=lineno, col_offset=raw.find(expr) + 1)
            else:
                raise ValueError(f"unknown statement {kw!r}")
        except FormulaParseError:
            raise
        except ValueError as exc:  # every other error on the line is located at its start
            raise FormulaParseError(str(exc), lineno, 1) from exc
    if ast is None:
        raise FormulaParseError("missing 'formula =' line", len(text.splitlines()) or 1, 1)
    return ast, bindings


# --- valuation and CHSH files -------------------------------------------------


def _read_state(kind: str, tokens, base_dir: Path) -> DensityOperator:
    if kind == "circuit":
        if len(tokens) != 1:
            raise ValueError("usage: state circuit <path>")
        return _circuit_state(tokens[0], base_dir)
    if kind == "pure":
        return _pure_state(_complex_tokens(tokens))
    if kind == "matrix":
        return DensityOperator(_complex_tokens(tokens, square=True))
    raise ValueError(f"unknown state kind {kind!r}")


def _read_statements(text: str, base_dir, statement) -> DensityOperator:
    """The line loop of valuation and CHSH files.

    Comments and blank lines are skipped, the one ``state`` line is read here
    and every other statement goes to ``statement(keyword, args)``; an error
    on a line is prefixed with its number.  Returns the state.
    """
    state: DensityOperator | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        try:
            if toks[0] != "state":
                statement(toks[0], toks[1:])
            elif state is not None:
                raise ValueError("duplicate state declaration")
            elif len(toks) < 3:
                raise ValueError("usage: state <circuit|pure|matrix> ...")
            else:
                state = _read_state(toks[1], toks[2:], Path(base_dir))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    if state is None:
        raise ValueError("missing 'state' declaration")
    return state


def parse_psa_file(text: str, base_dir=".", tol: float = STRUCTURAL_TOL):
    """Parse a valuation input: one ``state`` line, then named context blocks.

        state circuit <path> | state pure <c...> | state matrix <c... row-major>
        context <name>
        vector <c0> ... <c_dim-1>          # rank-1 projector onto the vector
        projector <c...>                   # full matrix, row-major
        end

    Returns the state and a list of (name, Context); ``tol`` is the
    tolerance of the context checks.
    """
    contexts: list[tuple[str, Context]] = []
    current: tuple[str, list] | None = None  # the open context block

    def statement(kw: str, args) -> None:
        nonlocal current
        if kw == "context":
            if current is not None:
                raise ValueError("previous context not closed with 'end'")
            if len(args) != 1:
                raise ValueError("usage: context <name>")
            current = (args[0], [])
        elif kw in ("vector", "projector"):
            if current is None:
                raise ValueError(f"{kw!r} outside a context block")
            if kw == "vector":
                u = _unit_vector(_complex_tokens(args))
                if not np.all(np.isfinite(u)):  # before the product turns inf * 0 into nan
                    raise ValueError("matrix entries must be finite")
                current[1].append(Projector(np.outer(u, u.conj())))
            else:
                current[1].append(Projector(_complex_tokens(args, square=True)))
        elif kw == "end":
            if current is None:
                raise ValueError("'end' without a context block")
            name, projectors = current
            try:
                contexts.append((name, Context(projectors, tol=tol)))
            except ValueError as exc:
                raise ValueError(f"context {name!r}: {exc}") from exc
            current = None
        else:
            raise ValueError(f"unknown statement {kw!r}")

    state = _read_statements(text, base_dir, statement)
    if current is not None:
        raise ValueError(f"context {current[0]!r} not closed with 'end'")
    if not contexts:
        raise ValueError("no contexts declared")
    return state, contexts


_OBSERVABLE_NAMES = {"a": "a", "ap": "ap", "a'": "ap", "b": "b", "bp": "bp", "b'": "bp"}


def parse_chsh_file(text: str, base_dir="."):
    """Parse a CHSH input: one ``state`` line and the four observables,

        observable <a|ap|b|bp> <c...>      # 2x2 matrix, row-major

    Returns (state, a, a', b, b').
    """
    observables: dict[str, np.ndarray] = {}

    def statement(kw: str, args) -> None:
        if kw != "observable":
            raise ValueError(f"unknown statement {kw!r}")
        if len(args) < 2:
            raise ValueError("usage: observable <a|ap|b|bp> <4 entries>")
        key = _OBSERVABLE_NAMES.get(args[0])
        if key is None:
            raise ValueError("observable name must be a, ap, b, or bp")
        if key in observables:
            raise ValueError(f"duplicate observable {key!r}")
        observables[key] = _complex_tokens(args[1:], square=True)

    state = _read_statements(text, base_dir, statement)
    missing = [k for k in ("a", "ap", "b", "bp") if k not in observables]
    if missing:
        raise ValueError(f"missing observables: {', '.join(missing)}")
    return state, observables["a"], observables["ap"], observables["b"], observables["bp"]
