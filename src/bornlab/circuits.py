"""The input files: circuits, formulas, valuation inputs and CHSH inputs.

Circuit grammar (UTF-8, one statement per line, ``#`` starts a comment):

    qubits <n>
    gate <name> <target> [<target> ...]      name in {id, not, h, sqrtnot,
                                                      cnot, toffoli}
    noise <bitflip|depolarizing> <p> <target>
    measure all | measure <i> [<j> ...]      optional, must be last

Circuits are simulated exactly here too.  Outcome labels are big-endian:
character i of a label is qubit i, so the last character is the truth qubit
read by the logic layer.  Sampling adds up the distribution ``run`` prints
(``output_distribution``) on the measured qubits and draws all the shots
from it in one multinomial draw, from a seeded PCG64 generator
(``numpy.random.default_rng``): its cost does not grow with the shots (1 to
2**63 - 1), and a (circuit, shots, seed) triple always reproduces the same
histogram.

Formula files for the logic layer bind names to literal qubits or circuit
files in an ``atom`` preamble, and a single ``formula`` line gives the
expression, with precedence ! > & > |.  Valuation (psa) and CHSH files share
one ``state`` line.  All four formats share one statement loop,
``_statements``, and every fault in a file's text raises ``InputError``.
Every state, vector and matrix read from a file spans at most ``MAX_QUBITS``
qubits.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import linalg
from .channels import apply, evolve, evolve_diagonal, lift_unitary
from .channels import builtin_gate, check_noise_kind, check_noise_probability
from .channels import measurement_channel, noise_channel, placed
from .linalg import STRUCTURAL_TOL
from .psa import Context
from .qcl import And, Atom, Formula, Not, Or
from .states import DensityOperator, Projector, QuRegister, check_qubit_count, projector_onto
from .states import TargetError, check_density, check_targets, is_integer, pure_to_density


class InputError(ValueError):
    """A fault in an input file's text, raised by every reader: ``line`` is the
    statement's line, ``column`` its column in circuits and formulas, and a
    fault of the whole file has neither."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = "" if line is None else f"line {line}: " if column is None else f"line {line}, column {column}: "
        super().__init__(where + message)
        self.line = line
        self.column = column


def _statements(text: str):
    """The statements of an input file: (line number, the text before the
    line's ``#``) for each line that is not blank once its comment is cut.
    One leading byte-order mark (U+FEFF) is not part of the text."""
    for lineno, raw in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if line and not line.isspace():
            yield lineno, line


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
    """The qubits a circuit's final step measures; ``CircuitIr`` keeps them
    sorted."""

    targets: tuple[int, ...]


Step = GateStep | NoiseStep | MeasureStep


class _StepError(ValueError):
    """A step breaks a rule; ``token`` indexes the offending token of the
    step's text form (0 is the keyword, then the fields in order)."""

    def __init__(self, message: str, token: int):
        super().__init__(message)
        self.token = token


def _check_step(n_qubits: int, step: Step, previous: Step | None) -> None:
    """Every rule a circuit step obeys, given the step before it.  An empty
    measured set, which circuit text cannot spell, raises a plain error."""
    if isinstance(previous, MeasureStep):
        raise _StepError("measure must be the final step: no statements allowed after 'measure'", 0)
    if isinstance(step, GateStep):
        try:
            gate = builtin_gate(step.name)
        except ValueError as exc:
            raise _StepError(str(exc), 1) from None
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
        targets, first, what = step.targets, 1, "measured qubit"
    else:
        raise TypeError(f"unknown step {step!r}")
    try:
        check_targets(targets, n_qubits, what)
    except TargetError as exc:
        raise _StepError(str(exc), first + exc.index) from None


@dataclass(frozen=True)
class CircuitIr:
    n_qubits: int
    steps: tuple[Step, ...] = ()

    def __post_init__(self):
        check_qubit_count(self.n_qubits)
        for previous, step in zip((None, *self.steps), self.steps):
            try:
                _check_step(self.n_qubits, step, previous)
            except _StepError as exc:
                raise ValueError(str(exc)) from None
        object.__setattr__(self, "steps", _normal_steps(self.steps))

    @classmethod
    def _of_checked(cls, n_qubits: int, steps) -> CircuitIr:
        """The IR of a checked qubit count and of ``steps`` that passed
        ``_check_step`` in order: the readers' one check per step is not run
        again."""
        ir = object.__new__(cls)
        object.__setattr__(ir, "n_qubits", n_qubits)
        object.__setattr__(ir, "steps", _normal_steps(steps))
        return ir


def _normal_steps(steps) -> tuple[Step, ...]:
    """One circuit has one IR: the final measure step's qubits are sorted, so
    its labels read in register order, and a noise probability is a Python
    float, which ``pretty_print`` writes as a number."""
    steps = tuple(NoiseStep(s.kind, float(s.p), s.target) if isinstance(s, NoiseStep) else s for s in steps)
    if steps and isinstance(steps[-1], MeasureStep):
        steps = (*steps[:-1], MeasureStep(tuple(sorted(steps[-1].targets))))
    return steps


_TOKEN_RE = re.compile(r"\S+")


def _line_tokens(line: str) -> list[tuple[str, int]]:
    return [(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(line)]


def _number(convert, what: str, token: tuple[str, int], lineno: int):
    tok, col = token
    try:
        return convert(tok)
    except ValueError:
        raise InputError(f"expected {what}, got {tok!r}", lineno, col) from None


def _parse_step(toks: list[tuple[str, int]], lineno: int, n_qubits: int) -> Step:
    """The step a statement spells on ``n_qubits``; only its syntax is checked
    here."""
    (kw, col), args = toks[0], toks[1:]

    def index(token):
        return _number(int, "a qubit index", token, lineno)

    if kw == "gate":
        if not args:
            raise InputError("usage: gate <name> <target>...", lineno, col)
        return GateStep(args[0][0], tuple(map(index, args[1:])))
    if kw == "noise":
        if len(args) != 3:
            raise InputError("usage: noise <bitflip|depolarizing> <p> <target>", lineno, col)
        return NoiseStep(args[0][0], _number(float, "a probability", args[1], lineno), index(args[2]))
    if kw == "measure":
        if not args:
            raise InputError("usage: measure all | measure <i>...", lineno, col)
        if len(args) == 1 and args[0][0] == "all":
            return MeasureStep(tuple(range(n_qubits)))
        return MeasureStep(tuple(map(index, args)))
    if kw == "qubits":
        raise InputError("duplicate 'qubits' declaration", lineno, col)
    raise InputError(f"unknown statement {kw!r}", lineno, col)


def parse_circuit(text: str) -> CircuitIr:
    """Parse circuit text into its IR; a fault raises ``InputError``.  Each
    step is checked once, on its line, where a fault gets its column."""
    n_qubits: int | None = None
    steps: list[Step] = []
    for lineno, line in _statements(text):
        toks = _line_tokens(line)
        if n_qubits is None:
            kw, col = toks[0]
            if kw != "qubits":
                raise InputError("expected 'qubits <n>' as the first statement", lineno, col)
            if len(toks) != 2:
                raise InputError("usage: qubits <n>", lineno, col)
            n_qubits = _number(int, "an integer", toks[1], lineno)
            try:
                check_qubit_count(n_qubits)
            except ValueError as exc:
                raise InputError(str(exc), lineno, toks[1][1]) from None
            continue
        step = _parse_step(toks, lineno, n_qubits)
        try:
            _check_step(n_qubits, step, steps[-1] if steps else None)
        except _StepError as exc:
            raise InputError(str(exc), lineno, toks[exc.token][1]) from None
        steps.append(step)
    if n_qubits is None:
        raise InputError("empty circuit: expected 'qubits <n>'", 1, 1)
    return CircuitIr._of_checked(n_qubits, steps)


def pretty_print(ir: CircuitIr) -> str:
    """Canonical text for an IR; parse_circuit(pretty_print(ir)) == ir."""
    lines = [f"qubits {ir.n_qubits}"]
    for step in ir.steps:
        if isinstance(step, GateStep):
            lines.append("gate " + step.name + " " + " ".join(map(str, step.targets)))
        elif isinstance(step, NoiseStep):
            lines.append(f"noise {step.kind} {step.p!r} {step.target}")
        elif step.targets == tuple(range(ir.n_qubits)):
            lines.append("measure all")
        else:
            lines.append("measure " + " ".join(map(str, step.targets)))
    return "\n".join(lines) + "\n"


def inject_noise(ir: CircuitIr, kind: str, p: float) -> CircuitIr:
    """Insert a noise step on each target of every gate step, after the gate.
    The IR's steps were checked when it was built, and the noise steps are
    of a checked kind and p on the gates' own targets, so no step is checked
    again."""
    check_noise_kind(kind)
    check_noise_probability(p)
    out: list[Step] = []
    for step in ir.steps:
        out.append(step)
        if isinstance(step, GateStep):
            out.extend(NoiseStep(kind, p, t) for t in step.targets)
    return CircuitIr._of_checked(ir.n_qubits, out)


def _operation(n: int, step: Step):
    """The operation a step applies on an n-qubit register."""
    if isinstance(step, GateStep):
        return lift_unitary(builtin_gate(step.name), n, step.targets)
    if isinstance(step, NoiseStep):
        return noise_channel(step.kind, step.p, n, step.target)
    return measurement_channel(n, step.targets)


def _operations(n: int):
    """``_operation`` on an n-qubit register for the steps of one run, with
    one checked noise family per (kind, p): the first noise step of a (kind,
    p) builds it (``noise_channel``), and each later one gets it placed on its
    own target (``placed``).  The table lives as long as the run."""
    families = {}

    def operation(step: Step):
        if not isinstance(step, NoiseStep):
            return _operation(n, step)
        family = families.get((step.kind, step.p))
        if family is None:
            family = families[step.kind, step.p] = _operation(n, step)
            return family
        return placed(family, (step.target,))

    return operation


def _gate_prefix(ir: CircuitIr) -> tuple[np.ndarray, int]:
    """Run the leading gate steps of ``ir`` on the vector |0..0>, 2**n work
    per gate and no check.  Returns the vector and the number of steps run."""
    n = ir.n_qubits
    psi = np.eye(1, 2**n, dtype=complex)[0]
    for i, step in enumerate(ir.steps):
        if not isinstance(step, GateStep):
            return psi, i
        psi = evolve(_operation(n, step), psi)
    return psi, len(ir.steps)


def _check_total(total: float) -> None:
    """The rule of a run's total probability, checked once, where the run
    ends, on every path: its outcomes sum to 1 within ``STRUCTURAL_TOL``."""
    if abs(total - 1.0) > STRUCTURAL_TOL:
        raise ValueError(f"the circuit left probabilities that sum to {total!r}, not 1")


def _is_mixing(step: Step) -> bool:
    """True for a mixing gate step (``Gate.mixing``: ``h``, ``sqrtnot``): the
    one kind of step that reads the coherences of a state."""
    return isinstance(step, GateStep) and builtin_gate(step.name).mixing


def _evolve_probabilities(operation, probs: np.ndarray, steps) -> np.ndarray:
    """The diagonal ``probs`` of a state carried through ``steps``, none of
    them a mixing gate: a gate is a gather and a noise step weighs the
    flipped entries by its masks (``evolve_diagonal``); a measure step's one
    mask M_0 = I leaves them as they are."""
    for step in steps:
        if not isinstance(step, MeasureStep):
            probs = evolve_diagonal(operation(step), probs)
    return probs


def _diagonal_state(diagonal: np.ndarray) -> DensityOperator:
    """The checked, read-only diag(``diagonal``): its sum by ``_check_total``,
    then each entry as a 1 x 1 block by ``check_density``, the rule and the
    messages the sector blocks of a measure-all state get."""
    _check_total(float(diagonal.sum().real))
    check_density(diagonal.reshape(-1, 1, 1))
    return DensityOperator._unchecked(_diagonal_matrix(diagonal))


def _diagonal_matrix(diagonal: np.ndarray) -> np.ndarray:
    """The complex matrix diag(``diagonal``), zero off the diagonal."""
    matrix = np.zeros((diagonal.size, diagonal.size), dtype=complex)
    np.fill_diagonal(matrix, diagonal)
    return matrix


def simulate(ir: CircuitIr) -> DensityOperator:
    """Fold the circuit's steps over |0..0><0..0|.

    The circuit starts from the vector |0..0>, and its leading gate steps act
    on that vector (``_gate_prefix``).  From the first noise or measure step
    on, the register is held as its diagonal wherever it is diagonal, and as
    the 4**n matrix only across the span where a mixing gate needs it:

    - Head.  A computational basis state (one non-zero amplitude) stays
      diagonal under 0/1 gates and noise, so the steps before the first
      mixing gate run on its diagonal p = psi * conj(psi)
      (``_evolve_probabilities``).
    - Tail.  When the final step measures every qubit, the state ends
      diagonal, and the diagonal of every earlier state is mapped without
      its coherences, so the steps after the last mixing gate run on the
      matrix's diagonal (all the steps, when no mixing gate is left).
    - Span.  Every other step is one ``apply`` on the matrix, which starts
      as diag(p), or as |psi><psi| when there is no head; a measure step is
      one joint measurement channel on all the measured qubits, one mask
      pass over the matrix.

    The diagonal is kept complex, as the matrix keeps it: the imaginary
    parts its rounding leaves are carried too.  So each diagonal entry is
    the one the matrix path computes, bit for bit (``evolve_diagonal``), and
    the entries off it are exact zeros there too; only the sign of a zero
    can differ.  Only the returned state is checked: its trace by
    ``_check_total``, then its hermiticity and positivity by
    ``states.check_density``, on its diagonal entries as 1 x 1 blocks when it
    ends diagonal, on the diagonal blocks of the measured sectors when the
    circuit ends in a measure step (their spectra make up the final matrix's
    spectrum), else on the whole matrix.  The span is not checked where it is
    formed: a full check costs more than the whole run.

    This is the definition ``output_distribution`` is tested against: on a
    circuit where no mixing gate follows noise it must give
    ``outcome_distribution`` of this state, entry for entry.
    """
    n, operation = ir.n_qubits, _operations(ir.n_qubits)
    psi, done = _gate_prefix(ir)
    steps = ir.steps[done:]
    mixing = [i for i, step in enumerate(steps) if _is_mixing(step)]
    measures_all = bool(steps) and isinstance(steps[-1], MeasureStep) and len(steps[-1].targets) == n
    # A head; or, when no mixing gate is left, a tail that starts at the vector.
    if np.count_nonzero(psi) == 1 or (measures_all and not mixing):
        head = mixing[0] if mixing else len(steps)
        diagonal = _evolve_probabilities(operation, psi * psi.conj(), steps[:head])
        if not mixing:
            return _diagonal_state(diagonal)
        rho = DensityOperator._unchecked(_diagonal_matrix(diagonal))
    else:
        head, rho = 0, DensityOperator._unchecked(np.outer(psi, psi.conj()))
    tail = mixing[-1] + 1 if measures_all else len(steps)
    for step in steps[head:tail]:
        rho = apply(operation(step), rho)
    if measures_all:
        return _diagonal_state(_evolve_probabilities(operation, np.diagonal(rho.matrix), steps[tail:]))
    matrix = rho.matrix
    _check_total(float(np.trace(matrix).real))
    ends_in_measure = bool(steps) and isinstance(steps[-1], MeasureStep)
    check_density(linalg.sector_blocks(matrix, n, measured_positions(ir)) if ends_in_measure else matrix)
    return DensityOperator._unchecked(matrix)


# Diagonal entries at or below this are floating-point dust, not
# probabilities; dropping them cannot move the distribution sum by more than
# dim * PROB_FLOOR, far inside the 1e-10 sum tolerance.
PROB_FLOOR = 1e-15


def _by_label(n: int, probs: np.ndarray) -> dict[str, float]:
    """The 2**n basis probabilities ``probs`` by n-bit label, in index
    order, without the entries at or below ``PROB_FLOOR``."""
    kept = np.flatnonzero(probs > PROB_FLOOR)
    return {format(i, f"0{n}b"): p for i, p in zip(kept.tolist(), probs[kept].tolist())}


def outcome_distribution(rho: DensityOperator) -> dict[str, float]:
    """Computational-basis probabilities: the diagonal of rho, by label.

    Zero and sub-``PROB_FLOOR`` entries are omitted; the remaining values
    sum to 1 within tolerance.
    """
    return _by_label(rho.n_qubits, np.real(np.diagonal(rho.matrix)))


def _mixes_after_noise(ir: CircuitIr) -> bool:
    """True when a mixing gate (``Gate.mixing``: ``h``, ``sqrtnot``) follows
    a noise step: only then does the output distribution read coherences of
    a mixed state."""
    noisy = False
    for step in ir.steps:
        noisy = noisy or isinstance(step, NoiseStep)
        if noisy and _is_mixing(step):
            return True
    return False


def _probabilities(ir: CircuitIr) -> np.ndarray:
    """The diagonal of ``simulate(ir)``, bit for bit, for a circuit where no
    mixing gate follows noise, without the matrix.

    The leading gates run on the vector (``_gate_prefix``), and the Born rule
    gives p(i) = |psi_i|**2 = ``(psi * conj(psi)).real``, the multiply that
    fills the diagonal of |psi><psi|.  Every later step maps that
    distribution to the next one without reading a coherence, by the loop
    ``simulate`` runs where the state is diagonal (``_evolve_probabilities``).
    The sum is checked once, at the end.  No positivity check is
    needed: |psi_i|**2 is never negative, and neither are the weights.
    """
    psi, done = _gate_prefix(ir)
    probs = _evolve_probabilities(_operations(ir.n_qubits), (psi * psi.conj()).real, ir.steps[done:])
    _check_total(float(probs.sum()))
    return probs


def output_distribution(ir: CircuitIr) -> dict[str, float]:
    """The outcome distribution of the circuit run from |0..0>, by label:
    ``outcome_distribution(simulate(ir))``, entry for entry and in its order.

    When no mixing gate follows a noise step (every noise-free circuit among
    them), the distribution is ``_probabilities``: no matrix is formed.  A
    circuit with a mixing gate after noise is simulated.  This is the one
    place that chooses between the two; ``sample`` draws from its result.
    """
    if _mixes_after_noise(ir):
        return outcome_distribution(simulate(ir))
    return _by_label(ir.n_qubits, _probabilities(ir))


def measured_positions(ir: CircuitIr) -> tuple[int, ...]:
    """Qubits reported by sampling: the final measure step's list, or all
    qubits when the circuit has none."""
    if ir.steps and isinstance(ir.steps[-1], MeasureStep):
        return ir.steps[-1].targets
    return tuple(range(ir.n_qubits))


#: The most shots one multinomial draw takes: its count is an int64.
MAX_SHOTS = int(np.iinfo(np.int64).max)


def _check_shots_and_seed(shots: int, seed: int) -> None:
    """The rule of a sample's arguments, for ``sample`` and ``Histogram``
    alike: integers (``bool`` is not one), 1 <= shots <= ``MAX_SHOTS`` and
    seed >= 0."""
    for what, value in (("shots", shots), ("seed", seed)):
        if not is_integer(value):
            raise ValueError(f"{what} {value} is not an integer")
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if shots > MAX_SHOTS:
        raise ValueError(f"shots must be <= {MAX_SHOTS}")
    if seed < 0:
        raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class Histogram:
    """Counts of sampled outcomes, tagged with the shots and seed that made it."""

    shots: int
    counts: dict[str, int]
    seed: int

    def __post_init__(self):
        _check_shots_and_seed(self.shots, self.seed)
        if sum(self.counts.values()) != self.shots:
            raise ValueError("histogram counts must sum to shots")
        lengths = {len(label) for label in self.counts}
        if len(lengths) > 1:
            raise ValueError("outcome labels must share one length")
        if not all(is_integer(c) and c >= 0 for c in self.counts.values()):
            raise ValueError("counts must be non-negative integers")


def sample(ir: CircuitIr, shots: int, seed: int) -> Histogram:
    """Draw ``shots`` outcomes from the exact output distribution.

    The distribution is ``output_distribution(ir)``, the one ``run`` prints,
    added up label by label, in its order, onto the measured qubits
    (``measured_positions``); then all the shots are drawn at once as one
    multinomial over its sorted outcomes: time and memory grow with the
    outcomes, not the shots.  Identical (ir, shots, seed) triples give
    identical histograms.
    """
    _check_shots_and_seed(shots, seed)
    positions = measured_positions(ir)
    sums: dict[str, float] = {}
    for label, p in output_distribution(ir).items():
        outcome = "".join(label[q] for q in positions)
        sums[outcome] = sums.get(outcome, 0.0) + p
    labels = sorted(sums)
    probs = np.array([sums[label] for label in labels])
    tallies = np.random.default_rng(seed).multinomial(shots, probs / probs.sum())
    counts = {labels[i]: int(c) for i, c in enumerate(tallies) if c > 0}
    return Histogram(shots=shots, counts=counts, seed=seed)


# --- formula text -----------------------------------------------------------


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
            raise InputError(f"unexpected character {c!r}", line, col)
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
            raise InputError(f"unexpected token {tok[1]!r}", self.line, tok[2])
        return node

    def check_depth(self, depth: int, col: int) -> int:
        if depth > MAX_FORMULA_DEPTH:
            raise InputError(f"formula nested deeper than {MAX_FORMULA_DEPTH} levels", self.line, col)
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
            raise InputError("unexpected end of formula", self.line, self.end_col)
        kind, text, col = tok
        self.pos += 1
        if kind == "ident":
            return Atom(text), 0
        if kind not in ("!", "("):
            raise InputError(f"unexpected token {text!r}", self.line, col)
        self.check_depth(nesting + 1, col)
        if kind == "!":
            child, depth = self.parse_unary(nesting + 1)
            return Not(child), self.check_depth(depth + 1, col)
        node, depth = self.parse_or(nesting + 1)
        closing = self.peek()
        if closing is None or closing[0] != ")":
            raise InputError("expected ')'", self.line, self.end_col if closing is None else closing[2])
        self.pos += 1
        return node, self.check_depth(depth + 1, col)


def parse_formula(text: str) -> Formula:
    """Parse a formula expression (atoms, !, &, |, parentheses)."""
    return _FormulaParser(_tokenize_formula(text, 1, 1), 1, 1 + len(text)).parse()


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
    magnitude gets the same bits as without it.  The one rule of a vector in
    a file (``state pure``, ``vector``, literal atoms): finite, not zero."""
    parts = np.ascontiguousarray(amplitudes, dtype=complex).view(float)  # re, im, re, ...
    largest = float(np.abs(parts).max(initial=0.0))
    if not math.isfinite(largest):
        raise ValueError("amplitudes must be finite")
    if largest == 0.0:
        raise ValueError("zero vector")
    v = np.ldexp(parts, -math.frexp(largest)[1]).view(complex)
    return v / np.linalg.norm(v)


def _pure_state(amplitudes: np.ndarray) -> DensityOperator:
    return pure_to_density(QuRegister(_unit_vector(amplitudes)))


def _circuit_state(value: str, base_dir: Path, states: dict[str, DensityOperator]) -> DensityOperator:
    """The output state of the circuit file ``value``, relative to ``base_dir``.
    ``states`` holds the read-only states already simulated, by circuit text:
    a text is simulated once, and every file that holds it shares its state."""
    path = base_dir / value
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read circuit {str(path)!r}: {exc}") from exc
    if text not in states:
        try:
            states[text] = simulate(parse_circuit(text))
        except InputError as exc:
            raise ValueError(f"in circuit {str(path)!r}: {exc}") from exc
    return states[text]


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

    A statement's keyword ends at its first blank or ``=``, so
    ``formula=a`` reads as ``formula = a``.  Literal qubits are normalized;
    circuit paths resolve relative to ``base_dir``, and the atoms whose files
    hold one circuit text (every atom that names one file, whatever the
    spelling) share one simulated, read-only state.  A fault raises
    ``InputError``, an unbound atom at its column.  Returns the formula tree
    and the atom bindings.
    """
    base = Path(base_dir)
    bindings: dict[str, DensityOperator] = {}
    circuit_states: dict[str, DensityOperator] = {}
    formula = None  # the formula line's tree, tokens and line
    for lineno, line in _statements(text):
        word = line.split(None, 1)[0]
        kw = word.partition("=")[0] or word
        body = line.strip()[len(kw):].strip()
        try:
            if kw == "atom":
                name, eq, value = (part.strip() for part in body.partition("="))
                if not eq or not name or not value:
                    raise ValueError("usage: atom <name> = <literal or circuit path>")
                if not _IDENT_RE.match(name):
                    raise ValueError(f"bad atom name {name!r}")
                if name in bindings:
                    raise ValueError(f"duplicate atom {name!r}")
                if value.startswith("("):
                    bindings[name] = _atom_literal(value)
                else:
                    bindings[name] = _circuit_state(value, base, circuit_states)
            elif kw == "formula":
                expr = body[1:].strip()
                if formula is not None:
                    raise ValueError("duplicate formula line")
                if not body.startswith("=") or not expr:
                    raise ValueError("usage: formula = <expression>")
                # The expression starts at the first non-blank after the statement's '='.
                column = len(line) - len(line[line.index("=") + 1 :].lstrip()) + 1
                tokens = _tokenize_formula(expr, lineno, column)
                formula = (_FormulaParser(tokens, lineno, column + len(expr)).parse(), tokens, lineno)
            else:
                raise ValueError(f"unknown statement {kw!r}")
        except InputError:
            raise
        except ValueError as exc:  # every other error on the line is located at its start
            raise InputError(str(exc), lineno, 1) from exc
    if formula is None:
        raise InputError("missing 'formula =' line", len(text.splitlines()) or 1, 1)
    ast, tokens, lineno = formula
    for kind, name, col in tokens:
        if kind == "ident" and name not in bindings:
            raise InputError(f"unbound atom {name!r}", lineno, col)
    return ast, bindings


# --- valuation and CHSH files -------------------------------------------------


def _read_state(kind: str, tokens, base_dir: Path) -> DensityOperator:
    if kind == "circuit":
        if len(tokens) != 1:
            raise ValueError("usage: state circuit <path>")
        return _circuit_state(tokens[0], base_dir, {})
    if kind == "pure":
        return _pure_state(_complex_tokens(tokens))
    if kind == "matrix":
        return DensityOperator(_complex_tokens(tokens, square=True))
    raise ValueError(f"unknown state kind {kind!r}")


def _read_statements(text: str, base_dir, statement) -> DensityOperator:
    """The statements of valuation and CHSH files, split at blanks.

    The one ``state`` line is read here and every other statement goes to
    ``statement(line number, keyword, args)``; a ``ValueError`` on a line
    becomes an ``InputError`` at its number.  Returns the state.
    """
    state: DensityOperator | None = None
    for lineno, line in _statements(text):
        toks = line.split()
        try:
            if toks[0] != "state":
                statement(lineno, toks[0], toks[1:])
            elif state is not None:
                raise ValueError("duplicate state declaration")
            elif len(toks) < 3:
                raise ValueError("usage: state <circuit|pure|matrix> ...")
            else:
                state = _read_state(toks[1], toks[2:], Path(base_dir))
        except ValueError as exc:
            raise InputError(str(exc), lineno) from exc
    if state is None:
        raise InputError("missing 'state' declaration")
    return state


def parse_psa_file(text: str, base_dir=".", tol: float = STRUCTURAL_TOL):
    """Parse a valuation input: one ``state`` line, then named context blocks.

        state circuit <path> | state pure <c...> | state matrix <c... row-major>
        context <name>
        vector <c0> ... <c_dim-1>          # rank-1 projector onto the vector
        projector <c...>                   # full matrix, row-major
        end

    Returns the state and a list of (name, Context); ``tol`` is the
    tolerance of the context checks.  Context names are distinct, and every
    context acts on the state's qubit count.  A ``vector`` or ``projector``
    line whose tokens repeat an earlier line of the file is not read again:
    the contexts that hold it share one ``Projector``.  A fault raises
    ``InputError``, one of a whole context block at its ``context`` line.
    """
    contexts: list[tuple[str, Context]] = []
    opened: dict[str, int] = {}  # each context's name, to the line that opens it
    current: tuple[str, list] | None = None  # the open context block
    projectors: dict[tuple[str, ...], Projector] = {}  # each line read, by its tokens

    def statement(lineno: int, kw: str, args) -> None:
        nonlocal current
        if kw == "context":
            if current is not None:
                raise ValueError("previous context not closed with 'end'")
            if len(args) != 1:
                raise ValueError("usage: context <name>")
            if args[0] in opened:
                raise ValueError(f"duplicate context {args[0]!r}")
            opened[args[0]] = lineno
            current = (args[0], [])
        elif kw in ("vector", "projector"):
            if current is None:
                raise ValueError(f"{kw!r} outside a context block")
            key = (kw, *args)
            if key not in projectors:
                if kw == "vector":
                    projectors[key] = projector_onto(_unit_vector(_complex_tokens(args)))
                else:
                    projectors[key] = Projector(_complex_tokens(args, square=True))
            current[1].append(projectors[key])
        elif kw == "end":
            if current is None:
                raise ValueError("'end' without a context block")
            name, members = current
            try:
                contexts.append((name, Context(members, tol=tol)))
            except ValueError as exc:
                raise ValueError(f"context {name!r}: {exc}") from exc
            current = None
        else:
            raise ValueError(f"unknown statement {kw!r}")

    state = _read_statements(text, base_dir, statement)
    if current is not None:
        raise InputError(f"context {current[0]!r} not closed with 'end'", opened[current[0]])
    if not contexts:
        raise InputError("no contexts declared")
    for name, context in contexts:
        if context.n_qubits != state.n_qubits:
            raise InputError(
                f"context {name!r} and the state act on different qubit counts"
                f" ({context.n_qubits} and {state.n_qubits})",
                opened[name],
            )
    return state, contexts


def parse_chsh_file(text: str, base_dir="."):
    """Parse a CHSH input: one ``state`` line and the four observables,

        observable <a|ap|b|bp> <c...>      # 2x2 matrix, row-major

    Returns (state, a, a', b, b'); every fault raises ``InputError``.
    """
    observables: dict[str, np.ndarray] = {}

    def statement(lineno: int, kw: str, args) -> None:
        if kw != "observable":
            raise ValueError(f"unknown statement {kw!r}")
        if len(args) < 2:
            raise ValueError("usage: observable <a|ap|b|bp> <4 entries>")
        key = args[0]
        if key not in ("a", "ap", "b", "bp"):
            raise ValueError("observable name must be a, ap, b, or bp")
        if key in observables:
            raise ValueError(f"duplicate observable {key!r}")
        observables[key] = _complex_tokens(args[1:], square=True)

    state = _read_statements(text, base_dir, statement)
    missing = [k for k in ("a", "ap", "b", "bp") if k not in observables]
    if missing:
        raise InputError(f"missing observables: {', '.join(missing)}")
    return state, observables["a"], observables["ap"], observables["b"], observables["bp"]
