"""Seeded workload generators.

Each workload is a fixed list of operation slots.  A slot fixes the shape that
sets an operation's cost (qubit count, gate arities, noise kind, formula
skeleton, shots); the seed draws everything else (gate names, targets, noise
probabilities, states, atom kinds, contexts, sampler seeds).  So every seed
gives different input files but the same mix of costs, which keeps the
latency percentiles comparable across seeds.

``build`` writes the input files and returns the operations.  Each operation
calls into bornlab the way a user would (``bornlab.cli.main`` with an argv,
or one library call), and carries a check against ``reference``.  The program
sees only the generated files.
"""

from __future__ import annotations

import functools
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import bornlab.cli
import bornlab.psa
import bornlab.states

from . import reference as ref
from .reference import CheckFailed

WORKLOADS = ("dense-sim", "logic", "small-register")

ONE_QUBIT_GATES = ("h", "not", "sqrtnot", "id")
MULTI_QUBIT_GATES = {2: "cnot", 3: "toffoli"}


class OpError(Exception):
    """The program returned a nonzero exit status."""


@dataclass
class Op:
    """One closed-loop operation: ``run`` is timed, ``check`` is not."""

    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


@dataclass
class Workload:
    ops: list[Op]
    probe: Op | None = None
    # A probe too slow for every run runs only in traced runs.
    probe_traced_only: bool = False


def cli_call(argv: list[str]) -> str:
    """Run ``bornlab <argv>`` in-process and return its standard output."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = bornlab.cli.main(argv)
    if rc != 0:
        raise OpError(f"exit status {rc}: {err.getvalue().strip()}")
    return out.getvalue()


def _c(z: complex) -> str:
    """A complex literal that ``complex()`` parses back to the same value."""
    return repr(complex(z))


def _gauss_vector(rng: random.Random, dim: int) -> np.ndarray:
    return np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(dim)])


def _unitary(rng: random.Random, dim: int) -> np.ndarray:
    g = np.array([_gauss_vector(rng, dim) for _ in range(dim)])
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _density(rng: random.Random, dim: int) -> np.ndarray:
    g = np.array([_gauss_vector(rng, dim) for _ in range(dim)])
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2
    return m / np.real(np.trace(m))


def _random_gates(rng: random.Random, n: int, arities) -> list:
    steps = []
    for k in arities:
        name = rng.choice(ONE_QUBIT_GATES) if k == 1 else MULTI_QUBIT_GATES[k]
        steps.append(("gate", name, tuple(rng.sample(range(n), k))))
    return steps


def _circuit_text(n: int, steps, measured) -> str:
    lines = [f"qubits {n}"]
    for step in steps:
        if step[0] == "gate":
            lines.append(f"gate {step[1]} " + " ".join(map(str, step[2])))
        else:
            lines.append(f"noise {step[1]} {step[2]!r} {step[3]}")
    if measured == "all":
        lines.append("measure all")
    elif measured:
        lines.append("measure " + " ".join(map(str, measured)))
    return "\n".join(lines) + "\n"


# --- dense-sim ----------------------------------------------------------------

# (qubits, gate arities, noise kind or None, measured qubit count or "all").
# Registers of 8 qubits measure all of them, 9-10 qubits a subset; noise is
# kept to 8-9 qubits, where one noisy step costs a fraction of a second.
# Six of the nine slots are cheap noiseless 9-qubit circuits, so the median
# falls inside that group, and the slowest two (the noisy 8-qubit ``measure
# all`` and the 10-qubit Toffoli) are the top fifth of the list, so p90 falls
# between them.  A pass takes about 11 s with one BLAS thread, so a 30 s run
# holds two to three whole passes.
DENSE_SLOTS = [
    (9, (1,), None, 1),
    (9, (2,), None, 1),
    (9, (3,), None, 2),
    (9, (1, 1), None, 1),
    (9, (1, 2), None, 2),
    (9, (2, 1), None, 1),
    (9, (1, 2), "bitflip", 1),
    (8, (2, 1), "depolarizing", "all"),
    (10, (3,), None, 1),
]
# The advertised 10-qubit limit with ``measure all``: run once per run, after
# the timed loop, because at this size it exhausts the address-space cap.
DENSE_PROBE = (10, (1, 2), None, "all")


def _dense_op(rng, workdir: Path, tag: str, slot) -> Op:
    n, arities, noise_kind, measured = slot
    steps = _random_gates(rng, n, arities)
    if measured != "all":
        measured = tuple(sorted(rng.sample(range(n), measured)))
    path = workdir / f"{tag}.qc"
    path.write_text(_circuit_text(n, steps, measured), encoding="utf-8")
    argv = ["run", str(path), "--format", "record"]
    if noise_kind:
        p = round(rng.uniform(0.001, 0.05), 6)
        argv += ["--noise", f"{noise_kind}:{p!r}"]
        steps = ref.with_noise(steps, noise_kind, p)
    # References are computed on first use, outside the timed region.
    want = functools.cache(lambda: ref.circuit_probs(n, steps))

    def check(out: str) -> None:
        ref.check_distribution(json.loads(out)["probabilities"], want(), n)

    label = f"{n}q-{noise_kind or 'ideal'}-m{measured if measured == 'all' else len(measured)}"
    return Op("run", label, lambda: cli_call(argv), check)


def _shrink(n: int, tiny: bool) -> int:
    return n - 5 if tiny else n


def _build_dense(rng, workdir, tiny):
    groups = []
    for i, (n, arities, noise, measured) in enumerate(DENSE_SLOTS):
        slot = (_shrink(n, tiny), arities, noise, measured)
        groups.append([_dense_op(rng, workdir, f"dense{i}", slot)])
    n, arities, noise, measured = DENSE_PROBE
    probe = _dense_op(rng, workdir, "probe", (_shrink(n, tiny), arities, noise, measured))
    return groups, probe


# --- logic --------------------------------------------------------------------

# (atom qubit counts, formula skeleton over atom slots).  A formula's
# composite register has sum(atom qubits) + (binary connectives) qubits,
# shown on the right; its cost is set almost entirely by that size.  Half the
# slots reach 9 qubits so that the median falls among them, and the two
# 10-qubit slots are the top seventh of the list, so p90 falls between the
# largest 9-qubit slot and them.  A pass takes about 8 s with one BLAS
# thread, so a 30 s run holds three to four whole passes.
LOGIC_SLOTS = [
    ((1, 1), ("and", 0, 1)),  # 3
    ((1, 2), ("or", 0, 1)),  # 4
    ((2, 2), ("not", ("and", 0, 1))),  # 5
    ((1, 1, 2), ("or", ("and", 0, 1), 2)),  # 6
    ((1, 1, 1, 1), ("and", ("and", 0, 1), ("and", 2, 3))),  # 7
    ((1, 1, 1, 1, 1), ("and", ("and", ("and", ("and", 0, 1), 2), 3), 4)),  # 9
    ((1, 1, 1, 1, 1), ("or", ("or", ("or", ("or", 0, 1), 2), 3), 4)),  # 9
    ((1, 1, 1, 1, 1), ("and", ("not", ("and", 0, 1)), ("or", ("or", 2, 3), 4))),  # 9
    ((2, 2, 1, 1), ("or", ("and", 0, 1), ("and", 2, 3))),  # 9
    ((1, 1, 1, 1, 1), ("not", ("or", ("and", 0, 1), ("and", ("or", 2, 3), 4)))),  # 9
    ((2, 1, 2, 1), ("and", ("or", 0, 1), ("and", 2, 3))),  # 9
    ((1, 2, 1, 2), ("and", ("and", 0, 1), ("not", ("or", 2, 3)))),  # 9
    ((2, 2, 2, 1), ("and", ("or", 0, 1), ("or", 2, 3))),  # 10
    ((2, 1, 1, 1, 1), ("or", ("and", 0, 1), ("and", ("and", 2, 3), 4))),  # 10
]
# Six-atom conjunction: 11 qubits, one past the circuit limit, which the
# formula path does not enforce.  It takes 9-21 s, longer than a pass of the
# rest, so it is a probe: one run of it per traced run, after the loop.
LOGIC_PROBE = ((1, 1, 1, 1, 1, 1), ("and", ("and", ("and", ("and", ("and", 0, 1), 2), 3), 4), 5))


def _size(node, sizes) -> int:
    if isinstance(node, int):
        return sizes[node]
    if node[0] == "not":
        return _size(node[1], sizes)
    return _size(node[1], sizes) + _size(node[2], sizes) + 1


def _render(node) -> str:
    if node[0] == "atom":
        return node[1]
    if node[0] == "not":
        return "!" + _render(node[1])
    sym = "&" if node[0] == "and" else "|"
    return f"({_render(node[1])} {sym} {_render(node[2])})"


def _bind(node, names, rng):
    """Replace atom slots by names; each atom is negated with probability 1/3."""
    if isinstance(node, int):
        leaf = ("atom", names[node])
        return ("not", leaf) if rng.random() < 1 / 3 else leaf
    return (node[0], *(_bind(child, names, rng) for child in node[1:]))


def _atom(rng, workdir: Path, tag: str, qubits: int):
    """An atom binding (text, truth probability): a literal or a circuit file."""
    if qubits == 1 and rng.random() < 0.5:
        c = [complex(z) for z in _gauss_vector(rng, 2)]
        text = f"({c[0].real!r}, {c[0].imag!r}, {c[1].real!r}, {c[1].imag!r})"
        return text, float(abs(c[1]) ** 2 / (abs(c[0]) ** 2 + abs(c[1]) ** 2))
    arities = [1] * rng.randint(1, 2) + ([2] if qubits == 2 else [])
    rng.shuffle(arities)
    steps = _random_gates(rng, qubits, arities)
    if rng.random() < 0.5:
        steps.append(("noise", rng.choice(("bitflip", "depolarizing")), round(rng.uniform(0.01, 0.2), 6), qubits - 1))
    measured = "all" if rng.random() < 0.3 else None
    (workdir / f"{tag}.qc").write_text(_circuit_text(qubits, steps, measured), encoding="utf-8")
    return f"{tag}.qc", ref.truth_probability(ref.circuit_probs(qubits, steps))


def _logic_op(rng, workdir: Path, tag: str, slot) -> Op:
    sizes, skeleton = slot
    names = rng.sample("abcdefghpqrstuvw", len(sizes))
    lines, probs = [], {}
    for j, (name, q) in enumerate(zip(names, sizes)):
        text, probs[name] = _atom(rng, workdir, f"{tag}_{j}", q)
        lines.append(f"atom {name} = {text}")
    tree = _bind(skeleton, names, rng)
    lines.append(f"formula = {_render(tree)}")
    path = workdir / f"{tag}.qf"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    want = ref.formula_value(tree, probs)

    def check(out: str) -> None:
        got = json.loads(out)["truth_probability"]
        if abs(got - want) > 1e-9:
            raise CheckFailed(f"truth probability {got!r}, closed form {want!r}")

    argv = ["eval", str(path), "--format", "record"]
    return Op("eval", f"{_size(skeleton, sizes)}q-{len(sizes)}atoms", lambda: cli_call(argv), check)


def _build_logic(rng, workdir, tiny):
    slots = [s for s in LOGIC_SLOTS if _size(s[1], s[0]) <= 6] if tiny else LOGIC_SLOTS
    groups = [[_logic_op(rng, workdir, f"logic{i}", slot)] for i, slot in enumerate(slots)]
    # No register is small enough for the warm-up: six atoms make 11 qubits.
    probe = None if tiny else _logic_op(rng, workdir, "probe", LOGIC_PROBE)
    return groups, probe


# --- small-register -----------------------------------------------------------

# (qubits, shots, noise kind or None, measured count or "all")
# Shots keep every sampled operation above 15 ms, so the median of the list
# falls on a sample pair and not on a few-millisecond operation, whose scaled
# time tracks the machine's speed less closely.
SAMPLE_SLOTS = [
    (1, 500_000, None, "all"),
    (3, 500_000, "bitflip", 2),
    (5, 500_000, None, "all"),
    (6, 1_000_000, "depolarizing", 3),
]
# (qubits, contexts, state kind)
PSA_SLOTS = [(2, 2, "pure"), (3, 3, "matrix"), (4, 2, "circuit"), (5, 3, "pure")]
CHSH_FILES = ("pure", "matrix")
RECONSTRUCT_QUBITS = (1, 2, 3, 4)

_SQRT2 = math.sqrt(2.0)
# The presets as documented in bornlab.psa.chsh_preset.
_CHSH_SETTINGS = (
    ref.PAULIS["z"],
    ref.PAULIS["x"],
    -(ref.PAULIS["z"] + ref.PAULIS["x"]) / _SQRT2,
    (ref.PAULIS["x"] - ref.PAULIS["z"]) / _SQRT2,
)
# Kets of a regular tetrahedron on the Bloch sphere; their products over n
# qubits are an informationally complete family of 4**n projectors.
_TETRA = [
    np.array([math.cos(th / 2), np.exp(1j * ph) * math.sin(th / 2)])
    for th, ph in [(0.0, 0.0)] + [(math.acos(-1 / 3), 2 * math.pi * k / 3) for k in range(3)]
]


def _small_circuit(rng, n: int):
    arities = [1] * (n + 1) + ([2] if n >= 2 else []) + ([3] if n >= 3 else [])
    rng.shuffle(arities)
    return _random_gates(rng, n, arities)


def _sample_ops(rng, workdir, i, slot) -> list[Op]:
    n, shots, noise_kind, measured = slot
    if measured != "all":
        measured = tuple(sorted(rng.sample(range(n), measured)))
    positions = range(n) if measured == "all" else measured
    p = round(rng.uniform(0.001, 0.05), 6) if noise_kind else None
    # The sampler's time grows with the number of possible outcomes, so every
    # seed gets a circuit under which all outcomes of the measured qubits are
    # possible: an ``h`` on each qubit, then random gates, redrawn until the
    # support is full.
    while True:
        steps = [("gate", "h", (q,)) for q in range(n)] + _small_circuit(rng, n)
        model = ref.with_noise(steps, noise_kind, p) if noise_kind else steps
        want = ref.marginal(ref.circuit_probs(n, model), n, positions)
        if min(want.values()) > 1e-9:
            break
    path = workdir / f"sample{i}.qc"
    path.write_text(_circuit_text(n, steps, measured), encoding="utf-8")
    argv = ["sample", str(path), "--shots", str(shots), "--seed", str(rng.randrange(2**31)), "--format", "record"]
    if noise_kind:
        argv += ["--noise", f"{noise_kind}:{p!r}"]
    first: list[str] = []

    def check_first(out: str) -> None:
        first[:] = [out]
        record = json.loads(out)
        ref.check_histogram(record["counts"], shots, want)

    def check_repeat(out: str) -> None:
        if first != [out]:
            raise CheckFailed("repeated sample with the same seed is not byte-identical")
        first.clear()

    label = f"sample-{n}q-{shots}"
    return [
        Op("sample", label, lambda: cli_call(argv), check_first),
        Op("sample", label + "-repeat", lambda: cli_call(argv), check_repeat),
    ]


def _state_lines(rng, workdir, tag: str, n: int, kind: str):
    """A ``state`` line of the given kind and the density matrix it denotes."""
    dim = 2**n
    if kind == "pure":
        v = _gauss_vector(rng, dim)
        v = v / np.linalg.norm(v)
        return "state pure " + " ".join(map(_c, v)), np.outer(v, v.conj())
    if kind == "matrix":
        rho = _density(rng, dim)
        return "state matrix " + " ".join(map(_c, rho.reshape(-1))), rho
    steps = _small_circuit(rng, n)
    (workdir / f"{tag}.qc").write_text(_circuit_text(n, steps, None), encoding="utf-8")
    v = ref.circuit_state(n, steps)
    return f"state circuit {tag}.qc", np.outer(v, v.conj())


def _psa_op(rng, workdir, i, slot) -> Op:
    n, n_contexts, state_kind = slot
    dim = 2**n
    state_line, rho = _state_lines(rng, workdir, f"psa{i}_state", n, state_kind)
    u = _unitary(rng, dim)
    contexts = [u]
    for c in range(1, n_contexts):
        # Keep a block of the first context's vectors (shared projectors) and
        # rotate the rest of the basis within its own span.
        keep = rng.sample(range(dim), dim // 2)
        rest = [k for k in range(dim) if k not in keep]
        rotated = u[:, rest] @ _unitary(rng, len(rest))
        contexts.append(np.concatenate([u[:, keep], rotated], axis=1))
    lines = [state_line]
    for c, basis in enumerate(contexts):
        lines.append(f"context ctx{c}")
        lines += ["vector " + " ".join(map(_c, basis[:, k])) for k in range(dim)]
        lines.append("end")
    path = workdir / f"psa{i}.psa"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def check(out: str) -> None:
        rows = json.loads(out)
        if len(rows) != n_contexts * dim:
            raise CheckFailed(f"{len(rows)} rows, expected {n_contexts * dim}")
        for c, basis in enumerate(contexts):
            row = rows[c * dim : (c + 1) * dim]
            if abs(sum(r["intensity"] for r in row) - 1.0) > 1e-9:
                raise CheckFailed(f"context {c} intensities do not sum to 1")
            for k, r in enumerate(row):
                want = ref.intensity(rho, basis[:, k])
                if r["context"] != f"ctx{c}" or abs(r["intensity"] - want) > 1e-9:
                    raise CheckFailed(f"{r} differs from Tr(rho P) = {want!r}")

    argv = ["psa-table", str(path), "--format", "record"]
    return Op("psa-table", f"psa-{n}q-{n_contexts}ctx", lambda: cli_call(argv), check)


def _chsh_preset_op(name: str) -> Op:
    """The singlet must reach 2*sqrt(2); the product state |00> stays <= 2."""
    product = np.zeros((4, 4), dtype=complex)
    product[0, 0] = 1.0
    want = 2 * _SQRT2 if name == "singlet-optimal" else ref.chsh(product, *_CHSH_SETTINGS)

    def check(out: str) -> None:
        s = json.loads(out)["S"]
        if abs(s - want) > 1e-9 or (name == "product" and s > 2.0 + 1e-9):
            raise CheckFailed(f"CHSH {name}: S = {s!r}, reference {want!r}")

    argv = ["chsh", name, "--format", "record"]
    return Op("chsh", f"chsh-{name}", lambda: cli_call(argv), check)


def _chsh_file_op(rng, workdir, i, state_kind) -> Op:
    state_line, rho = _state_lines(rng, workdir, f"chsh{i}_state", 2, state_kind)
    lines = [state_line]
    obs = []
    for name in ("a", "ap", "b", "bp"):
        v = np.array([rng.gauss(0, 1) for _ in range(3)])
        x, y, z = v / np.linalg.norm(v)
        m = np.array([[z, complex(x, -y)], [complex(x, y), -z]], dtype=complex)
        obs.append(m)
        lines.append(f"observable {name} " + " ".join(map(_c, m.reshape(-1))))
    path = workdir / f"chsh{i}.chsh"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    want = ref.chsh(rho, *obs)

    def check(out: str) -> None:
        s = json.loads(out)["S"]
        if abs(s - want) > 1e-9 or abs(s) > 2 * _SQRT2 + 1e-9:
            raise CheckFailed(f"CHSH S = {s!r}, reference {want!r}")

    argv = ["chsh", str(path), "--format", "record"]
    return Op("chsh", f"chsh-{state_kind}", lambda: cli_call(argv), check)


def _reconstruct_op(rng, workdir, n: int) -> Op:
    dim = 2**n
    rho = _density(rng, dim)
    frames = [_unitary(rng, 2) for _ in range(n)]
    vectors = [np.ones(1, dtype=complex)]
    for frame in frames:
        vectors = [np.kron(v, frame @ k) for v in vectors for k in _TETRA]
    values = [ref.intensity(rho, v) for v in vectors]
    path = workdir / f"reconstruct{n}.json"
    payload = {
        "n_qubits": n,
        "vectors": [[[z.real, z.imag] for z in v] for v in vectors],
        "intensities": values,
    }
    path.write_text(json.dumps(payload), encoding="utf-8")

    def run():
        data = json.loads(path.read_text(encoding="utf-8"))
        samples = []
        for v, value in zip(data["vectors"], data["intensities"]):
            v = np.array([complex(re, im) for re, im in v])
            samples.append((bornlab.states.Projector(np.outer(v, v.conj())), value))
        return bornlab.psa.reconstruct_density(samples, data["n_qubits"])

    def check(result) -> None:
        err = float(np.max(np.abs(result.matrix - rho)))
        if err > 1e-8:
            raise CheckFailed(f"reconstruction error {err:.3g} at {n} qubits")

    return Op("reconstruct", f"reconstruct-{n}q", run, check)


def _build_small(rng, workdir, tiny):
    groups = [_sample_ops(rng, workdir, i, slot) for i, slot in enumerate(SAMPLE_SLOTS[:2] if tiny else SAMPLE_SLOTS)]
    groups += [[_psa_op(rng, workdir, i, slot)] for i, slot in enumerate(PSA_SLOTS[:2] if tiny else PSA_SLOTS)]
    groups += [[_chsh_preset_op("singlet-optimal")], [_chsh_preset_op("product")]]
    groups += [[_chsh_file_op(rng, workdir, i, kind)] for i, kind in enumerate(CHSH_FILES)]
    groups += [[_reconstruct_op(rng, workdir, n)] for n in (RECONSTRUCT_QUBITS[:2] if tiny else RECONSTRUCT_QUBITS)]
    return groups, None


_BUILDERS = {"dense-sim": _build_dense, "logic": _build_logic, "small-register": _build_small}


def build(workload: str, seed: int, workdir: Path, tiny: bool = False) -> Workload:
    """Write the workload's input files for ``seed`` into ``workdir``.

    ``tiny`` shrinks every register so the whole list runs in well under a
    second; it is the warm-up and the test-suite size.  Operation order is a
    shuffle of the slots that is the same for every seed, except that a
    sampled pair stays in order: an operation's time depends on the state the
    one before it leaves (allocator, caches), so a seeded order would make
    the percentiles depend on the seed.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    groups, probe = _BUILDERS[workload](rng, workdir, tiny)
    random.Random(workload).shuffle(groups)
    return Workload([op for g in groups for op in g], probe, probe_traced_only=workload == "logic")
