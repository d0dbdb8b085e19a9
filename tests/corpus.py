"""A fixed, seeded corpus of ``bornlab`` invocations, each reduced to one
sha256 over its standard output, its standard error and its exit status.

    PYTHONPATH=src python tests/corpus.py OUT.json           # the full corpus
    PYTHONPATH=src python tests/corpus.py --tier1 OUT.json   # the checked subset
    PYTHONPATH=src python tests/corpus.py --compare A.json B.json

The corpus is written to a fresh temporary directory: the demos, the
circuits of ``tests/circuits/``, seeded random circuits of 1-10 qubits (some
with a mixing gate after noise, some without), formula files with literal and
circuit atoms, valuation files with ``vector`` and ``projector`` lines, CHSH
files, the fault inputs of ``test_cli.DIAGNOSTICS``, and formula files broken
at a seeded column.  Every command runs through in-process
``bornlab.cli.main`` in every format, ``run`` and ``sample`` with each
``--noise`` setting, ``psa-table`` and ``chsh`` also at a loose ``--tol``.
The temporary directory reads ``<dir>`` in an invocation's name and output,
so two checkouts give the same digests exactly where their outputs agree
byte for byte.

Each input is drawn from its own seed, so the ``--tier1`` subset, a few
seconds of work, gives the same digests as the same invocations of the full
corpus.  ``corpus.json`` holds its digests, which ``test_corpus.py`` checks;
an intended output change regenerates that file and lists the invocations
``--compare`` names.  ``--compare`` prints each invocation whose digest
differs or that only one file holds, and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import hashlib
import io
import json
import math
import random
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from bornlab.channels import GATES
from bornlab.cli import FORMATS, main
from test_cli import DIAGNOSTICS

TESTS = Path(__file__).resolve().parent
NOISE = (None, "bitflip:0.05", "depolarizing:0.1")
LOOSE_TOL = "1e-6"


def _c(z) -> str:
    """A complex entry as one token of Python literal syntax, exact."""
    return repr(complex(z))


def _unitary(rng: random.Random, n: int) -> np.ndarray:
    """A product of random one-qubit unitaries with its rows permuted: a
    unitary whose columns are entangled rays, formed by exact elementwise
    products."""
    u = np.ones((1, 1), dtype=complex)
    for _ in range(n):
        t, a, b = (rng.uniform(0, 2 * math.pi) for _ in range(3))
        c, s = math.cos(t), math.sin(t)
        u = np.kron(u, [[c, -cmath.exp(1j * b) * s], [cmath.exp(1j * a) * s, cmath.exp(1j * (a + b)) * c]])
    rows = list(range(2**n))
    rng.shuffle(rows)
    return u[rows]


def _vector(rng: random.Random, dim: int) -> list[complex]:
    return [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(dim)]


def _density(rng: random.Random, n: int) -> np.ndarray:
    """A random state of random rank, as a sum of exactly hermitian outer
    products."""
    m = sum(np.outer(v, np.conj(v)) for v in (_vector(rng, 2**n) for _ in range(rng.randint(1, 2**n))))
    return m / np.trace(m).real


def circuit_text(rng: random.Random, n: int, mixing: bool) -> str:
    """Random gates on n qubits.  Without ``mixing``, h or sqrtnot only opens
    the circuit, so no mixing gate follows an injected noise step."""
    names = [name for name, gate in GATES.items() if gate.arity <= n and (mixing or not gate.mixing)]
    lines = [f"qubits {n}"]
    if not mixing:
        lines.append(f"gate {rng.choice(['h', 'sqrtnot'])} {rng.randrange(n)}")
    for _ in range(rng.randint(n, 3 * n)):
        name = rng.choice(names)
        lines.append(f"gate {name} " + " ".join(map(str, rng.sample(range(n), GATES[name].arity))))
        if mixing and rng.random() < 0.1:
            lines.append(f"noise {rng.choice(['bitflip', 'depolarizing'])} {rng.choice([0.01, 0.2])} {rng.randrange(n)}")
    measured = sorted(rng.sample(range(n), rng.randint(1, n)))
    lines.append(rng.choice(["measure all", "measure " + " ".join(map(str, measured)), "# unmeasured"]))
    return "\n".join(lines) + "\n"


def _expression(rng: random.Random, names: list[str], depth: int) -> str:
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(names)
    if rng.random() < 0.25:
        return "!" + _expression(rng, names, depth - 1)
    gap = rng.choice(["", " "])
    op = gap + rng.choice("&|") + gap
    return "(" * rng.randint(0, 1) + _expression(rng, names, depth - 1) + op + _expression(rng, names, depth - 1)


def _balanced(expr: str) -> str:
    return expr + ")" * (expr.count("(") - expr.count(")"))


def _broken(rng: random.Random, expr: str) -> str:
    """``expr`` with one fault, at a seeded place."""
    at = rng.randrange(len(expr) + 1)
    return rng.choice([
        expr[:at] + "$" + expr[at:],
        expr + " &",
        "(" + expr,
        expr + " | unbound_atom",
        "!" * 101 + expr,
        expr + ")",
    ])


class Corpus:
    """Input files under ``root`` and the invocations that read them, by name."""

    def __init__(self, root: Path):
        self.root = root
        self.invocations: dict[str, list[str]] = {}

    def write(self, name: str, text: str) -> str:
        (self.root / name).write_text(text, encoding="utf-8")
        return str(self.root / name)

    def add(self, *argv: str) -> None:
        name = " ".join(argv).replace(str(self.root), "<dir>")
        self.invocations[name] = list(argv)

    def every_format(self, *argv: str) -> None:
        for fmt in FORMATS:
            self.add(*argv, "--format", fmt)

    def circuit(self, path: str, rng: random.Random) -> None:
        shots, seed = str(rng.choice([1, 100, 1000, 2**20])), str(rng.randrange(2**31))
        for noise in NOISE:
            flags = ["--noise", noise] if noise else []
            self.every_format("run", path, *flags)
            self.every_format("sample", path, "--shots", shots, "--seed", seed, *flags)

    def formula(self, tag: str, rng: random.Random) -> None:
        names = rng.sample(["a", "b", "c", "x1", "truth_2"], rng.randint(2, 5))
        lines = []
        for name in names:
            if rng.random() < 0.5:
                value = "(" + ", ".join(repr(rng.gauss(0, 1)) for _ in range(4)) + ")"
            else:
                value = f"{tag}-{name}.qc"
                self.write(value, circuit_text(rng, rng.randint(1, 3), mixing=rng.random() < 0.5))
            lines.append(f"atom {name} = {value}")
        expr = _balanced(_expression(rng, names, rng.randint(1, 4)))
        keyword = rng.choice(["formula = ", "formula=", "formula =   "])
        self.every_format("eval", self.write(f"{tag}.qf", "\n".join(lines + [keyword + expr]) + "\n"))
        self.add("eval", self.write(f"{tag}-fault.qf", "\n".join(lines + [keyword + _broken(rng, expr)]) + "\n"))

    def state_line(self, tag: str, rng: random.Random, n: int) -> str:
        kind = rng.choice(["pure", "matrix", "circuit"])
        if kind == "pure":
            return "state pure " + " ".join(map(_c, _vector(rng, 2**n)))
        if kind == "matrix":
            return "state matrix " + " ".join(map(_c, _density(rng, n).reshape(-1)))
        self.write(f"{tag}-state.qc", circuit_text(rng, n, mixing=True))
        return f"state circuit {tag}-state.qc"

    def valuation(self, tag: str, rng: random.Random, n: int) -> None:
        """Contexts of vector lines, projector lines or both.  A nudged file
        turns its first context's first column by 1e-8 towards its last:
        only the loose tol accepts that context."""
        lines = [self.state_line(tag, rng, n)]
        nudged = rng.random() < 0.3
        for k in range(rng.randint(1, 3)):
            u = _unitary(rng, n) * np.array([cmath.exp(1j * rng.uniform(0, 6.3)) for _ in range(2**n)])
            if nudged and k == 0:
                u[:, 0] += 1e-8 * u[:, -1]
            lines.append(f"context ctx{k}")
            columns = list(range(2**n))
            while columns:
                group = columns[: rng.randint(1, min(3, len(columns)))]
                columns = columns[len(group):]
                if len(group) == 1 and rng.random() < 0.7:
                    lines.append("vector " + " ".join(map(_c, u[:, group[0]])))
                else:
                    m = sum(np.outer(u[:, j], np.conj(u[:, j])) for j in group)
                    lines.append("projector " + " ".join(map(_c, m.reshape(-1))))
            lines.append("end")
        path = self.write(f"{tag}.psa", "\n".join(lines) + "\n")
        self.every_format("psa-table", path)
        self.add("psa-table", path, "--tol", LOOSE_TOL)

    def chsh(self, tag: str, rng: random.Random) -> None:
        lines = [self.state_line(tag, rng, 2)]
        for name in rng.sample(["a", "ap", "b", "bp"], 4):
            t, f = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
            x, y, z = math.sin(t) * math.cos(f), math.sin(t) * math.sin(f), math.cos(t)
            lines.append(f"observable {name} " + " ".join(map(_c, [z, complex(x, -y), complex(x, y), -z])))
        path = self.write(f"{tag}.chsh", "\n".join(lines) + "\n")
        self.every_format("chsh", path)
        self.add("chsh", path, "--tol", LOOSE_TOL)


def build(root: Path, full: bool) -> dict[str, list[str]]:
    """Write the corpus under ``root``; return its invocations by name.  The
    full corpus draws three of each random input where the subset draws one,
    and adds the 8-10 qubit circuits with mixing gates."""
    corpus = Corpus(root)
    for source in (*sorted((TESTS.parent / "demos").iterdir()), *sorted((TESTS / "circuits").iterdir())):
        shutil.copy(source, root / source.name)
        path = str(root / source.name)
        if source.suffix == ".qc":
            corpus.circuit(path, random.Random(source.name))
        else:
            corpus.every_format({".qf": "eval", ".psa": "psa-table"}[source.suffix], path)
    for preset in ("singlet-optimal", "product"):
        corpus.every_format("chsh", preset)
    corpus.write("bad.qc", "qubits 1\ngate wat 0\n")  # the circuit some diagnostics name
    for key, (command, text, flags, _) in DIAGNOSTICS.items():
        corpus.add(command, corpus.write(f"fault-{key}", text), *flags)
    for rep in range(3 if full else 1):
        for n in range(1, 11):
            for mixing in (False, True):
                if mixing and n > 7 and not full:
                    continue
                tag = f"{'mixing' if mixing else 'tail'}-{n}q-{rep}"
                rng = random.Random(tag)
                corpus.circuit(corpus.write(f"{tag}.qc", circuit_text(rng, n, mixing)), rng)
        for k in range(6):
            corpus.formula(f"formula-{k}-{rep}", random.Random(f"formula-{k}-{rep}"))
        for n in range(1, 6 if full else 5):
            corpus.valuation(f"valuation-{n}q-{rep}", random.Random(f"valuation-{n}q-{rep}"), n)
        for k in range(3):
            corpus.chsh(f"chsh-{k}-{rep}", random.Random(f"chsh-{k}-{rep}"))
    return corpus.invocations


def digest(argv: list[str], root: Path) -> str:
    """sha256 over one invocation's stdout, stderr and exit status, with
    ``root`` read as ``<dir>``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse's own errors
            status = exc.code
    text = "\0".join((out.getvalue(), err.getvalue(), str(status))).replace(str(root), "<dir>")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests(root: Path, full: bool) -> dict[str, str]:
    """Build the corpus under ``root`` and digest every invocation."""
    return {name: digest(argv, root) for name, argv in build(root, full).items()}


def differences(a: dict[str, str], b: dict[str, str]) -> list[str]:
    """The invocations whose digests differ, or that only one side holds."""
    return [
        f"{name}: " + ("only in B" if name not in a else "only in A" if name not in b else "differs")
        for name in sorted(a.keys() | b.keys())
        if a.get(name) != b.get(name)
    ]


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tier1", action="store_true", help="only the subset tier-1 checks")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="list the invocations A and B disagree on")
    parser.add_argument("out", nargs="?", help="where to write the digests, as JSON")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args.compare)
        found = differences(a, b)
        print("\n".join(found) or f"all {len(a)} invocations agree")
        return 1 if found else 0
    if not args.out:
        parser.error("give OUT, or --compare A B")
    with tempfile.TemporaryDirectory() as root:
        found = digests(Path(root), full=not args.tier1)
    Path(args.out).write_text(json.dumps(found, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(found)} invocations digested to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(_main())
