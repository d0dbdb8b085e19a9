"""Reference models that every benchmark operation is checked against.

Nothing here imports bornlab.  The models are written from the definitions
in the package's documentation (gate matrices, noise channels, the truth
laws, Tr(rho P)), on the circuit structure the generator drew rather than on
the file text, so a defect in the package cannot hide in its own oracle.

Conventions match the package: qubit 0 is the most significant bit of a
basis index, the last listed target of a multi-qubit gate is the negated
qubit, and the last qubit carries a formula's truth value.
"""

from __future__ import annotations

import math

import numpy as np

_S = math.sqrt(0.5)

GATES = {
    "id": np.eye(2, dtype=complex),
    "not": np.array([[0, 1], [1, 0]], dtype=complex),
    "h": np.array([[_S, _S], [_S, -_S]], dtype=complex),
    "sqrtnot": np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex) / 2,
    "cnot": np.eye(4, dtype=complex)[[0, 1, 3, 2]],
    "toffoli": np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 5, 7, 6]],
}

PAULIS = {
    "x": GATES["not"],
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class CheckFailed(Exception):
    """An operation's output disagrees with the reference."""


def _apply_local(t: np.ndarray, u: np.ndarray, axes) -> np.ndarray:
    """Contract the k-qubit matrix ``u`` into tensor axes ``axes`` of ``t``."""
    k = len(axes)
    moved = np.tensordot(u.reshape((2,) * (2 * k)), t, axes=(list(range(k, 2 * k)), list(axes)))
    return np.moveaxis(moved, list(range(k)), list(axes))


def noise_terms(kind: str, p: float):
    """(weight, Pauli) pairs of a single-qubit noise channel."""
    if kind == "bitflip":
        return [(1.0 - p, None), (p, PAULIS["x"])]
    if kind == "depolarizing":
        q = p / 4.0
        return [(1.0 - 3.0 * q, None), (q, PAULIS["x"]), (q, PAULIS["y"]), (q, PAULIS["z"])]
    raise ValueError(f"unknown noise kind {kind!r}")


def circuit_state(n: int, steps) -> np.ndarray:
    """State vector after the gate steps ``steps`` on |0..0>."""
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    for _, name, targets in steps:
        psi = _apply_local(psi, GATES[name], targets)
    return psi.reshape(-1)


def circuit_probs(n: int, steps) -> np.ndarray:
    """Computational-basis probabilities after ``steps`` on |0..0>.

    ``steps`` holds ("gate", name, targets) and ("noise", kind, p, target)
    tuples.  Noiseless circuits run as a statevector; noisy ones as a
    density matrix.  Measurement dephasing leaves the diagonal unchanged,
    so it needs no step here.
    """
    if all(s[0] == "gate" for s in steps):
        return np.abs(circuit_state(n, steps)) ** 2
    rho = np.zeros((2,) * (2 * n), dtype=complex)
    rho[(0,) * (2 * n)] = 1.0
    for step in steps:
        if step[0] == "gate":
            _, name, targets = step
            u = GATES[name]
            rho = _apply_local(rho, u, targets)
            rho = _apply_local(rho, u.conj(), [n + t for t in targets])
        else:
            _, kind, p, target = step
            out = np.zeros_like(rho)
            for w, pauli in noise_terms(kind, p):
                term = rho
                if pauli is not None:
                    term = _apply_local(_apply_local(rho, pauli, [target]), pauli.conj(), [n + target])
                out += w * term
            rho = out
    dim = 2**n
    return np.real(np.diagonal(rho.reshape(dim, dim))).copy()


def with_noise(steps, kind: str, p: float):
    """The ``--noise kind:p`` expansion: a noise step on each gate target."""
    out = []
    for step in steps:
        out.append(step)
        if step[0] == "gate":
            out.extend(("noise", kind, p, t) for t in step[2])
    return out


def marginal(probs: np.ndarray, n: int, positions) -> dict[str, float]:
    """Distribution of the listed qubits, keyed by big-endian label."""
    t = probs.reshape((2,) * n)
    keep = sorted(positions)
    m = t.sum(axis=tuple(q for q in range(n) if q not in keep)) if len(keep) < n else t
    flat = m.reshape(-1)
    return {format(i, f"0{len(keep)}b"): float(v) for i, v in enumerate(flat)}


def truth_probability(probs: np.ndarray) -> float:
    """Probability that the last qubit reads 1."""
    return float(probs[1::2].sum())


def formula_value(node, atom_probs: dict[str, float]) -> float:
    """Closed-form truth laws: p(!x) = 1 - p(x), p(x & y) = p(x) p(y), De Morgan |."""
    op = node[0]
    if op == "atom":
        return atom_probs[node[1]]
    if op == "not":
        return 1.0 - formula_value(node[1], atom_probs)
    left, right = formula_value(node[1], atom_probs), formula_value(node[2], atom_probs)
    if op == "and":
        return left * right
    if op == "or":
        return 1.0 - (1.0 - left) * (1.0 - right)
    raise ValueError(f"bad formula node {node!r}")


def check_distribution(got: dict[str, float], want: np.ndarray, n: int, tol: float = 1e-9) -> None:
    """Full-register distribution ``got`` sums to 1 and matches ``want`` entrywise."""
    total = sum(got.values())
    if abs(total - 1.0) > tol:
        raise CheckFailed(f"distribution sums to {total!r}")
    labels = {format(i, f"0{n}b"): float(v) for i, v in enumerate(want)}
    for label in got:
        if label not in labels:
            raise CheckFailed(f"unexpected outcome label {label!r}")
    for label, p in labels.items():
        if abs(got.get(label, 0.0) - p) > tol:
            raise CheckFailed(f"p({label}) = {got.get(label, 0.0)!r}, reference {p!r}")


# z for a one-sided tail of about 1e-9: a correct sampler fails the test on
# roughly one input in a billion, and each input is fixed by its seed.
CHI2_Z = 6.0


def chi2_critical(df: int, z: float = CHI2_Z) -> float:
    """Wilson-Hilferty upper quantile of the chi-square distribution."""
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + z * math.sqrt(h)) ** 3


def check_histogram(counts: dict[str, int], shots: int, want: dict[str, float]) -> None:
    """Counts sum to shots and pass a chi-square test against ``want``."""
    if sum(counts.values()) != shots:
        raise CheckFailed(f"counts sum to {sum(counts.values())}, expected {shots}")
    for label, c in counts.items():
        if want.get(label, 0.0) <= 1e-12 and c > 0:
            raise CheckFailed(f"{c} counts on impossible outcome {label!r}")
    stat, bins, pooled_obs, pooled_exp = 0.0, 0, 0, 0.0
    for label, p in want.items():
        expected = shots * p
        if expected < 5.0:
            pooled_obs += counts.get(label, 0)
            pooled_exp += expected
            continue
        stat += (counts.get(label, 0) - expected) ** 2 / expected
        bins += 1
    if pooled_exp >= 5.0:
        stat += (pooled_obs - pooled_exp) ** 2 / pooled_exp
        bins += 1
    if bins >= 2 and stat > chi2_critical(bins - 1):
        raise CheckFailed(f"chi-square {stat:.1f} over {bins} bins exceeds {chi2_critical(bins - 1):.1f}")


def intensity(rho: np.ndarray, v: np.ndarray) -> float:
    """Tr(rho P) for P the projector onto the normalized vector ``v``."""
    v = v / np.linalg.norm(v)
    return float(np.real(np.vdot(v, rho @ v)))


def chsh(rho: np.ndarray, a, ap, b, bp) -> float:
    """S = E(a,b) + E(a,b') + E(a',b) - E(a',b') with E = Re Tr(rho (x (x) y))."""

    def e(x, y):
        return float(np.real(np.trace(rho @ np.kron(x, y))))

    return e(a, b) + e(a, bp) + e(ap, b) - e(ap, bp)
