"""Shared helpers for randomized tests.

Everything random is driven by an explicit ``numpy.random.default_rng`` seed
so failures reproduce exactly.
"""

import numpy as np

from bornlab import linalg
from bornlab.linalg import STRUCTURAL_TOL
from bornlab.states import DensityOperator, Projector, QuRegister

# Three-qubit demo circuit: double negation, double Hadamard, identity.
# Every wire composes to the identity, so the noiseless output is |000>.
THREE_QUBIT_DEMO = """\
qubits 3
gate not 0
gate not 0
gate h 1
gate h 1
gate id 2
measure all
"""


def random_unitary(dim, rng):
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_pure(n_qubits, rng=None):
    """Haar-ish random pure state (normalized complex Gaussian vector)."""
    rng = np.random.default_rng(rng)
    v = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return QuRegister(v / np.linalg.norm(v))


def random_density(n_qubits, rng=None, rank=None):
    """Ginibre-sampled mixed state; full rank unless ``rank`` is given."""
    rng = np.random.default_rng(rng)
    dim = 2**n_qubits
    r = dim if rank is None else rank
    if not 1 <= r <= dim:
        raise ValueError(f"rank must be in 1..{dim}")
    g = rng.normal(size=(dim, r)) + 1j * rng.normal(size=(dim, r))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real)


def mix(states):
    """Convex combination of density operators.

    ``states`` is a sequence of (weight, DensityOperator) pairs with
    non-negative weights summing to 1 within ``STRUCTURAL_TOL``.
    """
    pairs = list(states)
    if not pairs:
        raise ValueError("mix of an empty collection")
    total = sum(w for w, _ in pairs)
    if any(w < 0 for w, _ in pairs):
        raise ValueError("mixture weights must be non-negative")
    if abs(total - 1.0) > STRUCTURAL_TOL:
        raise ValueError(f"mixture weights must sum to 1, got {total!r}")
    n = pairs[0][1].n_qubits
    if any(rho.n_qubits != n for _, rho in pairs):
        raise ValueError("mixture components must share one qubit count")
    acc = np.zeros((2**n, 2**n), dtype=complex)
    for w, rho in pairs:
        acc += w * rho.matrix
    return DensityOperator(acc)


def random_complex_matrix(dim, rng):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def random_orthogonal_projectors(dim, rng, n_groups):
    """Pairwise-orthogonal projectors built from disjoint column groups of a
    random unitary; they need not resolve the identity."""
    u = random_unitary(dim, rng)
    cuts = sorted(rng.choice(np.arange(1, dim), size=n_groups - 1, replace=False)) if n_groups > 1 else []
    bounds = [0, *cuts, dim]
    projectors = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        block = u[:, lo:hi]
        projectors.append(Projector(block @ block.conj().T))
    return projectors


def random_kraus_family(n_qubits, rng, n_kraus=3):
    """Random trace-preserving Kraus family from a Haar isometry."""
    dim = 2**n_qubits
    g = rng.normal(size=(n_kraus * dim, dim)) + 1j * rng.normal(size=(n_kraus * dim, dim))
    q, _ = np.linalg.qr(g)
    return [q[i * dim : (i + 1) * dim, :] for i in range(n_kraus)]


def counting_is_psd(calls, is_psd=linalg.is_psd):
    """``linalg.is_psd`` that records the shape of each matrix it checks."""

    def counting(a, tol=linalg.STRUCTURAL_TOL):
        calls.append(a.shape)
        return is_psd(a, tol)

    return counting
