"""Shared helpers for randomized tests.

Everything random is driven by an explicit ``numpy.random.default_rng`` seed
so failures reproduce exactly.
"""

import numpy as np

from bornlab import linalg
from bornlab.states import Projector

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
