"""Intensive valuation of projectors and its consequences.

A density operator generates an additive [0, 1] valuation on the set of
projectors: the intensity of a projector P is Tr(rho P).  The valuation
assigns 1 to the identity, is additive over pairwise-orthogonal families,
and is non-contextual by construction: a projector's intensity does not
depend on which decomposition of the identity it is considered through,
so the valuation functions take the state itself.  Finite dimension makes
countable additivity coincide with the finite additivity checked here (no
orthogonal family has more than ``dim`` nonzero members).

The same machinery supports the inverse direction (reconstructing the
generating density operator from intensities over an informationally
complete projector family) and the CHSH correlation witness that separates
this probability model from any classical one.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .channels import PAULI_X, PAULI_Z
from .linalg import STRUCTURAL_TOL, as_matrix
from .states import (
    DensityOperator,
    Projector,
    QuRegister,
    basis_state,
    born_expectation,
    pure_to_density,
)


def intensity(rho: DensityOperator, p: Projector) -> float:
    """The potentia Tr(rho P) the state ``rho`` assigns to the projector P."""
    return born_expectation(rho, p)


def _check_orthogonal(ps, tol: float) -> None:
    """Reject a non-empty family unless its projectors share one dimension
    and are pairwise orthogonal within ``tol`` (positive) in max-norm."""
    linalg.check_tol(tol)
    dim = ps[0].dim
    if any(p.dim != dim for p in ps):
        raise ValueError("projectors must share one dimension")
    for i, pi in enumerate(ps):
        for j in range(i + 1, len(ps)):
            if linalg.max_abs(pi.matrix @ ps[j].matrix) > tol:
                raise ValueError(f"projectors {i} and {j} are not orthogonal")


def join_projectors(ps) -> Projector:
    """Projector onto the span of a pairwise-orthogonal family.

    For orthogonal projectors the join is simply the sum, which is itself a
    projector; inputs not orthogonal within ``STRUCTURAL_TOL`` are rejected.
    """
    ps = list(ps)
    if not ps:
        raise ValueError("join of an empty family")
    _check_orthogonal(ps, STRUCTURAL_TOL)
    dim = ps[0].dim
    total = np.zeros((dim, dim), dtype=complex)
    for p in ps:
        total += p.matrix
    return Projector(total)


def check_additivity(rho: DensityOperator, ps) -> bool:
    """True iff ``rho`` gives the join the sum of the intensities it gives
    the members, within ``STRUCTURAL_TOL``."""
    ps = list(ps)
    joined = join_projectors(ps)
    total = sum(intensity(rho, p) for p in ps)
    return abs(intensity(rho, joined) - total) <= STRUCTURAL_TOL


class Context:
    """A projective decomposition of the identity: one realizable measurement."""

    def __init__(self, projectors, tol: float = STRUCTURAL_TOL):
        ps = tuple(projectors)
        if not ps:
            raise ValueError("a context needs at least one projector")
        _check_orthogonal(ps, tol)
        dim = ps[0].dim
        total = sum(p.matrix for p in ps)
        if linalg.max_abs(total - np.eye(dim)) > tol:
            raise ValueError("context projectors do not sum to the identity")
        self.projectors = ps
        self.n_qubits = ps[0].n_qubits

    def __len__(self) -> int:
        return len(self.projectors)


def global_valuation(rho: DensityOperator, contexts) -> dict[tuple[int, int], float]:
    """The intensity ``rho`` gives each projector of several contexts.

    Returns {(context index, projector index): intensity}; within each
    context the row sums to 1 because the projectors resolve the identity.
    """
    contexts = list(contexts)
    if any(c.n_qubits != rho.n_qubits for c in contexts):
        raise ValueError("contexts must act on the valuation's qubit count")
    table: dict[tuple[int, int], float] = {}
    for ci, context in enumerate(contexts):
        for pi, p in enumerate(context.projectors):
            table[(ci, pi)] = intensity(rho, p)
    return table


def check_noncontextuality(rho: DensityOperator, c1: Context, c2: Context) -> bool:
    """True iff ``global_valuation`` gives projectors shared by both contexts
    (equal within ``STRUCTURAL_TOL`` in max-norm) intensities equal within it
    too; contexts with no shared projector pass vacuously."""
    table = global_valuation(rho, (c1, c2))
    return all(
        abs(table[(0, i)] - table[(1, j)]) <= STRUCTURAL_TOL
        for i, p in enumerate(c1.projectors)
        for j, q in enumerate(c2.projectors)
        if linalg.max_abs(p.matrix - q.matrix) <= STRUCTURAL_TOL
    )


#: The largest residual |Tr(rho P_i) - v_i| ``reconstruct_density`` accepts.
RESIDUAL_TOL = 1e-8

#: The largest register ``reconstruct_density`` accepts.  Its 4**n x 4**n
#: system takes 134 MB at 6 qubits and 2.1 GB at 7.
MAX_RECONSTRUCT_QUBITS = 6


def reconstruct_density(samples, n_qubits: int) -> DensityOperator:
    """Recover the generating density operator from intensity samples.

    ``samples`` is a sequence of (Projector, intensity) pairs whose projector
    family must span the hermitian-matrix space (be informationally
    complete), on at most ``MAX_RECONSTRUCT_QUBITS`` qubits.  Solves
    Tr(rho P_i) = v_i by least squares over rho's d**2 real coordinates (its
    diagonal, then the real and the imaginary parts of its entries above the
    diagonal) with a unit-trace row appended, then validates the result
    against the density-operator invariants.
    """
    pairs = [(p, float(v)) for p, v in samples]
    if not pairs:
        raise ValueError("no intensity samples given")
    if any(p.n_qubits != n_qubits for p, _ in pairs):
        raise ValueError("sample projectors must act on the stated qubit count")
    dim = 2**n_qubits
    rank = dim * dim
    incomplete = f"projector family is not informationally complete (needs rank {rank})"
    if len(pairs) < rank:  # too few to reach the rank: fail before any row is built
        raise ValueError(incomplete)
    if n_qubits > MAX_RECONSTRUCT_QUBITS:
        raise ValueError(f"reconstruction is limited to {MAX_RECONSTRUCT_QUBITS} qubits, got {n_qubits}")
    upper = np.triu_indices(dim, 1)
    a = np.empty((len(pairs), rank))
    for i in range(0, len(pairs), 256):  # Tr(rho P) = sum_i rho_ii P_ii + 2 Re sum_i<j rho_ij conj(P_ij)
        stack = np.array([p.matrix for p, _ in pairs[i : i + 256]])
        diag, off = np.diagonal(stack, axis1=1, axis2=2).real, stack[:, upper[0], upper[1]]
        a[i : i + 256] = np.hstack([diag, 2 * off.real, 2 * off.imag])
    v = np.array([value for _, value in pairs])
    if np.linalg.matrix_rank(a) < rank:
        raise ValueError(incomplete)
    trace_row = np.zeros(rank)
    trace_row[:dim] = 1.0
    x, *_ = np.linalg.lstsq(np.vstack([a, trace_row]), np.append(v, 1.0), rcond=None)
    residual = float(np.max(np.abs(a @ x - v)))
    if residual > RESIDUAL_TOL:
        raise ValueError(f"intensity samples are inconsistent (residual {residual:.3g})")
    above = np.zeros((dim, dim), dtype=complex)
    re, im = np.split(x[dim:], 2)
    above[upper] = re + 1j * im
    return DensityOperator(np.diag(x[:dim]) + above + above.conj().T)


def _validate_dichotomic(obs, tol: float) -> np.ndarray:
    m = as_matrix(obs)
    if m.shape[0] != 2:
        raise ValueError("CHSH observables must be single-qubit (2x2)")
    if not linalg.is_hermitian(m, tol):
        raise ValueError("CHSH observables must be hermitian")
    eigs = np.linalg.eigvalsh(m)
    if float(np.max(np.abs(np.abs(eigs) - 1.0))) > tol:
        raise ValueError(f"observable eigenvalues {[float(e) for e in eigs]} are not in {{-1, +1}}")
    return m


def chsh_value(
    rho: DensityOperator,
    a,
    a_prime,
    b,
    b_prime,
    tol: float = STRUCTURAL_TOL,
) -> float:
    """The CHSH combination S = E(a,b) + E(a,b') + E(a',b) - E(a',b').

    E(x, y) = Re Tr(rho (x (x) y)) for +-1-valued single-qubit observables.
    Separable two-qubit states satisfy |S| <= 2; entangled states reach
    2*sqrt(2).
    """
    if rho.n_qubits != 2:
        raise ValueError("CHSH needs a two-qubit state")
    a_m, ap_m, b_m, bp_m = (
        _validate_dichotomic(o, tol) for o in (a, a_prime, b, b_prime)
    )

    def corr(x: np.ndarray, y: np.ndarray) -> float:
        return float(np.real(np.trace(rho.matrix @ np.kron(x, y))))

    return corr(a_m, b_m) + corr(a_m, bp_m) + corr(ap_m, b_m) - corr(ap_m, bp_m)


def singlet_state() -> DensityOperator:
    """The two-qubit singlet (|01> - |10>) / sqrt(2) as a density operator."""
    v = np.zeros(4, dtype=complex)
    v[1] = 1.0 / np.sqrt(2.0)
    v[2] = -1.0 / np.sqrt(2.0)
    return pure_to_density(QuRegister(v))


#: The CHSH presets by name, each to its state: the singlet, where the
#: settings of ``chsh_preset`` attain the quantum maximum S = 2*sqrt(2), and
#: the separable |00><00|, which cannot exceed |S| = 2.
CHSH_PRESETS = {
    "singlet-optimal": singlet_state(),
    "product": pure_to_density(basis_state(2, 0)),
}


def chsh_preset(name: str):
    """The (state, a, a', b, b') bundle of a preset of ``CHSH_PRESETS``: its
    state, and the same four settings for every preset."""
    try:
        rho = CHSH_PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown CHSH preset {name!r}") from None
    s2 = np.sqrt(2.0)
    a = np.asarray(PAULI_Z)
    a_prime = np.asarray(PAULI_X)
    b = -(np.asarray(PAULI_Z) + np.asarray(PAULI_X)) / s2
    b_prime = (np.asarray(PAULI_X) - np.asarray(PAULI_Z)) / s2
    return rho, a, a_prime, b, b_prime
