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

import math

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


def _ray_stack(ps) -> np.ndarray | None:
    """The rays of a family as the rows of one matrix, or None unless every
    member is a ray."""
    if any(p.ray is None for p in ps):
        return None
    return np.array([p.ray for p in ps])


def _check_orthogonal(ps, tol: float) -> np.ndarray | None:
    """Reject a non-empty family unless its projectors share one dimension
    and are pairwise orthogonal within ``tol`` (positive) in max-norm; the
    message names the first failing pair in row-major order.

    For rays, P_i P_j = u_i <u_i|u_j> u_j^H has max-norm |<u_i|u_j>| max|u_i|
    max|u_j|, so one Gram matrix gives every pair; the rays are returned as
    the rows of one matrix.  A family with any other member is checked pair
    by pair and None is returned.
    """
    linalg.check_tol(tol)
    dim = ps[0].dim
    if any(p.dim != dim for p in ps):
        raise ValueError("projectors must share one dimension")
    u = _ray_stack(ps)
    if u is None:
        for i, pi in enumerate(ps):
            for j in range(i + 1, len(ps)):
                if linalg.max_abs(pi.matrix @ ps[j].matrix) > tol:
                    raise ValueError(f"projectors {i} and {j} are not orthogonal")
        return None
    peak = np.abs(u).max(axis=1)
    over = np.abs(u.conj() @ u.T) * np.outer(peak, peak) > tol
    bad = np.argwhere(np.triu(over, 1))
    if bad.size:
        raise ValueError(f"projectors {bad[0, 0]} and {bad[0, 1]} are not orthogonal")
    return u


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
        u = _check_orthogonal(ps, tol)
        total = sum(p.matrix for p in ps) if u is None else u.T @ u.conj()  # sum_i |u_i><u_i|
        if linalg.max_abs(total - np.eye(ps[0].dim)) > tol:
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
        for i, j in _equal_pairs(c1.projectors, c2.projectors, STRUCTURAL_TOL)
    )


def _equal_pairs(ps, qs, tol: float):
    """The pairs (i, j) with max|P_i - Q_j| <= ``tol``, in row-major order.

    Each candidate pair is decided by that exact max-norm, on the two
    members' matrices, which are formed for that pair and not kept.  Every
    pair is a candidate unless both families are rays.  Then, for P = u u^H
    and Q = w w^H, ||P - Q||_F^2 = |u|^4 + |w|^4 - 2 |<u|w>|^2, and
    max|P - Q| >= ||P - Q||_F / d, so one Gram matrix of the rays rules out
    every pair whose Frobenius distance exceeds d ``tol``.  The ``limit``
    below widens (d tol)^2 by the rounding of that Gram matrix (at most
    16 (d+2) u s^2, s the largest squared norm of a ray) and of the dense
    difference (4 u s per entry), so it rules out no pair the exact
    comparison would accept.
    """
    u, w = _ray_stack(ps), _ray_stack(qs)
    if u is None or w is None:
        candidates = np.ndindex(len(ps), len(qs))
    else:
        dim, roundoff = u.shape[1], linalg.UNIT_ROUNDOFF
        nu, nw = np.linalg.norm(u, axis=1) ** 2, np.linalg.norm(w, axis=1) ** 2
        frobenius_sq = nu[:, None] ** 2 + nw[None, :] ** 2 - 2 * np.abs(u.conj() @ w.T) ** 2
        s = max(nu.max(), nw.max())
        limit = (dim * (tol + 4 * roundoff * s)) ** 2 + 16 * (dim + 2) * roundoff * s * s
        candidates = np.argwhere(frobenius_sq <= limit)
    return [(i, j) for i, j in candidates if linalg.max_abs(ps[i].matrix - qs[j].matrix) <= tol]


#: The largest residual |Tr(rho P_i) - v_i| ``reconstruct_density`` accepts.
RESIDUAL_TOL = 1e-8

#: The largest register ``reconstruct_density`` accepts.  Its memory is the
#: samples' rows ``a`` (samples x 4**n) and their Gram matrix a^T a (4**n x
#: 4**n), plus the copies of it that numpy's Cholesky and LU routines make
#: while they factor it: 134 MB each at 6 qubits from 4**6 samples, 2.1 GB
#: each at 7.
MAX_RECONSTRUCT_QUBITS = 6

#: The shift mu of ``_certified_solve``'s Cholesky test, relative to
#: ||a^T a||_F: a family it certifies has cond(a) below sqrt(2e8), 1.4e4.
_GRAM_SHIFT = 1e-8


def _coordinate_rows(projectors, dim: int) -> np.ndarray:
    """One row per projector P over rho's d**2 real coordinates, so that the
    row times them is Tr(rho P): [Re diag(P), 2 Re P[upper], 2 Im P[upper]],
    read in stacks of 256 projectors, which are freed on return, before the
    Gram matrix is formed."""
    upper = np.triu_indices(dim, 1)
    a = np.empty((len(projectors), dim * dim))
    for i in range(0, len(projectors), 256):  # Tr(rho P) = sum_i rho_ii P_ii + 2 Re sum_i<j rho_ij conj(P_ij)
        stack = np.array([p.matrix for p in projectors[i : i + 256]])
        diag, off = np.diagonal(stack, axis1=1, axis2=2).real, stack[:, upper[0], upper[1]]
        a[i : i + 256] = np.hstack([diag, 2 * off.real, 2 * off.imag])
    return a


def _certified_solve(a: np.ndarray, v: np.ndarray, dim: int) -> np.ndarray | None:
    """The least-squares solution x of [a; t] x = [v; 1], t the unit-trace
    row (1 on the ``dim`` diagonal coordinates), or None where a Cholesky
    factorisation does not certify that ``a`` (N x n) has full column rank,
    or where intensities that are not finite or overflow give a solution
    that is not finite.

    The certificate.  G = a^T a is formed once; its rounding E1 has |E1| <=
    gamma_N |a|^T |a|, so ||E1||_2 <= gamma_N ||a||_F^2 = gamma_N tr(G).  If
    G - mu I (each diagonal entry rounded, within u (tr(G) + mu)) factorises
    as R^T R in floating point, R is exact for it plus E2 with |E2| <=
    gamma_{n+1} |R^T||R| (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., Thm 10.3), so ||E2||_2 <= gamma_{n+1} ||R||_F^2 <=
    gamma_{n+1} (tr(G) + n ||E2||_2).  With gamma = 4 (N + n + 2) u covering
    all three, the ``bound`` below holds their sum, and R^T R >= 0 gives
    s_min(a)^2 = lambda_min(a^T a) >= mu - bound > mu / 2.  With mu = 1e-8
    ||G||_F >= 1e-8 s_max(a)^2 that caps cond(a) at 1.4e4, and the second
    test below makes s_min(a) exceed ``np.linalg.matrix_rank``'s tolerance
    s_max max(N, n) eps (s_max^2 <= tr(G)) by a factor of 700, far above the
    SVD's own rounding: a certified family is never ranked below n there.

    The solve.  The normal equations (G + t t^T) x = a^T v + t, with t t^T
    the block of ones on the diagonal coordinates added to G in place, are
    solved once, then once more for the correction of one step of iterative
    refinement on the residual [v - a x; 1 - t.x].
    """
    rows, n = a.shape
    gram = a.T @ a
    trace, mu = float(np.trace(gram)), _GRAM_SHIFT * float(np.linalg.norm(gram))
    gamma = 4 * (rows + n + 2) * linalg.UNIT_ROUNDOFF
    bound = gamma * (trace + mu) / (1 - n * gamma)
    rank_tol = max(rows, n) * np.finfo(float).eps
    if not (bound < mu / 2 and 1e6 * trace * rank_tol**2 < mu):
        return None
    diagonal = gram.diagonal().copy()
    np.fill_diagonal(gram, diagonal - mu)
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return None
    np.fill_diagonal(gram, diagonal)
    gram[:dim, :dim] += 1.0
    t = np.zeros(n)
    t[:dim] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.linalg.solve(gram, a.T @ v + t)
        x += np.linalg.solve(gram, a.T @ (v - a @ x) + (1.0 - x[:dim].sum()) * t)
    return x if np.isfinite(x).all() else None


def reconstruct_density(samples, n_qubits: int) -> DensityOperator:
    """Recover the generating density operator from intensity samples.

    ``samples`` is a sequence of (Projector, finite intensity) pairs whose
    projector family must span the hermitian-matrix space (be
    informationally complete), on at most ``MAX_RECONSTRUCT_QUBITS``
    qubits.  Solves Tr(rho P_i) = v_i by least squares over rho's d**2 real
    coordinates (its diagonal, then the real and the imaginary parts of its
    entries above the diagonal) with a unit-trace row appended, then
    validates the result against the density-operator invariants.

    Where a Cholesky factorisation of the rows' Gram matrix certifies full
    rank with cond below 1.4e4 (``_certified_solve``), the normal equations
    give the solution, refined once.  Elsewhere (a rank-deficient or an
    ill-conditioned family) ``np.linalg.matrix_rank`` decides completeness
    and ``np.linalg.lstsq`` solves, both by SVD.
    """
    pairs = [(p, float(v)) for p, v in samples]
    if not pairs:
        raise ValueError("no intensity samples given")
    if any(p.n_qubits != n_qubits for p, _ in pairs):
        raise ValueError("sample projectors must act on the stated qubit count")
    if not all(math.isfinite(v) for _, v in pairs):
        raise ValueError("intensity samples must be finite")
    dim = 2**n_qubits
    rank = dim * dim
    incomplete = f"projector family is not informationally complete (needs rank {rank})"
    if len(pairs) < rank:  # too few to reach the rank: fail before any row is built
        raise ValueError(incomplete)
    if n_qubits > MAX_RECONSTRUCT_QUBITS:
        raise ValueError(f"reconstruction is limited to {MAX_RECONSTRUCT_QUBITS} qubits, got {n_qubits}")
    a = _coordinate_rows([p for p, _ in pairs], dim)
    v = np.array([value for _, value in pairs])
    x = _certified_solve(a, v, dim)
    if x is None:
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
    above[np.triu_indices(dim, 1)] = re + 1j * im
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
