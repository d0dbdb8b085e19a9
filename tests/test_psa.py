"""Intensive valuation: additivity, contexts, reconstruction, and CHSH."""

import tracemalloc
from functools import cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornlab import linalg, psa
from bornlab.linalg import STRUCTURAL_TOL
from bornlab.psa import (
    Context,
    _check_orthogonal,
    _coordinate_rows,
    chsh_preset,
    chsh_value,
    check_additivity,
    check_noncontextuality,
    global_valuation,
    intensity,
    join_projectors,
    reconstruct_density,
    singlet_state,
)
from bornlab.states import (
    DensityOperator,
    Projector,
    QuRegister,
    basis_state,
    projector_onto,
    pure_to_density,
    qubit,
)

from conftest import (
    holds_no_matrix,
    mix,
    random_density,
    random_orthogonal_projectors,
    random_pure,
    random_unitary,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def one_qubit_ic_family():
    """Informationally complete single-qubit family: Z, X, and Y eigenstates."""
    return [
        projector_onto(basis_state(1, 0)),
        projector_onto(basis_state(1, 1)),
        projector_onto(qubit(INV_SQRT2, INV_SQRT2)),
        projector_onto(qubit(INV_SQRT2, 1j * INV_SQRT2)),
    ]


def product_ic_family(n_qubits):
    """The 4**n tensor products of ``one_qubit_ic_family``'s projectors, one
    per qubit: informationally complete."""
    family = [np.ones((1, 1), dtype=complex)]
    for _ in range(n_qubits):
        family = [np.kron(f, p.matrix) for f in family for p in one_qubit_ic_family()]
    return [Projector(f) for f in family]


class TestIntensity:
    def test_identity_has_intensity_one(self):
        rho = random_density(2, rng=3)
        assert intensity(rho, Projector(np.eye(4))) == 1.0

    def test_zero_projector_has_intensity_zero(self):
        rho = random_density(1, rng=5)
        assert intensity(rho, Projector(np.zeros((2, 2)))) == 0.0

    def test_plus_state_against_ket0(self):
        rho = pure_to_density(qubit(INV_SQRT2, INV_SQRT2))
        assert abs(intensity(rho, projector_onto(basis_state(1, 0))) - 0.5) <= 1e-12

    def test_monotone_under_projector_order(self):
        # P <= Q (QP = P) implies intensity(P) <= intensity(Q)
        rng = np.random.default_rng(7)
        p_small, p_rest = random_orthogonal_projectors(8, rng, 2)
        q = join_projectors([p_small, p_rest])  # = identity here
        rho = random_density(3, rng=rng)
        assert intensity(rho, p_small) <= intensity(rho, q) + 1e-10
        # and against a strictly larger non-trivial subspace
        parts = random_orthogonal_projectors(8, rng, 3)
        bigger = join_projectors(parts[:2])
        assert intensity(rho, parts[0]) <= intensity(rho, bigger) + 1e-10


class TestJoinProjectors:
    def test_resolution_of_identity(self):
        joined = join_projectors(
            [projector_onto(basis_state(1, 0)), projector_onto(basis_state(1, 1))]
        )
        np.testing.assert_allclose(joined.matrix, np.eye(2), atol=1e-12)

    def test_singleton(self):
        p = projector_onto(random_pure(2, rng=11))
        np.testing.assert_array_equal(join_projectors([p]).matrix, p.matrix)

    def test_random_orthogonal_families_join_to_projectors(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            parts = random_orthogonal_projectors(8, rng, int(rng.integers(2, 5)))
            assert linalg.is_projector(join_projectors(parts).matrix)

    def test_rejects_non_orthogonal(self):
        p = projector_onto(basis_state(1, 0))
        q = projector_onto(qubit(INV_SQRT2, INV_SQRT2))
        with pytest.raises(ValueError, match="not orthogonal"):
            join_projectors([p, q])


class TestAdditivity:
    def test_holds_on_contexts(self):
        rng = np.random.default_rng(17)
        rho = random_density(2, rng=rng)
        parts = random_orthogonal_projectors(4, rng, 4)
        assert check_additivity(rho, parts)

    def test_two_element_family_in_dim_four(self):
        rng = np.random.default_rng(19)
        rho = random_density(2, rng=rng)
        parts = random_orthogonal_projectors(4, rng, 2)
        assert check_additivity(rho, parts)

    def test_non_orthogonal_family_is_a_contract_error(self):
        rho = random_density(1, rng=23)
        p = projector_onto(basis_state(1, 0))
        q = projector_onto(qubit(INV_SQRT2, INV_SQRT2))
        with pytest.raises(ValueError, match="not orthogonal"):
            check_additivity(rho, [p, q])


class TestContextsAndValuation:
    def test_computational_context_on_ket0(self):
        rho = pure_to_density(basis_state(1, 0))
        ctx = Context([projector_onto(basis_state(1, 0)), projector_onto(basis_state(1, 1))])
        table = global_valuation(rho, [ctx])
        assert table[(0, 0)] == 1.0
        assert table[(0, 1)] == 0.0

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(29)
        rho = random_density(3, rng=rng)
        contexts = []
        for _ in range(4):
            parts = random_orthogonal_projectors(8, rng, int(rng.integers(2, 6)))
            contexts.append(Context(parts))
        table = global_valuation(rho, contexts)
        for ci, ctx in enumerate(contexts):
            row = sum(table[(ci, pi)] for pi in range(len(ctx)))
            assert abs(row - 1.0) <= 1e-10

    def test_shared_projector_gets_one_value(self):
        rng = np.random.default_rng(31)
        u = random_unitary(4, rng)
        shared = Projector(u[:, :2] @ u[:, :2].conj().T)
        rest = u[:, 2:]
        c1 = Context([shared, Projector(rest @ rest.conj().T)])
        w = random_unitary(2, rng)
        mixed = rest @ w
        c2 = Context(
            [shared]
            + [Projector(np.outer(mixed[:, i], mixed[:, i].conj())) for i in range(2)]
        )
        rho = random_density(2, rng=rng)
        table = global_valuation(rho, [c1, c2])
        assert abs(table[(0, 0)] - table[(1, 0)]) <= 1e-12
        assert check_noncontextuality(rho, c1, c2)

    def test_maximally_mixed_state_weights_rank_one_projectors_evenly(self):
        rho = DensityOperator(np.eye(2) / 2)
        rng = np.random.default_rng(37)
        for _ in range(5):
            u = random_unitary(2, rng)
            ctx = Context([Projector(np.outer(u[:, i], u[:, i].conj())) for i in range(2)])
            for p in ctx.projectors:
                assert abs(intensity(rho, p) - 0.5) <= 1e-12

    def test_shared_block_projector_in_dim_four(self):
        # contexts sharing |0><0| (x) I, completed by two different bases of
        # the complementary block
        rng = np.random.default_rng(131)
        ket0_block = Projector(np.kron(np.diag([1, 0.0]), np.eye(2)))
        comp = [
            Projector(np.kron(np.diag([0, 1.0]), p.matrix))
            for p in (projector_onto(basis_state(1, 0)), projector_onto(basis_state(1, 1)))
        ]
        alt = [
            Projector(np.kron(np.diag([0, 1.0]), p.matrix))
            for p in (
                projector_onto(qubit(INV_SQRT2, INV_SQRT2)),
                projector_onto(qubit(INV_SQRT2, -INV_SQRT2)),
            )
        ]
        c1 = Context([ket0_block, *comp])
        c2 = Context([ket0_block, *alt])
        for _ in range(10):
            rho = random_density(2, rng=rng)
            assert check_noncontextuality(rho, c1, c2)
            shared = [
                (p, q)
                for p in c1.projectors
                for q in c2.projectors
                if linalg.max_abs(p.matrix - q.matrix) <= 1e-12
            ]
            assert len(shared) == 1
            assert all(abs(intensity(rho, p) - intensity(rho, q)) <= 1e-12 for p, q in shared)

    def test_identical_and_disjoint_contexts(self):
        rng = np.random.default_rng(41)
        rho = random_density(2, rng=rng)
        c1 = Context(random_orthogonal_projectors(4, rng, 2))
        assert check_noncontextuality(rho, c1, c1)
        c2 = Context(random_orthogonal_projectors(4, rng, 3))
        # almost surely no shared projector: vacuously non-contextual
        assert check_noncontextuality(rho, c1, c2)

    def test_contexts_on_another_qubit_count_than_the_state_are_rejected(self):
        rho = random_density(2, rng=43)
        one = Context([projector_onto(basis_state(1, 0)), projector_onto(basis_state(1, 1))])
        two = Context([Projector(np.eye(4))])
        message = "^contexts must act on the valuation's qubit count$"
        with pytest.raises(ValueError, match=message):
            global_valuation(rho, [two, one])
        with pytest.raises(ValueError, match=message):
            check_noncontextuality(rho, two, one)
        with pytest.raises(ValueError, match=message):
            check_noncontextuality(rho, one, one)

    def test_context_must_resolve_the_identity(self):
        with pytest.raises(ValueError, match="identity"):
            Context([projector_onto(basis_state(1, 0))])

    def test_context_must_be_orthogonal(self):
        with pytest.raises(ValueError, match="orthogonal"):
            Context(
                [projector_onto(basis_state(1, 0)), projector_onto(qubit(INV_SQRT2, INV_SQRT2))]
            )


def pauli_reconstruction(samples, n_qubits):
    """Reference solve: Tr(rho P_i) = v_i by least squares over the 4**n
    Pauli strings, with the unit-trace row appended; rho as a plain matrix."""
    singles, basis = np.array([np.eye(2), *PAULIS]), np.ones((1, 1, 1))
    for _ in range(n_qubits):
        d = 2 * basis.shape[1]
        basis = np.einsum("aij,bkl->abikjl", basis, singles).reshape(4 * len(basis), d, d)
    rows = np.real(np.einsum("sij,bji->sb", np.array([p.matrix for p, _ in samples]), basis))
    trace_row = np.real(np.trace(basis, axis1=1, axis2=2))
    v = np.append([value for _, value in samples], 1.0)
    x, *_ = np.linalg.lstsq(np.vstack([rows, trace_row]), v, rcond=None)
    return np.tensordot(x, basis, axes=1)


def svd_reconstruction(samples, n_qubits):
    """The SVD algorithm, for families it alone serves: rows over rho's d**2
    real coordinates, ``matrix_rank``'s verdict, then ``lstsq`` with the
    unit-trace row appended; rho as a plain matrix."""
    dim = 2**n_qubits
    upper = np.triu_indices(dim, 1)
    stack = np.array([p.matrix for p, _ in samples])
    off = stack[:, upper[0], upper[1]]
    a = np.hstack([np.diagonal(stack, axis1=1, axis2=2).real, 2 * off.real, 2 * off.imag])
    assert np.linalg.matrix_rank(a) == dim * dim
    trace_row = np.zeros(dim * dim)
    trace_row[:dim] = 1.0
    v = np.array([value for _, value in samples])
    x, *_ = np.linalg.lstsq(np.vstack([a, trace_row]), np.append(v, 1.0), rcond=None)
    above = np.zeros((dim, dim), dtype=complex)
    re, im = np.split(x[dim:], 2)
    above[upper] = re + 1j * im
    return np.diag(x[:dim]) + above + above.conj().T, np.linalg.cond(a)


class TestReconstruction:
    def test_a_well_conditioned_family_needs_no_svd(self, monkeypatch):
        rho = random_density(4, rng=61)
        samples = [(p, intensity(rho, p)) for p in product_ic_family(4)]

        def no_svd(*args, **kwargs):
            raise AssertionError("an SVD ran")

        for name in ("svd", "matrix_rank", "lstsq"):
            monkeypatch.setattr(np.linalg, name, no_svd)
        recovered = reconstruct_density(samples, 4)
        assert linalg.max_abs(recovered.matrix - rho.matrix) <= 1e-12

    @pytest.mark.parametrize("nudge", [1e-6, 1e-7])
    def test_an_ill_conditioned_family_gets_the_svd_result_bit_for_bit(self, monkeypatch, nudge):
        # {|0>, |1>, |+>, |+> nudged toward |+i>}: informationally complete,
        # with cond(a) about 2.6 / nudge
        psi = qubit(INV_SQRT2, INV_SQRT2 * np.exp(1j * nudge))
        family = [*one_qubit_ic_family()[:3], projector_onto(psi)]
        rho = DensityOperator([[0.6, 0.1 - 0.2j], [0.1 + 0.2j, 0.4]])
        samples = [(p, intensity(rho, p)) for p in family]
        want, cond = svd_reconstruction(samples, 1)
        assert 1e6 < cond < 1e8
        calls, lstsq = [], np.linalg.lstsq

        def counted_lstsq(*args, **kwargs):
            calls.append(args)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
        assert np.array_equal(reconstruct_density(samples, 1).matrix, want)
        assert len(calls) == 1

    def test_an_uncertified_shift_falls_back_to_the_svd(self, monkeypatch):
        # With no Gram shift the certificate's bound can never hold, so every
        # family takes the SVD route, which must agree with the certified one.
        rho = random_density(2, rng=71)
        samples = [(p, intensity(rho, p)) for p in product_ic_family(2)]
        certified = reconstruct_density(samples, 2)
        calls, lstsq = [], np.linalg.lstsq

        def counted_lstsq(*args, **kwargs):
            calls.append(args)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(psa, "_GRAM_SHIFT", 0.0)
        monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
        assert linalg.max_abs(reconstruct_density(samples, 2).matrix - certified.matrix) <= 1e-10
        assert len(calls) == 1
        # {|0>, |1>, |+>, |+>}: four samples, but rank 3.
        family = [*one_qubit_ic_family()[:3], one_qubit_ic_family()[2]]
        qubit_rho = random_density(1, rng=73)
        deficient = [(p, intensity(qubit_rho, p)) for p in family]
        with pytest.raises(ValueError, match=r"^projector family is not informationally complete \(needs rank 4\)$"):
            reconstruct_density(deficient, 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_the_pauli_basis_solve_on_entangled_families(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(5):
            rho = random_density(n, rng=rng)
            family = [projector_onto(random_pure(n, rng)) for _ in range(4**n + 2)]
            samples = [(p, intensity(rho, p)) for p in family]
            want = pauli_reconstruction(samples, n)
            assert linalg.max_abs(reconstruct_density(samples, n).matrix - want) <= 1e-12

    def test_five_qubits_build_no_pauli_basis(self):
        # The 4**5 Pauli strings of 32 x 32 complex entries alone take 16 MiB.
        rho = random_density(5, rng=59)
        samples = [(p, intensity(rho, p)) for p in product_ic_family(5)]
        tracemalloc.start()
        try:
            recovered = reconstruct_density(samples, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert linalg.max_abs(recovered.matrix - rho.matrix) <= 1e-8
        assert peak < 30 * 2**20

    def test_ray_samples_keep_no_matrix_once_reconstructed(self):
        # 4**5 + 8 matrices of 32 x 32 complex entries, kept on the samples'
        # projectors, would stay allocated after the call: over 16 MiB.
        rng = np.random.default_rng(67)
        rho = random_density(5, rng=rng)
        family = [projector_onto(random_pure(5, rng)) for _ in range(4**5 + 8)]
        samples = [(p, intensity(rho, p)) for p in family]
        tracemalloc.start()
        try:
            recovered = reconstruct_density(samples, 5)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert linalg.max_abs(recovered.matrix - rho.matrix) <= 1e-8
        assert retained < 2**20
        assert all(holds_no_matrix(p) for p in family)

    def test_round_trip_one_qubit(self):
        rng = np.random.default_rng(43)
        rho = random_density(1, rng=rng)
        samples = [(p, intensity(rho, p)) for p in one_qubit_ic_family()]
        recovered = reconstruct_density(samples, 1)
        assert linalg.max_abs(recovered.matrix - rho.matrix) <= 1e-8

    def test_round_trip_two_qubits(self):
        rng = np.random.default_rng(47)
        rho = random_density(2, rng=rng)
        samples = [(p, intensity(rho, p)) for p in product_ic_family(2)]
        recovered = reconstruct_density(samples, 2)
        assert linalg.max_abs(recovered.matrix - rho.matrix) <= 1e-8

    def test_maximally_mixed_fixed_point(self):
        rho = DensityOperator(np.eye(2) / 2)
        samples = [(p, intensity(rho, p)) for p in one_qubit_ic_family()]
        recovered = reconstruct_density(samples, 1)
        np.testing.assert_allclose(recovered.matrix, np.eye(2) / 2, atol=1e-10)

    def test_rank_deficient_family_is_rejected(self):
        rho = random_density(1, rng=53)
        family = [
            projector_onto(basis_state(1, 0)),
            projector_onto(basis_state(1, 1)),
            Projector(np.eye(2)),
        ]
        samples = [(p, intensity(rho, p)) for p in family]
        with pytest.raises(ValueError, match="informationally complete"):
            reconstruct_density(samples, 1)

    def test_inconsistent_intensities_are_rejected(self):
        samples = list(zip(one_qubit_ic_family(), [0.9, 0.4, 0.5, 0.5]))
        with pytest.raises(ValueError, match="inconsistent"):
            reconstruct_density(samples, 1)

    def test_non_psd_solution_is_rejected(self):
        # intensities generated from a hermitian unit-trace matrix with a
        # negative eigenvalue: consistent linear system, invalid state
        fake = np.diag([1.5, -0.5])
        samples = [
            (p, float(np.real(np.trace(fake @ p.matrix)))) for p in one_qubit_ic_family()
        ]
        with pytest.raises(ValueError, match="positive semidefinite"):
            reconstruct_density(samples, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_intensities_are_rejected_before_any_solve(self, monkeypatch, bad):
        calls, lstsq = [], np.linalg.lstsq

        def counted_lstsq(*args, **kwargs):
            calls.append(args)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
        samples = list(zip(one_qubit_ic_family(), [1.0, 0.0, bad, 0.5]))
        with pytest.raises(ValueError) as exc:
            reconstruct_density(samples, 1)
        assert str(exc.value) == "intensity samples must be finite"
        assert calls == []


def hstack_rows(projectors, dim):
    """Oracle: the coordinate rows as three parts stacked side by side,
    [Re diag(P), 2 Re P[upper], 2 Im P[upper]], 256 projectors at a time."""
    upper = np.triu_indices(dim, 1)
    a = np.empty((len(projectors), dim * dim))
    for i in range(0, len(projectors), 256):
        stack = np.array([p.matrix for p in projectors[i : i + 256]])
        diag, off = np.diagonal(stack, axis1=1, axis2=2).real, stack[:, upper[0], upper[1]]
        a[i : i + 256] = np.hstack([diag, 2 * off.real, 2 * off.imag])
    return a


class TestCoordinateRows:
    @pytest.mark.parametrize("kind", ["ray", "dense", "both"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_the_rows_are_the_stacked_parts_bit_for_bit(self, n, kind):
        # 300 projectors: a full stack of 256 and a part of one.  Basis rays
        # and their sign-flipped copies put signed zeros in every part.
        rng = np.random.default_rng(40 + n)
        dim = 2**n
        rays = [random_pure(n, rng).amplitudes for _ in range(300 - 2 * dim)]
        rays += [sign * np.eye(dim)[k] for sign in (1, -1) for k in range(dim)]
        dense = kind == "dense" or (kind == "both" and np.arange(300) % 3 == 0)
        projectors = [
            Projector(np.outer(u, u.conj())) if is_dense else projector_onto(u)
            for u, is_dense in zip(rays, np.broadcast_to(dense, 300))
        ]
        got, want = _coordinate_rows(projectors, dim), hstack_rows(projectors, dim)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def _settings():
    """The four observables of a CHSH preset."""
    return chsh_preset("singlet-optimal")[1:]


# Each rejection of the valuation, reconstruction and CHSH functions, with
# its exact message.
REJECTIONS = {
    "empty join": (lambda: join_projectors([]), "join of an empty family"),
    "empty context": (lambda: Context([]), "a context needs at least one projector"),
    "mixed dimensions": (
        lambda: Context([Projector(np.eye(2)), Projector(np.eye(4))]),
        "projectors must share one dimension",
    ),
    "4 x 4 observable": (
        lambda: chsh_value(singlet_state(), np.eye(4), *_settings()[1:]),
        "CHSH observables must be single-qubit (2x2)",
    ),
    "non-hermitian observable": (
        lambda: chsh_value(singlet_state(), [[1, 1], [0, -1]], *_settings()[1:]),
        "CHSH observables must be hermitian",
    ),
    "unknown preset": (lambda: chsh_preset("nope"), "unknown CHSH preset 'nope'"),
    "no samples": (lambda: reconstruct_density([], 1), "no intensity samples given"),
    "wrong qubit count": (
        lambda: reconstruct_density([(p, 0.5) for p in one_qubit_ic_family()], 2),
        "sample projectors must act on the stated qubit count",
    ),
    # {|0>, |1>} twice: enough samples to reach the rank, so the SVD decides.
    "rank on the SVD path": (
        lambda: reconstruct_density([(projector_onto(basis_state(1, i % 2)), 1.0 - i % 2) for i in range(4)], 1),
        "projector family is not informationally complete (needs rank 4)",
    ),
}


@pytest.mark.parametrize("make, message", REJECTIONS.values(), ids=REJECTIONS)
def test_every_rejection_reads_exactly(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


def brute_force_chsh(psi, a, ap, b, bp):
    """Oracle: S from per-setting outcome probabilities |<a_i (x) b_j|psi>|^2,
    never touching the trace formula under test."""

    def correlation(x, y):
        xe, xv = np.linalg.eigh(x)
        ye, yv = np.linalg.eigh(y)
        total = 0.0
        for i in range(2):
            for j in range(2):
                joint = np.kron(xv[:, i], yv[:, j])
                total += xe[i] * ye[j] * abs(np.vdot(joint, psi)) ** 2
        return total

    return (
        correlation(a, b) + correlation(a, bp) + correlation(ap, b) - correlation(ap, bp)
    )


class TestChsh:
    def test_singlet_optimal_reaches_two_sqrt_two(self):
        rho, a, ap, b, bp = chsh_preset("singlet-optimal")
        s = chsh_value(rho, a, ap, b, bp)
        assert abs(s - 2.0 * np.sqrt(2.0)) <= 1e-9
        psi = np.array([0, 1, -1, 0]) / np.sqrt(2)
        assert abs(brute_force_chsh(psi, a, ap, b, bp) - s) <= 1e-9

    def test_product_states_stay_classical(self):
        rng = np.random.default_rng(59)
        _, a, ap, b, bp = chsh_preset("singlet-optimal")
        for _ in range(20):
            left = random_density(1, rng=rng)
            right = random_density(1, rng=rng)
            rho = DensityOperator(np.kron(left.matrix, right.matrix))
            assert abs(chsh_value(rho, a, ap, b, bp)) <= 2.0 + 1e-10

    def test_product_preset(self):
        rho, a, ap, b, bp = chsh_preset("product")
        assert abs(chsh_value(rho, a, ap, b, bp)) <= 2.0 + 1e-10

    def test_repeated_setting_cancels(self):
        rng = np.random.default_rng(61)
        _, a, ap, b, _ = chsh_preset("singlet-optimal")
        rho = random_density(2, rng=rng)
        s = chsh_value(rho, a, ap, b, b)
        e_ab = float(np.real(np.trace(rho.matrix @ np.kron(a, b))))
        assert abs(s - 2.0 * e_ab) <= 1e-12
        assert abs(s) <= 2.0 + 1e-10

    def test_rejects_bad_spectrum(self):
        rho = singlet_state()
        bad = np.diag([0.5, -1.0])
        _, a, ap, b, _ = chsh_preset("singlet-optimal")
        with pytest.raises(ValueError, match="eigenvalues"):
            chsh_value(rho, a, ap, b, bad)

    def test_rejects_non_two_qubit_states(self):
        _, a, ap, b, bp = chsh_preset("singlet-optimal")
        with pytest.raises(ValueError, match="two-qubit"):
            chsh_value(random_density(1, rng=3), a, ap, b, bp)


PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_vectors = st.tuples(*3 * [st.floats(-1.0, 1.0)]).map(np.array)
_directions = _vectors.filter(lambda v: np.linalg.norm(v) >= 1e-3).map(lambda v: v / np.linalg.norm(v))


def _spin(n):
    """The dichotomic observable n.sigma of a unit vector ``n``."""
    return np.tensordot(n, PAULIS, axes=1)


def _bloch_state(r):
    """The qubit state (I + r.sigma)/2, ``r`` pulled into the unit ball."""
    return (np.eye(2) + np.tensordot(r / max(1.0, np.linalg.norm(r)), PAULIS, axes=1)) / 2


@st.composite
def chsh_settings(draw, separable: bool):
    """Observables a, a', b, b' along random directions, and a state: a random
    two-qubit density matrix, or a mixture of 1-3 product states.  A product's
    Bloch vectors are often +-a or +-a' and +-b or +-b', where |S| reaches 2."""
    a, ap, b, bp = (draw(_directions) for _ in range(4))
    observables = [_spin(n) for n in (a, ap, b, bp)]
    if not separable:
        rank = draw(st.integers(1, 4))
        return random_density(2, rng=draw(st.integers(0, 2**32 - 1)), rank=rank), observables

    def bloch(x, y):
        pick = draw(st.integers(0, 4))
        return (x, -x, y, -y)[pick] if pick < 4 else draw(_vectors)

    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=3)))
    products = [np.kron(_bloch_state(bloch(a, ap)), _bloch_state(bloch(b, bp))) for _ in weights]
    return DensityOperator(sum(w * m for w, m in zip(weights / weights.sum(), products))), observables


class TestChshProperties:
    @settings(max_examples=300, deadline=None)
    @given(chsh_settings(separable=True))
    def test_separable_states_stay_within_two(self, setting):
        rho, observables = setting
        assert abs(chsh_value(rho, *observables)) <= 2.0 + 1e-9

    @settings(max_examples=200, deadline=None)
    @given(chsh_settings(separable=False))
    def test_every_state_stays_within_tsirelson_bound(self, setting):
        # B. S. Cirel'son, Lett. Math. Phys. 4, 93 (1980).
        rho, observables = setting
        assert abs(chsh_value(rho, *observables)) <= 2.0 * np.sqrt(2.0) + 1e-9


class TestPsaAxioms:
    def test_identity_and_zero(self):
        rng = np.random.default_rng(67)
        for n in (1, 2, 3):
            rho = random_density(n, rng=rng)
            dim = 2**n
            assert abs(intensity(rho, Projector(np.eye(dim))) - 1.0) <= 1e-10
            assert intensity(rho, Projector(np.zeros((dim, dim)))) <= 1e-10

    def test_additivity_on_random_families(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            dim = 2**n
            rho = random_density(n, rng=rng)
            n_groups = int(rng.integers(2, min(dim, 4) + 1))
            parts = random_orthogonal_projectors(dim, rng, n_groups)
            assert check_additivity(rho, parts)

    def test_mixture_valuations_interpolate(self):
        rng = np.random.default_rng(73)
        r1, r2 = random_density(1, rng=rng), random_density(1, rng=rng)
        p = projector_onto(random_pure(1, rng))
        blend = mix([(0.3, r1), (0.7, r2)])
        expected = 0.3 * intensity(r1, p) + 0.7 * intensity(r2, p)
        assert abs(intensity(blend, p) - expected) <= 1e-12


@st.composite
def orthogonal_families(draw, complete: bool):
    """A random state on 1-4 qubits and the column groups of a random unitary:
    its columns cut into 1 to dim consecutive groups, all of them when
    ``complete``, else a random non-empty selection of them.  The projectors
    onto the groups are a pairwise-orthogonal family."""
    n = draw(st.integers(1, 4))
    dim = 2**n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = random_unitary(dim, rng)
    cuts = draw(st.lists(st.integers(1, dim - 1), unique=True, max_size=dim - 1)) if dim > 1 else []
    bounds = [0, *sorted(cuts), dim]
    groups = [u[:, lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    if not complete:
        keep = draw(st.lists(st.booleans(), min_size=len(groups), max_size=len(groups)))
        groups = [g for g, k in zip(groups, keep) if k] or groups[:1]
    return random_density(n, rng=rng, rank=draw(st.integers(1, dim))), groups


def _projector(columns):
    return Projector(columns @ columns.conj().T)


def _born_sum(rho, columns):
    """The sum of the Born values <u|rho|u> of the orthonormal ``columns``."""
    return sum(float(np.real(np.vdot(c, rho.matrix @ c))) for c in columns.T)


class TestOrthogonalityProperties:
    @settings(max_examples=200, deadline=None)
    @given(orthogonal_families(complete=False))
    def test_additivity_holds_on_random_orthogonal_families(self, family):
        rho, groups = family
        parts = [_projector(g) for g in groups]
        assert check_additivity(rho, parts)
        # and down to rank one: each intensity is the sum of the Born values
        # of the columns its projector spans
        for g, p in zip(groups, parts):
            assert abs(intensity(rho, p) - _born_sum(rho, g)) <= 1e-10

    @settings(max_examples=200, deadline=None)
    @given(orthogonal_families(complete=True), st.integers(0, 2**32 - 1), st.integers(0, 16))
    def test_context_and_join_reject_a_non_orthogonal_family(self, family, seed, at):
        # The groups resolve the identity, so a projector onto a random vector
        # overlaps one of them; it goes in at a random position.
        rho, groups = family
        parts = [_projector(g) for g in groups]
        parts.insert(at % (len(parts) + 1), projector_onto(random_pure(rho.n_qubits, rng=seed)))
        with pytest.raises(ValueError, match="not orthogonal"):
            Context(parts)
        with pytest.raises(ValueError, match="not orthogonal"):
            join_projectors(parts)


def pair_product_orthogonality(ps, tol):
    """Reference rule: the first pair i < j, in row-major order, whose product
    P_i P_j exceeds ``tol`` in max-norm, or None; one dense product per pair."""
    for i, j in combinations(range(len(ps)), 2):
        if linalg.max_abs(ps[i].matrix @ ps[j].matrix) > tol:
            return i, j
    return None


def pushed_rays(seed):
    """Orthonormal rays on 1-5 qubits, with the pair (i, j) turned towards
    each other until the max-norm of P_i P_j is ``factor`` times ``tol``;
    returns the unit vectors and ``tol``."""
    rng = np.random.default_rng(seed)
    dim = 2 ** int(rng.integers(1, 6))
    u = list(random_unitary(dim, rng).T[: int(rng.integers(2, dim + 1))])
    tol = 10.0 ** rng.uniform(-12, -6)
    factor = rng.choice([0.25, 0.5, 2.0, 4.0])
    i, j = sorted(rng.choice(len(u), 2, replace=False))
    overlap = factor * tol / (np.abs(u[i]).max() * np.abs(u[j]).max())
    w = u[j] + overlap * u[i]
    u[j] = w / np.linalg.norm(w)
    return u, tol


def _orthogonality_message(ps, tol):
    try:
        _check_orthogonal(ps, tol)
    except ValueError as exc:
        return str(exc)
    return None


class TestOrthogonalityRule:
    """The Gram branch for rays and the pair loop for other families give the
    pair-product rule's verdict and first failing pair."""

    @pytest.mark.parametrize("seed", range(40))
    def test_one_pushed_pair_gets_the_reference_verdict_on_every_branch(self, seed):
        u, tol = pushed_rays(seed)
        rays = [projector_onto(v) for v in u]
        pair = pair_product_orthogonality(rays, tol)
        want = None if pair is None else f"projectors {pair[0]} and {pair[1]} are not orthogonal"
        matrices = [Projector(p.matrix) for p in rays]
        mixed = [p if k % 2 else m for k, (p, m) in enumerate(zip(rays, matrices))]
        for family in (rays, matrices, mixed):
            assert _orthogonality_message(family, tol) == want

    @pytest.mark.parametrize("seed", range(10))
    def test_random_rays_fail_at_the_reference_pair(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(1, 4))
        rays = [projector_onto(random_pure(n, rng)) for _ in range(int(rng.integers(2, 6)))]
        i, j = pair_product_orthogonality(rays, STRUCTURAL_TOL)
        assert _orthogonality_message(rays, STRUCTURAL_TOL) == f"projectors {i} and {j} are not orthogonal"

    def test_a_ray_context_forms_no_matrix(self):
        rng = np.random.default_rng(71)
        u = random_unitary(8, rng)
        context = Context(projector_onto(u[:, k]) for k in range(8))
        table = global_valuation(random_density(3, rng=rng), [context])
        assert abs(sum(table.values()) - 1.0) <= 1e-12
        assert all(holds_no_matrix(p) for p in context.projectors)

    def test_a_ray_context_must_resolve_the_identity(self):
        u = random_unitary(4, np.random.default_rng(73))
        with pytest.raises(ValueError, match="identity"):
            Context(projector_onto(u[:, k]) for k in range(3))


@st.composite
def shared_projector_contexts(draw):
    """A random state of any rank in dimension 2-16, a shared projector of
    random rank, and two completions of it into contexts: its complement cut
    into random groups of the columns of two independent random bases (in
    dimension 2 the completion is unique).  Each context builds its own copy
    of the shared projector and puts it at a random position, returned."""
    n = draw(st.integers(1, 4))
    dim = 2**n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = random_unitary(dim, rng)
    rank = draw(st.integers(1, dim - 1))
    shared, rest = u[:, :rank], u[:, rank:]
    contexts, positions = [], []
    for _ in range(2):
        basis = rest @ random_unitary(dim - rank, rng)
        size = dim - rank
        cuts = draw(st.lists(st.integers(1, size - 1), unique=True, max_size=size - 1)) if size > 1 else []
        bounds = [0, *sorted(cuts), size]
        parts = [_projector(basis[:, lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]
        positions.append(draw(st.integers(0, len(parts))))
        parts.insert(positions[-1], _projector(shared))
        contexts.append(Context(parts))
    rho = random_density(n, rng=rng, rank=draw(st.integers(1, dim)))
    return rho, contexts, positions


class TestSharedProjectorProperties:
    @settings(max_examples=150, deadline=None)
    @given(shared_projector_contexts())
    def test_a_shared_projector_gets_one_value_in_both_contexts(self, case):
        rho, (c1, c2), (at1, at2) = case
        table = global_valuation(rho, [c1, c2])
        assert table[(0, at1)] == table[(1, at2)]
        assert check_noncontextuality(rho, c1, c2)


def dense_noncontextuality(rho, c1, c2):
    """Reference verdict: every pair of members compared through its dense
    matrices."""
    table = global_valuation(rho, (c1, c2))
    return all(
        abs(table[(0, i)] - table[(1, j)]) <= STRUCTURAL_TOL
        for i, p in enumerate(c1.projectors)
        for j, q in enumerate(c2.projectors)
        if linalg.max_abs(p.matrix - q.matrix) <= STRUCTURAL_TOL
    )


class TestNoncontextualityOfRays:
    @pytest.mark.parametrize("scale", [0.0, 0.5, 0.99, 1.01, 2.0])
    def test_ray_contexts_get_the_dense_verdict_and_form_no_matrix(self, scale):
        # The 3-qubit Walsh basis (entries +-1/sqrt(8)) against a copy whose
        # rays carry random phases and whose first two are turned by theta,
        # where max|P_0 - Q_0| = scale * tol, about theta / 4.  On the state
        # (u_0 + u_1) / sqrt(2) the turned rays' intensities move by about
        # theta, beyond tol for scale >= 0.5: the verdict flips where the
        # pair stops counting as one projector.
        rng = np.random.default_rng(79)
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        u = np.kron(np.kron(h, h), h).T.astype(complex)

        def turned(theta):
            w = u.copy()
            w[0], w[1] = np.cos(theta) * u[0] + np.sin(theta) * u[1], np.cos(theta) * u[1] - np.sin(theta) * u[0]
            return w

        def distance(theta):
            w0 = turned(theta)[0]
            return linalg.max_abs(np.outer(u[0], u[0].conj()) - np.outer(w0, w0.conj()))

        theta = 4 * scale * STRUCTURAL_TOL
        if scale:
            theta *= scale * STRUCTURAL_TOL / distance(theta)
        w = turned(theta) * np.exp(2j * np.pi * rng.random(8))[:, None]
        c1, c2 = (Context(projector_onto(r) for r in rays) for rays in (u, w))
        rho = pure_to_density(QuRegister((u[0] + u[1]) / np.sqrt(2)))
        verdict = check_noncontextuality(rho, c1, c2)
        assert all(holds_no_matrix(p) for p in (*c1.projectors, *c2.projectors))
        assert verdict == dense_noncontextuality(rho, c1, c2) == (not 0 < scale < 1)


# Cabello, Estebaranz and Garcia-Alcaine's 18 vectors in C^4 (Phys. Lett. A
# 212, 183, 1996): 9 orthogonal bases, each vector in exactly two of them.
# A 0/1 valuation would give each basis exactly one 1, so the 9 bases would
# hold an odd number of 1s, while counting each vector twice makes it even.
KS_BASES = [
    [(0, 0, 0, 1), (0, 0, 1, 0), (1, 1, 0, 0), (1, -1, 0, 0)],
    [(0, 0, 0, 1), (0, 1, 0, 0), (1, 0, 1, 0), (1, 0, -1, 0)],
    [(1, -1, 1, -1), (1, -1, -1, 1), (1, 1, 0, 0), (0, 0, 1, 1)],
    [(1, -1, 1, -1), (1, 1, 1, 1), (1, 0, -1, 0), (0, 1, 0, -1)],
    [(0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 1), (1, 0, 0, -1)],
    [(1, -1, -1, 1), (1, 1, 1, 1), (1, 0, 0, -1), (0, 1, -1, 0)],
    [(1, 1, -1, 1), (1, 1, 1, -1), (1, -1, 0, 0), (0, 0, 1, 1)],
    [(1, 1, -1, 1), (-1, 1, 1, 1), (1, 0, 1, 0), (0, 1, 0, -1)],
    [(1, 1, 1, -1), (-1, 1, 1, 1), (1, 0, 0, 1), (0, 1, -1, 0)],
]
KS_VECTORS = sorted({v for basis in KS_BASES for v in basis})


def ks_ray(v):
    return projector_onto(QuRegister(np.array(v) / np.linalg.norm(v)))


def ks_contexts():
    """One ``Context`` per basis, each building its own projectors."""
    return [Context(map(ks_ray, basis)) for basis in KS_BASES]


class TestKochenSpecker:
    """No 0/1 valuation exists on the 18-vector set, while the Born rule
    values every one of its projectors once, whatever its context."""

    def test_the_set_is_18_rays_in_9_contexts_each_in_two(self):
        unit = np.array(KS_VECTORS) / np.linalg.norm(KS_VECTORS, axis=1, keepdims=True)
        overlaps = np.abs(unit @ unit.T)[~np.eye(len(unit), dtype=bool)]
        assert len(KS_VECTORS) == 18 and np.all(overlaps < 1 - 1e-9)
        assert len(ks_contexts()) == 9
        assert all(sum(v in b for b in KS_BASES) == 2 for v in KS_VECTORS)

    def test_no_zero_one_valuation_exists(self):
        incidence = np.array([[v in b for v in KS_VECTORS] for b in KS_BASES], dtype=np.uint8)
        assignments = (np.arange(2**18)[:, None] >> np.arange(18)).astype(np.uint8) & 1
        ones_per_context = assignments @ incidence.T
        assert not np.any(np.all(ones_per_context == 1, axis=1))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_the_born_valuation_is_total_and_noncontextual(self, seed, rank):
        rho, contexts = random_density(2, rng=seed, rank=rank), ks_contexts()
        table = global_valuation(rho, contexts)
        for ci in range(len(contexts)):
            assert abs(sum(table[(ci, pi)] for pi in range(4)) - 1.0) <= 1e-10
        sharing = [(i, j) for i, j in combinations(range(9), 2) if set(KS_BASES[i]) & set(KS_BASES[j])]
        assert len(sharing) == 18
        for i, j in sharing:
            assert check_noncontextuality(rho, contexts[i], contexts[j])


@cache
def pauli_eigenprojectors(n):
    """The 6**n products of the eigenprojectors of X, Y and Z on each qubit,
    an informationally complete family."""
    singles = [p.matrix for p in one_qubit_ic_family()]
    singles += [projector_onto(qubit(INV_SQRT2, s * INV_SQRT2)).matrix for s in (-1, -1j)]
    family = [np.ones((1, 1))]
    for _ in range(n):
        family = [np.kron(f, s) for f in family for s in singles]
    return [Projector(f) for f in family]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1), st.data())
def test_reconstruction_round_trip_from_pauli_eigenprojectors(n, seed, data):
    rho = random_density(n, rng=seed, rank=data.draw(st.integers(1, 2**n)))
    recovered = reconstruct_density([(p, intensity(rho, p)) for p in pauli_eigenprojectors(n)], n)
    assert linalg.max_abs(recovered.matrix - rho.matrix) <= 1e-10
