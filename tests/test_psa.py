"""Intensive valuation: additivity, contexts, reconstruction, and CHSH."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornlab import linalg
from bornlab.psa import (
    Context,
    Psa,
    chsh_preset,
    chsh_value,
    check_additivity,
    check_noncontextuality,
    global_valuation,
    intensity,
    join_projectors,
    pauli_basis,
    reconstruct_density,
    singlet_state,
)
from bornlab.states import (
    DensityOperator,
    Projector,
    basis_state,
    mix,
    projector_onto,
    pure_to_density,
    qubit,
    random_density,
    random_pure,
)

from conftest import random_orthogonal_projectors, random_unitary

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def one_qubit_ic_family():
    """Informationally complete single-qubit family: Z, X, and Y eigenstates."""
    return [
        projector_onto(basis_state(1, 0)),
        projector_onto(basis_state(1, 1)),
        projector_onto(qubit(INV_SQRT2, INV_SQRT2)),
        projector_onto(qubit(INV_SQRT2, 1j * INV_SQRT2)),
    ]


def two_qubit_ic_family():
    return [
        Projector(np.kron(p.matrix, q.matrix))
        for p in one_qubit_ic_family()
        for q in one_qubit_ic_family()
    ]


class TestIntensity:
    def test_identity_has_intensity_one(self):
        psa = Psa(random_density(2, rng=3))
        assert intensity(psa, Projector(np.eye(4))) == 1.0

    def test_zero_projector_has_intensity_zero(self):
        psa = Psa(random_density(1, rng=5))
        assert intensity(psa, Projector(np.zeros((2, 2)))) == 0.0

    def test_plus_state_against_ket0(self):
        psa = Psa(pure_to_density(qubit(INV_SQRT2, INV_SQRT2)))
        assert abs(psa.intensity(projector_onto(basis_state(1, 0))) - 0.5) <= 1e-12

    def test_monotone_under_projector_order(self):
        # P <= Q (QP = P) implies intensity(P) <= intensity(Q)
        rng = np.random.default_rng(7)
        p_small, p_rest = random_orthogonal_projectors(8, rng, 2)
        q = join_projectors([p_small, p_rest])  # = identity here
        psa = Psa(random_density(3, rng=rng))
        assert intensity(psa, p_small) <= intensity(psa, q) + 1e-10
        # and against a strictly larger non-trivial subspace
        parts = random_orthogonal_projectors(8, rng, 3)
        bigger = join_projectors(parts[:2])
        assert intensity(psa, parts[0]) <= intensity(psa, bigger) + 1e-10


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
            assert linalg.is_projector(join_projectors(parts).matrix, 1e-10)

    def test_rejects_non_orthogonal(self):
        p = projector_onto(basis_state(1, 0))
        q = projector_onto(qubit(INV_SQRT2, INV_SQRT2))
        with pytest.raises(ValueError, match="not orthogonal"):
            join_projectors([p, q])


class TestAdditivity:
    def test_holds_on_contexts(self):
        rng = np.random.default_rng(17)
        psa = Psa(random_density(2, rng=rng))
        parts = random_orthogonal_projectors(4, rng, 4)
        assert check_additivity(psa, parts, tol=1e-10)

    def test_two_element_family_in_dim_four(self):
        rng = np.random.default_rng(19)
        psa = Psa(random_density(2, rng=rng))
        parts = random_orthogonal_projectors(4, rng, 2)
        assert check_additivity(psa, parts, tol=1e-10)

    def test_non_orthogonal_family_is_a_contract_error(self):
        psa = Psa(random_density(1, rng=23))
        p = projector_onto(basis_state(1, 0))
        q = projector_onto(qubit(INV_SQRT2, INV_SQRT2))
        with pytest.raises(ValueError, match="not orthogonal"):
            check_additivity(psa, [p, q])


class TestContextsAndValuation:
    def test_computational_context_on_ket0(self):
        psa = Psa(pure_to_density(basis_state(1, 0)))
        ctx = Context([projector_onto(basis_state(1, 0)), projector_onto(basis_state(1, 1))])
        table = global_valuation(psa, [ctx])
        assert table[(0, 0)] == 1.0
        assert table[(0, 1)] == 0.0

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(29)
        psa = Psa(random_density(3, rng=rng))
        contexts = []
        for _ in range(4):
            parts = random_orthogonal_projectors(8, rng, int(rng.integers(2, 6)))
            contexts.append(Context(parts))
        table = global_valuation(psa, contexts)
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
        psa = Psa(random_density(2, rng=rng))
        table = global_valuation(psa, [c1, c2])
        assert abs(table[(0, 0)] - table[(1, 0)]) <= 1e-12
        assert check_noncontextuality(psa, c1, c2, tol=1e-10)

    def test_maximally_mixed_state_weights_rank_one_projectors_evenly(self):
        psa = Psa(DensityOperator(np.eye(2) / 2))
        rng = np.random.default_rng(37)
        for _ in range(5):
            u = random_unitary(2, rng)
            ctx = Context([Projector(np.outer(u[:, i], u[:, i].conj())) for i in range(2)])
            for p in ctx.projectors:
                assert abs(intensity(psa, p) - 0.5) <= 1e-12

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
            psa = Psa(random_density(2, rng=rng))
            assert check_noncontextuality(psa, c1, c2, tol=1e-12)

    def test_identical_and_disjoint_contexts(self):
        rng = np.random.default_rng(41)
        psa = Psa(random_density(2, rng=rng))
        c1 = Context(random_orthogonal_projectors(4, rng, 2))
        assert check_noncontextuality(psa, c1, c1)
        c2 = Context(random_orthogonal_projectors(4, rng, 3))
        # almost surely no shared projector: vacuously non-contextual
        assert check_noncontextuality(psa, c1, c2)

    def test_context_must_resolve_the_identity(self):
        with pytest.raises(ValueError, match="identity"):
            Context([projector_onto(basis_state(1, 0))])

    def test_context_must_be_orthogonal(self):
        with pytest.raises(ValueError, match="orthogonal"):
            Context(
                [projector_onto(basis_state(1, 0)), projector_onto(qubit(INV_SQRT2, INV_SQRT2))]
            )


class TestReconstruction:
    def test_pauli_basis_spans_hermitian_space(self):
        for n in (1, 2):
            basis = pauli_basis(n)
            flat = np.array([b.reshape(-1) for b in basis])
            assert np.linalg.matrix_rank(flat) == 4**n

    def test_round_trip_one_qubit(self):
        rng = np.random.default_rng(43)
        rho = random_density(1, rng=rng)
        psa = Psa(rho)
        samples = [(p, intensity(psa, p)) for p in one_qubit_ic_family()]
        recovered = reconstruct_density(samples, 1)
        assert linalg.max_abs(recovered.matrix - rho.matrix) <= 1e-8

    def test_round_trip_two_qubits(self):
        rng = np.random.default_rng(47)
        rho = random_density(2, rng=rng)
        psa = Psa(rho)
        samples = [(p, intensity(psa, p)) for p in two_qubit_ic_family()]
        recovered = reconstruct_density(samples, 2)
        assert linalg.max_abs(recovered.matrix - rho.matrix) <= 1e-8

    def test_maximally_mixed_fixed_point(self):
        psa = Psa(DensityOperator(np.eye(2) / 2))
        samples = [(p, intensity(psa, p)) for p in one_qubit_ic_family()]
        recovered = reconstruct_density(samples, 1)
        np.testing.assert_allclose(recovered.matrix, np.eye(2) / 2, atol=1e-10)

    def test_rank_deficient_family_is_rejected(self):
        psa = Psa(random_density(1, rng=53))
        family = [
            projector_onto(basis_state(1, 0)),
            projector_onto(basis_state(1, 1)),
            Projector(np.eye(2)),
        ]
        samples = [(p, intensity(psa, p)) for p in family]
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
            psa = Psa(random_density(n, rng=rng))
            dim = 2**n
            assert abs(intensity(psa, Projector(np.eye(dim))) - 1.0) <= 1e-10
            assert intensity(psa, Projector(np.zeros((dim, dim)))) <= 1e-10

    def test_additivity_on_random_families(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            dim = 2**n
            psa = Psa(random_density(n, rng=rng))
            n_groups = int(rng.integers(2, min(dim, 4) + 1))
            parts = random_orthogonal_projectors(dim, rng, n_groups)
            assert check_additivity(psa, parts, tol=1e-10)

    def test_mixture_valuations_interpolate(self):
        rng = np.random.default_rng(73)
        r1, r2 = random_density(1, rng=rng), random_density(1, rng=rng)
        p = projector_onto(random_pure(1, rng))
        blend = mix([(0.3, r1), (0.7, r2)])
        expected = 0.3 * intensity(Psa(r1), p) + 0.7 * intensity(Psa(r2), p)
        assert abs(intensity(Psa(blend), p) - expected) <= 1e-12
