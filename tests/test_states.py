"""States, mixtures, and Born-rule evaluation."""

import numpy as np
import pytest

from bornlab import linalg
from bornlab.psa import Context
from bornlab.states import (
    DensityOperator,
    Projector,
    QuRegister,
    basis_state,
    born_expectation,
    clamp_probability,
    projector_onto,
    pure_to_density,
    qubit,
)

from conftest import holds_no_matrix, mix, random_density, random_pure, random_unitary

INV_SQRT2 = 1.0 / np.sqrt(2.0)


class TestQuRegister:
    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError, match="zero vector"):
            QuRegister([0, 0])

    def test_rejects_badly_normalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            QuRegister([1, 1])

    def test_renormalizes_rounding_dust(self):
        v = np.array([INV_SQRT2, INV_SQRT2]) * (1 + 1e-12)
        psi = QuRegister(v)
        assert abs(np.vdot(psi.amplitudes, psi.amplitudes).real - 1.0) <= 1e-14

    def test_rejects_non_power_of_two_length(self):
        with pytest.raises(ValueError, match="power of 2"):
            QuRegister([1, 0, 0])

    def test_basis_state_by_label(self):
        psi = basis_state(3, "110")
        assert psi.amplitudes[6] == 1.0

    def test_basis_index_out_of_range(self):
        with pytest.raises(IndexError):
            basis_state(1, 2)

    @pytest.mark.parametrize("index", [True, 1.0, 0.5], ids=repr)
    def test_basis_index_must_be_an_integer(self, index):
        with pytest.raises(ValueError, match=f"^basis index {index} is not an integer$"):
            basis_state(2, index)

    def test_numpy_integer_basis_index_is_accepted(self):
        assert basis_state(2, np.int64(3)).amplitudes[3] == 1.0


class TestDensityOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="hermitian"):
            DensityOperator([[0.5, 0.5], [0.0, 0.5]])

    def test_rejects_negative_spectrum(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            DensityOperator(np.diag([1.5, -0.5]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="unit trace"):
            DensityOperator(np.eye(2))

    def test_hermiticity_is_tested_once(self, monkeypatch):
        calls, is_hermitian = [], linalg.is_hermitian

        def counting(a, tol=linalg.STRUCTURAL_TOL):
            calls.append(a.shape)
            return is_hermitian(a, tol)

        monkeypatch.setattr(linalg, "is_hermitian", counting)
        DensityOperator(np.eye(4) / 4)
        assert calls == [(4, 4)]

    def test_purity_distinguishes_pure_from_mixed(self):
        assert pure_to_density(qubit(1, 0)).is_pure()
        assert not DensityOperator(np.eye(2) / 2).is_pure()
        assert abs(DensityOperator(np.eye(2) / 2).purity() - 0.5) <= 1e-12

    @pytest.mark.parametrize("n", range(1, 7))
    def test_purity_is_the_trace_of_rho_squared(self, n):
        rng = np.random.default_rng(n)
        for rank in (1, 2, 2**n):
            rho = random_density(n, rng=rng, rank=rank)
            assert abs(rho.purity() - np.trace(rho.matrix @ rho.matrix).real) <= 1e-12


class TestPureToDensity:
    def test_ket0(self):
        np.testing.assert_array_equal(
            pure_to_density(qubit(1, 0)).matrix, np.array([[1, 0], [0, 0.0]])
        )

    def test_plus_state(self):
        rho = pure_to_density(qubit(INV_SQRT2, INV_SQRT2))
        np.testing.assert_allclose(rho.matrix, np.full((2, 2), 0.5), atol=1e-12)

    def test_unit_trace_and_rank_one(self):
        rng = np.random.default_rng(29)
        for n in (1, 2, 3):
            rho = pure_to_density(random_pure(n, rng))
            assert abs(linalg.trace(rho.matrix) - 1.0) <= 1e-10
            assert Projector(rho.matrix).rank == 1


class TestMix:
    def test_singleton(self):
        rho = random_density(1, rng=31)
        np.testing.assert_allclose(mix([(1.0, rho)]).matrix, rho.matrix, atol=1e-15)

    def test_equal_mixture_of_basis_states(self):
        rho = mix(
            [(0.5, pure_to_density(qubit(1, 0))), (0.5, pure_to_density(qubit(0, 1)))]
        )
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-15)

    def test_output_is_psd(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            w = rng.dirichlet([1, 1, 1])
            rho = mix([(w[i], random_density(2, rng=rng)) for i in range(3)])
            assert linalg.is_psd(rho.matrix, 1e-10)

    def test_rejects_bad_weights(self):
        rho = random_density(1, rng=41)
        with pytest.raises(ValueError, match="sum to 1"):
            mix([(0.4, rho), (0.4, rho)])
        with pytest.raises(ValueError, match="non-negative"):
            mix([(1.5, rho), (-0.5, rho)])

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError, match="qubit count"):
            mix([(0.5, random_density(1, rng=0)), (0.5, random_density(2, rng=1))])


class TestOutcomeProbabilities:
    """The probability of outcome e of a test is born_expectation(rho, |e><e|)."""

    def test_basis_state_is_certain(self):
        rho = pure_to_density(basis_state(1, 0))
        assert born_expectation(rho, projector_onto(basis_state(1, 0))) == 1.0

    def test_qubit_amplitudes_square_to_probabilities(self):
        c0, c1 = np.sqrt(0.3), np.sqrt(0.7) * 1j
        rho = pure_to_density(qubit(c0, c1))
        assert abs(born_expectation(rho, projector_onto(basis_state(1, 0))) - 0.3) <= 1e-12
        assert abs(born_expectation(rho, projector_onto(basis_state(1, 1))) - 0.7) <= 1e-12

    def test_hadamard_state_splits_evenly(self):
        rho = pure_to_density(qubit(INV_SQRT2, INV_SQRT2))
        for i in (0, 1):
            assert abs(born_expectation(rho, projector_onto(basis_state(1, i))) - 0.5) <= 1e-12

    def test_outcomes_sum_to_one(self):
        rng = np.random.default_rng(43)
        for n in (1, 2, 3):
            rho = pure_to_density(random_pure(n, rng))
            u = random_unitary(2**n, rng)
            test = Context([projector_onto(QuRegister(u[:, i])) for i in range(2**n)])
            total = sum(born_expectation(rho, p) for p in test.projectors)
            assert abs(total - 1.0) <= 1e-10


class TestBornExpectation:
    def test_identity_projector_gives_one(self):
        rho = random_density(2, rng=47)
        assert born_expectation(rho, Projector(np.eye(4))) == 1.0

    def test_orthogonal_states_give_zero(self):
        rho = pure_to_density(qubit(1, 0))
        p = projector_onto(qubit(0, 1))
        assert born_expectation(rho, p) == 0.0

    def test_matches_quadratic_form_on_pure_states(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            psi = random_pure(2, rng)
            p = projector_onto(random_pure(2, rng))
            expected = float(np.real(np.vdot(psi.amplitudes, p.matrix @ psi.amplitudes)))
            got = born_expectation(pure_to_density(psi), p)
            assert abs(got - expected) <= 1e-12

    def test_linear_in_the_state(self):
        rng = np.random.default_rng(59)
        parts = [random_density(1, rng=rng) for _ in range(3)]
        w = rng.dirichlet([1, 1, 1])
        p = projector_onto(random_pure(1, rng))
        mixed = mix(list(zip(w, parts)))
        expected = sum(wi * born_expectation(ri, p) for wi, ri in zip(w, parts))
        assert abs(born_expectation(mixed, p) - expected) <= 1e-12

    def test_invariant_under_basis_change(self):
        rng = np.random.default_rng(61)
        rho = random_density(2, rng=rng)
        p = projector_onto(random_pure(2, rng))
        u = random_unitary(4, rng)
        rho_u = DensityOperator(u @ rho.matrix @ u.conj().T)
        p_u = Projector(u @ p.matrix @ u.conj().T)
        assert abs(born_expectation(rho_u, p_u) - born_expectation(rho, p)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="qubit count"):
            born_expectation(random_density(1, rng=2), Projector(np.eye(4)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_the_trace_of_the_product_for_rays_and_matrices(self, n):
        # The reference forms rho @ P (d**3); born_expectation reads d**2 entries.
        rng = np.random.default_rng(400 + n)
        dim = 2**n
        for _ in range(10):
            rho = random_density(n, rng=rng, rank=int(rng.integers(1, dim + 1)))
            columns = random_unitary(dim, rng)[:, : int(rng.integers(1, dim + 1))]
            for p in (projector_onto(columns[:, 0]), Projector(columns @ columns.conj().T)):
                want = float(np.real(np.trace(rho.matrix @ p.matrix)))
                assert abs(born_expectation(rho, p) - want) <= 1e-15


class TestRays:
    def test_a_ray_has_rank_one_without_its_matrix(self):
        p = projector_onto(random_pure(3, rng=5))
        assert (p.rank, p.dim, p.n_qubits) == (1, 8, 3)
        assert holds_no_matrix(p)

    def test_every_read_forms_the_matrix_read_only_and_keeps_nothing(self):
        psi = random_pure(2, rng=7)
        p = projector_onto(psi)
        for _ in range(2):
            m = p.matrix
            np.testing.assert_array_equal(m, np.outer(psi.amplitudes, psi.amplitudes.conj()))
            assert not m.flags.writeable
            assert holds_no_matrix(p)
        assert linalg.is_projector(p.matrix)

    def test_a_unit_vector_is_kept_as_given(self):
        u = np.array([0.6, 0.8j])
        p = projector_onto(u)
        np.testing.assert_array_equal(p.ray, u)
        assert not p.ray.flags.writeable
        u[0] = 1.0
        assert p.ray[0] == 0.6

    @pytest.mark.parametrize(
        "vector, message",
        [
            ([1.0, 1.0], "not a unit vector"),
            ([[1.0, 0.0]], "finite vector"),
            ([np.nan, 1.0], "finite vector"),
            ([1.0, 0.0, 0.0], "not a power of 2"),
        ],
    )
    def test_rejects_what_is_not_a_ray(self, vector, message):
        with pytest.raises(ValueError, match=message):
            projector_onto(vector)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: QuRegister([np.nan, 1.0]), "amplitudes must be finite"),
        (lambda: basis_state(2, "0a"), "bad basis label '0a' for 2 qubits"),
        (lambda: Projector([[1.0, 0.0], [0.0, 0.5]]), "matrix is not a projector (hermitian idempotent)"),
        (lambda: clamp_probability(1.5), "expectation 1.5 outside [0, 1]: invariant broken upstream"),
    ],
    ids=["non-finite register", "bad basis label", "non-projector", "probability above 1"],
)
def test_every_rejection_reads_exactly(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message
