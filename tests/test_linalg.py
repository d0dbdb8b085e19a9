"""Matrix primitives and structural predicates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornlab import linalg
from bornlab.channels import HADAMARD, PAULI_X, SQRT_NOT, evolve, measurement_channel
from bornlab.linalg import (
    as_matrix,
    dagger,
    is_hermitian,
    is_projector,
    is_psd,
    is_unitary,
    sector_blocks,
    trace,
)
from conftest import random_complex_matrix, random_density, random_unitary

I2 = np.eye(2, dtype=complex)
KET0 = np.array([[1, 0], [0, 0]], dtype=complex)


class TestAsMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            as_matrix(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            as_matrix([[np.nan, 0], [0, 1]])

    def test_result_is_read_only(self):
        m = as_matrix(I2)
        with pytest.raises(ValueError):
            m[0, 0] = 2.0


class TestMatmul:
    def test_identity(self):
        np.testing.assert_array_equal(I2 @ PAULI_X, PAULI_X)

    def test_negation_is_involutive(self):
        np.testing.assert_array_equal(PAULI_X @ PAULI_X, I2)

    def test_hadamard_squares_to_identity(self):
        assert linalg.max_abs(HADAMARD @ HADAMARD - I2) <= 1e-12


class TestDagger:
    def test_identity(self):
        np.testing.assert_array_equal(dagger(I2), I2)

    def test_conjugate_transpose(self):
        a = np.array([[0, 1j], [0, 0]])
        np.testing.assert_array_equal(dagger(a), np.array([[0, 0], [-1j, 0]]))

    def test_sqrt_not_is_unitary_by_product(self):
        assert linalg.max_abs(dagger(SQRT_NOT) @ SQRT_NOT - I2) <= 1e-12

    def test_involution_is_exact(self):
        rng = np.random.default_rng(11)
        a = random_complex_matrix(8, rng)
        np.testing.assert_array_equal(dagger(dagger(a)), a)


class TestTrace:
    def test_identity(self):
        assert trace(np.eye(4)) == 4

    def test_rank_one_projector(self):
        assert trace(KET0) == 1

    def test_cyclic(self):
        rng = np.random.default_rng(7)
        for dim in (4, 8):
            a = random_complex_matrix(dim, rng)
            b = random_complex_matrix(dim, rng)
            assert abs(trace(a @ b) - trace(b @ a)) <= 1e-12

    def test_trace_is_multiplicative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = random_complex_matrix(2, rng)
            b = random_complex_matrix(2, rng)
            assert abs(trace(np.kron(a, b)) - trace(a) * trace(b)) <= 1e-12


class TestPredicates:
    def test_hermitian(self):
        assert is_hermitian(HADAMARD, 1e-12)
        assert not is_hermitian(np.array([[0, 1], [0, 0.0]]), 1e-12)
        assert not is_hermitian(SQRT_NOT, 1e-12)

    def test_hermitian_requires_positive_tol(self):
        with pytest.raises(ValueError, match="tol"):
            is_hermitian(I2, 0.0)

    def test_psd(self):
        assert is_psd(KET0, 1e-10)
        assert not is_psd(np.diag([1.0, -0.5]), 1e-10)
        assert is_psd(I2 / 2, 1e-10)

    def test_psd_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="hermitian"):
            is_psd(np.array([[0, 1], [0, 0.0]]), 1e-10)

    def test_projector(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        for p in (I2, plus):
            assert is_projector(p)
            assert linalg.max_abs(p - dagger(p)) <= 1e-12
            assert linalg.max_abs(p @ p - p) <= 1e-12
        assert not is_projector(HADAMARD)

    def test_projectors_are_psd_with_binary_spectrum(self):
        rng = np.random.default_rng(23)
        from conftest import random_orthogonal_projectors

        for p in random_orthogonal_projectors(8, rng, 3):
            assert is_psd(p.matrix, 1e-10)
            eigs = np.linalg.eigvalsh(p.matrix)
            assert np.all((np.abs(eigs) <= 1e-10) | (np.abs(eigs - 1) <= 1e-10))

    def test_unitary(self):
        for u in (HADAMARD, SQRT_NOT):
            assert is_unitary(u)
            assert linalg.max_abs(dagger(u) @ u - I2) <= 1e-12
        assert not is_unitary(KET0)


TOLS = st.sampled_from([linalg.STRUCTURAL_TOL, 1e-8, 1e-6])
SEEDS = st.integers(0, 2**32 - 1)
#: lambda_min / -tol of the placed spectra: both sides of the certificate's
#: shift tol/2 and of the verdict's -tol.
FACTORS = st.sampled_from([0.25, 0.75, 1.25, 2.0])


@st.composite
def random_states(draw):
    """A random density matrix on 1-8 qubits, of any rank."""
    n = draw(st.integers(1, 8))
    rank = draw(st.integers(1, 2**n))
    return random_density(n, rng=draw(SEEDS), rank=rank).matrix


def placed_spectrum(n, seed, lam_min):
    """A hermitian matrix on n qubits with smallest eigenvalue ``lam_min`` and
    the others a random probability vector, in a random eigenbasis."""
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(2**n))
    w[0] = lam_min
    u = random_unitary(2**n, rng)
    a = (u * w) @ u.conj().T
    return (a + a.conj().T) / 2


def eigvalsh_verdict(a, tol):
    return bool(np.linalg.eigvalsh(a)[..., 0].min() >= -tol)


class TestPsdVerdict:
    """``is_psd`` answers as ``eigvalsh(a)[0] >= -tol`` does, whether its
    Cholesky certificate answers or the eigensolver does."""

    @settings(max_examples=120, deadline=None)
    @given(random_states(), TOLS)
    def test_random_states(self, a, tol):
        assert is_psd(a, tol) == eigvalsh_verdict(a, tol)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 8), SEEDS, FACTORS, TOLS)
    def test_smallest_eigenvalue_near_the_bound(self, n, seed, factor, tol):
        a = placed_spectrum(n, seed, -factor * tol)
        assert is_psd(a, tol) == eigvalsh_verdict(a, tol)

    @settings(max_examples=60, deadline=None)
    @given(st.data(), TOLS, st.integers(1, 4))
    def test_stacks(self, data, tol, k):
        n = data.draw(st.integers(1, 6))
        seeds = data.draw(st.lists(SEEDS, min_size=k, max_size=k))
        stack = [random_density(n, rng=seed, rank=1 + seed % 2**n).matrix for seed in seeds]
        if data.draw(st.booleans()):
            factor = data.draw(FACTORS)
            stack[data.draw(st.integers(0, k - 1))] = placed_spectrum(n, seeds[0], -factor * tol)
        stack = np.array(stack)
        assert is_psd(stack, tol) == eigvalsh_verdict(stack, tol)

    @pytest.mark.parametrize("n", [1, 5, 10])
    def test_the_certificate_answers_for_states(self, n):
        a = random_density(n, rng=n, rank=1).matrix
        assert linalg._cholesky_certifies(a, linalg.STRUCTURAL_TOL)

    @pytest.mark.parametrize("factor, answers", [(0.25, True), (0.75, False), (1.25, False)])
    def test_the_certificate_answers_only_inside_the_shift(self, factor, answers):
        tol = linalg.STRUCTURAL_TOL
        a = placed_spectrum(4, 3, -factor * tol)
        assert linalg._cholesky_certifies(a, tol) == answers

    def test_a_small_state_is_answered_by_the_eigensolver_alone(self, monkeypatch):
        def cholesky(a):
            raise AssertionError(f"Cholesky ran on shape {a.shape}")

        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        assert is_psd(random_density(1, rng=5).matrix, 1e-10)
        assert not is_psd(np.diag([1.0, -0.5]), 1e-10)

    def test_a_sector_block_stack_is_answered_by_the_certificate_alone(self, monkeypatch):
        # The two 512 x 512 sector blocks of a measured 10-qubit state.
        stack = np.array([random_density(9, rng=seed).matrix / 2 for seed in (1, 2)])

        def eigvalsh(a):
            raise AssertionError(f"eigvalsh ran on shape {a.shape}")

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        assert is_psd(stack, linalg.STRUCTURAL_TOL)

    def test_a_matrix_past_the_certificate_bound_is_answered_by_the_eigensolver(self, monkeypatch):
        # 256 entries take the certificate's route, but its error bound on
        # entries of 1e12 is far above tol, so it declines before factorising.
        def cholesky(a):
            raise AssertionError(f"Cholesky ran on shape {a.shape}")

        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        assert is_psd(np.diag([1e12] * 16))

    def test_stacks_are_checked_for_hermiticity(self):
        stack = np.array([I2 / 2, np.array([[0.5, 0.5], [0.0, 0.5]])])
        with pytest.raises(linalg.NotHermitianError):
            is_psd(stack, 1e-10)


def dephased(n, measured, seed):
    rho = random_density(n, rng=seed).matrix
    for q in measured:
        rho = evolve(measurement_channel(n, [q]), rho)
    return rho


class TestSectorBlocks:
    @pytest.mark.parametrize("n, measured", [(1, [0]), (3, [1]), (4, [3, 0]), (5, [0, 1, 2, 3, 4])])
    def test_blocks_of_a_dephased_state(self, n, measured):
        rho = dephased(n, measured, seed=n)
        blocks = sector_blocks(rho, n, measured)
        qs = sorted(measured)
        bits = (np.arange(2**n)[:, None] >> (n - 1 - np.array(qs))) & 1
        sector = (bits << (len(qs) - 1 - np.arange(len(qs)))).sum(axis=1)
        assert blocks.shape == (2 ** len(qs), 2 ** (n - len(qs)), 2 ** (n - len(qs)))
        for s in range(2 ** len(qs)):
            idx = np.flatnonzero(sector == s)
            np.testing.assert_array_equal(blocks[s], rho[np.ix_(idx, idx)])
        spectrum = np.sort(np.linalg.eigvalsh(blocks).ravel())
        np.testing.assert_allclose(spectrum, np.linalg.eigvalsh(rho), atol=1e-14)

    def test_one_tiny_entry_between_sectors_raises(self):
        rho = dephased(3, [1], seed=4)
        rho[0b000, 0b010] = 1e-300
        with pytest.raises(ValueError, match="between the sectors"):
            sector_blocks(rho, 3, [1])

    def test_bad_sectors(self):
        with pytest.raises(ValueError, match="bad sectors"):
            sector_blocks(np.eye(4), 2, [2])
        with pytest.raises(ValueError, match="bad sectors"):
            sector_blocks(np.eye(4), 3, [0])
