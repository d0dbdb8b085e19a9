"""End-to-end quantitative acceptance checks.

Each test exercises one headline behavior at its stated tolerance and prints
a one-line verdict, so ``pytest tests/test_acceptance.py -v -s`` doubles as a
checklist.  All randomness is seeded; every criterion runs in well under the
desk-scale budget.
"""

import numpy as np

from bornlab import linalg
from bornlab.circuits import (
    inject_noise,
    outcome_distribution,
    parse_circuit,
    sample,
    simulate,
)
from bornlab.psa import (
    Context,
    check_additivity,
    chsh_preset,
    chsh_value,
    intensity,
    reconstruct_density,
)
from bornlab.qcl import qcl_and, qcl_not, truth_probability
from bornlab.states import (
    DensityOperator,
    Projector,
    basis_state,
    projector_onto,
    pure_to_density,
    qubit,
    random_density,
)

from conftest import THREE_QUBIT_DEMO, random_orthogonal_projectors, random_unitary

HADAMARD_CIRCUIT = "qubits 1\ngate h 0\nmeasure all\n"
INV_SQRT2 = 1.0 / np.sqrt(2.0)


def report(num: int, ok: bool, text: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {text}")
    return ok


def test_criterion_01_hadamard_halves():
    dist = outcome_distribution(simulate(parse_circuit(HADAMARD_CIRCUIT)))
    ok = abs(dist["0"] - 0.5) <= 1e-12 and abs(dist["1"] - 0.5) <= 1e-12
    assert report(1, ok, "h 0 on |0> gives the exact (0.5, 0.5) distribution")


def test_criterion_02_demo_circuit_ideal_limit():
    ir = parse_circuit(THREE_QUBIT_DEMO)
    dist = outcome_distribution(simulate(ir))
    exact = abs(dist["000"] - 1.0) <= 1e-12 and all(
        v <= 1e-12 for k, v in dist.items() if k != "000"
    )
    shots = all(sample(ir, 1024, seed).counts == {"000": 1024} for seed in range(25))
    ok = exact and shots
    assert report(2, ok, "noiseless demo circuit: {000: 1.0} exactly, 1024/1024 shots")


def test_criterion_03_noisy_demo_modal_and_spread():
    ir = inject_noise(parse_circuit(THREE_QUBIT_DEMO), "bitflip", 0.05)
    modal = spread = 0
    for seed in range(100):
        h = sample(ir, 1024, seed)
        if max(h.counts, key=h.counts.get) == "000":
            modal += 1
        if any(label != "000" for label in h.counts):
            spread += 1
    ok = modal >= 99 and spread >= 99
    assert report(
        3, ok, f"bit-flip 0.05 histograms: modal 000 in {modal}/100, spread in {spread}/100"
    )


def test_criterion_04_negation_law():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        rho = random_density(int(rng.integers(1, 4)), rng=rng)
        gap = abs(truth_probability(qcl_not(rho)) - (1.0 - truth_probability(rho)))
        worst = max(worst, gap)
    ok = worst <= 1e-12
    assert report(4, ok, f"p(not rho) = 1 - p(rho) on 200 mixed states, worst gap {worst:.2e}")


def test_criterion_05_conjunction_law():
    rng = np.random.default_rng(2025)
    worst = 0.0
    for _ in range(200):
        rho = random_density(int(rng.integers(1, 3)), rng=rng)
        sigma = random_density(int(rng.integers(1, 3)), rng=rng)
        got = truth_probability(qcl_and(rho, sigma))
        gap = abs(got - truth_probability(rho) * truth_probability(sigma))
        worst = max(worst, gap)
    corners_ok = True
    for x in (0, 1):
        for y in (0, 1):
            lhs = truth_probability(
                qcl_and(
                    pure_to_density(basis_state(1, x)), pure_to_density(basis_state(1, y))
                )
            )
            corners_ok = corners_ok and lhs == float(x and y)
    ok = worst <= 1e-12 and corners_ok
    assert report(
        5, ok, f"p(and) = p*p on 200 pairs (worst gap {worst:.2e}); boolean corners exact"
    )


def test_criterion_06_valuation_axioms():
    rng = np.random.default_rng(2026)
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 5))  # dims 2..16
        dim = 2**n
        rho = random_density(n, rng=rng)
        ok = ok and abs(intensity(rho, Projector(np.eye(dim))) - 1.0) <= 1e-10
        parts = random_orthogonal_projectors(dim, rng, int(rng.integers(2, min(dim, 4) + 1)))
        ok = ok and check_additivity(rho, parts)
    assert report(6, ok, "unit valuation of I and additivity on 100 random valuations")


def test_criterion_07_noncontextuality():
    rng = np.random.default_rng(2027)
    agree = 0
    for _ in range(100):
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
        i1 = intensity(rho, c1.projectors[0])
        i2 = intensity(rho, c2.projectors[0])
        if abs(i1 - i2) <= 1e-12:
            agree += 1
    ok = agree == 100
    assert report(7, ok, f"shared projector gets equal intensities in {agree}/100 context pairs")


def test_criterion_08_reconstruction_round_trip():
    rng = np.random.default_rng(2028)
    one_qubit = [
        projector_onto(basis_state(1, 0)),
        projector_onto(basis_state(1, 1)),
        projector_onto(qubit(INV_SQRT2, INV_SQRT2)),
        projector_onto(qubit(INV_SQRT2, 1j * INV_SQRT2)),
    ]
    two_qubit = [
        Projector(np.kron(p.matrix, q.matrix)) for p in one_qubit for q in one_qubit
    ]
    worst = 0.0
    for i in range(50):
        n, family = (1, one_qubit) if i % 2 == 0 else (2, two_qubit)
        rho = random_density(n, rng=rng)
        samples = [(p, intensity(rho, p)) for p in family]
        recovered = reconstruct_density(samples, n)
        worst = max(worst, linalg.max_abs(recovered.matrix - rho.matrix))
    ok = worst <= 1e-8
    assert report(8, ok, f"density recovered from intensities, worst error {worst:.2e}")


def test_criterion_09_chsh_witness():
    rho, a, ap, b, bp = chsh_preset("singlet-optimal")
    s = chsh_value(rho, a, ap, b, bp)
    singlet_ok = abs(s - 2.828427) <= 1e-6 and s > 2.0

    rng = np.random.default_rng(2029)
    bound_ok = True
    for _ in range(100):
        parts = []
        weights = rng.dirichlet(np.ones(3))
        for w in weights:
            left = random_density(1, rng=rng)
            right = random_density(1, rng=rng)
            parts.append(w * np.kron(left.matrix, right.matrix))
        separable = DensityOperator(sum(parts))
        obs = []
        for _ in range(4):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            obs.append(
                np.array(
                    [[v[2], v[0] - 1j * v[1]], [v[0] + 1j * v[1], -v[2]]], dtype=complex
                )
            )
        s_sep = chsh_value(separable, *obs)
        bound_ok = bound_ok and abs(s_sep) <= 2.0 + 1e-9
    ok = singlet_ok and bound_ok
    assert report(
        9, ok, f"singlet-optimal S = {s:.6f} > 2; 100 separable states stay within 2"
    )


def test_criterion_10_statistical_soundness():
    ir = parse_circuit(HADAMARD_CIRCUIT)
    h = sample(ir, 10**6, 0)
    freq = h.counts["0"] / h.shots
    ok = 0.498 <= freq <= 0.502
    assert report(10, ok, f"h 0 at 1e6 shots (seed 0): frequency of 0 is {freq:.6f}")
