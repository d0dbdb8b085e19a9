"""Density-operator simulation, probabilistic truth semantics, and intensive
projector valuations for small qubit registers."""

from .channels import (
    Gate,
    QuantumOperation,
    apply,
    builtin_gate,
    lift_unitary,
    measurement_channel,
    noise_channel,
)
from .circuits import (
    CircuitIr,
    GateStep,
    Histogram,
    InputError,
    MeasureStep,
    NoiseStep,
    inject_noise,
    outcome_distribution,
    output_distribution,
    parse_chsh_file,
    parse_circuit,
    parse_formula,
    parse_formula_file,
    parse_psa_file,
    pretty_print,
    sample,
    simulate,
)
from .psa import (
    Context,
    check_additivity,
    check_noncontextuality,
    chsh_preset,
    chsh_value,
    global_valuation,
    intensity,
    join_projectors,
    reconstruct_density,
    singlet_state,
)
from .qcl import (
    And,
    Atom,
    GateApp,
    Not,
    Or,
    TruthProjectors,
    eval_formula,
    eval_formula_state,
    qcl_and,
    qcl_not,
    qcl_or,
    truth_probability,
)
from .states import (
    DensityOperator,
    Projector,
    QuRegister,
    basis_state,
    born_expectation,
    mix,
    projector_onto,
    pure_to_density,
    qubit,
    random_density,
    random_pure,
)

__version__ = "0.1.0"
