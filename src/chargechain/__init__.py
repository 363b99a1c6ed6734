"""chargechain: finitely additive measures and ergodicity diagnostics for Markov chains.

The package represents signed finitely additive measures as sparse atoms
plus coarse end-charge buckets, runs the Markov operator A on them, solves
for invariant bases on finite chains and structured countable walks,
checks the classical small-set and invariant-charge ergodicity conditions,
and verifies the uniform averaged-operator limit theorems numerically.
A's adjoint T on bounded functions is the tests' duality oracle
(``tests/oracles.py``).
"""

from .catalog import (
    birth_death,
    build,
    cycle,
    drift_walk_N,
    finite_uniform,
    grid_unit_interval,
    restart_walk,
    swap2,
    symmetric_walk_Z,
    two_absorbing,
)
from .conditions import (
    build_condition_report,
    check_alpha,
    check_beta,
    check_doeblin,
    check_doeblin_tilde,
    check_double_star,
    check_star,
    check_tilde_star,
    doeblin_truncation_trend,
    quasicompact_diagnostic,
    search_doeblin,
)
from .errors import (
    CapacityError,
    ChargeChainError,
    DomainError,
    NumericalError,
    PreconditionError,
    StructureError,
    ValidationError,
)
from .ergodic import distance_series, ergodic_run, projector_finite, rate_fit
from .invariants import (
    classify_invariant,
    detect_ca_countable,
    detect_pfa_ends,
    escape_checkpoints,
    escape_profile,
    invariance_residual,
    invariant_basis,
    invariant_basis_finite,
    recurrent_classes,
    stationary_of_class,
    transient_states,
)
from .kernels import (
    TailRow,
    TransitionKernel,
    apply_A,
    cesaro_kernel,
    kernel_from_spec,
    kernel_power,
    kernel_to_spec,
    successors,
    truncate,
    truncate_reflecting,
)
from .measures import (
    END_NEG,
    END_POS,
    FAMeasure,
    MeasurableSet,
    StateSpace,
    end_direction,
    evaluate,
    is_disjoint,
    lattice_inf,
    measurable,
    measure_from_json,
    set_from_json,
    singularity_witness,
)
from .report import AnalysisRequest, report_json, run_analysis, verify_report

__version__ = "0.1.0"
