"""chargechain: finitely additive measures and ergodicity diagnostics for Markov chains.

The package represents signed finitely additive measures as sparse atoms
plus coarse end-charge buckets, builds the adjoint Markov operator pair
(T on bounded functions, A on measures), solves for invariant bases on
finite chains and structured countable walks, checks the classical
small-set and invariant-charge ergodicity conditions, and verifies the
uniform averaged-operator limit theorems numerically.
"""

from .catalog import (
    CatalogEntry,
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
    BetaOutcome,
    ConditionReport,
    ConditionVerdict,
    DoeblinOutcome,
    DoeblinWitness,
    build_condition_report,
    check_alpha,
    check_beta,
    check_doeblin,
    check_doeblin_tilde,
    check_double_star,
    check_star,
    check_tilde_star,
    doeblin_truncation_trend,
    lemma_sup_dirac_residual,
    quasicompact_diagnostic,
    search_doeblin,
    truncate_reflecting,
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
from .ergodic import (
    ErgodicRunResult,
    Projector,
    RateFit,
    char_poly_second_modulus,
    distance_series,
    ergodic_run,
    projector_finite,
    rate_fit,
)
from .invariants import (
    ChainClass,
    Classification,
    EscapeProfile,
    InvariantBasis,
    PairCertificate,
    cesaro_sequence,
    classify_invariant,
    detect_ca_countable,
    detect_pfa_ends,
    escape_profile,
    invariance_residual,
    invariant_basis,
    invariant_basis_finite,
    recurrent_classes,
    split_parts_invariant,
    stationary_of_class,
    transient_states,
)
from .kernels import (
    EndAction,
    TailRow,
    TransitionKernel,
    apply_A,
    apply_T,
    cesaro_kernel,
    duality_residual,
    end_action,
    kernel_from_spec,
    kernel_power,
    kernel_to_spec,
)
from .measures import (
    END_NEG,
    END_POS,
    BoundedFunction,
    End,
    FAMeasure,
    MeasurableSet,
    StateSpace,
    dirac,
    end_charge,
    evaluate,
    from_vector,
    is_disjoint,
    jordan_decompose,
    lattice_inf,
    lattice_inf_oracle,
    lattice_sup,
    measurable,
    measure_from_json,
    pair,
    set_from_json,
    singularity_witness,
    to_vector,
    yosida_hewitt,
)
from .report import (
    AnalysisRequest,
    report_csv,
    report_json,
    run_analysis,
    verify_report,
    worker_count,
)

__version__ = "0.1.0"
