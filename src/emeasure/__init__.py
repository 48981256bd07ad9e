"""Evidence calculus on finite hypothesis lattices.

Hypotheses are subsets of a finite model, families are union-closed, and
evidence tables over them are classified, closed into measures, weighed
against data by exact expectation, corrected for multiplicity and turned
into decision bounds. Everything is exact rational arithmetic.
"""

from .xvalue import INF, ONE, XValue, ZERO, as_xvalue, inf_of, parse_xvalue, sup_of
from .spaces import (
    HypothesisClass,
    Model,
    PointSet,
    Preorder,
    Space,
    SpaceError,
    SpaceReport,
    class_from_preorder,
    preimage_class,
    preorder_from_class,
    space_from_generators,
    union_closure,
)
from .evidence import (
    EClass,
    EFunction,
    EvidenceError,
    classify,
    close,
    dirac_measure,
    extend_to_powerset,
    merge_convex,
    unit_measure,
)
from .integration import (
    OrderMeasurableFn,
    e_markov_check,
    integral_least_true,
    pointwise_sup,
    posthoc_markov_identity,
    shilkret_integral,
    sup_interchange_check,
)
from .kernels import (
    EKernel,
    EProcess,
    FiltrationTree,
    Pmf,
    ProbabilityAssignment,
    SampleSpace,
    check_anytime_validity,
    check_posthoc_validity,
    check_predictive_validity,
    check_validity,
    close_kernel,
    close_process,
    confidence_set,
    constant_kernel,
    eposterior_closed,
    eposterior_raw,
    likelihood_kernel,
    merge_convex_kernels,
    pushforward_kernel,
    rejection_set,
)
from .multiplicity import (
    AvgOverSelection,
    CustomPhi,
    SelectionRule,
    SupOverSelections,
    SupOverTrue,
    check_fer,
    check_fwe,
    check_phi_validity,
    closed_ebh,
    ebh,
    familywise_evidence,
    fep_fsp,
    postprocess_efunction,
    postprocess_selection,
    self_consistent_selection,
)
from .decisions import (
    ConsequenceSpace,
    ConsequenceTable,
    NumericLoss,
    admissible_decisions,
    build_consequence_class,
    check_econsequence_bound,
    check_grunwald_bound,
    check_posthoc_consequence_bound,
    e_integrated_loss,
    evidence_against_optimality,
    hypothesis_for_bound,
    optimality_class,
)

__version__ = "0.1.0"
