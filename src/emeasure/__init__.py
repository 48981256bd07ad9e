"""Evidence calculus on finite hypothesis lattices.

Hypotheses are subsets of a finite model, each a plain int bitset over
the model's points (`Model.bits_of` and `Model.label` convert), families
are union-closed and built by `union_closure` or `class_from_preorder`,
and evidence tables over them are classified, closed into measures,
weighed against data by exact expectation, corrected for multiplicity and
turned into decision bounds. Everything is exact rational arithmetic. The
exports are what the command line runs, plus the functions that no
subcommand runs yet: `eposterior`, the E-posterior whose form the space
chooses, and the pushforward. Test fixtures and oracles live in the test
suite.
"""

from .xvalue import INF, ONE, XValue, ZERO, as_xvalue, inf_of, parse_xvalue, sup_of
from .spaces import (
    Model,
    Preorder,
    Space,
    SpaceError,
    SpaceReport,
    class_from_preorder,
    preorder_from_class,
    union_closure,
)
from .evidence import (
    EClass,
    EFunction,
    EvidenceError,
    classify,
    close,
    shilkret_integral,
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
    eposterior,
    pushforward_kernel,
)
from .multiplicity import (
    SelectionRule,
    check_fer,
    check_fwe,
    closed_ebh,
    ebh,
    postprocess_efunction,
    self_consistent_selection,
)
from .decisions import (
    ConsequenceSpace,
    ConsequenceTable,
    admissible_decisions,
    check_econsequence_bound,
    check_grunwald_bound,
    check_posthoc_consequence_bound,
    e_integrated_loss,
    optimality_class,
)

__version__ = "0.1.0"
