"""Capacity-constrained lexicographic choice rules.

Exhaustive axiom checking with deterministic minimal witnesses, priority
extraction, feasibility-constrained choice, deferred acceptance mechanisms
and their properties, school-choice rule comparison, and an embedded
regression casebook.
"""

from .axioms import (
    ALL_CHECKS,
    AxiomReport,
    check_capacity_filling,
    check_cwarp,
    check_cwrarp,
    check_gross_substitutes,
    check_iaa,
    check_insertion,
    check_monotonicity,
    check_path_independence,
    check_wrarp,
    replay_witness,
)
from .core import (
    MAX_ALTERNATIVES,
    ChoiceTable,
    DomainError,
    Problem,
    Universe,
    make_universe,
)
from .feasibility import (
    FLEX_CHECKS,
    FChoiceTable,
    FeasibilityFamily,
    check_csarp,
    check_f_capacity_filling,
    extract_flex_profile,
    flex_materialize,
    make_family,
    replay_f_witness,
)
from .identify import (
    ExtractionError,
    extract_capacity_wise_responsive,
    extract_lex_profile,
    extract_responsive,
)
from .mechanism import (
    MECHANISM_CHECKS,
    AllocationProblem,
    ChoiceStructure,
    DAMechanism,
    MechanismSpace,
    all_preferences,
    allocations,
    check_isd,
    check_resource_monotonicity,
    check_strategy_proofness,
    check_truncation_invariance,
    check_unavailable_type_invariance,
    check_weak_isd,
    check_weak_non_wastefulness,
    da_allocate,
    exhaustive_space,
    find_impossibility_witness,
    single_object_space,
)
from .rules import (
    BOSTON_BUILDERS,
    CapacityWise,
    CapacityWiseLists,
    Lexicographic,
    PriorityOrdering,
    PriorityProfile,
    Responsive,
    TableRule,
    boston_requirement_holds,
    build_compromise,
    build_open_walk,
    build_rotating,
    build_walk_open,
    materialize,
    ordering_from_labels,
)
from .serialize import (
    RuleSpec,
    SpecError,
    canonical_json,
    load_spec,
    parse_spec,
    report_dict,
    spec_digest,
)

__version__ = "0.1.0"
