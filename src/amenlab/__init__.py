"""Exact rational certificates for amenability-style finitary criteria.

The package decides, with machine-checkable certificates, whether finite
windows into a group admit almost-invariant measures: balanced picture
families, averaging ("Ramsey") windows, Folner sets, and the classical
rank-2 free-group obstructions.  All arithmetic is exact.
"""

__version__ = "0.1.0"

from .groups import (
    CapExceeded,
    CyclicGroup,
    Element,
    FreeAbelianGroup,
    FreeGroup,
    Group,
    GroupError,
    Measure,
    TableGroup,
    ball,
    group_from_json,
    sort_elements,
    translate_set,
)
from .linprog import (
    FeasibilityOutcome,
    LinearSystem,
    Optimum,
    minimize,
    solve_feasibility,
    verify_certificate,
)
from .balance import (
    BalanceWitness,
    SetFamily,
    UnbalanceWitness,
    balance_deficiency,
    family_of_positive_sets,
    unbalance_witness,
)
from .pictures import (
    NonAmenabilityCertificate,
    SetSpec,
    candidate_pool,
    height,
    picture,
    realization_search,
    realized_family,
)
from .ramsey import (
    RamseyVerdict,
    binary_to_unit,
    boost,
    interior,
    is_epsilon_ramsey,
    ramsey_function,
    subset_measure,
)
from .folner import (
    FolnerReport,
    folner_from_weighted,
    folner_function,
    inequality_harness,
    invariance_defect,
    is_epsilon_folner,
    weighted_folner,
    weighted_folner_function,
)
from . import f2

__all__ = [
    "BalanceWitness",
    "CapExceeded",
    "CyclicGroup",
    "Element",
    "FeasibilityOutcome",
    "FolnerReport",
    "FreeAbelianGroup",
    "FreeGroup",
    "Group",
    "GroupError",
    "LinearSystem",
    "Measure",
    "NonAmenabilityCertificate",
    "Optimum",
    "RamseyVerdict",
    "SetFamily",
    "SetSpec",
    "TableGroup",
    "UnbalanceWitness",
    "__version__",
    "balance_deficiency",
    "ball",
    "binary_to_unit",
    "boost",
    "candidate_pool",
    "f2",
    "family_of_positive_sets",
    "folner_from_weighted",
    "folner_function",
    "group_from_json",
    "height",
    "inequality_harness",
    "interior",
    "invariance_defect",
    "is_epsilon_folner",
    "is_epsilon_ramsey",
    "minimize",
    "picture",
    "ramsey_function",
    "realization_search",
    "realized_family",
    "solve_feasibility",
    "sort_elements",
    "subset_measure",
    "translate_set",
    "unbalance_witness",
    "verify_certificate",
    "weighted_folner",
    "weighted_folner_function",
]
