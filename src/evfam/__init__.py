"""Eventual-family limit calculus and an almost-cyclic fixed-point solver.

The package is layered: exact eventually periodic subsets of N (intseq),
set families and finite topologies (families), multiplicity-valued families
(multisets), limits of set sequences (setlimits), projection operators and
the sequential iteration (cfp), and trace analysis (analysis).  The curated
names below cover the common entry points; the submodules export more.
"""

from .analysis import (
    accumulation_points,
    certify_fixed_points,
    cogap_limit_estimate,
    follows_check,
    follows_reports,
)
from .cfp import (
    AlmostCyclicControl,
    Ball,
    Box,
    ConstantRelaxation,
    CyclicControl,
    Halfspace,
    Hyperplane,
    StopRule,
    Trace,
    acsa_run,
    replay_trace,
)
from .families import (
    CofiniteFamily,
    CoGapLevelFamily,
    FiniteTopology,
    IndicatorFamily,
    InfiniteFamily,
    closure_family,
    family_complement,
    limit_set,
    star,
)
from .intseq import (
    EPSet,
    ExtNat,
    INF,
    PeriodicSeq,
    cogap,
    complement,
    finitely_change,
    gap,
    intersection,
    union,
)
from .multisets import CoGapMultifamily, GapMultifamily, level_family, multiset_limit
from .setlimits import SetSequence, classical_limits, e_limit, verify_limit_theorem

__version__ = "0.1.0"

__all__ = [
    "EPSet",
    "ExtNat",
    "INF",
    "PeriodicSeq",
    "cogap",
    "complement",
    "finitely_change",
    "gap",
    "intersection",
    "union",
    "CofiniteFamily",
    "CoGapLevelFamily",
    "FiniteTopology",
    "IndicatorFamily",
    "InfiniteFamily",
    "closure_family",
    "family_complement",
    "limit_set",
    "star",
    "CoGapMultifamily",
    "GapMultifamily",
    "level_family",
    "multiset_limit",
    "SetSequence",
    "classical_limits",
    "e_limit",
    "verify_limit_theorem",
    "AlmostCyclicControl",
    "Ball",
    "Box",
    "ConstantRelaxation",
    "CyclicControl",
    "Halfspace",
    "Hyperplane",
    "StopRule",
    "Trace",
    "acsa_run",
    "replay_trace",
    "accumulation_points",
    "certify_fixed_points",
    "cogap_limit_estimate",
    "follows_check",
    "follows_reports",
    "__version__",
]
