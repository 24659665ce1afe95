"""Executable semantics for decision instances under criterion underdetermination.

Parse `.udet` instance files, compute the premise-compatible answer set and
whether the instance is underdetermined, evaluate structured responses
against correctness / non-bias / utility predicates, check the resulting
trilemma over the structured response space against those predicates, and
run the recommended response policy.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .corpus import CorpusEntry, ExpectedSummary, load_corpus
from .dsl import ParseError, parse_instance, serialize_instance
from .errors import (
    ContradictoryPremises,
    CorpusCorrupt,
    InfeasibleConstraints,
    ResponseSpaceTooLarge,
    UdetError,
    UndeclaredReference,
)
from .model import (
    EPS_WEIGHT,
    AttributeSchema,
    BoundConstraint,
    CriterionSpec,
    Fact,
    Instance,
    OrdinalScale,
    PinConstraint,
    PreferencePremise,
    Violation,
    WeightConstraint,
    validate,
)
from .policy import PolicyDecision, decide
from .responses import (
    Clarify,
    Conditional,
    Decisive,
    Equivalence,
    Refuse,
    Response,
    ResponseEvaluator,
    Verdict,
    u_assistive_score,
)
from .semantics import (
    EPS_SCORE,
    AdmissibleSet,
    Analysis,
    ScoreMatrix,
    SemanticsResult,
    WinnerStats,
    admissible_set,
    analyze,
    compatible_answers,
    normalize,
    winner_statistics,
)
from .trilemma import (
    GeneratorConfig,
    PairwiseCheck,
    TrilemmaReport,
    VerdictTable,
    check_trilemma,
    evaluate_space,
    generate_instance,
)

__all__ = [
    "__version__",
    "AttributeSchema", "BoundConstraint", "CriterionSpec", "Fact", "Instance",
    "OrdinalScale", "PinConstraint", "PreferencePremise", "Violation",
    "WeightConstraint", "validate", "EPS_WEIGHT",
    "ParseError", "parse_instance", "serialize_instance",
    "EPS_SCORE", "AdmissibleSet", "Analysis", "ScoreMatrix", "SemanticsResult",
    "WinnerStats", "admissible_set", "analyze", "compatible_answers", "normalize",
    "winner_statistics",
    "Clarify", "Conditional", "Decisive", "Equivalence", "Refuse", "Response",
    "ResponseEvaluator", "Verdict", "u_assistive_score",
    "GeneratorConfig", "PairwiseCheck", "TrilemmaReport", "VerdictTable", "check_trilemma",
    "evaluate_space", "generate_instance",
    "PolicyDecision", "decide",
    "CorpusEntry", "ExpectedSummary", "load_corpus",
    "UdetError", "ContradictoryPremises", "CorpusCorrupt",
    "InfeasibleConstraints", "ResponseSpaceTooLarge",
    "UndeclaredReference",
]
