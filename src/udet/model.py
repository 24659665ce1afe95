"""Formal decision instances: candidates, attribute schemas, facts, criteria.

An :class:`Instance` is the machine-checkable form of a decision prompt: a
finite candidate set, a complete fact matrix over declared attributes, and an
optional overlay of named criteria, weight constraints, and explicit
preference premises.  All values are immutable after construction; `validate`
reports rule violations as data instead of raising.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

# Tolerance for "weights sum to 1" checks.
EPS_WEIGHT = 1e-9

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

NUMERIC = "numeric"
ORDINAL = "ordinal"
HIGHER_BETTER = "higher_better"
LOWER_BETTER = "lower_better"


@dataclass(frozen=True)
class OrdinalScale:
    """Named, ordered list of level names, lowest level first."""

    name: str
    levels: tuple[str, ...]

    def rank(self, level: str) -> int:
        """Zero-based position of `level` in the scale."""
        return self.levels.index(level)


@dataclass(frozen=True)
class AttributeSchema:
    """One scoring dimension: numeric, or ordinal over a declared scale."""

    name: str
    kind: str  # NUMERIC or ORDINAL
    direction: str = HIGHER_BETTER
    scale: str | None = None  # scale name, required when kind == ORDINAL


@dataclass(frozen=True)
class Fact:
    """One cell of the fact matrix: value of `attribute` for `candidate`.

    `value` is a float for numeric attributes and a level name for ordinal
    ones.
    """

    candidate: str
    attribute: str
    value: float | str


@dataclass(frozen=True)
class PreferencePremise:
    """Explicit premise that `winner` is preferred over `loser`."""

    winner: str
    loser: str


@dataclass(frozen=True)
class CriterionSpec:
    """Named weight vector over the instance attributes.

    Weights are stored as (attribute, weight) pairs; a valid criterion covers
    every declared attribute with non-negative weights summing to 1 within
    EPS_WEIGHT.
    """

    name: str
    weights: tuple[tuple[str, float], ...]

    @property
    def weight_map(self) -> dict[str, float]:
        return dict(self.weights)

    def weight(self, attribute: str) -> float:
        return self.weight_map[attribute]


@dataclass(frozen=True)
class PinConstraint:
    """Restricts the admissible criteria to one declared criterion."""

    criterion: str


@dataclass(frozen=True)
class BoundConstraint:
    """Bounds one attribute's weight: `op` is one of ``<=``, ``>=``, ``=``."""

    attribute: str
    op: str
    value: float


WeightConstraint = PinConstraint | BoundConstraint

BOUND_OPS = ("<=", ">=", "=")


@dataclass(frozen=True)
class Instance:
    """A complete decision instance.

    Invariants (enforced by `validate`): at least two candidates and one
    attribute, exactly one fact per (candidate, attribute) pair, unique
    identifiers throughout, criteria covering all attributes with unit weight
    sum, constraints referencing declared names, and acyclic preference
    premises.
    """

    id: str
    question: str
    candidates: tuple[str, ...]
    scales: tuple[OrdinalScale, ...] = ()
    attributes: tuple[AttributeSchema, ...] = ()
    facts: tuple[Fact, ...] = ()
    criteria: tuple[CriterionSpec, ...] = ()
    constraints: tuple[WeightConstraint, ...] = ()
    preferences: tuple[PreferencePremise, ...] = ()
    decisiveness_required: bool = False

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    def scale_by_name(self, name: str) -> OrdinalScale:
        for s in self.scales:
            if s.name == name:
                return s
        raise KeyError(name)

    def attribute_by_name(self, name: str) -> AttributeSchema:
        for a in self.attributes:
            if a.name == name:
                return a
        raise KeyError(name)

    def criterion_by_name(self, name: str) -> CriterionSpec:
        for c in self.criteria:
            if c.name == name:
                return c
        raise KeyError(name)

    def fact_value(self, candidate: str, attribute: str) -> float | str:
        for f in self.facts:
            if f.candidate == candidate and f.attribute == attribute:
                return f.value
        raise KeyError((candidate, attribute))

    def pinned_criterion(self) -> str | None:
        """Name of the first pin constraint's criterion, if any."""
        for c in self.constraints:
            if isinstance(c, PinConstraint):
                return c.criterion
        return None


@dataclass(frozen=True)
class Violation:
    """One validation failure: the offending element and the violated rule."""

    element: str
    rule: str
    message: str = ""

    def __str__(self) -> str:
        tail = f": {self.message}" if self.message else ""
        return f"{self.element} [{self.rule}]{tail}"


def _is_ident(name: str) -> bool:
    return bool(IDENT_RE.match(name))


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value: int | float) -> bool:
    """False for inf, NaN and an int too large for a float."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def validate(instance: Instance) -> list[Violation]:
    """Check every structural invariant; return an empty list iff all hold.

    The returned list is deterministic and order-stable: the same instance
    always yields the same violations in the same order.  Violations are
    data, not failures; downstream operations assume a validated instance.
    """
    out: list[Violation] = []
    add = out.append

    if not _is_ident(instance.id):
        add(Violation(f"instance '{instance.id}'", "identifier-syntax",
                      "instance id must be an identifier"))

    # Instance-level counts.
    if len(instance.candidates) < 2:
        add(Violation("candidates", "candidate-count",
                      f"at least 2 candidates required, found {len(instance.candidates)}"))
    if len(instance.attributes) < 1:
        add(Violation("attributes", "attribute-count",
                      "at least 1 attribute required"))

    seen_c: set[str] = set()
    for cand in instance.candidates:
        if not _is_ident(cand):
            add(Violation(f"candidate '{cand}'", "identifier-syntax",
                          "candidate id must be an identifier"))
        if cand in seen_c:
            add(Violation(f"candidate '{cand}'", "candidate-duplicate",
                          "candidate ids must be unique"))
        seen_c.add(cand)

    # Scales.
    scale_names: set[str] = set()
    for scale in instance.scales:
        if not _is_ident(scale.name):
            add(Violation(f"scale '{scale.name}'", "identifier-syntax",
                          "scale name must be an identifier"))
        if scale.name in scale_names:
            add(Violation(f"scale '{scale.name}'", "scale-duplicate",
                          "scale names must be unique"))
        scale_names.add(scale.name)
        if len(scale.levels) < 2:
            add(Violation(f"scale '{scale.name}'", "scale-level-count",
                          f"at least 2 levels required, found {len(scale.levels)}"))
        seen_l: set[str] = set()
        for level in scale.levels:
            if not _is_ident(level):
                add(Violation(f"scale '{scale.name}' level '{level}'", "identifier-syntax",
                              "level name must be a nonempty identifier"))
            if level in seen_l:
                add(Violation(f"scale '{scale.name}' level '{level}'", "scale-level-duplicate",
                              "level names must be unique within a scale"))
            seen_l.add(level)

    # Attributes.
    attr_names: set[str] = set()
    for attr in instance.attributes:
        if not _is_ident(attr.name):
            add(Violation(f"attribute '{attr.name}'", "identifier-syntax",
                          "attribute name must be an identifier"))
        if attr.name in attr_names:
            add(Violation(f"attribute '{attr.name}'", "attribute-duplicate",
                          "attribute names must be unique"))
        attr_names.add(attr.name)
        if attr.kind not in (NUMERIC, ORDINAL):
            add(Violation(f"attribute '{attr.name}'", "attribute-kind",
                          f"unknown kind '{attr.kind}'"))
        if attr.direction not in (HIGHER_BETTER, LOWER_BETTER):
            add(Violation(f"attribute '{attr.name}'", "attribute-direction",
                          f"unknown direction '{attr.direction}'"))
        if attr.kind == ORDINAL and attr.scale not in scale_names:
            add(Violation(f"attribute '{attr.name}'", "attribute-scale",
                          f"ordinal attribute references undeclared scale '{attr.scale}'"))

    # Facts: references, value types, duplicates, completeness.
    cand_set = set(instance.candidates)
    seen_facts: set[tuple[str, str]] = set()
    for fact in instance.facts:
        where = f"fact {fact.candidate}.{fact.attribute}"
        if fact.candidate not in cand_set:
            add(Violation(where, "fact-reference",
                          f"undeclared candidate '{fact.candidate}'"))
            continue
        if fact.attribute not in attr_names:
            add(Violation(where, "fact-reference",
                          f"undeclared attribute '{fact.attribute}'"))
            continue
        attr = instance.attribute_by_name(fact.attribute)
        if attr.kind == NUMERIC:
            if not _is_number(fact.value):
                add(Violation(where, "fact-value-type",
                              f"numeric attribute requires a number, got {fact.value!r}"))
            elif not _is_finite(fact.value):
                add(Violation(where, "fact-value-finite",
                              f"numeric value must be finite, got {fact.value!r}"))
        elif attr.kind == ORDINAL:
            if not isinstance(fact.value, str):
                add(Violation(where, "fact-value-type",
                              f"ordinal attribute requires a level name, got {fact.value!r}"))
            elif attr.scale in scale_names and fact.value not in instance.scale_by_name(attr.scale).levels:
                add(Violation(where, "fact-ordinal-level",
                              f"'{fact.value}' is not a level of scale '{attr.scale}'"))
        key = (fact.candidate, fact.attribute)
        if key in seen_facts:
            add(Violation(where, "fact-duplicate",
                          "exactly one fact per (candidate, attribute) pair"))
        seen_facts.add(key)
    for cand in instance.candidates:
        for attr in instance.attributes:
            if (cand, attr.name) not in seen_facts:
                add(Violation(f"fact {cand}.{attr.name}", "fact-missing",
                              "fact matrix must be complete"))

    # Criteria.
    crit_names: set[str] = set()
    for crit in instance.criteria:
        if not _is_ident(crit.name):
            add(Violation(f"criterion '{crit.name}'", "identifier-syntax",
                          "criterion name must be an identifier"))
        if crit.name in crit_names:
            add(Violation(f"criterion '{crit.name}'", "criterion-duplicate",
                          "criterion names must be unique"))
        crit_names.add(crit.name)
        wmap = dict(crit.weights)
        for attr_name in wmap:
            if attr_name not in attr_names:
                add(Violation(f"criterion '{crit.name}'", "criterion-reference",
                              f"weight for undeclared attribute '{attr_name}'"))
        missing = [a for a in instance.attribute_names if a not in wmap]
        if missing:
            add(Violation(f"criterion '{crit.name}'", "criterion-coverage",
                          f"missing weight for attribute(s): {', '.join(missing)}"))
        for attr_name, w in crit.weights:
            if not _is_number(w):
                add(Violation(f"criterion '{crit.name}'", "criterion-weight-type",
                              f"weight for '{attr_name}' must be a number"))
            elif not _is_finite(w):
                add(Violation(f"criterion '{crit.name}'", "criterion-weight-finite",
                              f"weight for '{attr_name}' must be finite, got {w!r}"))
            elif w < 0:
                add(Violation(f"criterion '{crit.name}'", "criterion-weight-negative",
                              f"weight for '{attr_name}' is negative ({w})"))
        total = sum(w for _, w in crit.weights if _is_number(w) and _is_finite(w))
        if abs(total - 1.0) > EPS_WEIGHT:
            add(Violation(f"criterion '{crit.name}'", "criterion-weight-sum",
                          f"weights sum to {total!r}, expected 1 within {EPS_WEIGHT}"))

    # Constraints.
    for con in instance.constraints:
        if isinstance(con, PinConstraint):
            if con.criterion not in crit_names:
                add(Violation(f"constraint pin({con.criterion})", "constraint-pin-reference",
                              f"undeclared criterion '{con.criterion}'"))
        elif isinstance(con, BoundConstraint):
            where = f"constraint weight {con.attribute} {con.op} {con.value}"
            if con.attribute not in attr_names:
                add(Violation(where, "constraint-bound-reference",
                              f"undeclared attribute '{con.attribute}'"))
            if con.op not in BOUND_OPS:
                add(Violation(where, "constraint-bound-op",
                              f"operator must be one of {', '.join(BOUND_OPS)}"))
            if not (0.0 <= con.value <= 1.0):
                add(Violation(where, "constraint-bound-value",
                              f"bound value {con.value} outside [0, 1]"))
        else:
            add(Violation(f"constraint {con!r}", "constraint-kind", "unknown constraint kind"))

    # Preference premises.
    edges: list[tuple[str, str]] = []
    for pref in instance.preferences:
        where = f"preference {pref.winner} > {pref.loser}"
        if pref.winner == pref.loser:
            add(Violation(where, "preference-self", "winner and loser must differ"))
            continue
        if pref.winner not in cand_set or pref.loser not in cand_set:
            add(Violation(where, "preference-reference",
                          "both sides must be declared candidates"))
            continue
        edges.append((pref.winner, pref.loser))
    cycle = _find_cycle(edges)
    if cycle:
        add(Violation(" > ".join(cycle), "preference-cycle",
                      "explicit preference premises must be acyclic"))

    return out


def _find_cycle(edges: list[tuple[str, str]]) -> list[str] | None:
    """Return one directed cycle as a node list (first == last), or None."""
    succ: dict[str, list[str]] = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[str, int] = {}
    stack: list[str] = []

    def visit(node: str) -> list[str] | None:
        color[node] = GRAY
        stack.append(node)
        for nxt in succ.get(node, ()):
            state = color.get(nxt, WHITE)
            if state == GRAY:
                i = stack.index(nxt)
                return stack[i:] + [nxt]
            if state == WHITE:
                found = visit(nxt)
                if found:
                    return found
        stack.pop()
        color[node] = BLACK
        return None

    for start, _ in edges:
        if color.get(start, WHITE) == WHITE:
            found = visit(start)
            if found:
                return found
    return None
