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
from operator import attrgetter, itemgetter

# Tolerance for "weights sum to 1" checks.
EPS_WEIGHT = 1e-9

# The syntax of every name: instance ids, candidates, scales, levels,
# attributes and criteria.
IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_IDENT_RE = re.compile(IDENT)

NUMERIC = "numeric"
ORDINAL = "ordinal"
HIGHER_BETTER = "higher_better"
LOWER_BETTER = "lower_better"


class _ValueType(type):
    """Metaclass of `Immutable`: reads the fields a class annotates."""

    def __new__(mcs, name, bases, ns, eq: bool = True):
        # Only the names are read: the annotations stay unevaluated strings.
        own = tuple(ns.get("__annotations__", ()))
        ns.setdefault("__slots__", own)
        if not eq:
            ns["__eq__"], ns["__hash__"] = object.__eq__, object.__hash__
        if own:  # else the fields of the base serve as they are
            ns["_fields"] = fields = bases[0]._fields + own
            ns["_defaults"] = defaults = {**bases[0]._defaults,
                                          **{field: ns.pop(field) for field in own if field in ns}}
            ns["_tail"] = tuple(defaults.values())
            if set(fields[len(fields) - len(defaults):]) != defaults.keys():
                raise TypeError(f"{name}: a field without a default follows one with a default")
            get = attrgetter(*fields)
            # The field values as a tuple, for one field as for several.
            ns["_values"] = get if len(fields) > 1 else staticmethod(lambda obj: (get(obj),))
            ns["_by_keyword"] = (itemgetter(*fields) if len(fields) > 1
                                 else lambda kwargs: (kwargs[fields[0]],))
        cls = super().__new__(mcs, name, bases, ns)
        if own:
            cls._setters = tuple(getattr(cls, field).__set__ for field in fields)
        return cls

    @property
    def __signature__(cls):
        """The fields as parameters, for `inspect.signature` and `help`."""
        from inspect import Parameter, Signature
        return Signature([Parameter(field, Parameter.POSITIONAL_OR_KEYWORD,
                                    default=cls._defaults.get(field, Parameter.empty))
                          for field in cls._fields])


def _bind(cls, args: tuple, kwargs: dict) -> tuple:
    """The field values of a call that mixes positions and keywords, bound
    through the class's signature as a Python function binds its
    parameters; a TypeError names the class."""
    try:
        bound = cls.__signature__.bind(*args, **kwargs)
    except TypeError as exc:
        raise TypeError(f"{cls.__qualname__}() {exc}") from None
    bound.apply_defaults()
    return bound.args


class Immutable(metaclass=_ValueType):
    """Base of the value types: fields set once, compared by value.

    A subclass declares its fields once, as class annotations in positional
    order, each default as the class-level value::

        class Point(Immutable):
            x: float
            y: float = 0.0

    The metaclass turns them into `__slots__`, the `_fields` tuple and the
    `_defaults` dict, and `__init__` takes the fields by position or by
    keyword as a Python function takes its parameters.  A class that
    coerces a field writes an `__init__` that calls this one and then sets
    the coerced value with `object.__setattr__`, so it binds the same way.

    One `__init__` serves every class, and nothing is compiled.  On a
    2-CPU x86-64 host with Python 3.11, generating an `__init__` per class
    at import, as `dataclasses` does, took `import udet` from about 6 to
    11 ms, and building one closure per class cost 0.4 ms more than this.

    Any other assignment or deletion raises AttributeError.  Two instances
    are equal when they have the same class and equal fields, and the hash
    is taken over the same fields.  A subclass declared with ``eq=False``
    compares and hashes by identity instead.  `replace`, `copy` and
    `pickle` build new instances through the constructor.
    """

    __slots__ = ()
    _fields = _tail = _setters = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        # Served directly: every field by position, trailing defaults
        # appended, and every field by keyword.  `_bind` takes the rest.
        cls = type(self)
        n, tail = len(cls._fields), cls._tail
        if not kwargs and len(args) == n:
            values = args
        elif not kwargs and n - len(tail) <= len(args) < n:
            values = args + tail[len(args) - n + len(tail):]
        elif not args and len(kwargs) == n:
            try:
                values = cls._by_keyword(kwargs)
            except KeyError:
                values = _bind(cls, args, kwargs)
        else:
            values = _bind(cls, args, kwargs)
        for set_field, value in zip(cls._setters, values):
            set_field(self, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)

    def replace(self, **changes):
        """A copy with the named fields changed; an unknown name raises TypeError."""
        return type(self)(**dict(zip(self._fields, self._values(self)), **changes))


class OrdinalScale(Immutable):
    """Named, ordered list of level names, lowest level first."""

    name: str
    levels: tuple[str, ...]

    def rank(self, level: str) -> int:
        """Zero-based position of `level` in the scale."""
        return self.levels.index(level)


class AttributeSchema(Immutable):
    """One scoring dimension: numeric, or ordinal over a declared scale.

    `kind` is NUMERIC or ORDINAL; `scale` names the scale, required when
    `kind` is ORDINAL.
    """

    name: str
    kind: str
    direction: str = HIGHER_BETTER
    scale: str | None = None


class Fact(Immutable):
    """One cell of the fact matrix: value of `attribute` for `candidate`.

    `value` is a float for numeric attributes and a level name for ordinal
    ones.
    """

    candidate: str
    attribute: str
    value: float | str


class PreferencePremise(Immutable):
    """Explicit premise that `winner` is preferred over `loser`."""

    winner: str
    loser: str


class CriterionSpec(Immutable):
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


class PinConstraint(Immutable):
    """Restricts the admissible criteria to one declared criterion."""

    criterion: str


class BoundConstraint(Immutable):
    """Bounds one attribute's weight: `op` is one of ``<=``, ``>=``, ``=``."""

    attribute: str
    op: str
    value: float


WeightConstraint = PinConstraint | BoundConstraint

BOUND_OPS = ("<=", ">=", "=")


class Instance(Immutable):
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

    def criterion_by_name(self, name: str) -> CriterionSpec:
        for c in self.criteria:
            if c.name == name:
                return c
        raise KeyError(name)

    def pinned_criterion(self) -> str | None:
        """Name of the first pin constraint's criterion, if any."""
        for c in self.constraints:
            if isinstance(c, PinConstraint):
                return c.criterion
        return None


class Violation(Immutable):
    """One validation failure: the offending element, the violated rule, a
    message that stands on its own, and the path of the blamed element.

    `path` walks the instance by field name and index:
    ``("facts", 3, "candidate")`` blames ``instance.facts[3].candidate`` and
    ``("criteria", 0, "weights", 1, 0)`` the attribute name of the second
    weight of the first criterion.  A path that ends at a whole collection,
    such as ``("candidates",)`` for a count or ``("facts",)`` for a missing
    fact, blames no single element.
    """

    element: str
    rule: str
    message: str = ""
    path: tuple[str | int, ...] = ()

    def __str__(self) -> str:
        tail = f": {self.message}" if self.message else ""
        return f"{self.element} [{self.rule}]{tail}"


def _is_ident(name: str) -> bool:
    return _IDENT_RE.fullmatch(name) is not None


def format_number(value: float) -> str:
    """Canonical number rendering: up to 12 significant digits, no trailing zeros."""
    return f"{value:.12g}"


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value: int | float) -> bool:
    """False for inf, NaN and an int too large for a float."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _fact_element(fact: Fact) -> str:
    return f"fact {fact.candidate}.{fact.attribute}"


def validate(instance: Instance) -> list[Violation]:
    """Check every structural invariant; return an empty list iff all hold.

    This is the one rule set: the parser checks only the grammar and reports
    the first of these violations in document order, at the token that
    declared the element each `Violation.path` blames.  The returned list is
    deterministic and order-stable: the same instance always yields the same
    violations in the same order.  Violations are data, not failures;
    downstream operations assume a validated instance.
    """
    out: list[Violation] = []
    add = out.append

    if not _is_ident(instance.id):
        add(Violation(f"instance '{instance.id}'", "identifier-syntax",
                      f"instance id must be an identifier, got {instance.id!r}", ("id",)))

    # Instance-level counts.
    if len(instance.candidates) < 2:
        add(Violation("candidates", "candidate-count",
                      f"at least 2 candidates required, found {len(instance.candidates)}",
                      ("candidates",)))
    if len(instance.attributes) < 1:
        add(Violation("attributes", "attribute-count",
                      "at least 1 attribute required", ("attributes",)))

    seen_c: set[str] = set()
    for i, cand in enumerate(instance.candidates):
        path = ("candidates", i)
        if not _is_ident(cand):
            add(Violation(f"candidate '{cand}'", "identifier-syntax",
                          "candidate id must be an identifier", path))
        if cand in seen_c:
            add(Violation(f"candidate '{cand}'", "candidate-duplicate",
                          f"duplicate candidate '{cand}'", path))
        seen_c.add(cand)

    # Scales; the first of two equal names is the one references resolve to.
    levels_of: dict[str, tuple[str, ...]] = {}
    for i, scale in enumerate(instance.scales):
        where, path = f"scale '{scale.name}'", ("scales", i, "name")
        if not _is_ident(scale.name):
            add(Violation(where, "identifier-syntax", "scale name must be an identifier", path))
        if scale.name in levels_of:
            add(Violation(where, "scale-duplicate", f"duplicate scale '{scale.name}'", path))
        levels_of.setdefault(scale.name, scale.levels)
        if len(scale.levels) < 2:
            add(Violation(where, "scale-level-count", "a scale needs at least 2 levels", path))
        seen_l: set[str] = set()
        for j, level in enumerate(scale.levels):
            where, path = f"scale '{scale.name}' level '{level}'", ("scales", i, "levels", j)
            if not _is_ident(level):
                add(Violation(where, "identifier-syntax",
                              "level name must be a nonempty identifier", path))
            if level in seen_l:
                add(Violation(where, "scale-level-duplicate", f"duplicate level '{level}'", path))
            seen_l.add(level)

    # Attributes.
    attrs: dict[str, AttributeSchema] = {}
    for i, attr in enumerate(instance.attributes):
        where = f"attribute '{attr.name}'"
        if not _is_ident(attr.name):
            add(Violation(where, "identifier-syntax", "attribute name must be an identifier",
                          ("attributes", i, "name")))
        if attr.name in attrs:
            add(Violation(where, "attribute-duplicate", f"duplicate attribute '{attr.name}'",
                          ("attributes", i, "name")))
        attrs.setdefault(attr.name, attr)
        if attr.kind not in (NUMERIC, ORDINAL):
            add(Violation(where, "attribute-kind", f"unknown kind '{attr.kind}'",
                          ("attributes", i, "kind")))
        if attr.direction not in (HIGHER_BETTER, LOWER_BETTER):
            add(Violation(where, "attribute-direction", f"unknown direction '{attr.direction}'",
                          ("attributes", i, "direction")))
        if attr.kind == ORDINAL and attr.scale not in levels_of:
            add(Violation(where, "attribute-scale", f"undeclared scale '{attr.scale}'",
                          ("attributes", i, "scale")))

    # Facts: references, value types, duplicates, completeness.  A fact's
    # element text is written only for a violation.
    seen_facts: set[tuple[str, str]] = set()
    for i, fact in enumerate(instance.facts):
        if fact.candidate not in seen_c:
            add(Violation(_fact_element(fact), "fact-reference",
                          f"undeclared candidate '{fact.candidate}'", ("facts", i, "candidate")))
            continue
        if fact.attribute not in attrs:
            add(Violation(_fact_element(fact), "fact-reference",
                          f"undeclared attribute '{fact.attribute}'", ("facts", i, "attribute")))
            continue
        attr = attrs[fact.attribute]
        path = ("facts", i, "value")
        if attr.kind == NUMERIC:
            if not _is_number(fact.value):
                add(Violation(_fact_element(fact), "fact-value-type",
                              f"numeric attribute '{attr.name}' requires a number", path))
            elif not _is_finite(fact.value):
                add(Violation(_fact_element(fact), "fact-value-finite",
                              f"numeric value must be finite, got {fact.value!r}", path))
        elif attr.kind == ORDINAL:
            if not isinstance(fact.value, str):
                add(Violation(_fact_element(fact), "fact-value-type",
                              f"ordinal attribute '{attr.name}' requires a level name", path))
            elif attr.scale in levels_of and fact.value not in levels_of[attr.scale]:
                add(Violation(_fact_element(fact), "fact-ordinal-level",
                              f"'{fact.value}' is not a level of scale '{attr.scale}'", path))
        key = (fact.candidate, fact.attribute)
        if key in seen_facts:
            add(Violation(_fact_element(fact), "fact-duplicate",
                          f"duplicate fact for {fact.candidate}.{fact.attribute}",
                          ("facts", i, "candidate")))
        seen_facts.add(key)
    # Every pair seen is of declared names, so when there are as many pairs
    # as the names allow, none is missing.
    if len(seen_facts) < len(instance.candidates) * len(instance.attributes):
        for cand in instance.candidates:
            for attr in instance.attributes:
                if (cand, attr.name) not in seen_facts:
                    add(Violation(f"fact {cand}.{attr.name}", "fact-missing",
                                  f"incomplete fact matrix: missing fact {cand}.{attr.name}",
                                  ("facts",)))

    # Criteria.
    crit_names: set[str] = set()
    for i, crit in enumerate(instance.criteria):
        where, name_path = f"criterion '{crit.name}'", ("criteria", i, "name")
        if not _is_ident(crit.name):
            add(Violation(where, "identifier-syntax", "criterion name must be an identifier",
                          name_path))
        if crit.name in crit_names:
            add(Violation(where, "criterion-duplicate", f"duplicate criterion '{crit.name}'",
                          name_path))
        crit_names.add(crit.name)
        weighted: set[str] = set()
        for j, (attr_name, w) in enumerate(crit.weights):
            pair = ("criteria", i, "weights", j)
            if attr_name not in attrs:
                add(Violation(where, "criterion-reference",
                              f"undeclared attribute '{attr_name}'", pair + (0,)))
            if attr_name in weighted:
                add(Violation(where, "criterion-weight-duplicate",
                              f"duplicate weight for '{attr_name}'", pair + (0,)))
            weighted.add(attr_name)
            if not _is_number(w):
                add(Violation(where, "criterion-weight-type",
                              f"weight for '{attr_name}' must be a number", pair + (1,)))
            elif not _is_finite(w):
                add(Violation(where, "criterion-weight-finite",
                              f"weight for '{attr_name}' must be finite, got {w!r}",
                              pair + (1,)))
            elif w < 0:
                add(Violation(where, "criterion-weight-negative",
                              f"weight for '{attr_name}' is negative", pair + (1,)))
        missing = [a for a in instance.attribute_names if a not in weighted]
        if missing:
            add(Violation(where, "criterion-coverage",
                          f"criterion '{crit.name}' missing weight for: {', '.join(missing)}",
                          name_path))
        total = sum(w for _, w in crit.weights if _is_number(w) and _is_finite(w))
        if abs(total - 1.0) > EPS_WEIGHT:
            add(Violation(where, "criterion-weight-sum",
                          f"criterion '{crit.name}' weights sum to {total!r}, expected 1",
                          name_path))

    # Constraints.
    for i, con in enumerate(instance.constraints):
        if isinstance(con, PinConstraint):
            if con.criterion not in crit_names:
                add(Violation(f"constraint pin({con.criterion})", "constraint-pin-reference",
                              f"undeclared criterion '{con.criterion}'",
                              ("constraints", i, "criterion")))
        elif isinstance(con, BoundConstraint):
            where = f"constraint weight {con.attribute} {con.op} {con.value}"
            if con.attribute not in attrs:
                add(Violation(where, "constraint-bound-reference",
                              f"undeclared attribute '{con.attribute}'",
                              ("constraints", i, "attribute")))
            if con.op not in BOUND_OPS:
                add(Violation(where, "constraint-bound-op",
                              f"operator must be one of {', '.join(BOUND_OPS)}",
                              ("constraints", i, "op")))
            path = ("constraints", i, "value")
            if not _is_number(con.value):
                add(Violation(where, "constraint-bound-type", "bound value must be a number",
                              path))
            elif not _is_finite(con.value):
                add(Violation(where, "constraint-bound-value",
                              f"bound value {con.value!r} outside [0, 1]", path))
            elif not 0.0 <= con.value <= 1.0:
                add(Violation(where, "constraint-bound-value",
                              f"bound value {format_number(con.value)} outside [0, 1]", path))
        else:
            add(Violation(f"constraint {con!r}", "constraint-kind", "unknown constraint kind",
                          ("constraints", i)))

    # Preference premises; an edge counts from its first premise.
    first_premise: dict[tuple[str, str], int] = {}
    for i, pref in enumerate(instance.preferences):
        where = f"preference {pref.winner} > {pref.loser}"
        undeclared = [side for side in ("winner", "loser")
                      if getattr(pref, side) not in seen_c]
        for side in undeclared:
            add(Violation(where, "preference-reference",
                          f"undeclared candidate '{getattr(pref, side)}'",
                          ("preferences", i, side)))
        if undeclared:
            continue
        if pref.winner == pref.loser:
            add(Violation(where, "preference-self", "preference winner and loser must differ",
                          ("preferences", i, "loser")))
            continue
        first_premise.setdefault((pref.winner, pref.loser), i)
    cycle = _find_cycle(list(first_premise))
    if cycle:
        i = max(first_premise[edge] for edge in zip(cycle, cycle[1:]))
        pref = instance.preferences[i]
        add(Violation(" > ".join(cycle), "preference-cycle",
                      f"preference {pref.winner} over {pref.loser} creates a cycle",
                      ("preferences", i, "winner")))

    return out


def _find_cycle(edges: list[tuple[str, str]]) -> list[str] | None:
    """Return one directed cycle as a node list (first == last), or None.

    Depth-first from each edge's tail in order, successors in edge order.
    The search keeps its own stack, so a long chain of premises cannot
    exhaust Python's recursion limit.
    """
    succ: dict[str, list[str]] = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    ON_PATH, DONE = 1, 2
    state: dict[str, int] = {}
    for start, _ in edges:
        if start in state:
            continue
        path, pending = [start], [iter(succ.get(start, ()))]
        state[start] = ON_PATH
        while pending:
            for nxt in pending[-1]:
                seen = state.get(nxt)
                if seen == ON_PATH:
                    return path[path.index(nxt):] + [nxt]
                if seen is None:
                    state[nxt] = ON_PATH
                    path.append(nxt)
                    pending.append(iter(succ.get(nxt, ())))
                    break
            else:
                state[path.pop()] = DONE
                pending.pop()
    return None
