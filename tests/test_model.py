from __future__ import annotations

import pytest

from helpers import build_scholarship, fact_value

from udet.model import (
    NUMERIC,
    AttributeSchema,
    BoundConstraint,
    CriterionSpec,
    Fact,
    OrdinalScale,
    PinConstraint,
    PreferencePremise,
    validate,
)


def rules(instance) -> list[str]:
    return [v.rule for v in validate(instance)]


def test_scholarship_validates_clean():
    assert validate(build_scholarship()) == []


def test_single_candidate_flagged():
    inst = build_scholarship(
        candidates=("A",),
        facts=(Fact("A", "gpa", 9.5), Fact("A", "need", "moderate")),
    )
    assert "candidate-count" in rules(inst)


def test_missing_fact_flagged():
    base = build_scholarship()
    inst = base.replace(facts=tuple(f for f in base.facts
                                    if not (f.candidate == "B" and f.attribute == "gpa")))
    found = [v for v in validate(inst) if v.rule == "fact-missing"]
    assert len(found) == 1
    assert "B.gpa" in found[0].element


def test_no_attributes_flagged():
    inst = build_scholarship(attributes=(), facts=(), criteria=())
    assert "attribute-count" in rules(inst)


def test_duplicate_fact_flagged():
    base = build_scholarship()
    inst = base.replace(facts=base.facts + (Fact("A", "gpa", 1.0),))
    assert "fact-duplicate" in rules(inst)


def test_fact_reference_and_type_rules():
    base = build_scholarship()
    bad = base.facts + (Fact("Z", "gpa", 1.0),)
    assert "fact-reference" in rules(base.replace(facts=bad))

    swapped = tuple(
        f.replace(value="high") if f.attribute == "gpa" and f.candidate == "A"
        else f for f in base.facts)
    assert "fact-value-type" in rules(base.replace(facts=swapped))

    bad_level = tuple(
        f.replace(value="extreme") if f.attribute == "need" and f.candidate == "A"
        else f for f in base.facts)
    assert "fact-ordinal-level" in rules(base.replace(facts=bad_level))


def test_duplicate_identifiers_flagged():
    base = build_scholarship()
    assert "candidate-duplicate" in rules(build_scholarship(
        candidates=("A", "A"),
        facts=(Fact("A", "gpa", 9.5), Fact("A", "need", "moderate"))))
    dup_scale = base.scales + (OrdinalScale("need_scale", ("a", "b")),)
    assert "scale-duplicate" in rules(base.replace(scales=dup_scale))
    dup_attr = base.attributes + (AttributeSchema("gpa", NUMERIC),)
    inst = base.replace(attributes=dup_attr)
    assert "attribute-duplicate" in rules(inst)
    dup_crit = base.criteria + (CriterionSpec("merit_first", (("gpa", 0.5), ("need", 0.5))),)
    assert "criterion-duplicate" in rules(base.replace(criteria=dup_crit))


def test_scale_rules():
    short = OrdinalScale("s", ("only",))
    inst = build_scholarship(scales=(build_scholarship().scales[0], short))
    assert "scale-level-count" in rules(inst)
    dup_levels = OrdinalScale("s2", ("x", "x"))
    inst = build_scholarship(scales=(build_scholarship().scales[0], dup_levels))
    assert "scale-level-duplicate" in rules(inst)


def test_ordinal_scale_reference_rule():
    base = build_scholarship()
    attrs = tuple(
        a.replace(scale="missing_scale") if a.name == "need" else a
        for a in base.attributes)
    assert "attribute-scale" in rules(base.replace(attributes=attrs))


def test_criterion_weight_rules():
    base = build_scholarship()
    bad_sum = base.criteria + (CriterionSpec("lopsided", (("gpa", 0.7), ("need", 0.2))),)
    assert "criterion-weight-sum" in rules(base.replace(criteria=bad_sum))
    negative = base.criteria + (CriterionSpec("neg", (("gpa", 1.5), ("need", -0.5))),)
    assert "criterion-weight-negative" in rules(base.replace(criteria=negative))
    partial = base.criteria + (CriterionSpec("partial", (("gpa", 1.0),)),)
    assert "criterion-coverage" in rules(base.replace(criteria=partial))
    stray = base.criteria + (CriterionSpec("stray", (("gpa", 1.0), ("height", 0.0))),)
    found = rules(base.replace(criteria=stray))
    assert "criterion-reference" in found
    twice = base.criteria + (CriterionSpec("twice", (("gpa", 0.5), ("gpa", 0.5), ("need", 0.0))),)
    violations = validate(base.replace(criteria=twice))
    assert [(v.rule, v.message, v.path) for v in violations] == [
        ("criterion-weight-duplicate", "duplicate weight for 'gpa'",
         ("criteria", 2, "weights", 1, 0))]


def test_constraint_rules():
    base = build_scholarship()
    assert "constraint-pin-reference" in rules(
        base.replace(constraints=(PinConstraint("nope"),)))
    assert "constraint-bound-reference" in rules(
        base.replace(constraints=(BoundConstraint("height", ">=", 0.5),)))
    assert "constraint-bound-value" in rules(
        base.replace(constraints=(BoundConstraint("gpa", ">=", 1.5),)))
    assert "constraint-bound-op" in rules(
        base.replace(constraints=(BoundConstraint("gpa", "<", 0.5),)))


def test_preference_rules():
    base = build_scholarship()
    assert "preference-self" in rules(
        base.replace(preferences=(PreferencePremise("A", "A"),)))
    assert "preference-reference" in rules(
        base.replace(preferences=(PreferencePremise("A", "Z"),)))
    cycle = (PreferencePremise("A", "B"), PreferencePremise("B", "A"))
    assert "preference-cycle" in rules(base.replace(preferences=cycle))


def test_preference_three_step_cycle():
    inst = build_scholarship(
        candidates=("A", "B", "C"),
        facts=tuple(Fact(c, a, v) for c, a, v in (
            ("A", "gpa", 1.0), ("A", "need", "low"),
            ("B", "gpa", 2.0), ("B", "need", "moderate"),
            ("C", "gpa", 3.0), ("C", "need", "severe"))),
        preferences=(PreferencePremise("A", "B"), PreferencePremise("B", "C"),
                     PreferencePremise("C", "A")),
    )
    assert "preference-cycle" in rules(inst)


def test_identifier_syntax_rule():
    assert "identifier-syntax" in rules(build_scholarship(id="not an ident"))


def test_validation_is_order_stable():
    inst = build_scholarship(
        candidates=("A",),
        facts=(Fact("A", "gpa", 9.5),),
        criteria=(CriterionSpec("broken", (("gpa", 0.4),)),),
    )
    first = validate(inst)
    second = validate(inst)
    assert first == second
    assert len(first) >= 3  # candidate count, missing fact, criterion coverage


def test_instance_accessors():
    inst = build_scholarship()
    assert inst.attribute_names == ("gpa", "need")
    assert fact_value(inst, "A", "gpa") == 9.5
    assert inst.scale_by_name("need_scale").rank("severe") == 2
    assert inst.criterion_by_name("merit_first").weight_map["gpa"] == 1.0
    assert inst.pinned_criterion() is None
    pinned = inst.replace(constraints=(PinConstraint("merit_first"),))
    assert pinned.pinned_criterion() == "merit_first"


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"), 10 ** 400])
def test_non_finite_fact_flagged(value):
    base = build_scholarship()
    facts = tuple(f.replace(value=value)
                  if (f.candidate, f.attribute) == ("A", "gpa") else f for f in base.facts)
    violations = validate(base.replace(facts=facts))
    assert [(v.element, v.rule, v.path) for v in violations] == [
        ("fact A.gpa", "fact-value-finite", ("facts", 0, "value"))]


@pytest.mark.parametrize("weights", [(("gpa", float("nan")), ("need", 1.0)),
                                     (("gpa", float("inf")), ("need", 0.0)),
                                     (("gpa", 10 ** 400), ("need", 0.0))])
def test_non_finite_criterion_weight_flagged(weights):
    base = build_scholarship()
    crits = base.criteria + (CriterionSpec("odd", weights),)
    found = rules(base.replace(criteria=crits))
    assert "criterion-weight-finite" in found
    assert "criterion-weight-negative" not in found


def test_non_finite_bound_flagged():
    # Reported, never raised: a non-number, a bool, an int beyond float range.
    base = build_scholarship()
    for value, rule, message in [
            (float("nan"), "constraint-bound-value", "bound value nan outside [0, 1]"),
            (float("inf"), "constraint-bound-value", "bound value inf outside [0, 1]"),
            (float("-inf"), "constraint-bound-value", "bound value -inf outside [0, 1]"),
            (10 ** 400, "constraint-bound-value", f"bound value {10 ** 400!r} outside [0, 1]"),
            ("a", "constraint-bound-type", "bound value must be a number"),
            (None, "constraint-bound-type", "bound value must be a number"),
            (True, "constraint-bound-type", "bound value must be a number")]:
        inst = base.replace(constraints=(BoundConstraint("gpa", ">=", value),))
        assert [(v.rule, v.message, v.path) for v in validate(inst)] == [
            (rule, message, ("constraints", 0, "value"))], value
