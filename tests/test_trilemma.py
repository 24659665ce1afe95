from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    NEAR_TIE_CONSTRAINTS,
    WIDE_SHAPES,
    assert_report_is_the_evaluated_space,
    build_scholarship,
    build_two_numeric,
    enumerate_responses,
    near_tie_instance,
    wide_instance,
)

from udet.errors import ResponseSpaceTooLarge
from udet.model import (
    CriterionSpec,
    PinConstraint,
    PreferencePremise,
    validate,
)
from udet.responses import (
    Clarify,
    Conditional,
    Decisive,
    Equivalence,
    Refuse,
)
from udet.semantics import admissible_set, analyze, normalize
from udet.trilemma import (
    PAIRWISE_FORMS,
    GeneratorConfig,
    check_trilemma,
    evaluate_space,
    generate_instance,
)


def space_for(instance):
    analysis = analyze(instance)
    return enumerate_responses(analysis), analysis.semantics


def response_space_bound(n: int, m: int, r: int = 0) -> int:
    """Decisive forms, conditionals over criterion subsets, equivalence
    pairs, clarify and refuse, for n candidates, m criteria and r = 1 when
    the analysis has a default criterion."""
    return n * (1 + m + r) + 2 ** m + (n * (n - 1)) // 2 + 2


def test_scholarship_response_space(scholarship):
    responses, _ = space_for(scholarship)
    # 6 decisive variants, 3 conditionals over nonempty criterion subsets,
    # 1 equivalence, clarify, refuse
    assert len(responses) == 12
    assert len(responses) <= response_space_bound(2, 2) == 13
    assert responses[0] == Decisive("A")
    assert responses[1] == Decisive("A", declared_theta="merit_first")
    assert responses[2] == Decisive("A", declared_theta="need_first")
    assert responses[3] == Decisive("B")
    assert responses[6] == Conditional((("merit_first", "A"),))
    assert responses[7] == Conditional((("need_first", "B"),))
    assert responses[8] == Conditional((("merit_first", "A"), ("need_first", "B")))
    assert responses[9] == Equivalence(("A", "B"))
    assert isinstance(responses[10], Clarify)
    assert isinstance(responses[11], Refuse)
    # every candidate has an undisclosed decisive form
    for cand in scholarship.candidates:
        assert Decisive(cand) in responses


def test_response_space_without_criteria():
    inst = build_two_numeric("plain", {"A": (1.0, 2.0), "B": (2.0, 1.0)})
    space, _ = space_for(inst)
    forms = [type(r).__name__ for r in space]
    assert forms == ["Decisive", "Decisive", "Equivalence", "Clarify", "Refuse"]


def test_response_space_single_criterion():
    inst = build_scholarship(criteria=(
        CriterionSpec("merit_first", (("gpa", 1.0), ("need", 0.0))),))
    space, _ = space_for(inst)
    conditionals = [r for r in space if isinstance(r, Conditional)]
    assert conditionals == [Conditional((("merit_first", "A"),))]


def test_tied_criterion_excluded_from_conditionals():
    half = CriterionSpec("half", (("gpa", 0.5), ("need", 0.5)))
    inst = build_scholarship()
    inst = inst.replace(criteria=inst.criteria + (half,))
    space, _ = space_for(inst)
    conditionals = [r for r in space if isinstance(r, Conditional)]
    assert all("half" not in dict(r.branches) for r in conditionals)
    assert len(conditionals) == 3  # subsets of {merit_first, need_first}
    # decisive disclosure variants still include the tied criterion
    assert Decisive("A", declared_theta="half") in space


def test_criteria_cap_enforced():
    attrs = ("gpa", "need")
    crits = tuple(
        CriterionSpec(f"c{i}", ((attrs[0], 1.0), (attrs[1], 0.0)))
        for i in range(13))
    inst = build_scholarship(criteria=crits)
    analysis = analyze(inst)
    with pytest.raises(ResponseSpaceTooLarge):
        enumerate_responses(analysis)


def test_check_trilemma_scholarship(scholarship):
    report = check_trilemma(analyze(scholarship))
    assert report.instance_id == "scholarship"
    assert report.underdetermined is True
    assert report.counterexamples == ()
    assert report.conflict_free_witness is None
    assert report.responses_evaluated == 12
    assert all(check.holds for check in report.pairwise)
    # The forms, and so the order of `check` output, are fixed.
    names = tuple(check.name for check in report.pairwise)
    assert names == PAIRWISE_FORMS == ("c_strong & nb_strict -> !u_decisive",
                                       "nb_strict & u_decisive -> !c_strong",
                                       "c_strong & u_decisive -> !nb_strict")
    first = report.pairwise[0]
    assert first.witnesses == 3  # full conditional, clarify, refuse
    assert first.violations == ()


def test_check_trilemma_pinned_witness():
    inst = build_scholarship(constraints=(PinConstraint("merit_first"),))
    report = check_trilemma(analyze(inst))
    assert report.underdetermined is False
    assert report.conflict_free_witness == Decisive("A")
    assert report.counterexamples == ()


def test_check_trilemma_deterministic(scholarship):
    assert check_trilemma(analyze(scholarship)) == check_trilemma(analyze(scholarship))


def test_check_trilemma_reads_the_given_table(corpus_entries):
    assert len(corpus_entries) == 7
    for entry in corpus_entries:
        analysis = analyze(entry.instance)
        assert check_trilemma(analysis) == check_trilemma(analysis, evaluate_space(analysis))


def test_random_batch_has_no_counterexamples():
    config = GeneratorConfig(seed=7)
    for index in range(200):
        report, _, _ = assert_report_is_the_evaluated_space(
            analyze(generate_instance(config, index)))
        assert report.counterexamples == (), report.instance_id
        assert all(check.holds for check in report.pairwise)
        if not report.underdetermined:
            assert report.conflict_free_witness is not None


def test_generator_is_deterministic():
    config = GeneratorConfig(seed=1)
    assert generate_instance(config, 0) == generate_instance(config, 0)
    assert generate_instance(config, 0) != generate_instance(config, 1)
    other = GeneratorConfig(seed=2)
    assert generate_instance(config, 3) != generate_instance(other, 3)


def test_generated_instances_validate():
    config = GeneratorConfig(seed=13)
    for index in range(500):
        assert validate(generate_instance(config, index)) == []


def test_single_attribute_instances_mostly_determined():
    config = GeneratorConfig(seed=3, candidate_range=(2, 2), attribute_range=(1, 1),
                             criteria_range=(0, 0), pin_probability=0.0,
                             bound_probability=0.0, preference_probability=0.0)
    for index in range(50):
        inst = generate_instance(config, index)
        sem = analyze(inst).semantics
        values = [row[0] for row in normalize(inst).values]
        if values[0] == values[1]:
            assert sem.compatible == inst.candidates  # tied: weak fallback
        else:
            assert len(sem.compatible) == 1


def test_generator_premises_never_contradict():
    config = GeneratorConfig(seed=29, preference_probability=1.0)
    seen_premise = False
    for index in range(150):
        inst = generate_instance(config, index)
        assert validate(inst) == []
        seen_premise = seen_premise or bool(inst.preferences)
        check_trilemma(analyze(inst))  # must not raise ContradictoryPremises
    assert seen_premise


def test_generator_constraints_always_feasible():
    pin_cfg = GeneratorConfig(seed=41, criteria_range=(1, 3), pin_probability=1.0)
    bound_cfg = GeneratorConfig(seed=43, bound_probability=1.0, pin_probability=0.0)
    for index in range(80):
        admissible_set(generate_instance(pin_cfg, index))
        admissible_set(generate_instance(bound_cfg, index))


def test_single_attribute_generator_draws_only_feasible_bounds():
    config = GeneratorConfig(seed=7, candidate_range=(2, 6), attribute_range=(1, 1),
                             criteria_range=(2, 8))
    bounds = 0
    for index in range(200):
        inst = generate_instance(config, index)
        admissible_set(inst)  # raises InfeasibleConstraints on an infeasible draw
        bounds += sum(1 for c in inst.constraints if not isinstance(c, PinConstraint))
        assert all(c.op == ">=" for c in inst.constraints if not isinstance(c, PinConstraint))
    assert bounds > 0


def test_generator_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(candidate_range=(1, 3)).check()
    with pytest.raises(ValueError):
        GeneratorConfig(attribute_range=(3, 2)).check()
    with pytest.raises(ValueError):
        GeneratorConfig(pin_probability=1.5).check()
    with pytest.raises(ValueError):
        generate_instance(GeneratorConfig(), -1)


def test_response_space_bound_formula(scholarship):
    # bound = n*(1+m) + 2^m + C(n,2) + 2 with n=2 candidates, m=2 criteria
    assert response_space_bound(2, 2) == 2 * 3 + 4 + 1 + 2
    # the enumerated space stays within it, and reaches it exactly when
    # every criterion has a unique winner (2^m - 1 conditionals)
    config = GeneratorConfig(seed=59, criteria_range=(0, 4))
    for index in range(80):
        analysis = analyze(generate_instance(config, index))
        n, m = len(analysis.instance.candidates), len(analysis.instance.criteria)
        size = len(enumerate_responses(analysis))
        bound = response_space_bound(n, m, analysis.default is not None)
        assert size <= bound
        assert (size == bound - 1) == (len(analysis.unique_winners) == m)


def test_report_carries_the_evaluated_space(scholarship):
    report, _, _ = assert_report_is_the_evaluated_space(analyze(scholarship))
    assert report.responses_evaluated == 12
    # Two criteria share the winner A: a conditional naming only A's
    # criteria leaves B out and is not strictly non-biased.
    merit_too = CriterionSpec("merit_too", (("gpa", 0.9), ("need", 0.1)))
    inst = scholarship.replace(criteria=scholarship.criteria + (merit_too,))
    analysis = analyze(inst)
    assert analysis.unique_winners == {"merit_first": "A", "need_first": "B",
                                       "merit_too": "A"}
    _, responses, verdicts = assert_report_is_the_evaluated_space(analysis)
    strict = {r.branches: v.nb_strict for r, v in zip(responses, verdicts)
              if isinstance(r, Conditional)}
    assert len(strict) == 7
    assert strict[(("merit_first", "A"), ("merit_too", "A"))] is False
    assert strict[(("need_first", "B"), ("merit_too", "A"))] is True


def test_enumeration_builds_the_publicly_constructed_forms():
    analysis = analyze(wide_instance("ordinal", 3, 5))
    for response in enumerate_responses(analysis):
        if isinstance(response, Conditional):
            assert Conditional(response.branches) == response
            assert hash(Conditional(list(response.branches))) == hash(response)
        elif isinstance(response, Equivalence):
            assert Equivalence(response.candidates[::-1]) == response
            assert hash(Equivalence(response.candidates[::-1])) == hash(response)


def _equivalence_verdicts(analysis):
    _, responses, verdicts = assert_report_is_the_evaluated_space(analysis)
    return {r.candidates: v for r, v in zip(responses, verdicts)
            if isinstance(r, Equivalence)}


def test_identical_candidates_ordered_by_a_premise():
    # A and B tie everywhere, but the premise orders them: not strongly
    # correct, yet they tie under the declared criterion.
    inst = build_two_numeric(
        "twins", {"B": (4.0, 6.0), "A": (4.0, 6.0), "C": (7.0, 2.0)},
        criteria=(CriterionSpec("x_first", (("x", 0.8), ("y", 0.2))),),
        preferences=(PreferencePremise("A", "B"),))
    analysis = analyze(inst)
    assert analysis.stats.tie_all[0][1] and analysis.closure[1][0]
    verdicts = _equivalence_verdicts(analysis)
    assert (verdicts[("A", "B")].c_strong, verdicts[("A", "B")].c_cond) == (False, True)
    unordered = inst.replace(preferences=())
    verdicts = _equivalence_verdicts(analyze(unordered))
    assert (verdicts[("A", "B")].c_strong, verdicts[("A", "B")].c_cond) == (True, True)


def test_candidates_tied_under_one_criterion_only():
    inst = build_two_numeric(
        "one_tie", {"A": (2.0, 1.0), "B": (2.0, 3.0), "C": (5.0, 0.0)},
        criteria=(CriterionSpec("x_only", (("x", 1.0), ("y", 0.0))),
                  CriterionSpec("y_only", (("x", 0.0), ("y", 1.0)))))
    verdicts = _equivalence_verdicts(analyze(inst))
    assert (verdicts[("A", "B")].c_strong, verdicts[("A", "B")].c_cond) == (False, True)
    assert (verdicts[("A", "C")].c_strong, verdicts[("A", "C")].c_cond) == (False, False)


@pytest.mark.parametrize("constraints", NEAR_TIE_CONSTRAINTS)
def test_bulk_verdicts_equal_evaluate_on_dyadic_near_ties(constraints):
    for drop in ("", "A", "C"):
        assert_report_is_the_evaluated_space(analyze(near_tie_instance(drop, constraints)))


def test_criterion_ties_end_at_eps_score():
    # Under x_only, P and Q score 2**-30 apart and tie; Q and R score 2**-29
    # apart, above EPS_SCORE but within twice it, and do not.  A and S tie
    # under x_only only, so the bulk keys must keep Q and R apart from them.
    inst = build_two_numeric(
        "window", {"A": (1.0, 0.0), "B": (0.0, 1.0), "S": (1.0, 0.25), "P": (0.5, 0.5),
                   "Q": (0.5 + 2.0 ** -30, 0.5), "R": (0.5 + 3 * 2.0 ** -30, 0.5)},
        criteria=(CriterionSpec("x_only", (("x", 1.0), ("y", 0.0))),))
    verdicts = _equivalence_verdicts(analyze(inst))
    assert [verdicts[pair].c_cond for pair in (("P", "Q"), ("A", "S"), ("Q", "R"))] == [
        True, True, False]


def test_bulk_verdicts_equal_evaluate_at_256_candidates():
    config = GeneratorConfig(seed=11, candidate_range=(256, 256), attribute_range=(2, 2),
                             criteria_range=(2, 2))
    report, _, _ = assert_report_is_the_evaluated_space(analyze(generate_instance(config, 0)))
    assert report.responses_evaluated >= 256 * 3 + 256 * 255 // 2 + 2


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(sorted(WIDE_SHAPES)),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       index=st.integers(min_value=0, max_value=1000))
def test_bulk_verdicts_equal_evaluate_on_wide_instances(shape, seed, index):
    assert_report_is_the_evaluated_space(analyze(wide_instance(shape, seed, index)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       index=st.integers(min_value=0, max_value=1000),
       pin=st.floats(min_value=0.0, max_value=1.0),
       bound=st.floats(min_value=0.0, max_value=1.0),
       preference=st.floats(min_value=0.0, max_value=1.0))
def test_underdetermined_instances_entail_nothing(seed, index, pin, bound, preference):
    # The premise of the lemma in `udet.trilemma`: with no entailed winner,
    # no Decisive response is strongly correct, so none is a counterexample.
    config = GeneratorConfig(seed=seed, candidate_range=(2, 8), attribute_range=(1, 4),
                             criteria_range=(0, 5), pin_probability=pin,
                             bound_probability=bound, preference_probability=preference)
    analysis = analyze(generate_instance(config, index))
    if analysis.semantics.underdetermined:
        assert analysis.semantics.entailed is None
    report = check_trilemma(analysis)
    assert report.counterexamples == ()
    assert all(check.holds for check in report.pairwise)


def test_check_counts_past_the_enumeration_cap():
    # 40 criteria: `enumerate_responses` refuses the space, and
    # `check_trilemma` counts it.
    crits = tuple(CriterionSpec(f"c{i}", (("gpa", i / 39), ("need", 1 - i / 39)))
                  for i in range(40))
    analysis = analyze(build_scholarship(criteria=crits))
    with pytest.raises(ResponseSpaceTooLarge):
        enumerate_responses(analysis)
    report = check_trilemma(analysis)
    g_a = sum(1 for w in analysis.unique_winners.values() if w == "A")
    g_b = sum(1 for w in analysis.unique_winners.values() if w == "B")
    assert g_a > 0 and g_b > 0
    assert report.responses_evaluated == 2 * 41 + 2 ** (g_a + g_b) - 1 + 1 + 2
    # covering conditionals, the equivalence (not strongly correct), clarify, refuse
    assert report.pairwise[0].witnesses == (2 ** g_a - 1) * (2 ** g_b - 1) + 2
    assert report.counterexamples == () and report.underdetermined
