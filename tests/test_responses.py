from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    build_scholarship,
    build_two_numeric,
    enumerate_responses,
    evaluated_rows,
    invariants_ok,
    outside_p_instance,
    table_rows,
    triple,
)

from udet import cli
from udet.errors import UndeclaredReference
from udet.model import CriterionSpec, PinConstraint, PreferencePremise
from udet.responses import (
    Clarify,
    Conditional,
    Decisive,
    Equivalence,
    Refuse,
    ResponseEvaluator,
    u_assistive_score,
)
from udet.semantics import analyze
from udet.trilemma import GeneratorConfig, check_trilemma, evaluate_space, generate_instance


def evaluate(analysis, response):
    return ResponseEvaluator(analysis).evaluate(response)


@pytest.fixture
def unconstrained():
    return analyze(build_scholarship())


def test_clarify_verdict_is_fixed(unconstrained):
    v = evaluate(unconstrained, Clarify(("selection criterion",)))
    assert (v.c_strong, v.nb_strict, v.u_decisive) == (True, True, False)
    assert v.u_assistive == 0.75
    assert v.hidden_theta is False


def test_refuse_verdict(unconstrained):
    v = evaluate(unconstrained, Refuse("no criterion supplied"))
    assert (v.c_strong, v.nb_strict, v.u_decisive) == (True, True, False)
    assert v.u_assistive == 0.25


def test_decisive_without_theta_underdetermined(unconstrained):
    v = evaluate(unconstrained, Decisive("A"))
    assert (v.c_strong, v.nb_strict, v.u_decisive) == (False, False, True)
    assert v.hidden_theta is True
    assert v.u_assistive == 1.0
    assert v.c_cond is True  # merit_first yields unique winner A


def test_decisive_with_declared_theta(unconstrained):
    v = evaluate(unconstrained, Decisive("A", declared_theta="merit_first"))
    assert v.c_strong is False
    assert v.nb_strict is False
    assert v.nb_transparent is True  # criterion disclosed and A wins under it
    assert v.c_cond is True
    assert v.hidden_theta is False
    wrong = evaluate(unconstrained, Decisive("B", declared_theta="merit_first"))
    assert wrong.nb_transparent is False
    assert wrong.c_cond is False


def test_conditional_full_coverage(unconstrained):
    v = evaluate(unconstrained,
                 Conditional((("merit_first", "A"), ("need_first", "B"))))
    assert (v.c_strong, v.nb_strict, v.u_decisive) == (True, True, False)
    assert v.u_assistive == 0.75
    assert v.hidden_theta is False


def test_conditional_silent_exclusion(unconstrained):
    v = evaluate(unconstrained, Conditional((("merit_first", "A"),)))
    assert v.c_strong is True
    assert v.nb_strict is False  # omits need_first whose unique winner differs


def test_conditional_wrong_branch(unconstrained):
    v = evaluate(unconstrained, Conditional((("merit_first", "B"),)))
    assert v.c_strong is False
    assert v.c_cond is False


def test_conditional_branch_with_tie_is_not_correct():
    inst = build_scholarship()
    half = CriterionSpec("half", (("gpa", 0.5), ("need", 0.5)))
    inst = inst.replace(criteria=inst.criteria + (half,))
    v = evaluate(analyze(inst), Conditional((("half", "A"),)))
    assert v.c_strong is False


def test_equivalence_not_supported_when_scores_differ(unconstrained):
    v = evaluate(unconstrained, Equivalence(("A", "B")))
    assert v.c_strong is False
    assert v.nb_strict is False
    assert v.u_assistive == 0.5


def test_equivalence_true_on_all_tie_instance():
    inst = build_two_numeric("tie", {"A": (5.0, 5.0), "B": (5.0, 5.0)})
    v = evaluate(analyze(inst), Equivalence(("A", "B")))
    assert v.c_strong is True
    assert v.nb_strict is True
    ordered = inst.replace(preferences=(PreferencePremise("A", "B"),))
    v2 = evaluate(analyze(ordered), Equivalence(("A", "B")))
    assert v2.c_strong is False  # the closure orders the pair


def test_equivalence_conditional_correctness_under_declared_theta():
    inst = build_scholarship()
    half = CriterionSpec("half", (("gpa", 0.5), ("need", 0.5)))
    inst = inst.replace(criteria=inst.criteria + (half,))
    v = evaluate(analyze(inst), Equivalence(("A", "B")))
    assert v.c_strong is False
    assert v.c_cond is True  # they tie exactly under the declared 'half'


def test_entailed_instance_decisive_is_conflict_free():
    inst = build_scholarship(constraints=(PinConstraint("merit_first"),))
    v = evaluate(analyze(inst), Decisive("A"))
    assert (v.c_strong, v.nb_strict, v.u_decisive) == (True, True, True)
    assert v.u_assistive == 1.0


def test_closure_entailed_decisive_is_strongly_correct():
    inst = build_scholarship(preferences=(PreferencePremise("A", "B"),))
    analysis = analyze(inst)
    assert analysis.semantics.entailed == "A"
    v = evaluate(analysis, Decisive("A"))
    assert v.c_strong is True
    assert v.nb_strict is True


def test_rubric_values():
    assert u_assistive_score(Decisive("A")) == 1.0
    assert u_assistive_score(Conditional((("merit_first", "A"),))) == 0.75
    assert u_assistive_score(Clarify(("weight alpha",))) == 0.75
    assert u_assistive_score(Equivalence(("A", "B"))) == 0.5
    assert u_assistive_score(Refuse("reason only")) == 0.25



def test_undeclared_references_raise(unconstrained):
    with pytest.raises(UndeclaredReference):
        evaluate(unconstrained, Decisive("Z"))
    with pytest.raises(UndeclaredReference):
        evaluate(unconstrained, Decisive("A", declared_theta="nope"))
    with pytest.raises(UndeclaredReference):
        evaluate(unconstrained, Conditional((("nope", "A"),)))
    with pytest.raises(UndeclaredReference):
        evaluate(unconstrained, Equivalence(("A", "Z")))


def test_structural_errors_raise(unconstrained):
    with pytest.raises(ValueError):
        evaluate(unconstrained, Conditional(()))
    with pytest.raises(ValueError):
        evaluate(unconstrained,
                 Conditional((("merit_first", "A"), ("merit_first", "B"))))
    with pytest.raises(ValueError):
        evaluate(unconstrained, Equivalence(("A",)))
    with pytest.raises(ValueError):
        evaluate(unconstrained, Clarify(()))


def test_evaluate_is_pure(unconstrained):
    r = Decisive("A", declared_theta="merit_first")
    assert evaluate(unconstrained, r) == evaluate(unconstrained, r)


def test_evaluate_rejects_a_non_response(unconstrained):
    with pytest.raises(TypeError, match="not a response"):
        evaluate(unconstrained, object())


class Mine(Decisive):
    """A subclass of a form, which keeps the form's rules."""


def test_a_subclass_of_a_form_is_evaluated_as_the_form(unconstrained):
    for theta in (None, "merit_first", "need_first"):
        assert (evaluate(unconstrained, Mine("A", theta))
                == evaluate(unconstrained, Decisive("A", theta)))
    with pytest.raises(UndeclaredReference):
        evaluate(unconstrained, Mine("Z"))


def test_equivalence_members_normalized():
    assert Equivalence(("B", "A")) == Equivalence(("A", "B"))
    assert Equivalence(("A", "B", "A")).candidates == ("A", "B")


def test_public_construction_coerces():
    # Enumeration builds these forms without coercion; public construction
    # still coerces every member.
    eq = Equivalence(["B", 1, "A", "B"])
    assert eq.candidates == ("1", "A", "B") and type(eq.candidates) is tuple
    assert eq == Equivalence(("A", "B", "1")) and hash(eq) == hash(Equivalence(("1", "A", "B")))
    cond = Conditional([["need_first", 2], ("merit_first", "A"), ("need_first", 2)])
    # branches keep their order and duplicates; `evaluate` rejects the duplicate
    assert cond.branches == (("need_first", "2"), ("merit_first", "A"), ("need_first", "2"))
    assert all(type(branch) is tuple for branch in cond.branches)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2000))
def test_verdict_invariants_hold_everywhere(index):
    inst = generate_instance(GeneratorConfig(seed=31), index)
    analysis = analyze(inst)
    sem = analysis.semantics
    evaluator = ResponseEvaluator(analysis)
    for response in enumerate_responses(analysis):
        v = evaluator.evaluate(response)
        assert invariants_ok(v), (inst.id, response, v)
        if sem.entailed is not None and response == Decisive(sem.entailed):
            assert triple(v) == (True, True, True)
        if isinstance(response, (Clarify, Refuse)):
            assert triple(v) == (True, True, False)


def test_clarify_refuse_instance_independent(corpus_entries):
    for entry in corpus_entries:
        analysis = analyze(entry.instance)
        for response in (Clarify(("criterion",)), Refuse("r")):
            v = evaluate(analysis, response)
            assert (v.c_strong, v.nb_strict, v.u_decisive) == (True, True, False)


# --- verdicts stay inside the premises ------------------------------------------------

def verdict_rows(name: str) -> dict:
    """Each row of the listed space, rendered as `udet analyze` writes it, to
    (C, Ccond, NB, NBt, Udec); the table's verdicts are `evaluate`'s."""
    analysis = analyze(outside_p_instance(name))
    rows = table_rows(evaluate_space(analysis))
    assert rows == evaluated_rows(analysis)
    assert check_trilemma(analysis).responses_evaluated == len(rows)
    return {cli.render_response(r): (v.c_strong, v.c_cond, v.nb_strict, v.nb_transparent,
                                     v.u_decisive) for r, v in rows}


def test_the_default_column_rates_answers_at_the_nearest_admissible_weights():
    # x >= 0.6 moves equal weights to (0.6, 0.4), where D leads A; E, which
    # leads at equal weights, is not compatible.
    rows = verdict_rows("bound")
    assert len(rows) == 4 * 2 + 6 + 2
    assert rows["decisive(D; theta=uniform_default)"] == (False, True, False, True, True)
    for cand in "ABE":
        assert rows[f"decisive({cand}; theta=uniform_default)"] == (
            False, False, False, False, True)


def test_the_default_column_names_only_compatible_leaders():
    # C leads at equal weights, but A is preferred to it; A and B tie there.
    rows = verdict_rows("preference")
    for cand in "AB":
        assert rows[f"decisive({cand}; theta=uniform_default)"] == (
            False, False, False, True, True)
    assert rows["decisive(C; theta=uniform_default)"] == (False, False, False, False, True)


def test_a_criterion_outside_p_makes_no_conditional_branch():
    rows = verdict_rows("conditional")
    assert [r for r in rows if r.startswith("conditional")] == ["conditional(x_only->A)"]
    assert rows["decisive(A; theta=x_only)"] == (False, True, False, True, True)
    assert rows["decisive(B; theta=y_only)"] == (False, False, False, False, True)
    assert rows["decisive(B)"] == (False, False, False, False, True)


def test_a_criterion_outside_p_makes_no_answer_conditionally_correct():
    # A is entailed; y_only lies outside P, and even, in P, is won by A
    # once C is excluded.
    rows = verdict_rows("verdicts")
    assert not any("y_only->" in r for r in rows)
    assert [r for r in rows if r.startswith("conditional")] == [
        "conditional(x_only->A)", "conditional(even->A)", "conditional(x_only->A, even->A)"]
    assert rows["decisive(C; theta=even)"] == (False, False, False, False, True)
    assert rows["decisive(B; theta=y_only)"] == (False, False, False, False, True)
    assert rows["decisive(A; theta=y_only)"] == (True, True, True, True, True)
