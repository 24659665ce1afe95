from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from helpers import (
    MAX_GRID_POINTS,
    NEAR_TIE_CONSTRAINTS,
    WIDE_SHAPES,
    admissible_grid,
    build_scholarship,
    build_two_numeric,
    constrained_instances,
    dense_subdivisions,
    exactly_in_p,
    extreme_instance,
    grid_scores,
    grid_semantics,
    grid_statistics,
    grid_winner_stats,
    in_p,
    near_tie_instance,
    numpy_winner_statistics,
    simplex_compositions,
    wide_instance,
    winners_at,
)

from udet import _kernels
from udet.errors import ContradictoryPremises, InfeasibleConstraints
from udet.model import (
    EPS_WEIGHT,
    HIGHER_BETTER,
    LOWER_BETTER,
    NUMERIC,
    AttributeSchema,
    BoundConstraint,
    CriterionSpec,
    Fact,
    Instance,
    PinConstraint,
    PreferencePremise,
    validate,
)
from udet.semantics import (
    EPS_SCORE,
    ScoreMatrix,
    _project,
    admissible_set,
    analyze,
    exact_thresholds,
    normalize,
    winner_statistics,
)
from udet.trilemma import GeneratorConfig, generate_instance


def alpha_criterion(alpha: float, attrs=("gpa", "need"), name="alpha") -> CriterionSpec:
    return CriterionSpec(name, ((attrs[0], alpha), (attrs[1], 1.0 - alpha)))


def entry(matrix, candidate: str, attribute: str) -> float:
    return matrix.values[matrix.candidates.index(candidate)][matrix.attributes.index(attribute)]


def score(instance, theta: CriterionSpec, candidate: str) -> float:
    """The candidate's score under `theta`, as the analysis computes it."""
    scores = analyze(instance.replace(criteria=(theta,))).criterion_scores
    return scores[theta.name][instance.candidates.index(candidate)]


# --- normalization ----------------------------------------------------------

def test_normalize_scholarship_values():
    m = normalize(build_scholarship())
    assert entry(m, "A", "gpa") == 1.0
    assert entry(m, "B", "gpa") == 0.0
    assert entry(m, "A", "need") == 0.0
    assert entry(m, "B", "need") == 1.0


def test_normalize_tie_gives_half():
    inst = build_scholarship(facts=(
        Fact("A", "gpa", 9.0), Fact("A", "need", "moderate"),
        Fact("B", "gpa", 9.0), Fact("B", "need", "severe")))
    m = normalize(inst)
    assert entry(m, "A", "gpa") == 0.5
    assert entry(m, "B", "gpa") == 0.5


def test_normalize_lower_better_flips():
    inst = build_two_numeric("flip", {"A": (1.0, 5.0), "B": (3.0, 5.0)})
    attrs = (inst.attributes[0].replace(direction=LOWER_BETTER),
             inst.attributes[1])
    inst = inst.replace(attributes=attrs)
    m = normalize(inst)
    assert entry(m, "A", "x") == 1.0  # cheapest wins a lower_better attribute
    assert entry(m, "B", "x") == 0.0


def test_normalize_ordinal_uses_present_values_only():
    # levels low < moderate < severe; only moderate/severe present
    m = normalize(build_scholarship())
    assert entry(m, "A", "need") == 0.0
    assert entry(m, "B", "need") == 1.0


def test_normalized_matrix_is_tight():
    for index in range(40):
        inst = generate_instance(GeneratorConfig(seed=3), index)
        values = normalize(inst).values
        assert all(0.0 <= x <= 1.0 for row in values for x in row)
        for col in zip(*values):
            if all(x == 0.5 for x in col):
                continue
            assert min(col) == 0.0 and max(col) == 1.0


# --- scoring and winners ----------------------------------------------------

def test_score_merit_and_need():
    inst = build_scholarship()
    merit, need = inst.criteria
    assert score(inst, merit, "A") == 1.0
    assert score(inst, merit, "B") == 0.0
    assert score(inst, need, "A") == 0.0
    assert score(inst, need, "B") == 1.0


def test_score_half_alpha_ties():
    # algebraic oracle: alpha*1 == (1-alpha)*1 exactly at alpha = 0.5
    inst = build_scholarship()
    theta = alpha_criterion(0.5)
    assert score(inst, theta, "A") == score(inst, theta, "B") == 0.5
    # confirm by sweeping the grid on both sides of the crossing
    for alpha in np.linspace(0.0, 1.0, 21):
        sa = score(inst, alpha_criterion(float(alpha)), "A")
        sb = score(inst, alpha_criterion(float(alpha)), "B")
        assert (sa > sb) == (alpha > 0.5)
        assert (sa < sb) == (alpha < 0.5)


def test_winners_at_examples():
    inst = build_scholarship()
    m = normalize(inst)
    merit, need = inst.criteria
    assert winners_at(m, merit).winners == ("A",)
    assert winners_at(m, need).winners == ("B",)
    assert winners_at(m, alpha_criterion(0.5)).winners == ("A", "B")
    assert winners_at(m, alpha_criterion(0.5)).unique is None


# --- admissible sets --------------------------------------------------------

def weight_range(adm, attribute: str) -> tuple[float, float]:
    """The least and the greatest weight `attribute` takes in the polytope."""
    unit = [float(a == attribute) for a in adm.attributes]
    return (_kernels.box_simplex_min([unit], adm.lower, adm.upper)[0],
            -_kernels.box_simplex_min([[-x for x in unit]], adm.lower, adm.upper)[0])


def test_admissible_unconstrained_two_attrs_is_exact():
    adm = admissible_set(build_scholarship())
    assert adm.attributes == ("gpa", "need")
    assert adm.lower == (0.0, 0.0) and adm.upper == (1.0, 1.0)
    assert weight_range(adm, "gpa") == (0.0, 1.0)


def test_admissible_pin_is_singleton():
    inst = build_scholarship(constraints=(PinConstraint("merit_first"),))
    adm = admissible_set(inst)
    assert adm.lower == adm.upper == (1.0, 0.0)


def test_admissible_grid_counts():
    # compositions of 10 into 3 parts: C(12, 2) = 66, verified by enumeration
    inst = build_two_numeric("three", {"A": (1, 2), "B": (2, 1), "C": (0, 0)})
    attrs = inst.attributes + (inst.attributes[0].replace(name="z"),)
    facts = inst.facts + tuple(Fact(c, "z", float(i)) for i, c in enumerate("ABC"))
    inst = inst.replace(attributes=attrs, facts=facts)
    points = admissible_grid(admissible_set(inst), 10)
    assert points.shape == (66, 3)
    brute = [(i, j, 10 - i - j) for i in range(11) for j in range(11 - i)]
    assert points.shape[0] == len(brute)
    assert np.allclose(points.sum(axis=1), 1.0)
    assert np.all(points >= 0.0)


def _three_attribute_instance(**overrides):
    inst = build_two_numeric("three", {"A": (1, 2), "B": (2, 1), "C": (0, 0)})
    attrs = inst.attributes + (inst.attributes[0].replace(name="z"),)
    facts = inst.facts + tuple(Fact(c, "z", float(i)) for i, c in enumerate("ABC"))
    return inst.replace(attributes=attrs, facts=facts, **overrides)


def test_admissible_vectors_are_read_only():
    pinned = build_scholarship(constraints=(PinConstraint("merit_first"),))
    bounded = _three_attribute_instance(constraints=(BoundConstraint("x", "<=", 0.5),))
    for adm in (admissible_set(_three_attribute_instance()), admissible_set(bounded),
                admissible_set(pinned)):
        for bounds in (adm.lower, adm.upper):
            with pytest.raises(TypeError):
                bounds[0] = 0.25
    # nothing is shared between requests, so the next one sees the same set
    again = admissible_set(_three_attribute_instance())
    assert again.lower == (0.0,) * 3 and again.upper == (1.0,) * 3


def test_bounded_grid_keeps_the_rows_of_a_plain_filter():
    bounds = (BoundConstraint("x", "<=", 0.5), BoundConstraint("y", ">=", 0.2),
              BoundConstraint("z", "=", 0.3))
    adm = admissible_set(_three_attribute_instance(constraints=bounds))
    assert adm.lower == (0.0, 0.2, 0.3)
    assert adm.upper == (0.5, 1.0, 0.3)
    points = admissible_grid(adm, 20)
    weights = simplex_compositions(20, 3).astype(np.float64) / 20.0
    keep = ((weights[:, 0] <= 0.5 + 1e-9) & (weights[:, 1] >= 0.2 - 1e-9)
            & (np.abs(weights[:, 2] - 0.3) <= 1e-9))
    assert points.shape == (int(keep.sum()), 3)
    assert np.ascontiguousarray(points).tobytes() == weights[keep].tobytes()


def test_admissible_bounds_filter_grid():
    inst = build_two_numeric("b", {"A": (1, 2), "B": (2, 1)})
    assert admissible_grid(admissible_set(inst), 10).shape[0] == 11
    bounded = inst.replace(constraints=(BoundConstraint("x", ">=", 0.7),))
    points = admissible_grid(admissible_set(bounded), 10)
    assert points.shape[0] == 4  # x weight in {0.7, 0.8, 0.9, 1.0}
    assert np.all(points[:, 0] >= 0.7)


def test_admissible_exact_interval_with_bounds():
    inst = build_scholarship(constraints=(BoundConstraint("gpa", ">=", 0.7),))
    adm = admissible_set(inst)
    assert adm.lower == (0.7, 0.0) and adm.upper == (1.0, 1.0)
    assert weight_range(adm, "gpa") == (0.7, 1.0)
    # a bound on the second attribute bounds the first one's weight, flipped
    inst = build_scholarship(constraints=(BoundConstraint("need", ">=", 0.6),))
    assert weight_range(admissible_set(inst), "gpa") == (0.0, pytest.approx(0.4))


def test_admissible_infeasible_raises():
    inst = build_scholarship(constraints=(
        BoundConstraint("gpa", ">=", 0.7), BoundConstraint("need", ">=", 0.7)))
    with pytest.raises(InfeasibleConstraints):
        admissible_set(inst)
    three = build_two_numeric("t", {"A": (1, 2), "B": (2, 1)})
    attrs = three.attributes + (three.attributes[0].replace(name="z"),)
    facts = three.facts + (Fact("A", "z", 0.0), Fact("B", "z", 1.0))
    three = three.replace(attributes=attrs, facts=facts,
                          constraints=(BoundConstraint("x", ">=", 0.8),
                                       BoundConstraint("y", ">=", 0.8)))
    with pytest.raises(InfeasibleConstraints, match="no admissible weight"):
        admissible_set(three)
    # upper bounds that leave the weights short of 1, and crossed bounds
    for bounds, message in [
            ((BoundConstraint("gpa", "<=", 0.3), BoundConstraint("need", "<=", 0.6)),
             r"weight sums in \[0, 0\.9\], not 1"),
            ((BoundConstraint("gpa", ">=", 0.6), BoundConstraint("gpa", "<=", 0.4)),
             r"no admissible weight for 'gpa' in \[0\.6, 0\.4\]")]:
        with pytest.raises(InfeasibleConstraints, match=message):
            admissible_set(build_scholarship(constraints=bounds))


def test_pinned_vector_must_satisfy_bounds():
    inst = build_scholarship(constraints=(
        PinConstraint("merit_first"), BoundConstraint("gpa", "<=", 0.5)))
    with pytest.raises(InfeasibleConstraints, match=r"pinned criterion 'merit_first' "
                       r"puts weight 1 on 'gpa', outside \[0, 0\.5\]"):
        admissible_set(inst)


def test_pins_agree_within_eps_weight():
    near = CriterionSpec("near_merit", (("gpa", 1.0 - 5e-10), ("need", 5e-10)))
    far = CriterionSpec("far_merit", (("gpa", 1.0 - 2e-9), ("need", 2e-9)))
    merit, need = build_scholarship().criteria
    criteria = (merit, need, near, far)
    adm = admissible_set(build_scholarship(criteria=criteria, constraints=(
        PinConstraint("merit_first"), PinConstraint("near_merit"))))
    assert adm.lower == adm.upper == (1.0, 0.0)
    for second in ("far_merit", "need_first"):
        with pytest.raises(InfeasibleConstraints,
                           match=f"pin constraints disagree: 'merit_first' vs '{second}'"):
            admissible_set(build_scholarship(criteria=criteria, constraints=(
                PinConstraint("merit_first"), PinConstraint(second))))


def test_pin_with_crossed_bounds_reports_the_bounds():
    crossed = (BoundConstraint("gpa", ">=", 0.6), BoundConstraint("gpa", "<=", 0.4))
    for constraints in (crossed + (PinConstraint("merit_first"),),
                        (PinConstraint("merit_first"),) + crossed):
        with pytest.raises(InfeasibleConstraints,
                           match=r"no admissible weight for 'gpa' in \[0\.6, 0\.4\]"):
            admissible_set(build_scholarship(constraints=constraints))
    # bounds crossed by less than 2 * EPS_WEIGHT around the pin each hold
    # within EPS_WEIGHT, so P is the pin; without the pin the same rule holds,
    # and the bounds fix gpa at their midpoint
    barely = (BoundConstraint("gpa", ">=", 0.5 + 8e-10),
              BoundConstraint("gpa", "<=", 0.5 - 8e-10))
    half = CriterionSpec("half", (("gpa", 0.5), ("need", 0.5)))
    adm = admissible_set(build_scholarship(
        criteria=(half,), constraints=barely + (PinConstraint("half"),)))
    assert adm.lower == adm.upper == (0.5, 0.5)
    adm = admissible_set(build_scholarship(criteria=(half,), constraints=barely))
    assert (adm.lower, adm.upper) == ((0.5, 0.0), (0.5, 1.0))
    # crossed by more than 2 * EPS_WEIGHT, they leave P empty with or without the pin
    apart = (BoundConstraint("gpa", ">=", 0.5 + 1.1e-9),
             BoundConstraint("gpa", "<=", 0.5 - 1.1e-9))
    for pin in ((), (PinConstraint("half"),)):
        with pytest.raises(InfeasibleConstraints, match="no admissible weight for 'gpa'"):
            admissible_set(build_scholarship(criteria=(half,), constraints=apart + pin))


def test_bounds_past_the_simplex_make_p_its_nearest_weight_vector():
    # Both bounds hold within EPS_WEIGHT at (0.5, 0.5), but the box's lower
    # corner sums to 1.0000000018 (its upper corner to 0.999999999): P is
    # that corner moved onto the simplex, where the criterion `half` lies.
    half = CriterionSpec("half", (("gpa", 0.5), ("need", 0.5)))
    for op, value in ((">=", 0.5000000009), ("<=", 0.4999999995)):
        adm = admissible_set(build_scholarship(criteria=(half,), constraints=(
            BoundConstraint("gpa", op, value), BoundConstraint("need", op, value))))
        assert adm.lower == adm.upper == (0.5, 0.5)
        assert exactly_in_p((0.5, 0.5), adm)


def test_equal_weights_in_p_are_their_own_projection():
    # Five 0.2s sum to 1 once rounded, though not exactly.  With a bound at
    # 0.2 the sum reaches 1 at a bend of the projection; spreading what the
    # exact sum misses over the free weights moved them by an ulp.
    for lower, upper in (((0.0, 0.0, 0.1, 0.0, 0.0), (0.2, 0.75, 0.85, 1.0, 0.2)),
                         ((0.2, 0.2, 0.0, 0.0, 0.0), (0.2, 0.2, 1.0, 1.0, 1.0)),
                         ((0.0,) * 5, (0.2, 0.2, 0.2, 0.2, 1.0)),
                         ((0.0,) * 3, (1.0 / 3.0, 1.0, 1.0)),
                         # Raised to the bound an ulp above 1/3, the three
                         # weights sum to 1 + 2**-53, which rounds to 1.
                         ((0.0,) * 3, (0.33333333333333337, 1.0, 1.0))):
        k = len(lower)
        assert _project((1.0 / k,) * k, lower, upper) == (1.0 / k,) * k


def _exact_projection(v, lower, upper) -> list[Fraction]:
    """The projection onto {sum(w) = 1, lower <= w <= upper} in exact
    arithmetic: clip(v + t) at the t where the clipped sum is 1."""
    v, lower, upper = ([Fraction(x) for x in xs] for xs in (v, lower, upper))

    def at(t):
        return [min(max(x + t, lo), hi) for x, lo, hi in zip(v, lower, upper)]

    bends = sorted({lo - x for x, lo in zip(v, lower)} | {hi - x for x, hi in zip(v, upper)})
    for a, b in zip(bends, bends[1:]):
        sa, sb = sum(at(a)), sum(at(b))
        if sa <= 1 <= sb and sa < sb:
            return at(a + (1 - sa) / (sb - sa) * (b - a))
    raise AssertionError("the bounds do not straddle 1")


def test_projection_gives_the_remainder_to_the_largest_free_weight():
    # Spread evenly, the shift leaves the clipped sum an ulp off 1, so the
    # largest free weight takes the remainder.
    v, lower, upper = (0.55, 0.95, 0.4, 0.75), (0.0,) * 4, (1.0,) * 4
    w = _project(v, lower, upper)
    assert w == (0.13333333333333336, 0.5333333333333333, 0.0, 0.3333333333333333)
    assert all(lo <= x <= hi for x, lo, hi in zip(w, lower, upper))
    assert math.fsum(w) == 1.0
    for x, exact in zip(w, _exact_projection(v, lower, upper)):
        assert abs(Fraction(x) - exact) <= Fraction(math.ulp(float(exact)))


# Bound offsets from the pinned weight: inside, within and beyond EPS_WEIGHT.
_PIN_OFFSETS = (0.0, 5e-10, -5e-10, 9e-10, -9e-10, 3e-9, -3e-9, 1e-6, -1e-6, 0.25, -0.25)


@settings(max_examples=300, deadline=None)
@given(parts=st.tuples(st.integers(0, 20), st.integers(0, 20)).filter(lambda p: sum(p) <= 20),
       bounds=st.lists(st.tuples(st.integers(0, 2), st.sampled_from(("<=", ">=", "=")),
                                 st.sampled_from(_PIN_OFFSETS)), max_size=2),
       pin_first=st.booleans())
def test_a_pin_is_p_exactly_or_some_bound_fails(parts, bounds, pin_first):
    # P under a pin is the pinned vector itself, never a box snapped onto it,
    # so every weight vector in P scores as the pinned criterion does.
    attrs = tuple(AttributeSchema(a, NUMERIC, HIGHER_BETTER) for a in "xyz")
    weights = (parts[0] / 20, parts[1] / 20, (20 - sum(parts)) / 20)
    constraints = [BoundConstraint(attrs[j].name, op, min(1.0, max(0.0, weights[j] + offset)))
                   for j, op, offset in bounds]
    pin = [PinConstraint("k")]
    inst = Instance(
        id="pin", question="", candidates=("A", "B"), attributes=attrs,
        facts=tuple(Fact(c, a.name, float(i)) for i, c in enumerate("AB") for a in attrs),
        criteria=(CriterionSpec("k", tuple(zip("xyz", weights))),),
        constraints=tuple(pin + constraints if pin_first else constraints + pin))
    fails = [(op != "<=" and weights[j] < con.value - EPS_WEIGHT)
             or (op != ">=" and weights[j] > con.value + EPS_WEIGHT)
             for con, (j, op, _) in zip(constraints, bounds)]
    try:
        adm = admissible_set(inst)
    except InfeasibleConstraints:
        assert any(fails)
    else:
        assert not any(fails)
        assert adm.lower == adm.upper == weights


@settings(max_examples=300, deadline=None)
@given(parts=st.tuples(st.integers(0, 20), st.integers(0, 20)).filter(lambda p: sum(p) <= 20),
       bounds=st.lists(st.tuples(st.integers(0, 2), st.sampled_from(("<=", ">=", "=")),
                                 st.sampled_from((0.0, 5e-10, -5e-10, 9e-10, -9e-10))),
                       max_size=6))
def test_bounds_a_pin_meets_are_feasible_without_it(parts, bounds):
    # One EPS_WEIGHT rule with and without a pin: bounds that a pinned vector
    # meets within EPS_WEIGHT (each offset) leave P nonempty without the pin.
    attrs = tuple(AttributeSchema(a, NUMERIC, HIGHER_BETTER) for a in "xyz")
    weights = (parts[0] / 20, parts[1] / 20, (20 - sum(parts)) / 20)
    constraints = tuple(BoundConstraint(attrs[j].name, op, min(1.0, max(0.0, weights[j] + offset)))
                        for j, op, offset in bounds)
    inst = Instance(
        id="pin", question="", candidates=("A", "B"), attributes=attrs,
        facts=tuple(Fact(c, a.name, float(i)) for i, c in enumerate("AB") for a in attrs),
        criteria=(CriterionSpec("k", tuple(zip("xyz", weights))),), constraints=constraints)
    assert admissible_set(inst.replace(constraints=constraints + (PinConstraint("k"),)))
    adm = admissible_set(inst)
    assert all(lo <= hi for lo, hi in zip(adm.lower, adm.upper))


def test_single_attribute_grid_is_one_point():
    inst = build_two_numeric("one", {"A": (1, 0), "B": (2, 0)})
    inst = inst.replace(attributes=inst.attributes[:1],
                        facts=tuple(f for f in inst.facts if f.attribute == "x"))
    adm = admissible_set(inst)
    assert adm.lower == (0.0,) and adm.upper == (1.0,)
    assert weight_range(adm, "x") == (1.0, 1.0)
    assert admissible_grid(adm, 1).tolist() == [[1.0]]
    assert analyze(inst).semantics.compatible == ("B",)


def test_default_grid_subdivisions_formula():
    from math import comb
    assert MAX_GRID_POINTS == 100_000
    for k in (2, 3, 4, 5, 6):
        g = dense_subdivisions(k)
        assert comb(g + k - 1, k - 1) <= 100_000
        assert comb(g + k, k - 1) > 100_000
    assert dense_subdivisions(1) == 1


# --- compatible answers -----------------------------------------------------

def test_scholarship_compatible_and_underdetermined(scholarship):
    sem = analyze(scholarship).semantics
    assert sem.compatible == ("A", "B")
    assert sem.underdetermined is True
    assert sem.entailed is None
    assert sem.preference_closure == ()


def test_pinned_scholarship_entails_winner():
    inst = build_scholarship(constraints=(PinConstraint("merit_first"),))
    sem = analyze(inst).semantics
    assert sem.compatible == ("A",)
    assert sem.underdetermined is False
    assert sem.entailed == "A"


def test_dominance_excludes_dominated():
    # A weakly dominates B everywhere and strictly on x
    inst = build_two_numeric("dom", {"A": (9.5, 5.0), "B": (8.7, 5.0)})
    sem = analyze(inst).semantics
    assert sem.compatible == ("A",)
    assert sem.entailed == "A"
    # brute-force oracle over a dense alpha grid: B is never a unique winner
    m = normalize(inst)
    for alpha in np.linspace(0, 1, 2001):
        sa = alpha * entry(m, "A", "x") + (1 - alpha) * entry(m, "A", "y")
        sb = alpha * entry(m, "B", "x") + (1 - alpha) * entry(m, "B", "y")
        assert not (sb > sa + EPS_SCORE)


def test_all_tie_instance_uses_weak_fallback():
    inst = build_two_numeric("tie", {"A": (5.0, 5.0), "B": (5.0, 5.0)})
    sem = analyze(inst).semantics
    assert sem.compatible == ("A", "B")
    assert sem.underdetermined is True


def test_preference_filtering_and_closure():
    inst = build_two_numeric(
        "chain", {"A": (10.0, 0.0), "B": (5.0, 5.0), "C": (0.0, 10.0)},
        preferences=(PreferencePremise("A", "B"), PreferencePremise("B", "C")))
    assert validate(inst) == []
    sem = analyze(inst).semantics
    assert sem.compatible == ("A",)
    assert sem.entailed == "A"
    assert ("A", "C") in sem.preference_closure  # transitive edge
    assert ("C", "A") not in sem.preference_closure


def test_entails_preference_examples(scholarship):
    closure = analyze(scholarship).semantics.preference_closure
    assert ("A", "B") not in closure
    assert ("B", "A") not in closure
    pinned = build_scholarship(constraints=(PinConstraint("merit_first"),))
    assert ("A", "B") in analyze(pinned).semantics.preference_closure
    # no candidate is ever ordered above itself
    assert ("A", "A") not in closure


def test_contradictory_premises_direct_conflict():
    inst = build_two_numeric("clash", {"A": (10.0, 10.0), "B": (0.0, 0.0)},
                             preferences=(PreferencePremise("B", "A"),))
    with pytest.raises(ContradictoryPremises):
        analyze(inst)


def test_contradictory_premises_empty_filter():
    # A weakly dominates B (tie on y), so only A is achievable; preferring B
    # empties the compatible set without a direct unanimity conflict.
    inst = build_two_numeric("empty", {"A": (9.5, 5.0), "B": (8.7, 5.0)},
                             preferences=(PreferencePremise("B", "A"),))
    with pytest.raises(ContradictoryPremises):
        analyze(inst)


def assert_entailed_is_the_sole_compatible(sem):
    assert len(sem.compatible) >= 1
    assert sem.underdetermined == (len(sem.compatible) > 1)
    assert sem.entailed == (sem.compatible[0] if len(sem.compatible) == 1 else None)


def test_compatible_never_empty_without_contradiction():
    config = GeneratorConfig(seed=5)
    for index in range(150):
        assert_entailed_is_the_sole_compatible(analyze(generate_instance(config, index)).semantics)


# --- exact threshold vs grid ------------------------------------------------

def test_exact_thresholds_scholarship(scholarship):
    assert exact_thresholds(normalize(scholarship)) == [0.5]


def test_exact_and_grid_agree_on_scholarship(scholarship):
    exact = analyze(scholarship).semantics
    grid = grid_semantics(scholarship, 1000)
    assert exact.compatible == grid.compatible
    assert exact.entailed == grid.entailed


def test_exact_grid_disagreement_confined_to_crossings():
    rng_cfg = GeneratorConfig(seed=99, attribute_range=(2, 2), criteria_range=(0, 0),
                              pin_probability=0.0, bound_probability=0.0,
                              preference_probability=0.0)
    for index in range(120):
        inst = generate_instance(rng_cfg, index)
        exact = analyze(inst).semantics
        grid = grid_semantics(inst, 1000)
        diff = set(exact.compatible) ^ set(grid.compatible)
        if not diff:
            continue
        thresholds = exact_thresholds(normalize(inst))
        m = np.array(normalize(inst).values)
        for cand in diff:
            i = inst.candidates.index(cand)
            alphas = np.linspace(0.0, 1.0, 10001)
            scores = np.outer(alphas, m[:, 0]) + np.outer(1 - alphas, m[:, 1])
            others = np.delete(scores, i, axis=1)
            unique = scores[:, i] > others.max(axis=1) + EPS_SCORE
            for alpha in alphas[unique]:
                assert any(abs(alpha - t) <= 1.0 / 1000 + 1e-4 for t in thresholds), (
                    f"{inst.id}: {cand} unique at {alpha} far from {thresholds}")


def test_single_crossing_regions_are_contiguous():
    config = GeneratorConfig(seed=17, attribute_range=(2, 2), criteria_range=(0, 0),
                             pin_probability=0.0, bound_probability=0.0,
                             preference_probability=0.0)
    for index in range(60):
        inst = generate_instance(config, index)
        m = np.array(normalize(inst).values)
        alphas = np.linspace(0.0, 1.0, 2001)
        scores = np.outer(alphas, m[:, 0]) + np.outer(1 - alphas, m[:, 1])
        for i in range(len(inst.candidates)):
            others = np.delete(scores, i, axis=1)
            unique = scores[:, i] > others.max(axis=1) + EPS_SCORE
            runs = np.flatnonzero(np.diff(unique.astype(int)) != 0)
            assert len(runs) <= 2, "unique-winner region must be one interval"


# --- invariance properties --------------------------------------------------

def test_affine_invariance_sample():
    config = GeneratorConfig(seed=23)
    for index in range(60):
        inst = generate_instance(config, index)
        scaled_facts = []
        numeric = {a.name for a in inst.attributes if a.kind == "numeric"}
        for f in inst.facts:
            if f.attribute in numeric:
                scaled_facts.append(f.replace(value=3.0 * f.value + 7.0))
            else:
                scaled_facts.append(f)
        scaled = inst.replace(facts=tuple(scaled_facts))
        sem, sem2 = analyze(inst).semantics, analyze(scaled).semantics
        assert sem.compatible == sem2.compatible
        assert sem.entailed == sem2.entailed
        m, m2 = normalize(inst), normalize(scaled)
        for crit in inst.criteria:
            assert winners_at(m, crit).winners == winners_at(m2, crit).winners


def test_ties_everywhere_helper():
    inst = build_two_numeric("tiecheck", {"A": (5.0, 5.0), "B": (5.0, 5.0)})
    assert analyze(inst).stats.tie_all[0][1]  # A, B
    inst2 = build_two_numeric("tiecheck2", {"A": (5.0, 1.0), "B": (5.0, 2.0)})
    assert not analyze(inst2).stats.tie_all[0][1]


def test_winner_statistics_exact_matches_dense_grid(scholarship):
    m = normalize(scholarship)
    exact = winner_statistics(m, admissible_set(scholarship))
    dense = grid_statistics(m, admissible_set(scholarship), 4096)
    assert np.array_equal(exact.ever_unique, dense.ever_unique)
    assert np.array_equal(exact.in_winner_set, dense.in_winner_set)
    assert np.array_equal(exact.beats_all, dense.beats_all)
    assert np.array_equal(exact.tie_all, dense.tie_all)


# --- non-finite input ---------------------------------------------------------

@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_normalize_rejects_non_finite_fact(value):
    inst = build_two_numeric("nf", {"A": (1.0, 2.0), "B": (2.0, 1.0)})
    facts = tuple(f.replace(value=value)
                  if (f.candidate, f.attribute) == ("B", "y") else f for f in inst.facts)
    inst = inst.replace(facts=facts)
    with pytest.raises(ValueError, match=r"fact B\.y is not finite"):
        normalize(inst)


def test_normalize_survives_a_range_that_overflows():
    inst = build_two_numeric("wide", {"A": (1e308, 1.0), "B": (-1e308, 2.0),
                                      "C": (0.0, 3.0)})
    m = normalize(inst)
    assert [row[0] for row in m.values] == [1.0, 0.0, 0.5]
    assert analyze(inst).semantics.compatible == ("A", "C")


# --- the analysis ---------------------------------------------------------------

def test_criterion_winners_match_winners_at():
    # A criterion in P is won by the compatible answers that lead among the
    # compatible ones (`winners_at` over their rows); one outside P by none.
    config = GeneratorConfig(seed=47, criteria_range=(0, 5), bound_probability=0.4)
    outside = 0
    for index in range(120):
        analysis = analyze(generate_instance(config, index))
        assert list(analysis.criterion_winners) == [c.name for c in analysis.instance.criteria]
        compatible = analysis.semantics.compatible
        rows = [analysis.matrix.values[analysis.matrix.candidates.index(c)] for c in compatible]
        restricted = ScoreMatrix(compatible, analysis.matrix.attributes, tuple(rows))
        for crit in analysis.instance.criteria:
            weights = [crit.weight_map[a] for a in analysis.adm.attributes]
            expected = winners_at(restricted, crit).winners if in_p(weights, analysis.adm) else ()
            outside += not expected
            assert analysis.criterion_winners[crit.name] == expected
    assert outside > 0


def test_criterion_scores_are_bitwise_the_per_row_scores():
    from udet import _kernels
    config = GeneratorConfig(seed=53, criteria_range=(1, 5))
    for index in range(60):
        analysis = analyze(generate_instance(config, index))
        attrs = analysis.matrix.attributes
        assert list(analysis.criterion_scores) == [
            c.name for c in analysis.instance.criteria
            if in_p([c.weight_map[a] for a in attrs], analysis.adm)]
        for crit in analysis.instance.criteria:
            if crit.name not in analysis.criterion_scores:
                continue
            row = [crit.weight_map[a] for a in attrs]
            alone = _kernels.score_grid([row], analysis.matrix.values)[0]
            bits = list(map(float.hex, analysis.criterion_scores[crit.name]))
            assert bits == list(map(float.hex, alone))


def test_analysis_without_criteria_has_empty_maps():
    analysis = analyze(build_scholarship(criteria=()))
    assert analysis.criterion_scores == {} and analysis.criterion_winners == {}
    assert analysis.unique_winners == {}


def test_closure_matrix_backs_the_closure_pairs():
    inst = build_two_numeric(
        "chain", {"A": (10.0, 0.0), "B": (5.0, 5.0), "C": (0.0, 10.0)},
        preferences=(PreferencePremise("A", "B"), PreferencePremise("B", "C")))
    analysis = analyze(inst)
    cands = inst.candidates
    pairs = {(cands[i], cands[j]) for i, j in zip(*np.nonzero(analysis.closure))}
    assert pairs == set(analysis.semantics.preference_closure) == {
        ("A", "B"), ("B", "C"), ("A", "C")}


def test_analysis_arrays_are_read_only(scholarship):
    analysis = analyze(scholarship)
    with pytest.raises(TypeError):
        analysis.closure[0][1] = True
    with pytest.raises(TypeError):
        analysis.criterion_scores["merit_first"][0] = 0.0


# --- exact over the polytope: where the simplex grid was wrong ----------------

GRID_MISSES = GeneratorConfig(seed=0, candidate_range=(3, 8), attribute_range=(3, 6),
                              criteria_range=(0, 0), pin_probability=0.0,
                              bound_probability=0.2, preference_probability=0.0,
                              decision_probability=0.0)


@pytest.mark.parametrize("index,ever_unique,in_winner_set", [
    # the default simplex grid gave [1 1 1 0 1 1] (G = 23): c4 wins alone
    # only between its points
    (12, [1, 1, 1, 1, 1, 1], [1, 1, 1, 1, 1, 1]),
    # G = 82 missed c3
    (37, [1, 1, 1, 0, 0, 1, 1, 0], [1, 1, 1, 0, 0, 1, 1, 0]),
    # a6 >= 0.6 cuts the grid off the polytope's vertices: the grid missed c4
    (44, [0, 0, 0, 1, 0, 0, 1, 1], [0, 0, 0, 1, 0, 0, 1, 1]),
    (105, [1, 1, 1, 1, 1, 1], [1, 1, 1, 1, 1, 1]),
])
def test_exact_winners_where_the_grid_missed(index, ever_unique, in_winner_set):
    analysis = analyze(generate_instance(GRID_MISSES, index))
    assert list(map(int, analysis.stats.ever_unique)) == ever_unique
    assert list(map(int, analysis.stats.in_winner_set)) == in_winner_set
    compatible = tuple(c for c, u in zip(analysis.instance.candidates, ever_unique) if u)
    assert analysis.semantics.compatible == compatible


def test_no_ordering_claimed_that_some_weight_breaks():
    # gen_0_44: c1 leads c7 by 0.0069 at an admissible vertex that no grid
    # point reaches, so the premises do not order c7 above c1
    analysis = analyze(generate_instance(GRID_MISSES, 44))
    assert ("c7", "c1") not in analysis.semantics.preference_closure
    m, adm = analysis.matrix.values, analysis.adm
    gap = _kernels.box_simplex_min([[x - y for x, y in zip(m[6], m[0])]],
                                   adm.lower, adm.upper)[0]
    assert gap == pytest.approx(-0.0068728522336769515, abs=1e-12)
    assert ("c8", "c1") in analysis.semantics.preference_closure


def test_contradiction_names_two_candidates():
    inst = build_scholarship(constraints=(PinConstraint("merit_first"),),
                             preferences=(PreferencePremise("B", "A"),))
    with pytest.raises(ContradictoryPremises, match="order 'A' and 'B' both ways"):
        analyze(inst)


@st.composite
def numeric_instances(draw, attributes=st.integers(2, 4)):
    """Small numeric instances: coarse facts (so ties and dominance occur),
    and bounds on multiples of 1/20, some of them infeasible."""
    n, k = draw(st.integers(2, 5)), draw(attributes)
    cands = tuple(f"c{i + 1}" for i in range(n))
    attrs = tuple(AttributeSchema(f"a{j + 1}", NUMERIC, HIGHER_BETTER) for j in range(k))
    facts = tuple(Fact(c, a.name, float(draw(st.integers(0, 4))))
                  for c in cands for a in attrs)
    bounds = tuple(
        BoundConstraint(a.name, draw(st.sampled_from(("<=", ">=", "="))),
                        draw(st.integers(0, 20)) / 20)
        for a in attrs if draw(st.booleans()) and draw(st.booleans()))
    inst = Instance(id="prop", question="", candidates=cands, attributes=attrs,
                    facts=facts, constraints=bounds)
    assert validate(inst) == []
    return inst


def exact_and_matrix(inst):
    try:
        adm = admissible_set(inst)
    except InfeasibleConstraints:
        assume(False)
    matrix = normalize(inst)
    return matrix, adm, winner_statistics(matrix, adm)


PROPERTY_SETTINGS = settings(max_examples=150, deadline=None,
                             suppress_health_check=[HealthCheck.filter_too_much])


@PROPERTY_SETTINGS
@given(numeric_instances())
def test_exact_contains_what_any_grid_point_shows(inst):
    # the densest grid within MAX_GRID_POINTS: the one the program used to sample
    matrix, adm, exact = exact_and_matrix(inst)
    try:
        grid = grid_statistics(matrix, adm, dense_subdivisions(len(inst.attributes)))
    except ValueError:  # a polytope of lower dimension that misses every grid point
        assume(False)
    # a grid point where a candidate wins is an admissible weight vector
    assert np.all(exact.ever_unique >= grid.ever_unique)
    assert np.all(exact.in_winner_set >= grid.in_winner_set)
    # what holds on all of the polytope holds on its grid points
    assert np.all(grid.beats_all >= exact.beats_all)
    assert np.all(grid.tie_all >= exact.tie_all)


@PROPERTY_SETTINGS
@given(numeric_instances(attributes=st.just(2)))
def test_two_attributes_exact_equals_the_crossing_regions(inst):
    # Scores are linear in alpha, the first attribute's weight, so every
    # winner fact is decided at the ends of alpha's interval or where two
    # scores cross: `exact_thresholds`.
    matrix, adm, exact = exact_and_matrix(inst)
    lo = max(adm.lower[0], 1.0 - adm.upper[1])
    hi = max(lo, min(adm.upper[0], 1.0 - adm.lower[1]))
    alphas = np.array([lo, hi, *exact_thresholds(matrix, lo, hi)])
    weights = np.column_stack((alphas, 1.0 - alphas))
    regions = grid_winner_stats(grid_scores(weights, matrix.values), EPS_SCORE)
    for got, expected in zip((exact.ever_unique, exact.in_winner_set, exact.beats_all,
                              exact.tie_all), regions):
        assert np.array_equal(got, expected)


# --- the numpy reference: a margin LP for every straddling bracket -------------
#
# `winner_statistics` on plain Python lists against the rule vectorized in
# numpy: a bracket over every rival, and the margin linear program against
# the unbeaten rivals for every bracket that straddles a threshold.

STAT_TABLES = ("ever_unique", "in_winner_set", "beats_all", "tie_all")


def assert_stats_are_the_reference(analysis):
    expected = numpy_winner_statistics(analysis.matrix, analysis.adm)
    for name, table in zip(STAT_TABLES, expected):
        got = getattr(analysis.stats, name)
        assert np.array_equal(np.array(got, dtype=bool), table), name


@PROPERTY_SETTINGS
@given(constrained_instances())
def test_stats_are_the_reference(inst):
    try:
        analysis = analyze(inst)
    except (InfeasibleConstraints, ContradictoryPremises):
        assume(False)
    assert_stats_are_the_reference(analysis)


@PROPERTY_SETTINGS
@given(constrained_instances())
def test_p_lies_on_the_simplex(inst):
    try:
        adm = admissible_set(inst)
    except InfeasibleConstraints:
        assume(False)
    assert math.fsum(adm.lower) <= 1.0 <= math.fsum(adm.upper)
    assert all(lo <= hi for lo, hi in zip(adm.lower, adm.upper))


@PROPERTY_SETTINGS
@given(constrained_instances())
def test_entailed_is_the_sole_compatible_under_unimplied_preferences(inst):
    # These preferences are not implied by the scores, so some of them
    # dominate a candidate that would otherwise be compatible.
    try:
        sem = analyze(inst).semantics
    except (InfeasibleConstraints, ContradictoryPremises):
        assume(False)
    assert_entailed_is_the_sole_compatible(sem)


@pytest.mark.parametrize("shape", sorted(WIDE_SHAPES))
def test_stats_are_the_reference_on_wide_shapes(shape):
    for index in range(6):
        assert_stats_are_the_reference(analyze(wide_instance(shape, 1, index)))


@pytest.mark.parametrize("constraints", NEAR_TIE_CONSTRAINTS)
def test_stats_are_the_reference_on_dyadic_near_ties(constraints):
    for drop in ("", "A", "C", "D"):
        assert_stats_are_the_reference(analyze(near_tie_instance(drop, constraints)))


def test_stats_are_the_reference_at_256_candidates():
    assert_stats_are_the_reference(analyze(extreme_instance()))


# --- an oracle that prunes nothing --------------------------------------------
#
# The engine and the numpy reference both leave out the rivals that some
# candidate beats everywhere and settle a margin from its bracket where they
# can.  Here every candidate's margin is the LP against every rival.


def assert_winner_tests_need_no_pruning(analysis):
    m, adm = analysis.matrix.values, analysis.adm
    margins = [_kernels.max_min_margin([[x - y for x, y in zip(m_a, m_b)]
                                        for b, m_b in enumerate(m) if b != a],
                                       adm.lower, adm.upper)
               for a, m_a in enumerate(m)]
    assert analysis.stats.ever_unique == tuple(t > EPS_SCORE for t in margins)
    assert analysis.stats.in_winner_set == tuple(t >= -EPS_SCORE for t in margins)


@PROPERTY_SETTINGS
@given(constrained_instances())
def test_winner_tests_need_no_pruning(inst):
    try:
        analysis = analyze(inst)
    except (InfeasibleConstraints, ContradictoryPremises):
        assume(False)
    assert_winner_tests_need_no_pruning(analysis)


def test_winner_tests_need_no_pruning_on_wide_shapes_and_near_ties():
    for shape in sorted(WIDE_SHAPES):
        for index in range(6):
            assert_winner_tests_need_no_pruning(analyze(wide_instance(shape, 1, index)))
    for constraints in NEAR_TIE_CONSTRAINTS:
        for drop in ("", "A", "C", "D"):
            assert_winner_tests_need_no_pruning(analyze(near_tie_instance(drop, constraints)))


def test_a_criterion_outside_the_polytope_certifies_nothing():
    # D wins alone under z_heavy, which the bound z <= 0.1 excludes; in P it
    # trails A or B everywhere (by 0.08 at best, where x = y = 0.45).
    attrs = tuple(AttributeSchema(a, NUMERIC, HIGHER_BETTER) for a in "xyz")
    values = {"A": (1.0, 0.0, 0.0), "B": (0.0, 1.0, 0.0), "D": (0.3, 0.3, 1.0)}
    inst = Instance(
        id="outside", question="", candidates=tuple(values), attributes=attrs,
        facts=tuple(Fact(c, a.name, v) for c, row in values.items()
                    for a, v in zip(attrs, row)),
        criteria=(CriterionSpec("z_heavy", (("x", 0.25), ("y", 0.25), ("z", 0.5))),),
        constraints=(BoundConstraint("z", "<=", 0.1),))
    assert validate(inst) == []
    analysis = analyze(inst)
    assert winners_at(analysis.matrix, inst.criteria[0]).winners == ("D",)
    # outside P, z_heavy decides nothing, and has no scores to tie
    assert analysis.criterion_winners == {"z_heavy": ()}
    assert analysis.criterion_scores == {}
    assert analysis.stats.ever_unique == (True, True, False)
    assert analysis.stats.in_winner_set == (True, True, False)
    assert analysis.semantics.compatible == ("A", "B")
    assert_stats_are_the_reference(analysis)
