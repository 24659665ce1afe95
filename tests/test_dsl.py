from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udet.dsl import ParseError, SourceDocument, parse_instance, serialize_instance
from udet.model import NUMERIC, ORDINAL, validate
from udet.trilemma import GeneratorConfig, generate_instance


def parse(text: str):
    return parse_instance(SourceDocument(text, "<test>"))


def err(text: str) -> ParseError:
    with pytest.raises(ParseError) as excinfo:
        parse(text)
    return excinfo.value


def test_parses_scholarship_structure(scholarship):
    inst = scholarship
    assert inst.id == "scholarship"
    assert inst.candidates == ("A", "B")
    assert inst.attribute_names == ("gpa", "need")
    assert inst.attribute_by_name("gpa").kind == NUMERIC
    assert inst.attribute_by_name("need").kind == ORDINAL
    assert inst.attribute_by_name("need").scale == "need_scale"
    assert inst.fact_value("A", "gpa") == 9.5
    assert inst.fact_value("B", "need") == "severe"
    assert [c.name for c in inst.criteria] == ["merit_first", "need_first"]
    assert inst.criterion_by_name("merit_first").weight_map == {"gpa": 1.0, "need": 0.0}
    assert not inst.decisiveness_required
    assert validate(inst) == []


def test_empty_document_reports_line_one():
    e = err("")
    assert (e.line, e.column) == (1, 1)
    assert "missing instance header" in e.message


def test_unknown_attribute_names_offender(scholarship_text):
    text = scholarship_text + "fact A.height = 2\n"
    e = err(text)
    assert "height" in e.message
    assert e.line == len(scholarship_text.splitlines()) + 1
    assert e.column == text.splitlines()[e.line - 1].index("height") + 1


def test_duplicate_fact_is_an_error(scholarship_text):
    e = err(scholarship_text + "fact A.gpa = 9.5\n")
    assert "duplicate fact" in e.message


def test_undeclared_candidate_and_scale_level(scholarship_text):
    e = err(scholarship_text + "fact Z.gpa = 1\n")
    assert "undeclared candidate 'Z'" in e.message
    e = err(scholarship_text.replace("fact A.need = moderate", "fact A.need = extreme"))
    assert "not a level" in e.message


def test_header_required_first():
    e = err('question "hm?"\n')
    assert "instance header" in e.message
    assert e.line == 1


def test_duplicate_declarations_rejected(scholarship_text):
    assert "duplicate criterion" in err(
        scholarship_text + "criterion merit_first { gpa: 1, need: 0 }\n").message
    assert "duplicate candidate" in err(
        scholarship_text + "candidates A\n").message
    assert "duplicate scale" in err(
        scholarship_text + "scale need_scale: a, b\n").message
    doubled = scholarship_text + "require decision\nrequire decision\n"
    assert "duplicate 'require decision'" in err(doubled).message


def test_criterion_line_checks(scholarship_text):
    assert "missing weight" in err(
        scholarship_text + "criterion partial { gpa: 1.0 }\n").message
    assert "sum to" in err(
        scholarship_text + "criterion off { gpa: 0.7, need: 0.2 }\n").message
    assert "negative" in err(
        scholarship_text + "criterion neg { gpa: 1.5, need: -0.5 }\n").message


def test_assume_lines(scholarship_text):
    inst = parse(scholarship_text + "assume criterion = merit_first\n")
    assert inst.pinned_criterion() == "merit_first"
    inst = parse(scholarship_text + "assume weight gpa >= 0.7\n")
    con = inst.constraints[0]
    assert (con.attribute, con.op, con.value) == ("gpa", ">=", 0.7)
    assert "undeclared criterion" in err(
        scholarship_text + "assume criterion = nope\n").message
    assert "outside [0, 1]" in err(
        scholarship_text + "assume weight gpa >= 1.5\n").message


def test_prefer_and_require(scholarship_text):
    inst = parse(scholarship_text + "prefer A over B\nrequire decision\n")
    assert inst.preferences[0].winner == "A"
    assert inst.decisiveness_required
    assert "creates a cycle" in err(
        scholarship_text + "prefer A over B\nprefer B over A\n").message


def test_comments_and_blank_lines(scholarship_text):
    text = "# leading comment\n\n" + scholarship_text.replace(
        'question "Who should receive the scholarship?"',
        'question "Who should receive the scholarship?"  # trailing')
    inst = parse(text)
    assert inst.question == "Who should receive the scholarship?"


def test_number_forms(scholarship_text):
    text = scholarship_text.replace("fact A.gpa = 9.5", "fact A.gpa = 9.5e0")
    assert parse(text).fact_value("A", "gpa") == 9.5
    text = scholarship_text.replace("fact A.gpa = 9.5", "fact A.gpa = -2.5")
    assert parse(text).fact_value("A", "gpa") == -2.5


def test_non_finite_numbers_rejected(scholarship_text):
    bad = err(scholarship_text.replace("fact A.gpa = 9.5", "fact A.gpa = 1e400"))
    line = scholarship_text.split("\n").index("fact A.gpa = 9.5") + 1
    assert (bad.message, bad.line, bad.column) == ("number out of range", line, 14)
    text = scholarship_text + "criterion huge { gpa: -1e999, need: 1.0 }\n"
    bad = err(text)
    assert (bad.message, bad.line, bad.column) == (
        "number out of range", text.count("\n"), 23)


def test_question_escapes_round_trip(scholarship):
    tricky = dataclasses.replace(
        scholarship, question='He said "hi"\nthen left \\ quickly')
    assert parse(serialize_instance(tricky)) == tricky


def test_serialize_is_deterministic(scholarship):
    assert serialize_instance(scholarship) == serialize_instance(scholarship)


def test_shuffled_facts_canonicalized(scholarship_text, scholarship):
    lines = scholarship_text.strip().split("\n")
    facts = [ln for ln in lines if ln.startswith("fact ")]
    rest = [ln for ln in lines if not ln.startswith("fact ")]
    shuffled = rest[:6] + facts[::-1] + rest[6:]
    inst = parse("\n".join(shuffled))
    assert inst == scholarship
    # canonical ordering oracle: sort keys by (candidate index, attribute index)
    order = [(f.candidate, f.attribute) for f in inst.facts]
    expected = sorted(order, key=lambda k: (inst.candidates.index(k[0]),
                                            inst.attribute_names.index(k[1])))
    assert order == expected
    out = serialize_instance(inst)
    fact_lines = [ln for ln in out.split("\n") if ln.startswith("fact ")]
    assert fact_lines[0].startswith("fact A.gpa")
    assert fact_lines[-1].startswith("fact B.need")


def test_round_trip_corpus(corpus_entries):
    for entry in corpus_entries:
        inst = entry.instance
        again = parse(serialize_instance(inst))
        assert again == inst
        assert serialize_instance(again) == serialize_instance(inst)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=5000))
def test_round_trip_generated(index):
    inst = generate_instance(GeneratorConfig(seed=20240101), index)
    assert parse(serialize_instance(inst)) == inst


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=300))
def test_parser_never_crashes(text):
    try:
        inst = parse(text)
    except ParseError:
        return
    assert validate(inst) == []


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_error_locality_on_corrupted_token(scholarship_text, data):
    lines = scholarship_text.strip().split("\n")
    target = data.draw(st.integers(min_value=1, max_value=len(lines)))
    corrupted = list(lines)
    corrupted[target - 1] = corrupted[target - 1] + " @@@"
    e = err("\n".join(corrupted))
    assert e.line == target


def test_unterminated_string_column():
    e = err('instance "oops\n')
    assert e.line == 1
    assert e.column == 10
    assert "unterminated" in e.message


def test_trailing_tokens_rejected(scholarship_text):
    e = err(scholarship_text + "require decision now\n")
    assert "unexpected trailing" in e.message


def test_instance_id_must_be_identifier():
    e = err('instance "two words"\n')
    assert "identifier" in e.message
