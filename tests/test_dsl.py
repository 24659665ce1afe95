from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import attribute_by_name, extreme_instance, fact_value, mutate_lines

from udet import corpus, dsl
from udet.dsl import ParseError, parse_instance, serialize_instance
from udet.model import NUMERIC, ORDINAL, validate
from udet.trilemma import GeneratorConfig, generate_instance


def parse(text: str):
    return parse_instance(text, "<test>")


def err(text: str) -> ParseError:
    with pytest.raises(ParseError) as excinfo:
        parse(text)
    return excinfo.value


def test_parses_scholarship_structure(scholarship):
    inst = scholarship
    assert inst.id == "scholarship"
    assert inst.candidates == ("A", "B")
    assert inst.attribute_names == ("gpa", "need")
    assert attribute_by_name(inst, "gpa").kind == NUMERIC
    assert attribute_by_name(inst, "need").kind == ORDINAL
    assert attribute_by_name(inst, "need").scale == "need_scale"
    assert fact_value(inst, "A", "gpa") == 9.5
    assert fact_value(inst, "B", "need") == "severe"
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


# One edit of the scholarship document (12 lines and a final newline) per
# rule of `validate` that text can reach: {line number: new text}, where ""
# blanks a line and line 13 onwards append.  Each rule is reported at the
# token that declared what it blames, with that token as its snippet;
# counts and missing facts at 13:1, with none.
RULE_CASES = [
    ("identifier-syntax", {1: 'instance "two words"'},
     ("instance id must be an identifier, got 'two words'", 1, 10, '"two words"')),
    ("candidate-count", {6: "candidates A", 9: "", 10: ""},
     ("at least 2 candidates required, found 1", 13, 1, "")),
    ("attribute-count", {4: "", 5: "", 7: "", 8: "", 9: "", 10: "", 11: "", 12: ""},
     ("at least 1 attribute required", 13, 1, "")),
    ("candidate-duplicate", {6: "candidates A, B, A"}, ("duplicate candidate 'A'", 6, 18, "A")),
    ("scale-duplicate", {13: "scale need_scale: a, b"},
     ("duplicate scale 'need_scale'", 13, 7, "need_scale")),
    ("scale-level-count", {13: "scale tiny: only"},
     ("a scale needs at least 2 levels", 13, 7, "tiny")),
    ("scale-level-duplicate", {3: "scale need_scale: low, moderate, severe, low"},
     ("duplicate level 'low'", 3, 42, "low")),
    ("attribute-duplicate", {13: "attribute gpa: numeric, higher_better"},
     ("duplicate attribute 'gpa'", 13, 11, "gpa")),
    ("attribute-scale", {5: "attribute need: ordinal(nope), higher_better"},
     ("undeclared scale 'nope'", 5, 25, "nope")),
    ("fact-reference-candidate", {13: "fact Z.gpa = 1"}, ("undeclared candidate 'Z'", 13, 6, "Z")),
    ("fact-reference-attribute", {7: "fact A.height = 9.5"},
     ("undeclared attribute 'height'", 7, 8, "height")),
    ("fact-value-type-numeric", {7: "fact A.gpa = high"},
     ("numeric attribute 'gpa' requires a number", 7, 14, "high")),
    ("fact-value-type-ordinal", {8: "fact A.need = 2"},
     ("ordinal attribute 'need' requires a level name", 8, 15, "2")),
    ("fact-ordinal-level", {8: "fact A.need = extreme"},
     ("'extreme' is not a level of scale 'need_scale'", 8, 15, "extreme")),
    ("fact-duplicate", {13: "fact B.gpa = 1"}, ("duplicate fact for B.gpa", 13, 6, "B")),
    ("fact-missing", {9: ""}, ("incomplete fact matrix: missing fact B.gpa", 13, 1, "")),
    ("criterion-duplicate", {13: "criterion merit_first { gpa: 0.5, need: 0.5 }"},
     ("duplicate criterion 'merit_first'", 13, 11, "merit_first")),
    ("criterion-reference", {13: "criterion tall { gpa: 1, need: 0, height: 0 }"},
     ("undeclared attribute 'height'", 13, 35, "height")),
    ("criterion-weight-duplicate", {13: "criterion twice { gpa: 0.5, gpa: 0.5, need: 0 }"},
     ("duplicate weight for 'gpa'", 13, 29, "gpa")),
    ("criterion-coverage", {13: "criterion partial { gpa: 1.0 }"},
     ("criterion 'partial' missing weight for: need", 13, 11, "partial")),
    ("criterion-weight-negative", {13: "criterion neg { gpa: 1.5, need: -0.5 }"},
     ("weight for 'need' is negative", 13, 33, "-0.5")),
    ("criterion-weight-sum", {13: "criterion off { gpa: 0.7, need: 0.2 }"},
     ("criterion 'off' weights sum to 0.8999999999999999, expected 1", 13, 11, "off")),
    ("constraint-pin-reference", {13: "assume criterion = nope"},
     ("undeclared criterion 'nope'", 13, 20, "nope")),
    ("constraint-bound-reference", {13: "assume weight height <= 0.5"},
     ("undeclared attribute 'height'", 13, 15, "height")),
    ("constraint-bound-value", {13: "assume weight gpa >= 1.5"},
     ("bound value 1.5 outside [0, 1]", 13, 22, "1.5")),
    ("preference-reference", {13: "prefer A over Z"}, ("undeclared candidate 'Z'", 13, 15, "Z")),
    ("preference-self", {13: "prefer A over A"},
     ("preference winner and loser must differ", 13, 15, "A")),
    ("preference-cycle", {13: "prefer A over B", 14: "prefer B over A"},
     ("preference B over A creates a cycle", 14, 8, "B")),
    # The violation that comes first in the document wins, ...
    ("first-line-wins", {7: "fact A.gpa = high", 13: "fact Z.gpa = 1"},
     ("numeric attribute 'gpa' requires a number", 7, 14, "high")),
    ("leftmost-token-wins", {13: "criterion neg { gpa: 0.5, need: -0.5 }"},
     ("criterion 'neg' weights sum to 0.0, expected 1", 13, 11, "neg")),
    # ... ties keep validate's order, ...
    ("tie-keeps-validate-order", {6: "candidates A", 8: "", 9: "", 10: ""},
     ("at least 2 candidates required, found 1", 13, 1, "")),
    # ... and a grammar error anywhere beats every rule violation.
    ("grammar-beats-rules", {7: "fact Z.gpa = 1", 13: "fact A.gpa = 1e400"},
     ("number out of range", 13, 14, "1e400")),
    # The token is found by reading the blamed line again, so the place of
    # the element on its line counts: after the canonical sort, ...
    ("fact-moved-by-the-sort", {7: "fact B.gpa = 8.7", 9: "fact A.gpa = high"},
     ("numeric attribute 'gpa' requires a number", 9, 14, "high")),
    ("second-weight-sorted-first", {13: "criterion rev { need: 1.5, gpa: -0.5 }"},
     ("weight for 'gpa' is negative", 13, 33, "-0.5")),
    # ... among the names of a line, ...
    ("third-name-on-a-candidates-line", {13: "candidates C, D, A", 14: ""},
     ("duplicate candidate 'A'", 13, 18, "A")),
    ("fourth-name-on-the-first-candidates-line", {6: "candidates A, B, C, A"},
     ("duplicate candidate 'A'", 6, 21, "A")),
    # ... and among two violations on one line, which `validate` lists in the
    # other order, since the sort puts `gpa` before the undeclared `height`.
    ("earlier-column-wins", {13: "criterion mix { height: 0.5, gpa: -0.5, need: 1 }"},
     ("undeclared attribute 'height'", 13, 17, "height")),
]


@pytest.mark.parametrize("edits, expected", [case[1:] for case in RULE_CASES],
                         ids=[case[0] for case in RULE_CASES])
def test_each_rule_reported_at_its_token(scholarship_text, edits, expected):
    lines = scholarship_text.split("\n")
    for line, text in sorted(edits.items()):
        if line <= len(lines):
            lines[line - 1] = text
        else:
            lines.append(text)
    e = err("\n".join(lines))
    assert (e.message, e.line, e.column, e.snippet) == expected


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
    assert fact_value(parse(text), "A", "gpa") == 9.5
    text = scholarship_text.replace("fact A.gpa = 9.5", "fact A.gpa = -2.5")
    assert fact_value(parse(text), "A", "gpa") == -2.5


def test_numbers_take_ascii_digits_only(scholarship_text):
    # Arabic-Indic nine and five: a Unicode decimal digit is not a number token.
    line = scholarship_text.split("\n").index("fact A.gpa = 9.5") + 1
    bad = err(scholarship_text.replace("fact A.gpa = 9.5", "fact A.gpa = \u0669.\u0665"))
    assert (bad.message, bad.line, bad.column) == ("unexpected character '\u0669'", line, 14)
    bad = err(scholarship_text.replace("fact A.gpa = 9.5", "fact A.gpa = 9.\u0665"))
    assert (bad.line, bad.column) == (line, 16)
    for ascii_number, value in (("9.5", 9.5), ("09", 9.0), (".5", 0.5), ("1e1", 10.0)):
        text = scholarship_text.replace("fact A.gpa = 9.5", f"fact A.gpa = {ascii_number}")
        assert fact_value(parse(text), "A", "gpa") == value


def test_non_finite_numbers_rejected(scholarship_text):
    bad = err(scholarship_text.replace("fact A.gpa = 9.5", "fact A.gpa = 1e400"))
    line = scholarship_text.split("\n").index("fact A.gpa = 9.5") + 1
    assert (bad.message, bad.line, bad.column) == ("number out of range", line, 14)
    text = scholarship_text + "criterion huge { gpa: -1e999, need: 1.0 }\n"
    bad = err(text)
    assert (bad.message, bad.line, bad.column) == (
        "number out of range", text.count("\n"), 23)


def test_question_escapes_round_trip(scholarship):
    tricky = scholarship.replace(question='He said "hi"\nthen left \\ quickly')
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


def _shuffled_declarations(text: str) -> str:
    """The same declarations, kinds interleaved in reverse and facts and
    criterion weights reversed; each other kind keeps its own order."""
    header, *rest = [ln for ln in text.split("\n") if ln.strip()]
    kinds = ("prefer", "require", "assume", "criterion", "fact", "candidates",
             "attribute", "scale", "question")
    rest.sort(key=lambda ln: kinds.index(ln.split()[0]))
    facts = [ln for ln in rest if ln.startswith("fact ")]
    rest = [facts.pop() if ln.startswith("fact ") else ln for ln in rest]
    for i, ln in enumerate(rest):
        if ln.startswith("criterion "):
            name, body = ln[:-2].split("{ ")
            rest[i] = name + "{ " + ", ".join(reversed(body.split(", "))) + " }"
    return "\n".join([header] + rest) + "\n"


def test_declarations_parse_in_any_order_after_the_header(corpus_entries):
    for entry in corpus_entries:
        shuffled = _shuffled_declarations(entry.source)
        assert shuffled.split("\n")[1].split()[0] != "question"
        assert parse(shuffled) == entry.instance


def test_long_preference_chain_parses_and_its_cycle_is_blamed_on_the_closing_line():
    n = 1500
    lines = ['instance "chain"', "attribute x: numeric, higher_better",
             "candidates " + ", ".join(f"c{i}" for i in range(n + 1))]
    lines += [f"fact c{i}.x = {i}" for i in range(n + 1)]
    lines += [f"prefer c{i} over c{i + 1}" for i in range(n)]
    chain = parse("\n".join(lines))
    assert len(chain.preferences) == n
    e = err("\n".join(lines + [f"prefer c{n} over c0"]))
    assert (e.message, e.line, e.column) == (
        f"preference c{n} over c0 creates a cycle", len(lines) + 1, 8)


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


@pytest.mark.parametrize("line, expected", [
    ('question "a\\qb"', (12, "unknown escape sequence '\\q'", '"a\\qb"')),
    ("prefer A under B", (10, "expected 'over', got 'under'", "under")),
    ("require nothing", (9, "expected 'decision', got 'nothing'", "nothing")),
    ("attribute x: fuzzy, higher_better",
     (14, "expected 'numeric' or 'ordinal', got 'fuzzy'", "fuzzy")),
    ("assume weight x : 0.5", (17, "expected '<=', '>=' or '=', got ':'", ":")),
    ("assume foo", (8, "expected 'criterion' or 'weight', got 'foo'", "foo")),
], ids=["escape", "over", "decision", "kind", "bound-op", "assume"])
def test_grammar_errors_name_their_token(line, expected):
    e = err(f'instance "i"\n{line}')
    assert (e.line, e.column, e.message, e.snippet) == (2, *expected)


# The line grammar reads most `fact` and `criterion` lines; the token parser
# reads every other line.  Both must read a document the same way.

def outcome(text: str):
    """The parsed instance, or the ParseError's message, position and snippet."""
    try:
        return parse(text)
    except ParseError as e:
        return (e.message, e.line, e.column, e.snippet)


def assert_both_paths_agree(text: str) -> None:
    fast = outcome(text)
    with mock.patch.object(dsl, "_read_declaration", return_value=False):
        slow = outcome(text)
    assert fast == slow
    for line_no, raw in enumerate(text.split("\n"), start=1):
        assert_line_read_as_the_token_parser_reads_it(raw, line_no)


def assert_line_read_as_the_token_parser_reads_it(raw: str, line_no: int = 1) -> None:
    """If the line grammar reads `raw` after a header, the token parser reads
    the same entity from it."""
    fast, slow = dsl._Builder("x"), dsl._Builder("x")
    if dsl._read_declaration(raw, fast):
        tokens = dsl._tokenize(line_no, raw, "<test>")
        dsl._parse_statement(dsl._LineParser(line_no, tokens, raw, "<test>"), slow)
        assert fast.entities == slow.entities


def test_both_parser_paths_agree_on_the_corpus():
    for entry, _ in corpus.EXPECTED:
        assert_both_paths_agree(corpus.load_source(entry))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=5000))
def test_both_parser_paths_agree_on_generated_instances(index):
    assert_both_paths_agree(serialize_instance(generate_instance(GeneratorConfig(seed=7), index)))


@settings(max_examples=100, deadline=None)
@given(entry=st.sampled_from([name for name, _ in corpus.EXPECTED]), data=st.data())
def test_both_parser_paths_agree_on_mutated_corpus_files(entry, data):
    assert_both_paths_agree("\n".join(mutate_lines(corpus.load_source(entry).split("\n"), data)))


_FRAGMENTS = ("fact", "criterion", "A", "gpa", "need", "severe", "_x1", ".", "=", "==", "<=",
              "{", "}", ":", ",", "0", "-1", "+2.5", ".5", "5.", "1e3", "1E-2", "1e", "1e400",
              "-1e999", "1.2.3", "#", "# c", '"x"', '"', "@", "\u0669", " ", "\t", "\r", "\f",
              "\xa0", "")
_GAPS = st.sampled_from(("", " ", "\t", "  ", "\r"))
_NAMES = st.sampled_from(("A", "gpa", "need", "_x1", "severe"))
_NUMBERS = st.sampled_from(("0", "-1", "+2.5", ".5", "5.", "1e3", "1E-2", "1e400", "-1e999"))


@st.composite
def near_declarations(draw) -> str:
    """A fact or criterion line with random spacing, numbers and comment,
    and up to two of its parts inserted, replaced or dropped."""
    gap = lambda: draw(_GAPS)  # noqa: E731
    if draw(st.booleans()):
        parts = ["fact", " ", draw(_NAMES), gap(), ".", gap(), draw(_NAMES), gap(), "=", gap(),
                 draw(_NUMBERS | _NAMES)]
    else:
        parts = ["criterion", " ", draw(_NAMES), gap(), "{"]
        for i in range(draw(st.integers(1, 3))):
            parts += [gap(), ","] * (i > 0) + [gap(), draw(_NAMES), gap(), ":", gap(),
                                               draw(_NUMBERS)]
        parts += [gap(), "}"]
    parts = [gap()] + parts + [gap(), draw(st.sampled_from(("", "#", "# c")))]
    for _ in range(draw(st.integers(0, 2))):
        op = draw(st.sampled_from(("insert", "replace", "drop")))
        i = draw(st.integers(0, len(parts) - (op != "insert")))
        parts[i:i + (op != "insert")] = [] if op == "drop" else [draw(st.sampled_from(_FRAGMENTS))]
    return "".join(parts)


@settings(max_examples=500, deadline=None)
@given(near_declarations())
def test_line_grammar_reads_a_line_only_as_the_token_parser_does(line):
    assert_line_read_as_the_token_parser_reads_it(line)


@settings(max_examples=500, deadline=None)
@given(near_declarations())
def test_line_grammar_reads_every_line_the_token_parser_reads(line):
    """A fact or criterion that the token parser reads after a header, the
    line grammar reads too, so no well-formed line takes the slower path."""
    slow, fast = dsl._Builder("x"), dsl._Builder("x")
    try:
        tokens = dsl._tokenize(1, line, "<test>")
        if tokens:
            dsl._parse_statement(dsl._LineParser(1, tokens, line, "<test>"), slow)
    except ParseError:
        return
    if slow.entities["facts"] or slow.entities["criteria"]:
        assert dsl._read_declaration(line, fast)


def _edit(text: str, old: str, new: str) -> str:
    assert old in text
    return text.replace(old, new)


MERIT = "criterion merit_first { gpa: 1.0, need: 0.0 }"
NEED = "criterion need_first { gpa: 0.0, need: 1.0 }"

# (name, (line of scholarship.udet, what replaces it), whether the line
# grammar reads the first replacing line)
PATH_CASES = [
    ("non-finite value", ("fact A.gpa = 9.5", "fact A.gpa = 1e400"), False),
    ("non-finite weight",
     (MERIT, "criterion merit_first { gpa: 1e999, need: 0.0 }"), False),
    ("fact before the header",
     ('instance "scholarship"', 'fact A.gpa = 9.5\ninstance "scholarship"'), False),
    ("criterion before the header",
     ('instance "scholarship"', 'criterion c { gpa: 1, need: 0 }\ninstance "scholarship"'),
     False),
    ("trailing comma", (MERIT, "criterion merit_first { gpa: 1.0, need: 0.0, }"), False),
    ("comment after a fact", ("fact A.gpa = 9.5", "fact A.gpa = 9.5 # from the transcript"),
     True),
    ("comment after a criterion",
     (MERIT, "criterion merit_first{gpa:1.0,need:0.0}# merit"), True),
    ("tabs and carriage returns", ("fact A.gpa = 9.5", "\tfact\tA . gpa\t=9.5\r"), True),
    ("level-name value", ("fact B.need = severe", "fact B.need=severe"), True),
    ("undeclared level", ("fact B.need = severe", "fact B.need = dire"), True),
    ("duplicated weight", (MERIT, "criterion merit_first { gpa: 1.0, gpa: 0.0 }"), True),
    ("weights out of attribute order",
     (NEED, "criterion need_first { need: 1.0, gpa: 0.0 }"), True),
    ("missing weight", (MERIT, "criterion merit_first { gpa: 1.0 }"), True),
    ("string value", ("fact A.gpa = 9.5", 'fact A.gpa = "9.5"'), False),
    ("glued keyword", ("fact A.gpa = 9.5", "factA.gpa = 9.5"), False),
    ("sign apart from its digits", ("fact A.gpa = 9.5", "fact A.gpa = - 9.5"), False),
    ("missing equals sign", ("fact A.gpa = 9.5", "fact A.gpa 9.5"), False),
    ("character after the value", ("fact A.gpa = 9.5", "fact A.gpa = 9.5 @"), False),
    ("form feed", ("fact A.gpa = 9.5", "fact A.gpa =\f9.5"), False),
    ("two decimal points", (MERIT, "criterion merit_first { gpa: 1.0.0, need: 0.0 }"), False),
    ("missing colon", (MERIT, "criterion merit_first { gpa 1.0, need: 0.0 }"), False),
    ("empty braces", (MERIT, "criterion merit_first { }"), False),
]


@pytest.mark.parametrize("edit, read", [case[1:] for case in PATH_CASES],
                         ids=[case[0] for case in PATH_CASES])
def test_both_parser_paths_agree_on_named_cases(scholarship_text, edit, read):
    text = _edit(scholarship_text, *edit)
    assert_both_paths_agree(text)
    read_by_grammar = {}
    real = dsl._read_declaration

    def spy(raw, b):
        read_by_grammar[raw] = real(raw, b)
        return read_by_grammar[raw]

    with mock.patch.object(dsl, "_read_declaration", spy):
        outcome(text)
    assert read_by_grammar[edit[1].split("\n")[0]] is read


# A rule broken near the end of the largest document the benchmark sweeps
# (256 candidates, 20 attributes: 5153 lines), where the second read of the
# whole document must still find the token that broke it.

@pytest.fixture(scope="module")
def extreme_lines() -> list[str]:
    return serialize_instance(extreme_instance()).split("\n")


def _late_fact(lines):
    i = lines.index("fact c256.a19 = 5.8")
    lines[i] = "fact c256.undeclared = 5.8"
    return i, "undeclared attribute 'undeclared'", "undeclared"


def _crit2(lines) -> int:
    return next(i for i, line in enumerate(lines) if line.startswith("criterion crit2 "))


def _late_criterion_twice(lines):
    i = _crit2(lines) + 1
    lines.insert(i, lines[i - 1])
    return i, "duplicate criterion 'crit2'", "crit2"


def _late_weight_moved_by_the_sort(lines):
    """crit2 with its last weight first and negative; the sort puts it back."""
    i = _crit2(lines)
    pairs = [pair.strip() for pair in lines[i].split("{")[1].split("}")[0].split(",")]
    assert pairs[0] == "a1: 0" and pairs[-1] == "a20: 0.1"
    lines[i] = f"criterion crit2 {{ a20: -0.1, a1: 0.2, {', '.join(pairs[1:-1])} }}"
    return i, "weight for 'a20' is negative", "-0.1"


@pytest.mark.parametrize("injure", [_late_fact, _late_criterion_twice,
                                    _late_weight_moved_by_the_sort],
                         ids=["undeclared-name", "duplicate-criterion", "sorted-weight"])
def test_a_late_violation_in_a_large_document_is_blamed_on_its_token(extreme_lines, injure):
    lines = list(extreme_lines)
    i, message, snippet = injure(lines)
    expected = (message, i + 1, lines[i].index(snippet) + 1, snippet)
    text = "\n".join(lines)
    assert outcome(text) == expected
    with mock.patch.object(dsl, "_read_declaration", return_value=False):
        assert outcome(text) == expected
