from __future__ import annotations

import datetime as datetime_module
import io
import json
import os
import re
import subprocess
import sys
import textwrap
from datetime import datetime
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    WIDE_SHAPES,
    analyze_json_oracle,
    analyze_text_oracle,
    build_distinct_winners,
    build_two_numeric,
    extreme_instance,
    mutate_lines,
    trilemma_doc,
    wide_instance,
)

import udet
from udet import _kernels, cli, corpus, policy, responses, trilemma
from udet.dsl import serialize_instance
from udet.errors import CorpusCorrupt
from udet.responses import Clarify, Conditional, Decisive, Equivalence, Refuse
from udet.trilemma import GeneratorConfig, PairwiseCheck, TrilemmaReport, generate_instance


def run_cli(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    code = cli.main(argv, stdout=stdout, stderr=stderr)
    return code, stdout.getvalue(), stderr.getvalue()


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    target = tmp_path_factory.mktemp("corpus")
    code, _, _ = run_cli(["corpus", "export", str(target)])
    assert code == 0
    return target


def path_of(corpus_dir, entry_id: str) -> str:
    return str(corpus_dir / f"{entry_id}.udet")


def test_corpus_export_files_parse(corpus_dir):
    files = sorted(p.name for p in corpus_dir.iterdir())
    assert "scholarship.udet" in files
    assert len(files) >= 6
    code, out, _ = run_cli(["corpus", "export", str(corpus_dir), "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["exported"]) == len(files)


class Mine(Decisive):
    """A subclass of a form, written as the form."""


@pytest.mark.parametrize("response, expected", [
    (Decisive("A", "merit_first"),
     '{\n  "form": "decisive",\n  "candidate": "A",\n  "declared_theta": "merit_first"\n}'),
    (Conditional((("merit_first", "A"), ("need_first", "B"))),
     '{\n  "form": "conditional",\n  "branches": [\n    [\n      "merit_first",\n      "A"\n'
     '    ],\n    [\n      "need_first",\n      "B"\n    ]\n  ]\n}'),
    (Equivalence(("B", "A")),
     '{\n  "form": "equivalence",\n  "candidates": [\n    "A",\n    "B"\n  ]\n}'),
    (Clarify(("weight for gpa", "weight for need")),
     '{\n  "form": "clarify",\n  "missing": [\n    "weight for gpa",\n    "weight for need"\n'
     '  ]\n}'),
    (Refuse("no criterion"), '{\n  "form": "refuse",\n  "reason": "no criterion"\n}'),
    (Mine("A"), '{\n  "form": "decisive",\n  "candidate": "A",\n  "declared_theta": null\n}'),
], ids=["decisive", "conditional", "equivalence", "clarify", "refuse", "subclass"])
def test_response_json_is_the_form_and_its_fields(response, expected):
    assert json.dumps(cli.response_to_json(response), indent=2) == expected


def test_analyze_text_report(corpus_dir):
    code, out, err = run_cli(["analyze", path_of(corpus_dir, "scholarship")])
    assert code == 0 and err == ""
    assert "compatible: A, B" in out
    assert "underdetermined: true" in out
    assert "branch: conditional" in out
    assert "counterexamples: 0" in out
    assert "c_strong & nb_strict -> !u_decisive: holds" in out


def test_analyze_json_fields_match_text(corpus_dir):
    path = path_of(corpus_dir, "scholarship")
    code, text_out, _ = run_cli(["analyze", path])
    code2, json_out, _ = run_cli(["analyze", path, "--format", "json"])
    assert code == code2 == 0
    doc = json.loads(json_out)
    assert doc["schema_version"] == 2
    assert doc["semantics"]["compatible"] == ["A", "B"]
    assert doc["semantics"]["underdetermined"] is True
    assert doc["semantics"]["entailed"] is None
    assert doc["policy"]["branch"] == "conditional"
    assert doc["trilemma"]["counterexamples"] == []
    assert all(p["holds"] for p in doc["trilemma"]["pairwise"])
    # the text rendering carries the same field values
    assert f"compatible: {', '.join(doc['semantics']['compatible'])}" in text_out
    assert f"branch: {doc['policy']['branch']}" in text_out
    assert f"responses evaluated: {doc['trilemma']['responses_evaluated']}" in text_out
    assert doc["parameters"]["epsilon_score"] == 1e-9
    # one exact engine: no enumeration kind and no grid size to report
    assert "enumeration" not in doc["parameters"] and "grid" not in doc["parameters"]
    assert "parameters: eps_score=1e-09 eps_weight=1e-09 version=" in text_out


def test_analyze_is_byte_deterministic(corpus_dir):
    for entry_id in ("scholarship", "city_recommendation"):
        path = path_of(corpus_dir, entry_id)
        for fmt in ("text", "json"):
            _, first, _ = run_cli(["analyze", path, "--format", fmt])
            _, second, _ = run_cli(["analyze", path, "--format", fmt])
            assert first == second


def assert_json_matches_oracle(path, *flags: str) -> None:
    code, out, err = run_cli(["analyze", str(path), "--format", "json", *flags])
    assert (code, err) == (0, "")
    assert out == analyze_json_oracle(str(path), "--require-decision" in flags,
                                      "--timestamps" in flags)


_JSON_SCALARS = (st.booleans() | st.none() | st.integers(min_value=-10**30, max_value=10**30)
                 | st.sampled_from((-0.0, 0.0, 1e-09, 1e16, 5e-324, 0.1, -2.5,
                                    float("nan"), float("inf"), float("-inf")))
                 | st.text(max_size=6)
                 | st.sampled_from(('"', "\\", "\n\t\x00\x1f\x7f", "\ud800", "\udfff x",
                                    "奨学金 ☃", "é")))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_dump_is_json_dumps_nested_at_any_depth(value):
    expected = json.dumps(value, indent=2)
    assert cli._dump(value, "") == expected
    assert cli._dump(value, "  ") == expected.replace("\n", "\n  ")


def test_dump_writes_subclasses_and_refuses_what_json_refuses():
    class Count(int):
        pass

    class Name(str):
        pass

    value = {"n": Count(3), "s": Name("x"), "f": [Count(1), 2.5]}
    assert cli._dump(value, "") == json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        cli._dump({"a": object()}, "")


def test_json_outputs_are_json_dumps_indent_2(corpus_dir, tmp_path):
    files = sorted(str(p) for p in corpus_dir.iterdir())
    runs = [["check", *files], ["check", "--random", "5", "--seed", "3"],
            ["corpus", "export", str(tmp_path)]]
    for path in files:
        runs += [["policy", path], ["policy", path, "--require-decision"], ["sweep", path]]
    printed = set()
    for argv in runs:
        code, out, err = run_cli([*argv, "--format", "json"])
        if code == 0:  # `sweep` exits 2 on a file with more than 2 attributes
            assert err == "" and out == json.dumps(json.loads(out), indent=2) + "\n"
            printed.add(argv[0])
    assert printed == {"check", "corpus", "policy", "sweep"}


def assert_text_matches_oracle(path, *flags: str) -> None:
    code, out, err = run_cli(["analyze", str(path), *flags])
    assert (code, err) == (0, "")
    assert out == analyze_text_oracle(str(path), "--require-decision" in flags)


@pytest.mark.parametrize("flags", [(), ("--require-decision",)])
def test_analyze_json_is_the_oracle_document_on_the_corpus(corpus_dir, flags):
    paths = sorted(corpus_dir.glob("*.udet"))
    assert len(paths) == 7
    for path in paths:
        assert_json_matches_oracle(path, *flags)
        assert_text_matches_oracle(path, *flags)


def test_analyze_json_is_the_oracle_document_for_0_to_12_criteria(tmp_path):
    # The text report too: both formats are written from the key tables.
    for m in range(13):
        config = GeneratorConfig(seed=m, candidate_range=(2, 7), attribute_range=(1, 3),
                                 criteria_range=(m, m))
        path = tmp_path / f"gen_{m}.udet"
        path.write_text(serialize_instance(generate_instance(config, 0)), encoding="utf-8")
        assert_json_matches_oracle(path)
        assert_text_matches_oracle(path)


def test_analyze_json_is_the_oracle_document_on_wide_shapes(tmp_path):
    # One instance of each wide shape, and 12 criteria with 12 distinct
    # winners: 4095 conditionals, of which only the last covers every winner.
    instances = [wide_instance(shape, 1, 0) for shape in sorted(WIDE_SHAPES)]
    instances.append(build_distinct_winners(12))
    for instance in instances:
        path = tmp_path / f"{instance.id}.udet"
        path.write_text(serialize_instance(instance), encoding="utf-8")
        assert_json_matches_oracle(path)
    doc = json.loads(run_cli(["analyze", str(path), "--format", "json"])[1])
    strict = [row["verdict"]["nb_strict"] for row in doc["verdicts"]
              if row["response"]["form"] == "conditional"]
    assert len(strict) == 4095 and strict[-1] and not any(strict[:-1])


def test_analyze_json_escapes_strings_as_the_oracle_does(corpus_dir, tmp_path):
    source = Path(path_of(corpus_dir, "scholarship")).read_text(encoding="utf-8")
    question = 'Qui gagne \\"la bourse\\" ?\tC:\\\\dossier — 奨学金 ☃\\nsecond line'
    lines = [f'question "{question}"' if line.startswith("question ") else line
             for line in source.splitlines()]
    path = tmp_path / "escapes.udet"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert_json_matches_oracle(path)
    doc = json.loads(run_cli(["analyze", str(path), "--format", "json"])[1])
    assert doc["instance"]["question"] == (
        'Qui gagne "la bourse" ?\tC:\\dossier — 奨学金 ☃\nsecond line')


MIXED = """\
instance "mixed"
question "Which one?"
scale level: low, mid, high
attribute size: numeric, higher_better
attribute grade: ordinal(level), lower_better
candidates A, B, C
fact A.size = 1e16
fact A.grade = low
fact B.size = 1.0
fact B.grade = high
fact C.size = 1e-5
fact C.grade = mid
criterion even { size: 0.5, grade: 0.5 }
criterion sized { size: 1.0, grade: 0.0 }
assume criterion = even
assume weight size >= 0.25
prefer A over C
"""


def test_analyze_json_echoes_every_kind_of_declaration_as_the_oracle_does(tmp_path):
    # Ordinal facts, a bound, a pin, a preference, and floats that print as
    # 1.0, 1e-05 and 1e+16.
    path = tmp_path / "mixed.udet"
    path.write_text(MIXED, encoding="utf-8")
    assert_json_matches_oracle(path)
    out = run_cli(["analyze", str(path), "--format", "json"])[1]
    for text in ('"value": 1e+16', '"value": 1.0', '"value": 1e-05', '"value": "mid"',
                 '"kind": "pin"', '"op": ">="', '"scale": "level"'):
        assert text in out
    assert json.loads(out)["instance"]["preferences"] == [["A", "C"]]


def test_check_json_is_the_oracle_document(corpus_dir, tmp_path):
    mixed = tmp_path / "mixed.udet"
    mixed.write_text(MIXED, encoding="utf-8")
    paths = [*sorted(str(p) for p in corpus_dir.glob("*.udet")), str(mixed)]
    code, out, err = run_cli(["check", *paths, "--format", "json"])
    reports = [trilemma.check_trilemma(udet.semantics.analyze(
        udet.dsl.parse_instance(Path(path).read_text(encoding="utf-8"), path)))
        for path in paths]
    doc = {
        "schema_version": cli.JSON_SCHEMA_VERSION,
        "reports": [{"instance": r.instance_id, **trilemma_doc(r)} for r in reports],
        "summary": {
            "instances": len(reports),
            "responses": sum(r.responses_evaluated for r in reports),
            "counterexamples": sum(len(r.counterexamples) for r in reports),
            "determined": sum(not r.underdetermined for r in reports),
            "determined_with_witness": sum(not r.underdetermined
                                           and r.conflict_free_witness is not None
                                           for r in reports),
        },
    }
    assert (code, err) == (0, "")
    assert out == json.dumps(doc, indent=2) + "\n"


def test_analyze_json_with_timestamps_is_the_oracle_document(corpus_dir, monkeypatch):
    class FixedClock(datetime):
        @classmethod
        def now(cls, tz=None):
            return datetime(2030, 1, 2, 3, 4, 5, 678901, tzinfo=tz)

    # `cli` imports `datetime` only when a timestamp is asked for.
    monkeypatch.setattr(datetime_module, "datetime", FixedClock)
    path = path_of(corpus_dir, "city_recommendation")
    assert_json_matches_oracle(path, "--timestamps")
    doc = json.loads(run_cli(["analyze", path, "--format", "json", "--timestamps"])[1])
    assert doc["parameters"]["timestamp"] == "2030-01-02T03:04:05.678901+00:00"


@pytest.fixture(scope="module")
def output_digests():
    # The tool puts `src` and `benchmarks` on the path as it is imported.
    saved = list(sys.path)
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
    try:
        import output_digests
    finally:
        sys.path[:] = saved
    return output_digests


def test_each_mutated_corpus_file_gets_one_diagnostic(output_digests, tmp_path):
    # The inputs whose errors `tools/output_digests.py` digests: each exits
    # 1 or 2 with one line, and a `near:` line exactly when the error has a
    # snippet.
    for kind in output_digests.MUTATIONS:
        inputs = output_digests.mutated_inputs(kind)
        assert len(inputs) == 7 * output_digests.VARIANTS
        for name, text in inputs:
            path = tmp_path / f"{kind}-{name}.udet"
            path.write_text(text, encoding="utf-8")
            code, out, err = run_cli(["analyze", str(path)])
            assert code in (1, 2) and out == "", (kind, name)
            try:
                udet.dsl.parse_instance(text, str(path))
                snippet = ""
            except udet.dsl.ParseError as exc:
                snippet = exc.snippet
            lines = err.split("\n")
            assert lines.pop() == "" and lines[0] and not lines[0].startswith(" ")
            assert lines[1:] == ([f"  near: {snippet}"] if snippet else []), (kind, name)


def test_analyze_parse_error_exit_1(tmp_path):
    bad = tmp_path / "broken.udet"
    bad.write_text('instance "broken"\nfact A.gpa = 1\n', encoding="utf-8")
    code, out, err = run_cli(["analyze", str(bad)])
    assert code == 1
    assert "broken.udet:2:6" in err  # undeclared candidate 'A' at its column


def test_analyze_missing_file_exit_1(tmp_path):
    code, _, err = run_cli(["analyze", str(tmp_path / "absent.udet")])
    assert code == 1
    assert "cannot read" in err


@pytest.mark.parametrize("command", ["analyze", "check", "policy", "sweep"])
def test_unreadable_and_unparsable_files_exit_1_with_mains_message(command, tmp_path):
    missing = tmp_path / "absent.udet"
    assert run_cli([command, str(missing)]) == (
        1, "", f"error: cannot read {missing}: [Errno 2] No such file or directory: "
               f"'{missing}'\n")
    bad = tmp_path / "broken.udet"
    bad.write_text('instance "broken"\nfact A.gpa = 1\n', encoding="utf-8")
    assert run_cli([command, str(bad)]) == (
        1, "", f"{bad}:2:6: undeclared candidate 'A'\n  near: A\n")


def test_check_stops_at_a_bad_file_before_any_output(corpus_dir, tmp_path):
    bad = tmp_path / "broken.udet"
    bad.write_text('instance "broken"\nfact A.gpa = 1\n', encoding="utf-8")
    code, out, _ = run_cli(["check", path_of(corpus_dir, "scholarship"), str(bad)])
    assert (code, out) == (1, "")


@pytest.mark.parametrize("attributes", [["gpa", "gpa"], ["gpa"]])
def test_sweep_needs_two_distinct_attributes(corpus_dir, attributes):
    path = path_of(corpus_dir, "scholarship")
    assert run_cli(["sweep", path, *attributes]) == (
        2, "", "error: exactly two distinct attribute names required\n")


@pytest.mark.parametrize("argv", [["check", "{path}"], ["policy", "{path}"],
                                  ["sweep", "{path}"], ["corpus", "export", "{dir}"]])
def test_timestamps_is_a_usage_error_outside_analyze(corpus_dir, tmp_path, argv):
    argv = [a.format(path=path_of(corpus_dir, "scholarship"), dir=tmp_path) for a in argv]
    assert run_cli([*argv, "--timestamps"]) == (
        1, "", "error: unrecognized arguments: --timestamps\n")
    assert list(tmp_path.iterdir()) == []


def test_analyze_infeasible_exit_2(corpus_dir, tmp_path):
    source = (corpus_dir / "scholarship.udet").read_text()
    source += "assume weight gpa >= 0.7\nassume weight need >= 0.7\n"
    path = tmp_path / "infeasible.udet"
    path.write_text(source, encoding="utf-8")
    code, _, err = run_cli(["analyze", str(path)])
    assert code == 2
    assert "no admissible weight" in err


def test_analyze_grid_override(corpus_dir):
    # the grid and its --grid override are gone; the flag is a usage error
    path = path_of(corpus_dir, "company_priorities")
    code, out, err = run_cli(["analyze", path, "--format", "json", "--grid", "50"])
    assert (code, out, err) == (1, "", "error: unrecognized arguments: --grid 50\n")
    _, out, _ = run_cli(["analyze", path, "--format", "json"])
    assert set(json.loads(out)["parameters"]) == {"epsilon_score", "epsilon_weight",
                                                  "tool_version"}


@pytest.mark.parametrize("grid", ["0", "-3"])
@pytest.mark.parametrize("command", ["analyze", "check", "policy"])
def test_grid_below_one_is_a_usage_error(corpus_dir, command, grid):
    path = path_of(corpus_dir, "company_priorities")
    code, out, err = run_cli([command, path, "--grid", grid])
    assert code == 1 and out == ""
    assert err == f"error: unrecognized arguments: --grid {grid}\n"


@pytest.mark.parametrize("argv,message", [
    (["analyze", "x", "--bogus", "y"], "unrecognized arguments: --bogus y"),
    (["analyze"], "the following arguments are required: path"),
    (["check", "--random", "many"], "argument --random: invalid int value: 'many'"),
    (["sweep", "x", "--format", "xml"],
     "argument --format: invalid choice: 'xml' (choose from 'text', 'json')"),
    (["corpus"], "the following arguments are required: corpus_command"),
    ([], "the following arguments are required: command"),
    (["check", "--random", "0"], "--random needs a positive count"),
    # files and --random exclude each other; the file is never read
    (["check", "x", "--random", "2"], "give instance files or --random N, not both"),
    (["check", "--seed", "3", "x"], "--seed needs --random N"),
    (["check", "--seed", "3"], "--seed needs --random N"),
])
def test_usage_errors_exit_1_on_mains_stderr(argv, message):
    code, out, err = run_cli(argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_help_and_version_still_exit_0(capsys):
    for argv in (["--help"], ["analyze", "--help"], ["--version"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv, stdout=io.StringIO(), stderr=io.StringIO())
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(("usage: udet", "udet "))


def test_feasible_bounds_between_grid_points_exit_0(corpus_dir, tmp_path):
    # 0.37 lies on no point of the 445-subdivision grid that a k = 3 instance
    # used.  With financial_return's weight fixed, balanced leads
    # employee_well_being by at least 0.0014 everywhere.
    source = (corpus_dir / "company_priorities.udet").read_text()
    path = tmp_path / "company_037.udet"
    path.write_text(source + "assume weight financial_return = 0.37\n", encoding="utf-8")
    code, out, err = run_cli(["analyze", str(path), "--format", "json"])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["semantics"]["compatible"] == ["balanced"]
    assert doc["semantics"]["entailed"] == "balanced"
    # bounds that really leave no weight vector still exit 2
    source = (corpus_dir / "city_recommendation.udet").read_text()
    path = tmp_path / "city_infeasible.udet"
    path.write_text(source + "assume weight job >= 0.6\nassume weight cost >= 0.6\n",
                    encoding="utf-8")
    code, out, err = run_cli(["analyze", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: no admissible weight") and err.count("\n") == 1


def test_analyze_does_not_import_scipy(corpus_dir):
    # `import scipy.optimize` alone costs more than a whole cold analyze
    src = str(Path(udet.__file__).resolve().parents[1])
    code = ("import io, sys\n"
            "from udet import cli\n"
            "assert cli.main(['analyze', sys.argv[1], '--format', 'json'],\n"
            "                stdout=io.StringIO()) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", code,
                           path_of(corpus_dir, "city_recommendation")],
                          capture_output=True, text=True, check=False,
                          env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_import_compiles_no_line_grammar(corpus_dir):
    # The patterns are compiled by the first parse, so a command that parses
    # nothing does not pay for them.
    src = str(Path(udet.__file__).resolve().parents[1])
    code = ("import io, sys\n"
            "from udet import cli, dsl\n"
            "print(dsl._line_grammar.cache_info().currsize)\n"
            "assert cli.main(['policy', sys.argv[1]], stdout=io.StringIO()) == 0\n"
            "print(dsl._line_grammar.cache_info().currsize)\n")
    proc = subprocess.run([sys.executable, "-c", code, path_of(corpus_dir, "scholarship")],
                          capture_output=True, text=True, check=False,
                          env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n1\n", "")


def test_a_byte_order_mark_is_ignored(corpus_dir, tmp_path):
    plain = path_of(corpus_dir, "scholarship")
    marked = tmp_path / "scholarship.udet"
    marked.write_bytes(b"\xef\xbb\xbf" + Path(plain).read_bytes())
    for argv in (["analyze"], ["analyze", "--format", "json"], ["policy"],
                 ["policy", "--format", "json"], ["check"]):
        expected = run_cli([*argv, plain])
        assert expected[0] == 0
        assert run_cli([*argv, str(marked)]) == expected


def test_too_many_criteria_exit_2(corpus_dir, tmp_path):
    source = (corpus_dir / "scholarship.udet").read_text()
    source += "".join(f"criterion c{i} {{ gpa: {i / 16}, need: {1 - i / 16} }}\n"
                      for i in range(11))  # 2 declared + 11 = 13 criteria
    path = tmp_path / "crowded.udet"
    path.write_text(source, encoding="utf-8")
    code, out, err = run_cli(["analyze", str(path)])
    assert code == 2 and out == ""
    assert err == "error: 13 criteria declared; enumeration is capped at 12\n"


def test_policy_serves_more_criteria_than_analyze_lists(corpus_dir, tmp_path):
    source = (corpus_dir / "scholarship.udet").read_text()
    source += "".join(f"criterion c{i} {{ gpa: {i / 16}, need: {1 - i / 16} }}\n"
                      for i in range(11))  # 2 declared + 11 = 13 criteria
    path = tmp_path / "crowded.udet"
    path.write_text(source, encoding="utf-8")
    for flags, branch in (([], "conditional"), (["--require-decision"],
                                                "recommend_with_assumptions")):
        code, out, err = run_cli(["policy", str(path), *flags])
        assert (code, err) == (0, "")
        assert out.startswith(f"branch: {branch}\n")


def test_check_counts_past_the_enumeration_cap(corpus_dir, tmp_path):
    source = (corpus_dir / "scholarship.udet").read_text()
    source += "".join(f"criterion c{i} {{ gpa: {i / 16}, need: {1 - i / 16} }}\n"
                      for i in range(11))  # 2 declared + 11 = 13 criteria
    path = tmp_path / "crowded.udet"
    path.write_text(source, encoding="utf-8")
    code, out, err = run_cli(["check", str(path)])
    assert code == 0 and err == ""
    # n(m + 1) + 2^g - 1 + C(n, 2) + 2 with n = 2, m = 13 and g the criteria
    # with a unique winner: c8 (gpa 0.5) ties A and B, so g = 12.
    assert f"responses={2 * 14 + 2 ** 12 - 1 + 1 + 2} counterexamples=0" in out


def test_analyze_timestamps_flag(corpus_dir):
    path = path_of(corpus_dir, "scholarship")
    _, plain, _ = run_cli(["analyze", path, "--format", "json"])
    _, stamped, _ = run_cli(["analyze", path, "--format", "json", "--timestamps"])
    assert "timestamp" not in json.loads(plain)["parameters"]
    assert "timestamp" in json.loads(stamped)["parameters"]


def test_check_determined_file_reports_witness(corpus_dir):
    code, out, _ = run_cli(["check", path_of(corpus_dir, "scholarship_pinned_merit")])
    assert code == 0
    assert "witness=decisive(A)" in out
    assert "counterexamples 0" in out
    assert "c_strong & nb_strict -> !u_decisive: holds" in out


def test_check_multiple_files_and_summary(corpus_dir):
    code, out, _ = run_cli(["check",
                            path_of(corpus_dir, "scholarship"),
                            path_of(corpus_dir, "company_priorities")])
    assert code == 0
    assert "checked 2 instance(s)" in out


def test_check_random_summary_and_exit_zero():
    code, out, _ = run_cli(["check", "--random", "60", "--seed", "42"])
    assert code == 0
    last = out.strip().split("\n")[-1]
    assert last.startswith("checked 60 instance(s)")
    assert "counterexamples 0" in last


def test_check_random_json_document():
    code, out, _ = run_cli(["check", "--random", "25", "--seed", "9",
                            "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["instances"] == 25
    assert doc["summary"]["counterexamples"] == 0
    assert doc["summary"]["determined"] == doc["summary"]["determined_with_witness"]
    assert len(doc["reports"]) == 25


def test_check_requires_input():
    code, _, err = run_cli(["check"])
    assert code == 1
    assert "give instance files or --random" in err


def test_check_counterexample_exit_3(monkeypatch, corpus_dir):
    fake = TrilemmaReport(
        instance_id="fake", underdetermined=True, responses_evaluated=1,
        counterexamples=(Decisive("A"),),
        pairwise=(PairwiseCheck("c_strong & nb_strict -> !u_decisive",
                                1, (Decisive("A"),)),),
        conflict_free_witness=None)
    assert not fake.pairwise[0].holds
    monkeypatch.setattr(cli, "check_trilemma", lambda analysis: fake)
    code, out, _ = run_cli(["check", path_of(corpus_dir, "scholarship")])
    assert code == 3
    assert "counterexamples 1" in out


def test_check_tests_the_evaluator_predicates(monkeypatch, corpus_dir):
    # A Decisive verdict that calls every answer strongly correct and
    # strictly non-biased breaks the trilemma on each of the 2 candidates x
    # 3 thetas of the underdetermined scholarship instance.
    verdict = responses.Decisive.verdict
    monkeypatch.setattr(responses.Decisive, "verdict", lambda self, evaluator: verdict(
        self, evaluator).replace(c_strong=True, c_cond=True, nb_strict=True, nb_transparent=True))
    path = path_of(corpus_dir, "scholarship")
    code, out, _ = run_cli(["check", path])
    assert code == 3
    assert "counterexamples=6" in out
    code, out, _ = run_cli(["analyze", path, "--format", "json"])
    assert code == 0
    report = json.loads(out)["trilemma"]
    rows = [{"form": "decisive", "candidate": c, "declared_theta": t}
            for c in ("A", "B") for t in (None, "merit_first", "need_first")]
    assert report["counterexamples"] == rows
    assert [p["violations"] for p in report["pairwise"]] == [rows] * 3


def test_analyze_evaluates_the_space_once(monkeypatch, corpus_dir):
    # `cmd_analyze` hands its table to `check_trilemma` and `decide`, which
    # would each build their own through their module's binding.
    calls, evaluate_space = [], trilemma.evaluate_space

    def counted(analysis):
        calls.append(analysis.instance.id)
        return evaluate_space(analysis)

    for module in (cli, trilemma, policy):
        monkeypatch.setattr(module, "evaluate_space", counted)
    code, _, _ = run_cli(["analyze", path_of(corpus_dir, "scholarship"), "--format", "json"])
    assert code == 0
    assert calls == ["scholarship"]


def test_policy_branches(corpus_dir):
    code, out, _ = run_cli(["policy", path_of(corpus_dir, "scholarship")])
    assert code == 0
    assert "branch: conditional" in out
    assert "conditional(merit_first->A, need_first->B)" in out
    code, out, _ = run_cli(["policy", path_of(corpus_dir, "scholarship_pinned_merit")])
    assert "branch: direct" in out
    assert "decisive(A; theta=merit_first)" in out


def test_policy_require_decision_flag(corpus_dir):
    # Equal weights tie A and B; merit_first is won by A alone, so its row
    # ranks higher than the default column's.
    code, out, _ = run_cli(["policy", path_of(corpus_dir, "scholarship"),
                            "--require-decision"])
    assert code == 0
    assert "branch: recommend_with_assumptions" in out
    assert "response: decisive(A; theta=merit_first)" in out
    code, doc_out, _ = run_cli(["policy", path_of(corpus_dir, "scholarship"),
                                "--require-decision", "--format", "json"])
    doc = json.loads(doc_out)
    assert doc["policy"]["branch"] == "recommend_with_assumptions"
    assert doc["policy"]["response"]["declared_theta"] == "merit_first"
    code, out, _ = run_cli(["policy", path_of(corpus_dir, "city_recommendation"),
                            "--require-decision"])
    assert code == 0
    assert "response: decisive(bengaluru; theta=uniform_default)" in out


def test_sweep_scholarship_exact_regions(corpus_dir):
    code, out, _ = run_cli(["sweep", path_of(corpus_dir, "scholarship")])
    assert code == 0
    assert "α ∈ [0, 0.5): B; α = 0.5: tie; α ∈ (0.5, 1]: A" in out


def test_sweep_dominant_single_region(tmp_path):
    path = tmp_path / "dom.udet"
    path.write_text(
        'instance "dom"\n'
        "attribute x: numeric, higher_better\n"
        "attribute y: numeric, higher_better\n"
        "candidates A, B\n"
        "fact A.x = 2\nfact A.y = 2\nfact B.x = 1\nfact B.y = 1\n",
        encoding="utf-8")
    code, out, _ = run_cli(["sweep", str(path)])
    assert code == 0
    assert "α ∈ [0, 1]: A" in out


def test_sweep_projection_and_errors(corpus_dir):
    city = path_of(corpus_dir, "city_recommendation")
    code, _, err = run_cli(["sweep", city])
    assert code == 2
    assert "more than 2 attributes" in err
    code, out, _ = run_cli(["sweep", city, "job", "cost"])
    assert code == 0
    assert "alpha = weight of 'job'" in out
    code, _, err = run_cli(["sweep", city, "job", "altitude"])
    assert code == 2
    assert "unknown attribute" in err
    code, _, err = run_cli(["sweep", city, "job"])
    assert code == 2


def test_sweep_one_attribute_names_the_count(tmp_path):
    path = tmp_path / "one.udet"
    path.write_text('instance "one"\nattribute x: numeric, higher_better\n'
                    "candidates A, B\nfact A.x = 1\nfact B.x = 2\n", encoding="utf-8")
    code, out, err = run_cli(["sweep", str(path)])
    assert (code, out, err) == (2, "", "error: instance has 1 attribute; sweep needs 2\n")


def test_sweep_pair_equals_its_two_attribute_file(corpus_dir, tmp_path):
    # The pair's regions come from the instance's own normalized columns;
    # they equal those of a file holding only the two attributes' facts.
    pair = tmp_path / "city_pair.udet"
    pair.write_text(
        'instance "city_pair"\n'
        "attribute job: numeric, higher_better\n"
        "attribute cost: numeric, lower_better\n"
        "candidates bengaluru, mumbai, delhi\n"
        "fact bengaluru.job = 9.5\nfact bengaluru.cost = 6.5\n"
        "fact mumbai.job = 8.5\nfact mumbai.cost = 9\n"
        "fact delhi.job = 7.5\nfact delhi.cost = 5\n", encoding="utf-8")
    city = path_of(corpus_dir, "city_recommendation")

    def sweep_json(*argv):
        code, out, _ = run_cli(["sweep", *argv, "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        return doc["thresholds"], doc["regions"]

    for attrs in (["job", "cost"], ["cost", "job"]):
        thresholds, regions = sweep_json(city, *attrs)
        assert (thresholds, regions) == sweep_json(str(pair), *attrs)
        assert thresholds and len(regions) > 1
    # a pin, like every criterion, constraint and preference, is ignored
    assert (sweep_json(path_of(corpus_dir, "scholarship_pinned_merit"))
            == sweep_json(path_of(corpus_dir, "scholarship")))


def test_sweep_json_regions(corpus_dir):
    code, out, _ = run_cli(["sweep", path_of(corpus_dir, "scholarship"),
                            "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["thresholds"] == [0.5]
    assert doc["regions"][0] == {"lo": 0.0, "hi": 0.5, "lo_closed": True,
                                 "hi_closed": False, "winners": ["B"]}
    assert doc["regions"][-1]["winners"] == ["A"]


def test_sweep_reversed_pair_flips_regions(corpus_dir):
    code, out, _ = run_cli(["sweep", path_of(corpus_dir, "scholarship"),
                            "need", "gpa"])
    assert code == 0
    assert "α ∈ [0, 0.5): A; α = 0.5: tie; α ∈ (0.5, 1]: B" in out


def test_corpus_export_under_a_file_exit_1(tmp_path):
    blocker = tmp_path / "plain.txt"
    blocker.write_text("not a directory\n", encoding="utf-8")
    code, out, err = run_cli(["corpus", "export", str(blocker / "sub")])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_udet_error_exits_2_with_one_line(monkeypatch, tmp_path):
    def corrupt():
        raise CorpusCorrupt("entry 'x' failed to parse")

    monkeypatch.setattr(cli.corpus, "load_corpus", corrupt)
    code, out, err = run_cli(["corpus", "export", str(tmp_path)])
    assert (code, out, err) == (2, "", "error: entry 'x' failed to parse\n")


def middle_instance_text() -> str:
    # C wins only between the vertices, where neither pairwise bracket
    # decides, so its margin goes to the linear program, a desk-size 2 x 2.
    return serialize_instance(build_two_numeric(
        "middle", {"A": (10.0, 0.0), "B": (0.0, 10.0), "C": (6.0, 6.0)}))


def test_unbounded_margin_lp_exits_2_with_one_line(monkeypatch, tmp_path):
    # The simplex raises this only on round-off; it must not end in a
    # traceback.  The size rule sends the program to each storage in turn,
    # whose patched step no row bounds.
    def unbounded_step(self, column):
        return [0.0] * len(column)

    path = tmp_path / "middle.udet"
    path.write_text(middle_instance_text(), encoding="utf-8")
    for storage, size in ((_kernels._Lists, _kernels._PLAIN_LP_SIZE), (_kernels._Arrays, 0)):
        with monkeypatch.context() as patch:
            patch.setattr(_kernels, "_PLAIN_LP_SIZE", size)
            patch.setattr(storage, "step", unbounded_step)
            code, out, err = run_cli(["analyze", str(path)])
        assert (code, out, err) == (2, "", "error: the linear program is unbounded\n"), storage


# Modules a cold command must not load.  numpy's import is most of a cold
# run; `dataclasses` brings `inspect`, `ast`, `dis` and `tokenize`, and
# generates code on every import; `datetime` serves only ``--timestamps``.
COLD_UNUSED = ("ast", "dataclasses", "datetime", "dis", "inspect", "numpy", "tokenize")


def test_corpus_commands_never_import_numpy(corpus_dir, tmp_path):
    # Only a margin LP of more than `_kernels._PLAIN_LP_SIZE` coefficients
    # and `check --random` load numpy.  The corpus files reach 36 LPs and the
    # middle file 9, each of them desk-size, which plain Python solves.
    middle = tmp_path / "middle.udet"
    middle.write_text(middle_instance_text(), encoding="utf-8")
    child = textwrap.dedent("""
        import io, sys
        from pathlib import Path
        from udet import _kernels, cli
        from udet.dsl import parse_instance
        solved = []
        solve = _kernels.max_min_margin
        def counted(*args):
            solved.append(args)
            return solve(*args)
        _kernels.max_min_margin = counted
        codes = []
        for path in sorted(Path(sys.argv[1]).glob("*.udet")):
            f = str(path)
            pair = parse_instance(path.read_text(), f).attribute_names[:2]
            for argv in (["analyze", f], ["analyze", f, "--format", "json"],
                         ["analyze", f, "--require-decision"],
                         ["analyze", f, "--require-decision", "--format", "json"],
                         ["policy", f], ["check", f], ["sweep", f, *pair]):
                codes.append(cli.main(argv, stdout=io.StringIO(), stderr=io.StringIO()))
        corpus_lps = len(solved)
        for argv in (["analyze", sys.argv[2]], ["policy", sys.argv[2]], ["check", sys.argv[2]]):
            codes.append(cli.main(argv, stdout=io.StringIO(), stderr=io.StringIO()))
        print(len(codes), sorted(set(codes)), corpus_lps, len(solved),
              [m for m in sys.argv[3:] if m in sys.modules])
        """)
    src = str(Path(udet.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", child, str(corpus_dir), str(middle),
                           *COLD_UNUSED], capture_output=True, text=True, check=False, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "52 [0] 36 45 []\n", "")

    # One request as a user runs it; -X importtime lists every module loaded.
    # `site` may load `importlib.resources` itself, so only a run without it
    # (-S) shows that udet does not: only `corpus export` reads bundled files.
    for flags, unused in (([], COLD_UNUSED), (["-S"], (*COLD_UNUSED, "importlib.resources"))):
        proc = subprocess.run([sys.executable, *flags, "-X", "importtime", "-m", "udet.cli",
                               "analyze", path_of(corpus_dir, "city_recommendation"),
                               "--format", "json"],
                              capture_output=True, text=True, check=False, env=env)
        assert proc.returncode == 0, flags
        assert json.loads(proc.stdout)["schema_version"] == cli.JSON_SCHEMA_VERSION
        imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                    if line.startswith("import time:")}
        assert {"udet.trilemma", "argparse", "json"} <= imported
        assert sorted(imported.intersection(unused)) == [], flags


def test_extreme_size_runs_every_command(tmp_path):
    # 256 candidates and 20 attributes, the benchmark's largest sweep cell
    path = tmp_path / "extreme.udet"
    path.write_text(serialize_instance(extreme_instance()), encoding="utf-8")
    outputs = []
    for argv in (["analyze", str(path), "--format", "json"], ["check", str(path)],
                 ["policy", str(path)], ["policy", str(path), "--require-decision"]):
        code, out, err = run_cli(argv)
        assert (code, err) == (0, ""), argv
        assert out and "error:" not in out and "Traceback" not in out
        outputs.append(out)
    doc = json.loads(outputs[0])
    assert len(doc["instance"]["candidates"]) == 256
    assert len(doc["instance"]["attributes"]) == 20


def test_policy_contradictory_premises_exit_2(corpus_dir, tmp_path):
    source = (corpus_dir / "scholarship_pinned_merit.udet").read_text()
    path = tmp_path / "clash.udet"
    path.write_text(source + "prefer B over A\n", encoding="utf-8")
    for command in ("analyze", "check", "policy"):
        code, out, err = run_cli([command, str(path)])
        assert code == 2 and out == ""
        assert err.startswith("error: premises order 'A' and 'B' both ways")
        assert err.count("\n") == 1


def test_one_process_runs_commands_like_fresh_processes(corpus_dir, tmp_path):
    scholarship = path_of(corpus_dir, "scholarship")
    commands = [
        ["analyze", scholarship, "--format", "json"],
        ["policy", path_of(corpus_dir, "city_recommendation"), "--require-decision"],
        ["check", "--random", "5", "--seed", "3"],
        ["policy", scholarship, "--bogus", "0"],
        ["sweep", scholarship],
        ["analyze", str(tmp_path / "absent.udet"), "--format", "json"],
        ["corpus", "export", str(tmp_path / "out"), "--format", "json"],
        ["policy", scholarship, "--format", "json"],
    ]
    in_process = [run_cli(argv) for argv in commands]
    src = str(Path(udet.__file__).resolve().parents[1])
    for argv, (code, out, err) in zip(commands, in_process):
        fresh = subprocess.run([sys.executable, "-m", "udet.cli", *argv],
                               capture_output=True, text=True, encoding="utf-8",
                               env={**os.environ, "PYTHONPATH": src}, check=False)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutant.udet"


@settings(max_examples=100, deadline=None)
@given(entry=st.sampled_from([name for name, _ in corpus.EXPECTED]), data=st.data())
def test_mutated_corpus_files_exit_cleanly_and_deterministically(fuzz_path, entry, data):
    lines = mutate_lines(corpus.load_source(entry).split("\n"), data)
    fuzz_path.write_text("\n".join(lines), encoding="utf-8")
    path = str(fuzz_path)
    for command in ("analyze", "policy", "sweep"):
        code, out, err = run_cli([command, path])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
        if code == 0:
            assert err == ""
        else:
            first, *rest = err.split("\n")[:-1]
            assert first.startswith("error: ") or re.match(rf"{re.escape(path)}:\d+:\d+: ", first)
            assert len(rest) <= 1 and all(ln.startswith("  near: ") for ln in rest)
        assert run_cli([command, path])[1] == out


# Flags of each command with good and bad values; None gives the flag
# without a value.
_FLAG_VALUES = {
    "--format": ("text", "json", "json", "yaml", None),
    "--random": ("1", "3", "0", "-1", "x", None),
    "--seed": ("0", "7", "-3", "x", "1e3", None),
    "--require-decision": (None,),
    "--timestamps": (None,),
    "--grid": ("8",),
    "--bogus": (None, "1"),
    "-x": (None,),
}
_COMMAND_FLAGS = {
    "analyze": ("--format", "--require-decision", "--timestamps"),
    "policy": ("--format", "--require-decision"),
    "check": ("--format", "--random", "--seed"),
    "sweep": ("--format",),
    "corpus": ("--format",),
}
_STRAY_FLAGS = ("--grid", "--bogus", "-x")


@pytest.fixture(scope="module")
def flag_fuzz_paths(corpus_dir, tmp_path_factory):
    """Instance paths: the corpus, generated instances with 0-13 criteria,
    a file that does not parse, a missing file and a directory."""
    directory = tmp_path_factory.mktemp("flags")
    paths = sorted(str(p) for p in corpus_dir.glob("*.udet"))
    for m in (0, 2, 5, 13):
        config = GeneratorConfig(seed=m, candidate_range=(2, 6), criteria_range=(m, m))
        path = directory / f"gen_{m}.udet"
        path.write_text(serialize_instance(generate_instance(config, 0)), encoding="utf-8")
        paths.append(str(path))
    (directory / "broken.udet").write_text("instance \"x\"\nfact ?\n", encoding="utf-8")
    paths += [str(directory / "broken.udet"), str(directory / "absent.udet"), str(directory)]
    return paths, directory


@st.composite
def _command_lines(draw, paths, directory):
    """A command line that is well formed about half the time: the real
    commands and flags, a stray flag or command now and then."""
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS) * 2 + ["bogus"]))
    argv = [command]
    if command == "corpus":
        argv.append(draw(st.sampled_from(("export", "export", "import"))))
        targets = (str(directory / "export"), paths[0])
    else:
        targets = paths + (["gpa", "need", "cost"] if command == "sweep" else [])
    count = draw(st.sampled_from((1, 1, 1, 1, 0, 2)))
    argv += draw(st.lists(st.sampled_from(targets), min_size=count, max_size=count))
    flags = draw(st.lists(
        st.sampled_from(_COMMAND_FLAGS.get(command, ()) * 4 + _STRAY_FLAGS), max_size=2))
    for flag in flags:
        value = draw(st.sampled_from(_FLAG_VALUES[flag]))
        argv += [flag] if value is None else [flag, value]
    return argv


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_random_command_lines_exit_cleanly(flag_fuzz_paths, data):
    # Every command line gives an exit code in 0-3 and at most one `error:`
    # line, never a traceback; run in-process, no process per example.
    paths, directory = flag_fuzz_paths
    argv = data.draw(_command_lines(paths, directory))
    code, out, err = run_cli(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    lines = err.splitlines()
    assert sum(line.startswith("error:") for line in lines) <= 1
    if code == 0:
        assert err == ""
    else:
        assert lines and len(lines) <= 2
