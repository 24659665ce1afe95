"""Command-line surface: analyze, check, policy, sweep, corpus export.

Every command that reads an instance computes its semantics exactly over
the admissible weight polytope; no command takes a precision setting.
Reports are byte-deterministic for identical inputs and flags: orderings are
fixed, numbers render with at most 12 significant digits, and timestamps
appear only under ``analyze --timestamps``.  JSON output is byte-identical
to ``json.dumps(doc, indent=2)`` with its default ASCII escaping, plus a
newline, written with `json`'s C string escaper: ``indent`` makes
`json.dumps` take its pure-Python encoder, which cost as much as parsing
the instance.  The sections that grow with the instance are written from
fixed templates, each shaped as ``json.dumps`` would lay out its dict: the
``instance`` echo of `analyze` (candidates, scales, attributes, facts,
criteria, constraints, preferences), its ``verdicts`` rows and its
``trilemma`` block, which `check` lists as well.  `analyze` builds no
object per verdict row: it writes its rows from the key tables of
`trilemma.evaluate_space`, one template per response form, and renders
each distinct verdict and conditional branch once.  One recursive writer,
`_dump`, writes every other value at its depth.
Commands raise their errors, and `main` alone maps each error type to its
exit code and message.  Exit codes: 0 success, 1 parse or validation error,
a usage error (an unknown flag or a bad flag value, with one ``error:``
line) or a file that cannot be read or written, 2 semantic error
(infeasible constraints, contradictory premises, more declared criteria
than `analyze` can list, a margin linear program that round-off leaves
unbounded, a `sweep` attribute pair that does not fit the instance), 3
trilemma counterexample found, which means the premise of the lemma in
`udet.trilemma` failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import __version__, corpus
from .dsl import ParseError, format_number, parse_instance
from .errors import UdetError
from .model import EPS_WEIGHT, Immutable, Instance, ORDINAL
from .policy import PolicyDecision, decide
from .responses import Clarify, Conditional, Decisive, Equivalence, Response, Verdict
from .semantics import (
    EPS_SCORE,
    ScoreMatrix,
    SemanticsResult,
    analyze,
    exact_thresholds,
    normalize,
    winner_regions,
)
from .trilemma import (GeneratorConfig, TrilemmaReport, VerdictTable, check_enumerable,
                       check_trilemma, evaluate_space, generate_instance)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_SEMANTIC = 2
EXIT_COUNTEREXAMPLE = 3

JSON_SCHEMA_VERSION = 2


def render_response(response: Response) -> str:
    if isinstance(response, Decisive):
        if response.declared_theta is None:
            return f"decisive({response.candidate})"
        return f"decisive({response.candidate}; theta={response.declared_theta})"
    if isinstance(response, Conditional):
        body = ", ".join(f"{crit}->{cand}" for crit, cand in response.branches)
        return f"conditional({body})"
    if isinstance(response, Equivalence):
        return f"equivalence({', '.join(response.candidates)})"
    if isinstance(response, Clarify):
        return f"clarify({'; '.join(response.missing)})"
    return f"refuse({response.reason})"


def response_to_json(response: Response) -> dict:
    """The response's `form` and its fields, by name; `_dump` writes each
    tuple as an array."""
    return {"form": response.form, **{name: getattr(response, name) for name in response._fields}}


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _now() -> str:
    """The wall-clock time in ISO format, UTC.  `datetime` is imported here,
    so that a run without ``--timestamps`` does not load it."""
    from datetime import datetime, timezone

    return datetime.now(timezone.utc).isoformat()


def _parameters(timestamps: bool) -> dict:
    params = {
        "epsilon_score": EPS_SCORE,
        "epsilon_weight": EPS_WEIGHT,
        "tool_version": __version__,
    }
    if timestamps:
        params["timestamp"] = _now()
    return params


def _semantics_json(semantics: SemanticsResult) -> dict:
    return {
        "compatible": list(semantics.compatible),
        "underdetermined": semantics.underdetermined,
        "entailed": semantics.entailed,
        "preference_closure": [[a, b] for a, b in semantics.preference_closure],
    }


def _policy_json(decision: PolicyDecision) -> dict:
    return {
        "branch": decision.branch,
        "response": response_to_json(decision.response),
        "rationale": decision.rationale,
    }


_str = json.encoder.encode_basestring_ascii


class _Json(Immutable):
    """Text that is already JSON, indented as a top-level value of a document."""

    text: str


# The floats that `float.__repr__` spells with letters, as `json.dumps` does.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(value: float) -> str:
    """A float as `json.dumps` writes it."""
    text = float.__repr__(value)
    return text if text[-1] in "0123456789" else _NON_FINITE[text]


# By exact type; a subclass is found by `isinstance`, in this order.
_SCALARS = {str: _str, bool: _bool, int: int.__repr__, float: _float,
            type(None): lambda value: "null"}


def _items(texts: list[str], indent: str, brackets: str = "[]") -> str:
    """JSON texts, each already indented to sit one level below `indent`,
    as the elements of an array (or, with ``"{}"``, the members of an
    object) at `indent`, as ``json.dumps(indent=2)`` lays them out."""
    if not texts:
        return brackets
    inner = "\n" + indent + "  "
    return brackets[0] + inner + ("," + inner).join(texts) + "\n" + indent + brackets[1]


def _strings(texts, indent: str) -> str:
    """An array of strings at `indent`."""
    return _items(list(map(_str, texts)), indent)


def _dump(value, indent: str) -> str:
    """``json.dumps(value, indent=2)`` with every newline followed by
    `indent`, for str-keyed dicts, lists, tuples, strings, numbers, bools and
    None.  It takes the C string escaper where ``indent=2`` would make
    `json.dumps` fall back to its pure-Python encoder."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    deeper = indent + "  "
    if isinstance(value, dict):
        return _items([f"{_str(key)}: {_dump(item, deeper)}" for key, item in value.items()],
                      indent, "{}")
    if isinstance(value, (list, tuple)):
        return _items([_dump(item, deeper) for item in value], indent)
    for kind, scalar in _SCALARS.items():
        if isinstance(value, kind):
            return scalar(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(doc: dict, out) -> None:
    """Write `doc` as ``json.dumps(doc, indent=2)`` followed by a newline.

    Each top-level value is written by `_dump` nested two spaces deep, or as
    it is if it is `_Json`.  Values are written one by one, so a long one is
    not copied into a joined document.
    """
    opening = "{\n  "
    for key, value in doc.items():
        out.write(f"{opening}{_str(key)}: ")
        out.write(value.text if isinstance(value, _Json) else _dump(value, "  "))
        opening = ",\n  "
    out.write("\n}\n")


# The sections below are written from templates, each as `_dump` would
# write the dict it spells out, at its depth in the document.

def _instance_json(instance: Instance) -> str:
    """The ``instance`` value of the analyze document: the instance's
    fields, each fact, criterion and constraint as an object."""
    attributes = [f'{{\n        "name": {_str(a.name)},\n        "kind": {_str(a.kind)},\n'
                  f'        "direction": {_str(a.direction)}'
                  + (f',\n        "scale": {_str(a.scale)}' if a.kind == ORDINAL else "")
                  + "\n      }" for a in instance.attributes]
    facts = [f'{{\n        "candidate": {_str(f.candidate)},\n        "attribute": '
             f'{_str(f.attribute)},\n        "value": {_dump(f.value, "")}\n      }}'
             for f in instance.facts]
    criteria = [f'{{\n        "name": {_str(c.name)},\n        "weights": '
                + _items([f"{_str(a)}: {_dump(w, '')}" for a, w in c.weights], " " * 8, "{}")
                + "\n      }" for c in instance.criteria]
    constraints = [
        f'{{\n        "kind": "pin",\n        "criterion": {_str(c.criterion)}\n      }}'
        if hasattr(c, "criterion") else
        f'{{\n        "kind": "bound",\n        "attribute": {_str(c.attribute)},\n'
        f'        "op": {_str(c.op)},\n        "value": {_dump(c.value, "")}\n      }}'
        for c in instance.constraints]
    return _items([
        f'"id": {_str(instance.id)}',
        f'"question": {_str(instance.question)}',
        f'"candidates": {_strings(instance.candidates, "    ")}',
        '"scales": ' + _items([f'{{\n        "name": {_str(s.name)},\n        "levels": '
                               f'{_strings(s.levels, " " * 8)}\n      }}'
                               for s in instance.scales], "    "),
        f'"attributes": {_items(attributes, "    ")}',
        f'"facts": {_items(facts, "    ")}',
        f'"criteria": {_items(criteria, "    ")}',
        f'"constraints": {_items(constraints, "    ")}',
        '"preferences": ' + _items([f'[\n        {_str(p.winner)},\n        '
                                    f'{_str(p.loser)}\n      ]'
                                    for p in instance.preferences], "    "),
        f'"decisiveness_required": {_bool(instance.decisiveness_required)}',
    ], "  ", "{}")


def _trilemma_json(report: TrilemmaReport, indent: str = "  ",
                   instance: bool = False) -> str:
    """The trilemma report at `indent`, led by its instance's id if
    `instance` is true (as `check` lists it)."""
    deeper = indent + "  "
    inner = deeper + "  "
    member = inner + "  "
    pairwise = [f'{{\n{member}"name": {_str(p.name)},\n{member}"witnesses": {p.witnesses},\n'
                f'{member}"holds": {_bool(p.holds)},\n{member}"violations": '
                + _items([_dump(response_to_json(r), member + "  ") for r in p.violations],
                         member)
                + f"\n{inner}}}" for p in report.pairwise]
    witness = report.conflict_free_witness
    return _items([
        *([f'"instance": {_str(report.instance_id)}'] if instance else []),
        f'"underdetermined": {_bool(report.underdetermined)}',
        f'"responses_evaluated": {report.responses_evaluated}',
        '"counterexamples": ' + _items([_dump(response_to_json(r), inner)
                                        for r in report.counterexamples], deeper),
        f'"pairwise": {_items(pairwise, deeper)}',
        '"conflict_free_witness": '
        + ("null" if witness is None else _dump(response_to_json(witness), deeper)),
    ], indent, "{}")


def _verdict_json(verdict: Verdict) -> str:
    """The verdict's fields as the ``verdict`` of a row of `_verdicts_json`."""
    return (f'{{\n        "c_strong": {_bool(verdict.c_strong)},\n'
            f'        "c_cond": {_bool(verdict.c_cond)},\n'
            f'        "nb_strict": {_bool(verdict.nb_strict)},\n'
            f'        "nb_transparent": {_bool(verdict.nb_transparent)},\n'
            f'        "u_decisive": {_bool(verdict.u_decisive)},\n'
            f'        "u_assistive": {_dump(verdict.u_assistive, "")},\n'
            f'        "hidden_theta": {_bool(verdict.hidden_theta)}\n      }}')


_ROW = '    {\n      "response": {\n        "form": '
_BRANCH_SEP = ",\n          "


def _verdicts_json(table: VerdictTable) -> _Json:
    """The ``verdicts`` value of the analyze document, one row per response,
    each written from the template of its form.  Each distinct verdict,
    candidate, criterion and conditional branch is rendered once."""
    tails = {key: '\n      },\n      "verdict": ' + _verdict_json(verdict) + "\n    }"
             for key, verdict in table.verdicts.items()}
    name = {c: _str(c) for c in table.candidates}
    theta = {t: "null" if t is None else _str(t) for t in table.thetas}
    rows = [f'{_ROW}"decisive",\n        "candidate": {name[cand]},\n'
            f'        "declared_theta": {theta[t]}{tails[key]}'
            for (cand, t), key in table.decisive_rows()]
    head = _ROW + '"conditional",\n        "branches": [\n          '
    ends = {key: "\n        ]" + tail for key, tail in tails.items()}
    rows += [f"{head}{_BRANCH_SEP.join(branches)}{ends[key]}"
             for branches, key in table.conditional_rows(
                 f'[\n            {_str(crit)},\n            {_str(cand)}\n          ]'
                 for crit, cand in table.decided)]
    head = _ROW + '"equivalence",\n        "candidates": [\n          '
    rows += [f"{head}{name[a]},\n          {name[b]}{ends[key]}"
             for (a, b), key in table.equivalence_rows()]
    (clarify, clarify_key), (refuse, refuse_key) = table.closing_rows()
    rows.append(f'{_ROW}"clarify",\n        "missing": '
                f'{_strings(clarify.missing, " " * 8)}{tails[clarify_key]}')
    rows.append(f'{_ROW}"refuse",\n        "reason": {_str(refuse.reason)}{tails[refuse_key]}')
    rows[0] = "[\n" + rows[0]
    rows[-1] += "\n  ]"
    return _Json(",\n".join(rows))


def _load(path: str, require_decision: bool = False) -> Instance:
    """The instance in the file at `path`, marked as requiring a decision if
    asked.  A leading UTF-8 byte order mark is dropped.  Raises OSError if it
    cannot be read, ParseError if it is invalid."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig", errors="replace")
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}")
    instance = parse_instance(text, path)
    return instance.replace(decisiveness_required=True) if require_decision else instance


def _verdict_cells(verdict: Verdict) -> str:
    """The verdict's values, each but the last padded to 6 columns."""
    *cells, last = [_bool(value) if isinstance(value, bool) else format_number(value)
                    for value in (getattr(verdict, name) for name in Verdict._fields)]
    return " ".join([*(cell.ljust(6) for cell in cells), last])


def _verdicts_text(table: VerdictTable) -> str:
    """The rows of the text report's ``verdicts:`` table, each response
    written as `render_response` writes it, padded to 52 columns, with the
    verdict cells of each distinct verdict rendered once."""
    ends = {key: f" {_verdict_cells(verdict)}\n" for key, verdict in table.verdicts.items()}
    theta = {t: "" if t is None else f"; theta={t}" for t in table.thetas}
    join = ", ".join
    rows = [f"  {f'decisive({cand}{theta[t]})':<52}{ends[key]}"
            for (cand, t), key in table.decisive_rows()]
    rows += [f"  {f'conditional({join(branches)})':<52}{ends[key]}"
             for branches, key in table.conditional_rows(
                 f"{crit}->{cand}" for crit, cand in table.decided)]
    rows += [f"  {f'equivalence({a}, {b})':<52}{ends[key]}"
             for (a, b), key in table.equivalence_rows()]
    rows += [f"  {render_response(response):<52}{ends[key]}"
             for response, key in table.closing_rows()]
    return "".join(rows)


def cmd_analyze(args, stdout) -> int:
    instance = _load(args.path, args.require_decision)
    analysis = analyze(instance)
    check_enumerable(instance)
    table = evaluate_space(analysis)
    report = check_trilemma(analysis, table)
    decision = decide(analysis, table)
    semantics = analysis.semantics

    if args.format == "json":
        doc = {
            "schema_version": JSON_SCHEMA_VERSION,
            "parameters": _parameters(args.timestamps),
            "instance": _Json(_instance_json(instance)),
            "semantics": _semantics_json(semantics),
            "verdicts": _verdicts_json(table),
            "policy": _policy_json(decision),
            "trilemma": _Json(_trilemma_json(report)),
        }
        _emit(doc, stdout)
        return EXIT_OK

    w = stdout.write
    w(f"instance {instance.id}\n")
    if instance.question:
        w(f"question: {instance.question}\n")
    w(f"candidates: {', '.join(instance.candidates)}\n")
    attrs = ", ".join(
        f"{a.name} ({a.kind}{'/' + a.scale if a.kind == ORDINAL else ''}, {a.direction})"
        for a in instance.attributes)
    w(f"attributes: {attrs}\n")
    w(f"parameters: eps_score={format_number(EPS_SCORE)} eps_weight={format_number(EPS_WEIGHT)} "
      f"version={__version__}\n")
    if args.timestamps:
        w(f"timestamp: {_now()}\n")
    w("semantics:\n")
    w(f"  compatible: {', '.join(semantics.compatible)}\n")
    w(f"  underdetermined: {_bool(semantics.underdetermined)}\n")
    w(f"  entailed: {semantics.entailed or '-'}\n")
    closure = "; ".join(f"{a} > {b}" for a, b in semantics.preference_closure) or "-"
    w(f"  preference closure: {closure}\n")
    w("verdicts:\n")
    header = ["response".ljust(52), "C".ljust(6), "Ccond".ljust(6), "NB".ljust(6),
              "NBt".ljust(6), "Udec".ljust(6), "Uass".ljust(6), "hidden"]
    w("  " + " ".join(header).rstrip() + "\n")
    w(_verdicts_text(table))
    w("policy:\n")
    w(f"  branch: {decision.branch}\n")
    w(f"  response: {render_response(decision.response)}\n")
    w(f"  rationale: {decision.rationale}\n")
    w("trilemma:\n")
    w(f"  underdetermined: {_bool(report.underdetermined)}\n")
    w(f"  responses evaluated: {report.responses_evaluated}\n")
    w(f"  counterexamples: {len(report.counterexamples)}\n")
    w(_pairwise_text(report))
    w(f"  conflict-free witness: {_witness_text(report)}\n")
    return EXIT_OK


def _witness_text(report: TrilemmaReport) -> str:
    witness = report.conflict_free_witness
    return render_response(witness) if witness else "-"


def _pairwise_text(report: TrilemmaReport) -> str:
    return "".join(f"  {check.name}: {'holds' if check.holds else 'VIOLATED'} "
                   f"(witnesses {check.witnesses})\n" for check in report.pairwise)


def _report_line(report: TrilemmaReport) -> str:
    return (f"{report.instance_id}: D={1 if report.underdetermined else 0} "
            f"responses={report.responses_evaluated} "
            f"counterexamples={len(report.counterexamples)} witness={_witness_text(report)}")


def cmd_check(args, stdout) -> int:
    if args.random is not None:
        if args.paths:
            raise UsageError("give instance files or --random N, not both")
        if args.random < 1:
            raise UsageError("--random needs a positive count")
        config = GeneratorConfig(seed=args.seed or 0)
        instances = [generate_instance(config, i) for i in range(args.random)]
    elif args.seed is not None:
        raise UsageError("--seed needs --random N")
    elif not args.paths:
        raise UsageError("give instance files or --random N")
    else:
        instances = [_load(path) for path in args.paths]

    reports = [check_trilemma(analyze(instance)) for instance in instances]

    total_responses = sum(r.responses_evaluated for r in reports)
    total_counter = sum(len(r.counterexamples) for r in reports)
    determined = sum(1 for r in reports if not r.underdetermined)
    witnessed = sum(1 for r in reports
                    if not r.underdetermined and r.conflict_free_witness is not None)

    if args.format == "json":
        doc = {
            "schema_version": JSON_SCHEMA_VERSION,
            "reports": _Json(_items([_trilemma_json(r, "    ", instance=True)
                                     for r in reports], "  ")),
            "summary": {
                "instances": len(reports),
                "responses": total_responses,
                "counterexamples": total_counter,
                "determined": determined,
                "determined_with_witness": witnessed,
            },
        }
        _emit(doc, stdout)
    else:
        for report in reports:
            stdout.write(_report_line(report) + "\n")
            if args.random is None:
                stdout.write(_pairwise_text(report))
        stdout.write(
            f"checked {len(reports)} instance(s), evaluated {total_responses} "
            f"response(s), counterexamples {total_counter}\n")

    return EXIT_COUNTEREXAMPLE if total_counter else EXIT_OK


def cmd_policy(args, stdout) -> int:
    instance = _load(args.path, args.require_decision)
    decision = decide(analyze(instance))
    if args.format == "json":
        _emit({
            "schema_version": JSON_SCHEMA_VERSION,
            "instance": instance.id,
            "policy": _policy_json(decision),
        }, stdout)
    else:
        stdout.write(f"branch: {decision.branch}\n")
        stdout.write(f"response: {render_response(decision.response)}\n")
        stdout.write(f"rationale: {decision.rationale}\n")
    return EXIT_OK


def cmd_sweep(args, stdout) -> int:
    instance = _load(args.path)
    declared = instance.attribute_names
    pair = tuple(args.attributes)
    if not pair:
        if len(declared) < 2:
            raise UdetError(f"instance has {len(declared)} attribute; sweep needs 2")
        if len(declared) > 2:
            raise UdetError("instance has more than 2 attributes; "
                            "name the attribute pair to project onto")
        pair = declared
    if len(pair) != 2 or pair[0] == pair[1]:
        raise UdetError("exactly two distinct attribute names required")
    for name in pair:
        if name not in declared:
            raise UdetError(f"unknown attribute '{name}'")

    # Min-max normalization scales each column on its own, so the pair's two
    # columns are the whole score matrix of the 2-attribute projection.
    full = normalize(instance)
    i, j = declared.index(pair[0]), declared.index(pair[1])
    matrix = ScoreMatrix(full.candidates, pair, tuple((row[i], row[j]) for row in full.values))
    thresholds = exact_thresholds(matrix, 0.0, 1.0)
    regions = winner_regions(matrix, thresholds)

    if args.format == "json":
        _emit({
            "schema_version": JSON_SCHEMA_VERSION,
            "instance": instance.id,
            "attribute_pair": list(pair),
            "thresholds": thresholds,
            "regions": [
                {"lo": lo, "hi": hi, "lo_closed": lc, "hi_closed": hc,
                 "winners": list(ws)}
                for lo, lc, hi, hc, ws in regions
            ],
        }, stdout)
        return EXIT_OK

    stdout.write(f"alpha = weight of '{pair[0]}' (1 - alpha on '{pair[1]}')\n")
    stdout.write(_render_regions(regions, matrix.candidates) + "\n")
    return EXIT_OK


def _render_regions(regions, candidates: tuple[str, ...]) -> str:
    parts = []
    for lo, lo_closed, hi, hi_closed, winners in regions:
        if len(winners) == 1:
            label = winners[0]
        elif set(winners) == set(candidates):
            label = "tie"
        else:
            label = f"tie ({', '.join(winners)})"
        if lo == hi:
            parts.append(f"α = {format_number(lo)}: {label}")
        else:
            left = "[" if lo_closed else "("
            right = "]" if hi_closed else ")"
            parts.append(
                f"α ∈ {left}{format_number(lo)}, {format_number(hi)}{right}: {label}")
    return "; ".join(parts)


def cmd_corpus(args, stdout) -> int:
    # `export` is the one corpus subcommand, and argparse requires one.
    entries = corpus.load_corpus()
    target = Path(args.directory)
    target.mkdir(parents=True, exist_ok=True)
    written = []
    for entry in entries:
        path = target / f"{entry.id}.udet"
        path.write_text(entry.source, encoding="utf-8")
        written.append(str(path))
    if args.format == "json":
        _emit({"schema_version": JSON_SCHEMA_VERSION, "exported": written}, stdout)
    else:
        for path in written:
            stdout.write(path + "\n")
    return EXIT_OK


class UsageError(Exception):
    """A command line that names an unknown flag or gives a bad value."""


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print usage and exit 2, so that
    `main` reports it on its own stderr.  Subparsers share the class."""

    def error(self, message: str):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="udet",
        description="Analyze decision instances whose premises may not "
                    "determine a unique answer.")
    parser.add_argument("--version", action="version", version=f"udet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="full semantic and verdict report")
    p_analyze.add_argument("path")
    p_analyze.add_argument("--require-decision", action="store_true",
                           help="treat the instance as requiring a decision")

    p_check = sub.add_parser(
        "check", help="verify the trilemma over the structured response space by counting",
        description="Verify that no structured response is strongly correct, strictly "
                    "non-biased and decisive on an underdetermined instance: a lemma "
                    "about the five response forms, not the conjecture about language "
                    "models.  One response per distinct verdict is evaluated, at most "
                    "24 per instance, and each verdict counts the responses that share "
                    "it.  The response count (responses=, JSON responses_evaluated) is "
                    "the size of the response space.")
    p_check.add_argument("paths", nargs="*")
    p_check.add_argument("--random", type=int, default=None, metavar="N",
                         help="check N generated instances instead of files")
    p_check.add_argument("--seed", type=int, default=None, metavar="S",
                         help="generator seed for --random (default 0)")

    p_policy = sub.add_parser("policy", help="run the response policy")
    p_policy.add_argument("path")
    p_policy.add_argument("--require-decision", action="store_true")

    p_sweep = sub.add_parser(
        "sweep", help="winner regions over a 2-attribute weight",
        description="Winner regions as the weight alpha of the first attribute runs "
                    "over [0, 1], with 1 - alpha on the second.  Only the two "
                    "attributes' facts count: criteria, weight constraints and "
                    "preferences are ignored.")
    p_sweep.add_argument("path")
    p_sweep.add_argument("attributes", nargs="*", metavar="ATTR",
                         help="attribute pair for the projection")

    p_corpus = sub.add_parser("corpus", help="bundled example instances")
    corpus_sub = p_corpus.add_subparsers(dest="corpus_command", required=True)
    p_export = corpus_sub.add_parser("export", help="write corpus files to a directory")
    p_export.add_argument("directory")

    for p in (p_analyze, p_check, p_policy, p_sweep, p_export):
        p.add_argument("--format", choices=("text", "json"), default="text")
    p_analyze.add_argument("--timestamps", action="store_true",
                           help="include a wall-clock timestamp in reports")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; `parse_args` leaves it unchanged."""
    return build_parser()


_COMMANDS = {"analyze": cmd_analyze, "check": cmd_check, "policy": cmd_policy,
            "sweep": cmd_sweep, "corpus": cmd_corpus}


def main(argv: list[str] | None = None, stdout=None, stderr=None) -> int:
    """Run one command.  Commands raise, and `main` alone maps each error
    type to its exit code and message on `stderr`.  A usage error, an
    OSError or a ParseError exits 1; any other UdetError or a ValueError from
    the numeric layers (the margin LP's ``the linear program is unbounded``)
    exits 2.  Each writes one ``error:`` line, except a ParseError, which
    writes ``origin:line:col: message`` and, if it has one, a ``  near:``
    line.  ``--help`` and ``--version`` print to ``sys.stdout`` and exit 0."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        args = _parser().parse_args(argv)
        return _COMMANDS[args.command](args, stdout)
    except (UsageError, OSError) as exc:
        stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except ParseError as exc:
        stderr.write(f"{exc}\n")
        if exc.snippet:
            stderr.write(f"  near: {exc.snippet}\n")
        return EXIT_PARSE
    except (UdetError, ValueError) as exc:
        stderr.write(f"error: {exc}\n")
        return EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
