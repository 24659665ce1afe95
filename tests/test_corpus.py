from __future__ import annotations

from helpers import winners_at

from udet.corpus import EXPECTED, load_corpus, load_source
from udet.dsl import parse_instance, serialize_instance
from udet.model import validate
from udet.policy import decide
from udet.semantics import analyze, normalize


def test_corpus_has_required_entries(corpus_entries):
    ids = [entry.id for entry in corpus_entries]
    assert len(ids) == len(set(ids))
    assert len(ids) >= 6
    for required in ("scholarship", "scholarship_pinned_merit",
                     "scholarship_pinned_need", "scholarship_require_decision",
                     "city_recommendation", "company_priorities"):
        assert required in ids
    assert tuple(ids) == tuple(name for name, _ in EXPECTED)


def test_every_entry_parses_and_validates(corpus_entries):
    for entry in corpus_entries:
        assert validate(entry.instance) == []
        assert entry.instance.id == entry.id
        assert entry.source == load_source(entry.id)


def test_expected_summaries_reproduced(corpus_entries):
    for entry in corpus_entries:
        analysis = analyze(entry.instance)
        sem = analysis.semantics
        decision = decide(analysis)
        assert sem.compatible == entry.expected.compatible, entry.id
        assert sem.underdetermined == entry.expected.underdetermined, entry.id
        assert decision.branch == entry.expected.branch, entry.id


def test_city_every_city_achievable(corpus_entries):
    entry = next(e for e in corpus_entries if e.id == "city_recommendation")
    sem = analyze(entry.instance).semantics
    assert set(sem.compatible) == {"bengaluru", "mumbai", "delhi"}
    assert len(sem.compatible) == 3
    matrix = normalize(entry.instance)
    presets = {"job_focus": "bengaluru", "safety_focus": "mumbai",
               "cost_focus": "delhi"}
    for name, winner in presets.items():
        crit = entry.instance.criterion_by_name(name)
        assert winners_at(matrix, crit).unique == winner


def test_company_criterion_winners(corpus_entries):
    entry = next(e for e in corpus_entries if e.id == "company_priorities")
    matrix = normalize(entry.instance)
    expected = {"profit_led": "profit", "welfare_led": "employee_well_being",
                "longterm_led": "balanced"}
    for name, winner in expected.items():
        crit = entry.instance.criterion_by_name(name)
        assert winners_at(matrix, crit).unique == winner


def test_company_pinned_welfare_decides(corpus_entries):
    entry = next(e for e in corpus_entries if e.id == "company_pinned_welfare")
    sem = analyze(entry.instance).semantics
    assert sem.compatible == ("employee_well_being",)
    assert sem.entailed == "employee_well_being"


def test_corpus_sources_round_trip(corpus_entries):
    for entry in corpus_entries:
        inst = parse_instance(entry.source)
        assert parse_instance(serialize_instance(inst)) == inst


def test_load_corpus_is_stable():
    assert load_corpus() == load_corpus()
