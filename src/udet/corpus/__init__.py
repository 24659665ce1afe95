"""Bundled worked examples as `.udet` files, with frozen expected summaries.

Three scenarios ship with the package: a two-candidate scholarship choice
(unconstrained, pinned-merit, pinned-need, and decision-required variants),
a three-city recommendation over five attributes, and a company-priorities
question over three normative attributes.  The city and company value tables
are engineered fixtures, chosen so that every candidate is achievable under
some weighting and verified against the engine before being frozen here.
"""

from __future__ import annotations

from ..dsl import ParseError, parse_instance
from ..errors import CorpusCorrupt
from ..model import Immutable, Instance


class ExpectedSummary(Immutable):
    """Frozen engine outputs for a corpus entry."""

    compatible: tuple[str, ...]
    underdetermined: bool
    branch: str


class CorpusEntry(Immutable):
    """One bundled file: its id, its text, its frozen summary and its instance."""

    id: str
    source: str
    expected: ExpectedSummary
    instance: Instance


# Registry order is the load order; expected values were computed by running
# the engine on each file and frozen afterwards.
EXPECTED: tuple[tuple[str, ExpectedSummary], ...] = (
    ("scholarship",
     ExpectedSummary(("A", "B"), True, "conditional")),
    ("scholarship_pinned_merit",
     ExpectedSummary(("A",), False, "direct")),
    ("scholarship_pinned_need",
     ExpectedSummary(("B",), False, "direct")),
    ("scholarship_require_decision",
     ExpectedSummary(("A", "B"), True, "recommend_with_assumptions")),
    ("city_recommendation",
     ExpectedSummary(("bengaluru", "mumbai", "delhi"), True, "conditional")),
    ("company_priorities",
     ExpectedSummary(("profit", "employee_well_being", "balanced"), True, "conditional")),
    ("company_pinned_welfare",
     ExpectedSummary(("employee_well_being",), False, "direct")),
)


def load_source(entry_id: str) -> str:
    from importlib import resources  # only `corpus export` reads bundled files

    path = resources.files(__package__).joinpath("data", f"{entry_id}.udet")
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CorpusCorrupt(f"corpus entry '{entry_id}': {exc}") from exc


def load_corpus() -> list[CorpusEntry]:
    """Parse every bundled entry; `parse_instance` also validates it.

    Raises CorpusCorrupt if any entry fails to parse or validate, which
    would be a packaging defect rather than a user error.
    """
    entries: list[CorpusEntry] = []
    for entry_id, expected in EXPECTED:
        source = load_source(entry_id)
        try:
            instance = parse_instance(source, f"corpus:{entry_id}")
        except ParseError as exc:
            raise CorpusCorrupt(f"corpus entry '{entry_id}' does not parse: {exc}") from exc
        if instance.id != entry_id:
            raise CorpusCorrupt(
                f"corpus entry '{entry_id}' declares mismatched id '{instance.id}'")
        entries.append(CorpusEntry(entry_id, source, expected, instance))
    return entries
