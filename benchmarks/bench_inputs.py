"""Workload inputs: the frozen corpus and a seeded `.udet` text generator.

The generator belongs to the benchmark, not to `udet`, so a change to the
program cannot change what the benchmark feeds it.  It uses only the standard
library and reproduces the shape of the program's own property-sweep
generator (candidates, attributes, criteria, pins, bounds, decisions,
dominance preferences).

Cost is set by an instance's structure: its counts, whether it carries a
pin, a bound, a decision requirement or a preference, and the bound's
operator and value.  The structure depends on the instance index only, and
the seed draws the data: fact values, attribute kinds and directions,
criterion weights, and the criterion, attribute or pair a premise names.  So
every seed gives the same cost mix on different data, and a workload's
latency quantiles do not jump between cost tiers from seed to seed.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import time
from dataclasses import dataclass
from pathlib import Path

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"

# Frozen from the corpus registry's expected summaries: (compatible answers,
# underdetermined, policy branch) for each bundled file.
CORPUS_EXPECTED: dict[str, tuple[tuple[str, ...], bool, str]] = {
    "scholarship": (("A", "B"), True, "conditional"),
    "scholarship_pinned_merit": (("A",), False, "direct"),
    "scholarship_pinned_need": (("B",), False, "direct"),
    "scholarship_require_decision": (("A", "B"), True, "recommend_with_assumptions"),
    "city_recommendation": (("bengaluru", "mumbai", "delhi"), True, "conditional"),
    "company_priorities": (("profit", "employee_well_being", "balanced"), True, "conditional"),
    "company_pinned_welfare": (("employee_well_being",), False, "direct"),
}


@dataclass(frozen=True)
class Shape:
    """Ranges are inclusive.  `strata` names the count dimensions that are
    cycled through their full product; the others are drawn per index.  The
    feature shares (pin to preference) are exact up to one instance."""

    candidates: tuple[int, int]
    attributes: tuple[int, int]
    criteria: tuple[int, int]
    strata: tuple[str, ...]
    instances: int
    ordinal: float = 0.30
    lower_better: float = 0.25
    pin: float = 0.15
    bound: float = 0.20
    decision: float = 0.20
    preference: float = 0.15


SHAPES = {
    # 36 (attributes x candidates x criteria) cells, 2 instances each.
    "generated-mix": Shape(candidates=(2, 4), attributes=(2, 4), criteria=(0, 3),
                           strata=("attributes", "candidates", "criteria"), instances=72),
    # 4 criteria counts x 7 candidate counts, one instance each.  Numeric
    # attributes only: coarse ordinal scales tie candidates under some
    # criteria, and the response count (2 ** criteria with a unique winner)
    # would then swing from seed to seed.
    "wide-responses": Shape(candidates=(6, 12), attributes=(2, 2), criteria=(9, 12),
                            strata=("criteria", "candidates"), instances=28, ordinal=0.0),
}


def _counts(shape: Shape, index: int, rng: random.Random) -> dict[str, int]:
    ranges = {"candidates": shape.candidates, "attributes": shape.attributes,
              "criteria": shape.criteria}
    cells = list(itertools.product(*(range(ranges[s][0], ranges[s][1] + 1)
                                     for s in shape.strata)))
    counts = dict(zip(shape.strata, cells[index % len(cells)]))
    for name, (lo, hi) in ranges.items():
        if name not in counts:
            counts[name] = rng.randint(lo, hi)
    return counts


# Irrational steps of one low-discrepancy sequence per instance feature.
_FEATURE_STEPS = {"pin": 0.6180339887, "bound": 0.4142135624, "decision": 0.7320508076,
                  "preference": 0.2360679775}


def _has(feature: str, share: float, index: int) -> bool:
    """Whether instance `index` gets `feature`: a Weyl sequence gives it to
    `share` of the instances up to one, spread evenly over the strata."""
    return (0.5 + index * _FEATURE_STEPS[feature]) % 1.0 < share


def instance_text(shape: Shape, seed: int, index: int,
                  counts: dict[str, int] | None = None) -> str:
    """The `index`-th instance of `shape` for `seed`, as `.udet` text.

    Fact values are tenths in [0, 10], ordinal attributes get their own 3-5
    level scale, criterion weights are twentieths summing to 1.  At most one
    constraint is emitted (a pin when criteria exist, else at most one
    bound), so every constraint set is feasible.  A preference premise is
    only ever drawn from a candidate that weakly dominates the other on
    every attribute and strictly on one, so it cannot contradict the scores.
    """
    rng = random.Random(f"{seed}:{index}")
    plan = random.Random(f"plan:{index}")
    if counts is None:
        counts = _counts(shape, index, plan)
    n, k, m = counts["candidates"], counts["attributes"], counts["criteria"]
    cands = [f"c{i + 1}" for i in range(n)]
    attrs = [f"a{j + 1}" for j in range(k)]

    lines = [f'instance "bench_{index}"', 'question "Which candidate should be selected?"']
    decls = []
    levels: dict[str, int] = {}
    lower: dict[str, bool] = {}
    for a in attrs:
        lower[a] = rng.random() < shape.lower_better
        direction = "lower_better" if lower[a] else "higher_better"
        if rng.random() < shape.ordinal:
            levels[a] = rng.randint(3, 5)
            names = ", ".join(f"lv{r}" for r in range(levels[a]))
            lines.append(f"scale s_{a}: {names}")
            decls.append(f"attribute {a}: ordinal(s_{a}), {direction}")
        else:
            decls.append(f"attribute {a}: numeric, {direction}")
    lines += decls
    lines.append(f"candidates {', '.join(cands)}")

    # Raw values as integers: tenths for numeric facts, level ranks for ordinals.
    raw = {(c, a): rng.randint(0, levels[a] - 1) if a in levels else rng.randint(0, 100)
           for c in cands for a in attrs}
    for c in cands:
        for a in attrs:
            v = raw[(c, a)]
            shown = f"lv{v}" if a in levels else f"{v // 10}.{v % 10}"
            lines.append(f"fact {c}.{a} = {shown}")

    crits = [f"k{i + 1}" for i in range(m)]
    for name in crits:
        parts = [0] * k
        for _ in range(20):
            parts[rng.randrange(k)] += 1
        body = ", ".join(f"{a}: {p / 20:g}" for a, p in zip(attrs, parts))
        lines.append(f"criterion {name} {{ {body} }}")

    if crits and _has("pin", shape.pin, index):
        lines.append(f"assume criterion = {rng.choice(crits)}")
    elif _has("bound", shape.bound, index):
        op = "<=" if plan.random() < 0.5 else ">="
        lines.append(f"assume weight {rng.choice(attrs)} {op} {plan.randint(0, 10) / 10:g}")

    if _has("preference", shape.preference, index):
        # Min-max normalization is monotone per attribute, so dominance on
        # direction-adjusted raw values is dominance on normalized scores.
        def key(c: str) -> list[int]:
            return [-raw[(c, a)] if lower[a] else raw[(c, a)] for a in attrs]
        pairs = [(w, l) for w in cands for l in cands if w != l
                 and all(x >= y for x, y in zip(key(w), key(l)))
                 and any(x > y for x, y in zip(key(w), key(l)))]
        if pairs:
            w, l = rng.choice(pairs)
            lines.append(f"prefer {w} over {l}")

    if _has("decision", shape.decision, index):
        lines.append("require decision")
    return "\n".join(lines) + "\n"


def workload_inputs(workload: str, seed: int) -> list[tuple[str, str]]:
    """(name, text) pairs for a workload: the corpus or seeded instances."""
    if workload == "corpus-cli":
        return [(name, (CORPUS_DIR / f"{name}.udet").read_text(encoding="utf-8"))
                for name in CORPUS_EXPECTED]
    shape = SHAPES[workload]
    return [(f"bench_{i}", instance_text(shape, seed, i)) for i in range(shape.instances)]


def rounds(items: list, seed: int, seconds: float, min_requests: int):
    """Yield (request index, item) over a seeded order of `items`, repeated in
    whole rounds until `seconds` have passed and `min_requests` were issued,
    so that every input weighs the same in every run."""
    order = list(items)
    random.Random(seed).shuffle(order)
    begin = time.perf_counter()
    i = 0
    while True:
        for item in order:
            yield i, item
            i += 1
        if time.perf_counter() - begin >= seconds and i >= min_requests:
            return


def write_inputs(inputs: list[tuple[str, str]], directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, text in inputs:
        path = directory / f"{name}.udet"
        path.write_text(text, encoding="utf-8")
        paths.append(path)
    return paths


def digest(items: list[tuple[str, bytes]]) -> str:
    """Order-independent sha256 over named byte strings."""
    h = hashlib.sha256()
    for name, data in sorted(items):
        h.update(name.encode())
        h.update(b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest()
