"""Digests of what each `udet` command prints, for a byte-identity check.

Runs `udet.cli.main` in-process over the benchmark's inputs: the 7 corpus
files and every `generated-mix` and `wide-responses` input of seeds 0-3,
as `benchmarks/bench_inputs.py` builds them.  For each command it prints
one sha256 over (input, exit code, stdout, stderr) of every input.  Then,
for each kind of one-line mutation of the corpus files (`MUTATIONS`), it
prints one sha256 over what `analyze` prints on every mutated file, each
of which is invalid: the digests cover the line, column, message and
``near:`` snippet of every error.  It does the same for mutations of one
large generated document (`LARGE`: seed 1, 256 candidates, 20 attributes,
5153 lines), whose errors may sit far from its first lines.  Run it in two
checkouts and diff the outputs:

    python tools/output_digests.py > digests.txt

The files are written under a temporary directory and named relative to
it, so a path in an error message reads the same in every checkout.
"""

from __future__ import annotations

import hashlib
import io
import os
import random
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

from bench_inputs import workload_inputs, write_inputs  # noqa: E402

from udet.cli import main  # noqa: E402
from udet.dsl import serialize_instance  # noqa: E402
from udet.trilemma import GeneratorConfig, generate_instance  # noqa: E402

SEEDS = range(4)
COMMANDS = [
    ["analyze"],
    ["analyze", "--format", "json"],
    ["analyze", "--require-decision"],
    ["analyze", "--format", "json", "--require-decision"],
    ["policy"],
    ["policy", "--format", "json"],
    ["check"],
    ["check", "--format", "json"],
    ["sweep"],
    ["sweep", "--format", "json"],
]


# Mutated copies of each document per kind of mutation.
VARIANTS = 4

# The largest shape the benchmark sweeps.
LARGE = GeneratorConfig(seed=1, candidate_range=(256, 256), attribute_range=(20, 20),
                        criteria_range=(2, 2))

# Lines whose copy breaks a rule, each declaring a name or a fact; the
# loss of one breaks a rule too, unless it is the question or a criterion.
_DECLARING = ("instance ", "scale ", "attribute ", "candidates ", "fact ", "question ",
              "criterion ")
# A name that the line refers to rather than declares.
_REFERENCE = re.compile(r"(?<=^fact )\w+|(?<=\.)\w+(?= =)|(?<== )[A-Za-z_]\w*$"
                        r"|\w+(?=:)|(?<=^assume criterion = )\w+|(?<=^assume weight )\w+"
                        r"|(?<=^prefer )\w+|(?<= over )\w+")
_NUMBER = re.compile(r"(?<=[=:] )[+-]?[0-9.][0-9.eE+-]*")
_WEIGHT = re.compile(r"(?<=: )[0-9.][0-9.eE+-]*")
_BAD_NUMBERS = ("1e999", "-1e400", "1.2.3", "1e", "0x1", "1,5", "--1", "\u0663")


def _delete(lines, rng):
    i = rng.choice([i for i, line in enumerate(lines) if line.startswith(_DECLARING[:5])])
    del lines[i]


def _duplicate(lines, rng):
    i = rng.choice([i for i, line in enumerate(lines) if line.startswith(_DECLARING)])
    lines.insert(i + 1, lines[i])


def _swap(lines, rng):
    """Swap a line's keyword with another of its space-separated words."""
    i = rng.choice([i for i, line in enumerate(lines) if " " in line])
    words = lines[i].split(" ")
    j = rng.randrange(1, len(words))
    words[0], words[j] = words[j], words[0]
    lines[i] = " ".join(words)


def _replace(lines, rng, pattern, new):
    """Replace one match of `pattern` on a random line that has one with
    `new(match text)`."""
    i = rng.choice([i for i, line in enumerate(lines) if pattern.search(line)])
    m = rng.choice(list(pattern.finditer(lines[i])))
    lines[i] = lines[i][:m.start()] + new(m.group()) + lines[i][m.end():]


def _rename(lines, rng):
    _replace(lines, rng, _REFERENCE, lambda name: "undeclared")


def _bad_number(lines, rng):
    _replace(lines, rng, _NUMBER, lambda number: rng.choice(_BAD_NUMBERS))


def _bad_weight(lines, rng):
    """A negative weight, or one that no longer sums to 1 with the others."""
    _replace(lines, rng, _WEIGHT,
             lambda weight: rng.choice(("-0.5", repr(float(weight) + 0.25))))


MUTATIONS = {"delete-line": _delete, "duplicate-line": _duplicate, "swap-tokens": _swap,
             "undeclared-name": _rename, "bad-number": _bad_number, "bad-weight": _bad_weight}


def mutated_inputs(kind: str, inputs: list[tuple[str, str]] | None = None
                   ) -> list[tuple[str, str]]:
    """(name, text) of `VARIANTS` seeded mutations of each of `inputs`, by
    default the corpus files."""
    out = []
    for name, text in inputs or workload_inputs("corpus-cli", 0):
        for n in range(VARIANTS):
            lines = text.split("\n")
            MUTATIONS[kind](lines, random.Random(f"{name} {kind} {n}"))
            out.append((f"{name}-{n}", "\n".join(lines)))
    return out


def _inputs() -> dict[str, list[tuple[str, str]]]:
    """(name, text) pairs by directory: the corpus, then each workload and seed."""
    groups = {"corpus": workload_inputs("corpus-cli", 0)}
    for workload in ("generated-mix", "wide-responses"):
        for seed in SEEDS:
            groups[f"{workload}-{seed}"] = workload_inputs(workload, seed)
    return groups


def _digest(command: list[str], paths: list[str]) -> str:
    h = hashlib.sha256()
    for path in paths:
        stdout, stderr = io.StringIO(), io.StringIO()
        code = main([command[0], path, *command[1:]], stdout=stdout, stderr=stderr)
        for part in (path, str(code), stdout.getvalue(), stderr.getvalue()):
            h.update(hashlib.sha256(part.encode()).digest())
    return h.hexdigest()


def digests() -> list[tuple[str, str]]:
    """(command, sha256) for each of `COMMANDS`, then for `analyze` on each
    kind of mutation of the corpus and of the `LARGE` document, run from the
    current directory."""
    paths = [str(path) for directory, inputs in _inputs().items()
             for path in write_inputs(inputs, Path(directory))]
    out = [(" ".join(command), _digest(command, paths)) for command in COMMANDS]
    large = [("large", serialize_instance(generate_instance(LARGE, 0)))]
    for label, inputs in (("", None), ("large-", large)):
        for kind in MUTATIONS:
            mutated = write_inputs(mutated_inputs(kind, inputs), Path(label + kind))
            out.append((f"analyze ({label}{kind})", _digest(["analyze"], list(map(str, mutated)))))
    return out


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for command, digest in digests():
            print(f"{digest}  {command}")
