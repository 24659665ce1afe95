"""Digests of what each `udet` command prints, for a byte-identity check.

Runs `udet.cli.main` in-process over the benchmark's inputs: the 7 corpus
files and every `generated-mix` and `wide-responses` input of seeds 0-3,
as `benchmarks/bench_inputs.py` builds them.  For each command it prints
one sha256 over (input, exit code, stdout, stderr) of every input.  Run it
in two checkouts and diff the outputs:

    python tools/output_digests.py > digests.txt

The files are written under a temporary directory and named relative to
it, so a path in an error message reads the same in every checkout.
"""

from __future__ import annotations

import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

from bench_inputs import workload_inputs, write_inputs  # noqa: E402

from udet.cli import main  # noqa: E402

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


def _inputs() -> dict[str, list[tuple[str, str]]]:
    """(name, text) pairs by directory: the corpus, then each workload and seed."""
    groups = {"corpus": workload_inputs("corpus-cli", 0)}
    for workload in ("generated-mix", "wide-responses"):
        for seed in SEEDS:
            groups[f"{workload}-{seed}"] = workload_inputs(workload, seed)
    return groups


def digests() -> list[tuple[str, str]]:
    """(command, sha256) for each of `COMMANDS`, run from the current directory."""
    paths = [str(path) for directory, inputs in _inputs().items()
             for path in write_inputs(inputs, Path(directory))]
    out = []
    for command in COMMANDS:
        h = hashlib.sha256()
        for path in paths:
            stdout, stderr = io.StringIO(), io.StringIO()
            code = main([command[0], path, *command[1:]], stdout=stdout, stderr=stderr)
            for part in (path, str(code), stdout.getvalue(), stderr.getvalue()):
                h.update(hashlib.sha256(part.encode()).digest())
        out.append((" ".join(command), h.hexdigest()))
    return out


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for command, digest in digests():
            print(f"{digest}  {command}")
