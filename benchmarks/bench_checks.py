"""Output checks applied to every request, outside the timed region.

A request passes when it exits 0 and prints a JSON document that is right for
its workload.  Each distinct output is checked in full once; a later request
on the same input passes only if its output is byte-identical to that
checked output, which also shows that `analyze` output is deterministic.
"""

from __future__ import annotations

import hashlib
import json

from bench_inputs import CORPUS_EXPECTED, digest


def check_document(workload: str, name: str, stdout: bytes) -> str | None:
    """None when the output is right, else a one-line reason."""
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    try:
        if workload == "corpus-cli":
            compatible, underdetermined, branch = CORPUS_EXPECTED[name]
            got = (tuple(doc["semantics"]["compatible"]),
                   doc["semantics"]["underdetermined"], doc["policy"]["branch"])
            if got != (compatible, underdetermined, branch):
                expected = (compatible, underdetermined, branch)
                return f"summary {got} differs from the frozen {expected}"
            return None
        if doc["trilemma"]["counterexamples"]:
            return "trilemma counterexample reported"
        for row in doc["verdicts"]:
            v = row["verdict"]
            if v["c_strong"] and not v["c_cond"]:
                return "verdict has c_strong without c_cond"
            if v["nb_strict"] and not v["nb_transparent"]:
                return "verdict has nb_strict without nb_transparent"
            if v["u_decisive"] and v["u_assistive"] != 1:
                return "verdict has u_decisive with u_assistive != 1"
        if doc["trilemma"]["responses_evaluated"] != len(doc["verdicts"]):
            return "responses_evaluated differs from the verdict count"
    except (KeyError, TypeError) as exc:
        return f"output lacks an expected field: {exc!r}"
    return None


class OutputChecker:
    """Checks each request and keeps one reference digest per input."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.reference: dict[str, bytes] = {}
        self.failures: list[str] = []

    def check(self, name: str, code: int, stdout: bytes, stderr: bytes = b"") -> bool:
        reason = None
        if code != 0:
            reason = f"exit code {code}: {stderr.decode(errors='replace').strip()[:200]}"
        else:
            sha = hashlib.sha256(stdout).digest()
            known = self.reference.get(name)
            if known is None:
                reason = check_document(self.workload, name, stdout)
                if reason is None:
                    self.reference[name] = sha
            elif known != sha:
                reason = "output differs from an earlier run of the same input"
        if reason is not None:
            self.failures.append(f"{name}: {reason}")
        return reason is None

    def output_digest(self) -> str:
        """Digest of the checked outputs, keyed by input name."""
        return digest(list(self.reference.items()))
