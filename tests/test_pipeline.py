"""One analysis per instance: every layer reads it, nothing recomputes it."""

from __future__ import annotations

import sys

import pytest

import udet
from udet.policy import decide
from udet.semantics import analyze
from udet.trilemma import GeneratorConfig, check_trilemma, generate_instance


def _count_calls(monkeypatch, name: str) -> list[int]:
    """Wrap `name` in every loaded udet module; return a one-element counter."""
    calls = [0]
    original = getattr(sys.modules["udet.semantics"], name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("udet") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("index", range(12))
def test_each_instance_is_normalized_and_scanned_once(monkeypatch, index):
    config = GeneratorConfig(seed=61, decision_probability=0.5)
    instance = generate_instance(config, index)
    normalized = _count_calls(monkeypatch, "normalize")
    scanned = _count_calls(monkeypatch, "winner_statistics")
    analysis = analyze(instance)
    check_trilemma(analysis)
    decide(analysis)
    assert normalized == [1]
    assert scanned == [1]


def test_every_exported_name_resolves():
    for name in udet.__all__:
        assert hasattr(udet, name), name
    namespace: dict = {}
    exec("from udet import *", namespace)
    assert set(udet.__all__) <= set(namespace)
