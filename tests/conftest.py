from __future__ import annotations

import pytest

from udet import corpus
from udet.dsl import parse_instance


@pytest.fixture(scope="session")
def corpus_entries():
    return corpus.load_corpus()


@pytest.fixture(scope="session")
def scholarship_text() -> str:
    return corpus.load_source("scholarship")


@pytest.fixture
def scholarship(scholarship_text):
    return parse_instance(scholarship_text, "scholarship.udet")
