"""The committed byte check: each invocation of the corpus's tier-1 subset
(``corpus.py``) gives the digest of its stdout, stderr and exit status that
``corpus.json`` records."""

import json
from pathlib import Path

import corpus


def test_every_invocation_gives_its_recorded_digest(tmp_path):
    recorded = json.loads((Path(__file__).resolve().parent / "corpus.json").read_text(encoding="utf-8"))
    assert corpus.differences(recorded, corpus.digests(tmp_path, full=False)) == []


def test_differences_names_changed_and_one_sided_invocations():
    a = {"run x": "1", "eval y": "2", "chsh z": "3"}
    b = {"run x": "1", "eval y": "9", "sample w": "4"}
    assert corpus.differences(a, b) == ["chsh z: only in A", "eval y: differs", "sample w: only in B"]
