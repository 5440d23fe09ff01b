"""Replay the golden corpus (tests/golden/corpus.json, made by tests/golden/regenerate.py).

With the numpy version that made the corpus, every exit code, stdout,
stderr and --out document must be byte-identical.  With another numpy
the low bits of a document may move, so each text is compared as its
words and numbers: the words exactly, each number within 1e-12.  The
mode that ran is the first part of each test id: "bytes" or "values".
"""

import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).parent / "golden"
CORPUS = json.loads((GOLDEN / "corpus.json").read_text(encoding="utf-8"))
MODE = "bytes" if np.__version__ == CORPUS["numpy"] else "values"
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|Infinity|nan|NaN)")
VALUE_TOL = 1e-12


def _regenerate():
    spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REGENERATE = _regenerate()


def _split(text: str) -> tuple:
    """The words of a text (numbers replaced by a marker) and its numbers."""
    return NUMBER.sub("#", text), [float(x) for x in NUMBER.findall(text)]


def _same_values(got: str, want: str) -> bool:
    # a document names the numpy that wrote it
    got = got.replace(f'"numpy": "{np.__version__}"', f'"numpy": "{CORPUS["numpy"]}"')
    (got_words, got_numbers), (want_words, want_numbers) = _split(got), _split(want)
    return got_words == want_words and len(got_numbers) == len(want_numbers) and all(
        g == w or abs(g - w) <= VALUE_TOL for g, w in zip(got_numbers, want_numbers))


def test_the_corpus_lists_the_regeneration_commands():
    assert [e["argv"] for e in CORPUS["entries"]] == REGENERATE.commands()


@pytest.mark.parametrize("entry", CORPUS["entries"], ids=lambda e: f"{MODE}:{' '.join(e['argv'])}")
def test_a_command_reproduces_its_corpus_entry(entry, tmp_path):
    got = REGENERATE.run(entry["argv"], tmp_path / "out")
    assert got["exit"] == entry["exit"]
    for field in ("stdout", "stderr", "out"):
        if MODE == "bytes" or got[field] is None or entry[field] is None:
            assert got[field] == entry[field], field
        else:
            assert _same_values(got[field], entry[field]), (field, got[field], entry[field])


def test_values_mode_tells_a_moved_number_from_a_rounded_one():
    doc = '{"info": 0.25, "versions": {"numpy": "%s"}, "worst_trial": 12}' % CORPUS["numpy"]
    moved = doc.replace('"numpy": "%s"' % CORPUS["numpy"], '"numpy": "%s"' % np.__version__)
    assert _same_values(moved, doc)
    assert _same_values(moved.replace("0.25", "0.2500000000000004"), doc)
    assert not _same_values(moved.replace("0.25", "0.2500001"), doc)
    assert not _same_values(moved.replace("info", "rhs"), doc)
    assert not _same_values(moved.replace("12}", "12, 13}"), doc)
