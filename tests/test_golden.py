"""The fixed-seed outputs of ``golden.py`` equal the committed ones.

Integers, strings, key order and the corpus texts must be equal byte for
byte; floats (parameters, hyperparameters, objectives, log likelihoods)
agree to 1e-12 relative, since a change of summation order may move their
last bits.  The integer outputs (corpora, hidden assignments, Gibbs count
samples) come from the token stream and the Gibbs chain, so equality shows
that neither moved.
"""
from __future__ import annotations

import math
from pathlib import Path

import orjson
import pytest

import golden
from conftest import without_kernels

GOLDEN = Path(__file__).parent / "data" / "golden"
RTOL = 1e-12


def _assert_same(got, want, where: str) -> None:
    assert type(got) is type(want), f"{where}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        # The order a file writes its keys in is part of its bytes.
        assert list(got) == list(want), where
        for key in want:
            _assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (a, b) in enumerate(zip(got, want)):
            _assert_same(a, b, f"{where}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


@pytest.fixture(scope="module")
def rerun(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    golden.write(out)
    return out


@pytest.fixture(scope="module")
def rerun_on_copies(tmp_path_factory):
    """The same steps on the kernels' Python copies, as where no compiler works."""
    out = tmp_path_factory.mktemp("golden-copies")
    with without_kernels():
        golden.write(out)
    return out


def test_corpus_is_byte_identical(rerun):
    assert (rerun / "corpus.txt").read_bytes() == (GOLDEN / "corpus.txt").read_bytes()


def test_scored_stream_is_byte_identical(rerun):
    assert (rerun / "stream.txt").read_bytes() == (GOLDEN / "stream.txt").read_bytes()


@pytest.mark.parametrize("name", ["truth.json", "gs.json", "em.json", "vb.json"])
def test_json_output_matches(rerun, name):
    got, want = (orjson.loads((d / name).read_bytes()) for d in (rerun, GOLDEN))
    _assert_same(got, want, name)


@pytest.mark.parametrize("name", ["em-plugin.jsonl", "vb-mc.jsonl", "gs-mc.jsonl"])
def test_scores_match_line_by_line(rerun, name):
    got, want = ((d / name).read_bytes().splitlines() for d in (rerun, GOLDEN))
    assert len(got) == len(want), name
    for i, (a, b) in enumerate(zip(got, want), 1):
        _assert_same(orjson.loads(a), orjson.loads(b), f"{name} line {i}")


def test_corpora_on_copies_are_byte_identical(rerun_on_copies):
    for name in ("corpus.txt", "stream.txt"):
        assert (rerun_on_copies / name).read_bytes() == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize("name", ["truth.json", "gs.json", "em.json", "vb.json"])
def test_json_output_on_copies_matches(rerun_on_copies, name):
    test_json_output_matches(rerun_on_copies, name)


@pytest.mark.parametrize("name", ["em-plugin.jsonl", "vb-mc.jsonl", "gs-mc.jsonl"])
def test_scores_on_copies_match_line_by_line(rerun_on_copies, name):
    test_scores_match_line_by_line(rerun_on_copies, name)
