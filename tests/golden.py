"""Fixed-seed outputs of a small CLI pipeline: the golden files.

    PYTHONPATH=src python tests/golden.py tests/data/golden

runs ``generate`` (30 words, 3 topics, 2 behaviours, prior H, 24 documents
of 15 tokens, seed 1009) and ``train --algo gs`` on its corpus (burn-in 20,
3 count samples 5 sweeps apart, seed 1009) in process, and writes
``corpus.txt``, ``truth.json`` and ``gs.json`` to the given directory.
``test_golden.py`` reruns the same steps into a temporary directory and
compares the results with the committed files, so a change that moves the
token stream or the Gibbs chain fails there.  A change that moves them on
purpose rewrites the files with this command and says which moved and by
how much.
"""
from __future__ import annotations

import sys
from pathlib import Path

from markovtopics import cli

SPEC = ["--num-words", "30", "--num-topics", "3", "--num-behaviours", "2"]
SEED = ["--seed", "1009"]


def steps(out: Path) -> list[list[str]]:
    return [
        ["generate", *SPEC, "--prior", "H", "--docs", "24", "--doc-length", "15", *SEED,
         "--out-corpus", str(out / "corpus.txt"), "--out-truth", str(out / "truth.json")],
        ["train", "--corpus", str(out / "corpus.txt"), *SPEC, "--algo", "gs", "--prior", "H",
         "--burn-in", "20", "--samples", "3", "--spacing", "5", *SEED,
         "--out", str(out / "gs.json")],
    ]


def write(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for argv in steps(out):
        status = cli.main(argv)
        if status:
            raise RuntimeError(f"{argv[0]} exited {status}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT_DIR")
    write(Path(sys.argv[1]))
