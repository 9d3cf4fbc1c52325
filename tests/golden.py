"""Fixed-seed outputs of a small CLI pipeline: the golden files.

    PYTHONPATH=src python tests/golden.py tests/data/golden

runs these steps in process (30 words, 3 topics, 2 behaviours, seed 1009
throughout) and writes their outputs to the given directory:

- ``generate`` with prior H, 24 documents of 15 tokens: ``corpus.txt`` and
  ``truth.json``;
- ``train`` on that corpus with ``--algo gs`` (prior H, burn-in 20, 3 count
  samples 5 sweeps apart), ``--algo em`` (prior H+1) and ``--algo vb``
  (prior H), each EM and VB fit 8 iterations: ``gs.json``, ``em.json`` and
  ``vb.json``;
- ``generate`` of a second stream, 12 documents of 15 tokens from seed 2018:
  ``stream.txt``;
- ``score`` of that stream under ``--init propagate`` from the training
  corpus, every document evaluated: plug-in scores of the EM model
  (``em-plugin.jsonl``) and Monte Carlo scores of the VB model with 4
  posterior draws (``vb-mc.jsonl``) and of the GS model over its count
  samples (``gs-mc.jsonl``).

``test_golden.py`` reruns the same steps into a temporary directory and
compares the results with the committed files, so a change that moves the
token stream, the Gibbs chain, a fit or a score fails there.  A change that
moves them on purpose rewrites the files with this command and says which
moved and by how much.
"""
from __future__ import annotations

import sys
from pathlib import Path

from markovtopics import cli

SPEC = ["--num-words", "30", "--num-topics", "3", "--num-behaviours", "2"]
SEED = ["--seed", "1009"]


def steps(out: Path) -> list[list[str]]:
    corpus, stream = str(out / "corpus.txt"), str(out / "stream.txt")

    def train(algo: str, prior: str, *extra: str) -> list[str]:
        return ["train", "--corpus", corpus, *SPEC, "--algo", algo, "--prior", prior, *extra,
                *SEED, "--out", str(out / f"{algo}.json")]

    def score(model: str, mode: str, *extra: str) -> list[str]:
        return ["score", "--model", str(out / f"{model}.json"), "--corpus", stream,
                "--init", "propagate", "--train-corpus", corpus, "--mode", mode, *extra,
                "--min-words", "1", *SEED, "--out", str(out / f"{model}-{mode}.jsonl")]

    return [
        ["generate", *SPEC, "--prior", "H", "--docs", "24", "--doc-length", "15", *SEED,
         "--out-corpus", corpus, "--out-truth", str(out / "truth.json")],
        train("gs", "H", "--burn-in", "20", "--samples", "3", "--spacing", "5"),
        train("em", "H+1", "--iterations", "8"),
        train("vb", "H", "--iterations", "8"),
        ["generate", *SPEC, "--prior", "H", "--docs", "12", "--doc-length", "15",
         "--seed", "2018", "--out-corpus", stream],
        score("em", "plugin"),
        score("vb", "mc", "--mc-samples", "4"),
        score("gs", "mc"),
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
