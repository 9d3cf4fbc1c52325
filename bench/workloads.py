"""The benchmark's workloads: set-up, the timed CLI steps of one pass, and
the correctness checks run on every pass's outputs.

All three use the paper's surveillance dimensions: a 360x288 frame cut into
8-pixel cells gives a 45x36 grid, times 4 motion directions = 6480 visual
words; 8 topics and 4 behaviours.  Every input is generated from the
workload seed.  Iteration and sweep counts are fixed (no ``--tol``) so that
the work done per pass does not depend on convergence.
"""
from __future__ import annotations

import io
import json
import math
import re
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from markovtopics.model import ModelParams, ModelSpec, validate_params

import reference

FRAME_W, FRAME_H, CELL, FPS = 360, 288, 8, 25
GRID_COLS = FRAME_W // CELL
NUM_WORDS = GRID_COLS * (FRAME_H // CELL) * 4
NUM_TOPICS, NUM_BEHAVIOURS = 8, 4
DIRECTIONS = ("up", "left", "down", "right")
SPEC_ARGS = ["--num-words", str(NUM_WORDS), "--num-topics", str(NUM_TOPICS),
             "--num-behaviours", str(NUM_BEHAVIOURS)]
MIN_WORDS = 20
#: Relative tolerance of the chain-rule and EM-objective checks.  The
#: reference sums in another order, so results agree to rounding, not bits.
REL_TOL = 1e-9
#: PR-AUC floor of the anomaly detector; a random ranking scores about the
#: 5% positive rate.
PR_AUC_FLOOR = 0.5


class Gate:
    """Counts attempted and failed checks; every failure is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAIL: {what}", file=sys.stderr)
        return ok

    def run(self, what: str, fn, *args):
        """Run a check function; an exception (missing or unparseable
        output) is one failure."""
        try:
            return fn(*args)
        except Exception:
            traceback.print_exc()
            self.check(False, f"{what} raised")
            return None


class Cli:
    """Runs ``markovtopics`` subcommands in process and gates their exit code."""

    def __init__(self, cli_module, gate: Gate):
        self.cli = cli_module
        self.gate = gate

    def __call__(self, argv: list[str]) -> tuple[float, float, str]:
        """Returns the ``perf_counter`` start and end and the captured stdout."""
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(out):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = None
        end = time.perf_counter()
        self.gate.check(code == 0, f"`markovtopics {' '.join(argv)}` exited {code}")
        return start, end, out.getvalue()


def _reject_constant(token):
    raise ValueError(f"non-finite number {token} in output")


def load_json(text: str):
    """Parse JSON, rejecting NaN and infinities."""
    return json.loads(text, parse_constant=_reject_constant)


def matrix(obj: dict) -> np.ndarray:
    return np.asarray(obj["data"], dtype=float).reshape(obj["shape"])


def check_model(gate: Gate, path: Path) -> dict:
    """Parse a model file and validate its parameters; returns the document
    with ``params`` decoded to arrays."""
    doc = load_json(path.read_text())
    params = {name: matrix(doc["params"][name]) for name in ("phi", "theta", "xi", "pi")}
    violations = validate_params(ModelParams(**params),
                                 ModelSpec(NUM_WORDS, NUM_TOPICS, NUM_BEHAVIOURS))
    gate.check(not violations, f"{path.name}: validate_params {violations[:3]}")
    doc["params"] = params
    return doc


def check_scores(gate: Gate, path: Path, docs: list[np.ndarray]) -> np.ndarray:
    """Validate a score file against its corpus; returns the log-likelihoods."""
    records = [load_json(line) for line in path.read_text().splitlines()]
    gate.check(len(records) == len(docs), f"{path.name}: {len(records)} records for {len(docs)} docs")
    log_liks = np.array([r["log_lik"] for r in records], dtype=float)
    ok = all(r["index"] == t + 1 and r["length"] == len(d)
             and r["evaluated"] == (len(d) >= MIN_WORDS)
             and (not r["evaluated"]
                  or math.isclose(r["score"], r["log_lik"] - math.log(len(d)), rel_tol=1e-12))
             for t, (r, d) in enumerate(zip(records, docs)))
    gate.check(ok and bool(np.all(np.isfinite(log_liks))), f"{path.name}: record fields")
    return log_liks


def check_chain_rule(gate: Gate, what: str, log_liks: np.ndarray, params: dict,
                     train: list[np.ndarray], test: list[np.ndarray]) -> None:
    """Propagated plug-in log-likelihoods sum to log p(train+test) - log p(train)."""
    expected = reference.log_marginal(params, train + test) - reference.log_marginal(params, train)
    total = float(np.sum(log_liks))
    gate.check(math.isclose(total, expected, rel_tol=REL_TOL),
               f"{what}: chain rule {total!r} != {expected!r}")


def check_em_objective(gate: Gate, doc: dict, expected: float) -> None:
    got = doc["metadata"]["final_objective"]
    gate.check(math.isclose(got, expected, rel_tol=REL_TOL),
               f"EM final_objective {got!r} != reference {expected!r}")


def check_corpus(gate: Gate, docs: list[np.ndarray], count: int, length: int, what: str):
    gate.check(len(docs) == count and all(len(d) == length for d in docs),
               f"{what}: expected {count} documents of {length} words")


class Workload:
    """One set of inputs: ``setup`` writes them, ``steps`` lists the timed CLI
    calls of one pass, ``check`` validates that pass's outputs and returns
    its quality figures."""

    name = ""
    why = ""
    #: Tokens in the Gibbs training corpus (0 when Gibbs does not run).
    gibbs_tokens = 0
    #: Documents ``localise`` processes per pass (0 when it does not run).
    localised_docs = 0

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def path(self, name: str) -> str:
        return str(self.work / name)

    def describe(self) -> dict:
        sizes = {k: v for k, v in vars(type(self)).items()
                 if not k.startswith("_") and isinstance(v, (int, float, str))}
        return {"dims": {"num_words": NUM_WORDS, "num_topics": NUM_TOPICS,
                         "num_behaviours": NUM_BEHAVIOURS},
                "seed": self.seed, **sizes}

    def setup(self, cli: Cli) -> None:
        raise NotImplementedError

    def steps(self) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def check(self, gate: Gate, outputs: dict[str, str]) -> dict[str, float]:
        raise NotImplementedError


class PaperFit(Workload):
    name = "paper_fit"
    why = ("paper-scale EM and VB fits on long documents: the per-token E-step "
           "dominates; scoring and Gibbs are bypassed")
    docs, doc_length = 1000, 200
    em_iterations = 3
    vb_iterations = 3

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self._reference = None

    def setup(self, cli):
        cli(["generate", *SPEC_ARGS, "--prior", "H", "--docs", str(self.docs),
             "--doc-length", str(self.doc_length), "--seed", str(self.seed),
             "--out-corpus", self.path("train.txt")])

    def steps(self):
        train = ["train", "--corpus", self.path("train.txt"), *SPEC_ARGS, "--seed", str(self.seed)]
        return [
            ("train_em_s", [*train, "--algo", "em", "--prior", "H+1",
                            "--iterations", str(self.em_iterations), "--out", self.path("em.json")]),
            ("train_vb_s", [*train, "--algo", "vb", "--prior", "H",
                            "--iterations", str(self.vb_iterations), "--out", self.path("vb.json")]),
        ]

    def check(self, gate, outputs):
        docs = reference.read_corpus(self.path("train.txt"))
        check_corpus(gate, docs, self.docs, self.doc_length, "train.txt")
        em = check_model(gate, Path(self.path("em.json")))
        if self._reference is None:
            self._reference = reference.em_final_objective(
                docs, NUM_WORDS, NUM_TOPICS, NUM_BEHAVIOURS, "H+1", self.seed, self.em_iterations)
        check_em_objective(gate, em, self._reference)
        vb = check_model(gate, Path(self.path("vb.json")))
        post = [matrix(vb["posterior"][k]) for k in ("beta_t", "alpha_t", "eta_t", "gamma_t")]
        gate.check(all(np.all(p > 0) for p in post), "vb.json: posterior not positive")
        return {}


class StreamScore(Workload):
    name = "stream_score"
    why = ("online detector on a labelled 1000-clip motion-event stream, 5% novel "
           "activity: featurize, plug-in and MC-100 scoring, localise, eval")
    train_docs, train_length = 1000, 100
    vb_iterations = 8
    clips, clip_length, abnormal_clips = 1000, 100, 50
    #: Share of an abnormal clip's tokens drawn from a topic no behaviour uses.
    novel_share = 0.15
    mc_samples = 100
    top_n = 10
    localised_docs = clips

    def setup(self, cli):
        cli(["generate", *SPEC_ARGS, "--prior", "H", "--docs", str(self.train_docs),
             "--doc-length", str(self.train_length), "--seed", str(self.seed),
             "--out-corpus", self.path("train.txt"), "--out-truth", self.path("truth.json")])
        cli(["train", "--corpus", self.path("train.txt"), *SPEC_ARGS, "--algo", "vb",
             "--prior", "H", "--iterations", str(self.vb_iterations), "--seed", str(self.seed),
             "--out", self.path("model.json")])
        self._write_stream()

    def _write_stream(self):
        """Motion events of the test clips: a new run of the generating
        chain, where abnormal clips mix in a fresh topic."""
        truth = json.loads(Path(self.path("truth.json")).read_text())["true_params"]
        cum = {k: np.cumsum(matrix(truth[k]), axis=0) for k in ("phi", "theta", "xi", "pi")}
        rng = np.random.default_rng([self.seed, 0xC11B])
        cum_novel = np.cumsum(rng.dirichlet(np.full(NUM_WORDS, 0.05)))
        abnormal = np.zeros(self.clips, dtype=bool)
        abnormal[rng.choice(self.clips, self.abnormal_clips, replace=False)] = True

        def draw(cdf, u):
            return np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)

        n = self.clip_length
        z = int(draw(cum["pi"], rng.random()))
        docs, lines = [], ["frame,cell_x,cell_y,dir"]
        for t in range(self.clips):
            if t:
                z = int(draw(cum["xi"][:, z], rng.random()))
            topics = draw(cum["theta"][:, z], rng.random(n))
            u = rng.random(n)
            words = np.empty(n, dtype=np.int64)
            for y in np.unique(topics):
                words[topics == y] = draw(cum["phi"][:, y], u[topics == y])
            if abnormal[t]:
                novel = rng.random(n) < self.novel_share
                words[novel] = draw(cum_novel, rng.random(int(novel.sum())))
            docs.append(words)
            for i, w in enumerate(words):
                cell = w // 4
                lines.append(f"{t * FPS + i * FPS // n},{cell % GRID_COLS},{cell // GRID_COLS},"
                             f"{DIRECTIONS[w % 4]}")
        Path(self.path("events.csv")).write_text("\n".join(lines) + "\n")
        Path(self.path("labels.txt")).write_text("".join("1\n" if a else "0\n" for a in abnormal))
        self._docs, self._labels = docs, abnormal

    def steps(self):
        model = ["--model", self.path("model.json"), "--corpus", self.path("test.txt")]
        history = ["--init", "propagate", "--train-corpus", self.path("train.txt")]
        frame = ["--frame-w", str(FRAME_W), "--frame-h", str(FRAME_H)]
        return [
            ("featurize_s", ["featurize", "--events", self.path("events.csv"), *frame,
                             "--fps", str(FPS), "--out-corpus", self.path("test.txt"),
                             "--out-map", self.path("map.json")]),
            ("score_plugin_s", ["score", *model, "--mode", "plugin", *history,
                                "--out", self.path("plugin.jsonl")]),
            ("score_mc_s", ["score", *model, "--mode", "mc", "--mc-samples", str(self.mc_samples),
                            "--seed", str(self.seed), *history, "--out", self.path("mc.jsonl")]),
            ("localise_s", ["localise", *model, *frame, "--top-n", str(self.top_n), *history,
                            "--out", self.path("localised.jsonl")]),
            ("eval_s", ["eval", "--scores", self.path("plugin.jsonl"), "--scores",
                        self.path("mc.jsonl"), "--labels", self.path("labels.txt"),
                        "--out-curve", self.path("pr.csv")]),
        ]

    def check(self, gate, outputs):
        test = reference.read_corpus(self.path("test.txt"))
        gate.check(len(test) == len(self._docs)
                   and all(np.array_equal(a, b) for a, b in zip(test, self._docs)),
                   "featurize: corpus differs from the generated clips")
        index_map = load_json(Path(self.path("map.json")).read_text())
        gate.check(index_map == {str(t + 1): t for t in range(self.clips)}, "featurize: index map")
        train = reference.read_corpus(self.path("train.txt"))
        check_corpus(gate, train, self.train_docs, self.train_length, "train.txt")
        model = check_model(gate, Path(self.path("model.json")))

        plugin = check_scores(gate, Path(self.path("plugin.jsonl")), test)
        check_chain_rule(gate, "plugin scores", plugin, model["params"], train, test)
        mc = check_scores(gate, Path(self.path("mc.jsonl")), test)
        gate.run("localise output", self._check_localised, gate, test)

        quality = {}
        printed = [float(v) for v in re.findall(r"pr_auc=([0-9.]+)", outputs.get("eval_s", ""))]
        gate.check(len(printed) >= 2, "eval: no PR-AUC printed per score file")
        for i, (mode, log_liks) in enumerate((("plugin", plugin), ("mc", mc))):
            scores = log_liks - np.log([len(d) for d in test])
            auc = reference.pr_auc(scores, self._labels)
            quality[f"pr_auc_{mode}"] = auc
            gate.check(len(printed) > i and abs(printed[i] - auc) <= 6e-5,
                       f"eval: printed {mode} PR-AUC differs from {auc:.6f}")
            gate.check(auc >= PR_AUC_FLOOR, f"{mode} PR-AUC {auc:.4f} below {PR_AUC_FLOOR}")
        curve = np.loadtxt(self.path("pr.csv"), delimiter=",", skiprows=1, ndmin=2)
        gate.check(curve.shape[1] == 2 and bool(np.all(np.isfinite(curve))), "pr.csv: curve")
        return quality

    def _check_localised(self, gate, test):
        lines = Path(self.path("localised.jsonl")).read_text().splitlines()
        ok = len(lines) == len(test)
        for t, (line, words) in enumerate(zip(lines, test)):
            rec = load_json(line)
            tokens = rec["tokens"]
            ok = ok and rec["index"] == t + 1 and len(tokens) == min(self.top_n, len(words))
            for i, cx, cy, direction in tokens:
                ok = ok and words[i] == (cy * GRID_COLS + cx) * 4 + DIRECTIONS.index(direction)
        gate.check(ok, "localise: records do not decode to the documents' words")


class ShortDocs(Workload):
    name = "short_docs"
    why = ("4000 docs x 25 tokens: per-document recursion and per-call overhead "
           "dominate; EM and Gibbs fits, plug-in and MC scoring of a 4000-doc stream")
    docs, doc_length = 4000, 25
    em_iterations = 3
    #: One sweep: the stored samples are the initial tally and the swept one.
    gs_burn_in, gs_samples, gs_spacing = 0, 2, 1
    gibbs_tokens = docs * doc_length

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self._reference = None

    def setup(self, cli):
        both = self.path("both.txt")
        cli(["generate", *SPEC_ARGS, "--prior", "H", "--docs", str(2 * self.docs),
             "--doc-length", str(self.doc_length), "--seed", str(self.seed), "--out-corpus", both])
        # One chain split in two, so the test stream continues the training one.
        lines = Path(both).read_text().splitlines(keepends=True)
        Path(self.path("train.txt")).write_text("".join(lines[:self.docs]))
        Path(self.path("test.txt")).write_text("".join(lines[self.docs:]))

    def steps(self):
        train = ["train", "--corpus", self.path("train.txt"), *SPEC_ARGS, "--seed", str(self.seed)]
        score = ["score", "--corpus", self.path("test.txt"), "--init", "propagate",
                 "--train-corpus", self.path("train.txt"), "--seed", str(self.seed)]
        return [
            ("train_em_s", [*train, "--algo", "em", "--prior", "H+1",
                            "--iterations", str(self.em_iterations), "--out", self.path("em.json")]),
            ("train_gs_s", [*train, "--algo", "gs", "--prior", "H",
                            "--burn-in", str(self.gs_burn_in), "--samples", str(self.gs_samples),
                            "--spacing", str(self.gs_spacing), "--out", self.path("gs.json")]),
            ("score_plugin_s", [*score, "--model", self.path("em.json"), "--mode", "plugin",
                                "--out", self.path("plugin.jsonl")]),
            ("score_mc_s", [*score, "--model", self.path("gs.json"), "--mode", "mc",
                            "--out", self.path("mc.jsonl")]),
        ]

    def check(self, gate, outputs):
        train = reference.read_corpus(self.path("train.txt"))
        test = reference.read_corpus(self.path("test.txt"))
        check_corpus(gate, train, self.docs, self.doc_length, "train.txt")
        check_corpus(gate, test, self.docs, self.doc_length, "test.txt")
        em = check_model(gate, Path(self.path("em.json")))
        if self._reference is None:
            self._reference = reference.em_final_objective(
                train, NUM_WORDS, NUM_TOPICS, NUM_BEHAVIOURS, "H+1", self.seed, self.em_iterations)
        check_em_objective(gate, em, self._reference)
        gs = check_model(gate, Path(self.path("gs.json")))
        samples = gs.get("samples", [])
        gate.check(len(samples) == self.gs_samples, f"gs.json: {len(samples)} count samples")
        for s in samples:
            n_xy, n_yz, n_zz, n_z1 = (matrix(s[k]) for k in ("n_xy", "n_yz", "n_zz", "n_z1"))
            gate.check(n_xy.sum() == self.gibbs_tokens and n_yz.sum() == self.gibbs_tokens
                       and n_zz.sum() == self.docs - 1 and n_z1.sum() == 1
                       and min(n_xy.min(), n_yz.min(), n_zz.min(), n_z1.min()) >= 0,
                       "gs.json: count sample mass")

        plugin = check_scores(gate, Path(self.path("plugin.jsonl")), test)
        check_chain_rule(gate, "plugin scores", plugin, em["params"], train, test)
        check_scores(gate, Path(self.path("mc.jsonl")), test)
        return {}


WORKLOADS = {w.name: w for w in (PaperFit, StreamScore, ShortDocs)}
