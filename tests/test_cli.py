import functools
import importlib
import inspect
import json
import multiprocessing
import pkgutil
import re
import sysconfig
import tempfile
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import markovtopics
from markovtopics import _kernels, cli, inference, serialize, vb
from markovtopics.cli import main
from markovtopics.ingest import DIRECTIONS

from conftest import run_python, without_kernels


def _generate(tmp_path, docs=12, length=30, seed=0, name="train.txt"):
    corpus = tmp_path / name
    code = main(["generate", "--num-words", "6", "--num-topics", "2",
                 "--num-behaviours", "2", "--docs", str(docs),
                 "--doc-length", str(length), "--seed", str(seed),
                 "--out-corpus", str(corpus)])
    assert code == 0
    return corpus


def _train(tmp_path, corpus, algo="em", name="model.json", extra=()):
    model = tmp_path / name
    args = ["train", "--corpus", str(corpus), "--num-words", "6",
            "--num-topics", "2", "--num-behaviours", "2", "--algo", algo,
            "--iterations", "15", "--burn-in", "10", "--spacing", "2",
            "--samples", "2", "--out", str(model)] + list(extra)
    assert main(args) == 0
    return model


class TestPipeline:
    def test_generate_train_score_eval(self, tmp_path, capsys):
        train = _generate(tmp_path)
        test = _generate(tmp_path, docs=6, seed=1, name="test.txt")
        model = _train(tmp_path, train)
        scores = tmp_path / "scores.jsonl"
        assert main(["score", "--model", str(model), "--corpus", str(test),
                     "--train-corpus", str(train), "--out", str(scores)]) == 0
        out = capsys.readouterr().out
        assert "ms/document" in out
        records = serialize.read_scores(scores)
        assert len(records) == 6
        assert all(r["evaluated"] for r in records)

        labels = tmp_path / "labels.txt"
        labels.write_text("0\n0\n1\n0\n1\n0\n")
        curve = tmp_path / "pr.csv"
        assert main(["eval", "--scores", str(scores), "--labels", str(labels),
                     "--threshold", "-40.0", "--out-curve", str(curve)]) == 0
        out = capsys.readouterr().out
        assert "pr_auc=" in out and "accuracy@" in out
        assert curve.read_text().startswith("recall,precision")

    def test_featurize_then_localise(self, tmp_path):
        # 2x2 grid of 8-px cells -> vocabulary 16.
        events = tmp_path / "events.csv"
        rows = ["frame,cell_x,cell_y,dir"]
        for f in range(2):
            for k in range(25):
                rows.append(f"{f * 25 + k // 25},{k % 2},{(k // 2) % 2},up")
        rows = ["frame,cell_x,cell_y,dir"]
        for w in range(2):
            for k in range(25):
                rows.append(f"{w * 25},{k % 2},{(k // 2) % 2},up")
        events.write_text("\n".join(rows) + "\n")
        corpus = tmp_path / "feat.txt"
        index_map = tmp_path / "map.json"
        assert main(["featurize", "--events", str(events), "--frame-w", "16",
                     "--frame-h", "16", "--fps", "25", "--out-corpus",
                     str(corpus), "--out-map", str(index_map)]) == 0
        assert json.loads(index_map.read_text()) == {"1": 0, "2": 1}

        model = tmp_path / "m.json"
        assert main(["train", "--corpus", str(corpus), "--num-words", "16",
                     "--num-topics", "2", "--num-behaviours", "2", "--algo",
                     "em", "--iterations", "5", "--out", str(model)]) == 0
        loc = tmp_path / "loc.jsonl"
        assert main(["localise", "--model", str(model), "--corpus", str(corpus),
                     "--frame-w", "16", "--frame-h", "16", "--top-n", "3",
                     "--out", str(loc)]) == 0
        lines = loc.read_text().splitlines()
        assert len(lines) == 2
        rec = json.loads(lines[0])
        assert len(rec["tokens"]) == 3
        assert rec["tokens"][0][3] == "up"


class TestEmptyWindows:
    def test_min_words_zero_skips_windows_without_events(self, tmp_path):
        # At 25 fps, events at frames 0 and 50 fill clip windows 0 and 2;
        # window 1 has no events and gives no document.
        events = tmp_path / "events.csv"
        events.write_text("frame,cell_x,cell_y,dir\n0,0,0,up\n50,1,1,left\n")
        corpus = tmp_path / "feat.txt"
        index_map = tmp_path / "map.json"
        assert main(["featurize", "--events", str(events), "--frame-w", "16",
                     "--frame-h", "16", "--fps", "25", "--min-words", "0",
                     "--out-corpus", str(corpus), "--out-map", str(index_map)]) == 0
        assert [len(line.split()) for line in corpus.read_text().splitlines()] == [1, 1]
        assert json.loads(index_map.read_text()) == {"1": 0, "2": 2}
        assert main(["train", "--corpus", str(corpus), "--num-words", "16",
                     "--num-topics", "1", "--num-behaviours", "1", "--algo", "em",
                     "--iterations", "2", "--out", str(tmp_path / "m.json")]) == 0


class TestScoreSummary:
    def _score(self, tmp_path, capsys, model, test, *extra):
        assert main(["score", "--model", str(model), "--corpus", str(test),
                     "--init", "restart", "--out", str(tmp_path / "s.jsonl"),
                     *extra]) == 0
        return capsys.readouterr().out

    def test_reports_samples_used(self, tmp_path, capsys):
        train = _generate(tmp_path)
        test = _generate(tmp_path, docs=4, seed=1, name="test.txt")
        gs = _train(tmp_path, train, algo="gs", name="gs.json")
        vb_model = _train(tmp_path, train, algo="vb", name="vb.json")
        capsys.readouterr()
        # The GS model stores two count samples: --mc-samples asks for more
        # than there are, and the summary says how many were used.
        assert "under 2 parameter sample(s)" in self._score(
            tmp_path, capsys, gs, test, "--mode", "mc")
        assert "under 1 parameter sample(s)" in self._score(
            tmp_path, capsys, gs, test, "--mode", "mc", "--mc-samples", "1")
        assert "under 7 parameter sample(s)" in self._score(
            tmp_path, capsys, vb_model, test, "--mode", "mc", "--mc-samples", "7")
        assert "under 1 parameter sample(s)" in self._score(
            tmp_path, capsys, vb_model, test)

    def test_time_covers_sampling(self, tmp_path, capsys, monkeypatch):
        train = _generate(tmp_path)
        test = _generate(tmp_path, docs=4, seed=1, name="test.txt")
        model = _train(tmp_path, train, algo="vb")
        capsys.readouterr()
        draw = vb.sample_posterior

        def slow_draws(*args):
            for p in draw(*args):
                time.sleep(0.05)
                yield p

        monkeypatch.setattr(vb, "sample_posterior", slow_draws)
        out = self._score(tmp_path, capsys, model, test, "--mode", "mc",
                          "--mc-samples", "4")
        elapsed = float(re.search(r" in ([0-9.]+)s ", out).group(1))
        assert elapsed >= 0.2


class TestDeterminism:
    def test_identical_bytes_across_reruns(self, tmp_path):
        outputs = []
        for round_dir in ("a", "b"):
            d = tmp_path / round_dir
            d.mkdir()
            train = _generate(d)
            test = _generate(d, docs=5, seed=9, name="test.txt")
            model = _train(d, train, algo="vb")
            scores = d / "scores.jsonl"
            assert main(["score", "--model", str(model), "--corpus", str(test),
                         "--mode", "mc", "--mc-samples", "8", "--seed", "3",
                         "--train-corpus", str(train),
                         "--out", str(scores)]) == 0
            outputs.append((train.read_bytes(), model.read_bytes(),
                            scores.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_mc_scores_identical_for_any_pool_size(self, tmp_path, monkeypatch):
        train = _generate(tmp_path)
        test = _generate(tmp_path, docs=5, seed=9, name="test.txt")
        model = _train(tmp_path, train, algo="vb")
        outputs = []
        for cpus in (1, 2, 4):
            monkeypatch.setattr(vb, "_usable_cpus", lambda n=cpus: n)
            scores = tmp_path / f"scores{cpus}.jsonl"
            assert main(["score", "--model", str(model), "--corpus", str(test),
                         "--mode", "mc", "--mc-samples", "11", "--seed", "3",
                         "--train-corpus", str(train), "--out", str(scores)]) == 0
            outputs.append(scores.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_package_functions_run_on_the_calling_thread(self, tmp_path, monkeypatch):
        # Only private draws run on the pool, so a tracer that wraps every
        # public function with one span stack sees every call on one thread,
        # with many chains in the forward recursion.
        train = _generate(tmp_path)
        test = _generate(tmp_path, docs=5, seed=9, name="test.txt")
        model = _train(tmp_path, train, algo="vb")
        monkeypatch.setattr(vb, "_usable_cpus", lambda: 4)
        threads = set()

        def recorded(fn):
            def call(*args, **kwargs):
                threads.add(threading.get_ident())
                return fn(*args, **kwargs)
            return call

        for info in pkgutil.iter_modules(markovtopics.__path__):
            module = importlib.import_module(f"markovtopics.{info.name}")
            for name, value in list(vars(module).items()):
                if (not name.startswith("_") and inspect.isfunction(value)
                        and value.__module__.startswith("markovtopics.")):
                    monkeypatch.setattr(module, name, recorded(value))
        assert main(["score", "--model", str(model), "--corpus", str(test),
                     "--mode", "mc", "--mc-samples", "21",
                     "--train-corpus", str(train),
                     "--out", str(tmp_path / "scores.jsonl")]) == 0
        assert threads == {threading.get_ident()}


#: Runs the command line on its arguments and prints the exit status, then
#: every scipy module imported.
_SCIPY_MODULES = """
import sys
from markovtopics.cli import main
status = main(sys.argv[1:])
print(status, *sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


class TestColdCommands:
    def test_generate_featurize_and_eval_never_build_the_kernels(self, kernel, tmp_path,
                                                                   monkeypatch, compiler_runs):
        # With the kernels in the cache, generate and featurize load them and
        # compile nothing; eval never loads them.  Only a cold cache builds.
        _kernels.load.cache_clear()
        _generate(tmp_path)
        assert main(_featurize(tmp_path, "".join(f"{f},{f % 2},0,up\n" for f in range(50)))) == 0
        # generate loaded the kernels (one miss), then featurize (hits).
        info = _kernels.load.cache_info()
        assert compiler_runs == [] and info.misses == 1 and info.hits >= 1
        assert _kernels.load() is not None
        loads = []
        monkeypatch.setattr(_kernels, "load", lambda: loads.append(1))
        scores = tmp_path / "scores.jsonl"
        scores.write_text('{"index": 1, "length": 25, "log_lik": -40.0, "score": -1.6}\n'
                          '{"index": 2, "length": 25, "log_lik": -60.0, "score": -2.4}\n')
        (tmp_path / "labels.txt").write_text("0\n1\n")
        assert main(["eval", "--scores", str(scores), "--labels",
                     str(tmp_path / "labels.txt")]) == 0
        assert loads == []

    def test_generate_featurize_and_eval_never_import_scipy(self, tmp_path):
        # Importing scipy.sparse or scipy.special alone takes about 0.19 s.
        generate = ["generate", "--num-words", "6", "--num-topics", "2", "--num-behaviours",
                    "2", "--docs", "4", "--doc-length", "5", "--out-corpus",
                    str(tmp_path / "g.txt")]
        featurize = _featurize(tmp_path, "".join(f"{f},{f % 2},0,up\n" for f in range(50)))
        (tmp_path / "s.jsonl").write_text('{"score": -1.0}\n{"score": -2.0}\n')
        (tmp_path / "labels.txt").write_text("0\n1\n")
        evaluate = ["eval", "--scores", str(tmp_path / "s.jsonl"),
                    "--labels", str(tmp_path / "labels.txt")]
        for argv in (generate, featurize, evaluate):
            done = run_python(["-c", _SCIPY_MODULES, *argv])
            assert done.returncode == 0 and done.stdout.split("\n")[-2] == "0", done.stderr
        assert (tmp_path / "g.txt").exists() and (tmp_path / "c.txt").exists()

    def test_em_train_plugin_score_and_localise_never_import_scipy(self, tmp_path):
        # The E-step and the scorer sum the corpus's tokens in the kernels,
        # with no sparse matrix; only VB and Gibbs import scipy.special.
        corpus = str(tmp_path / "g.txt")
        model = str(tmp_path / "em.json")
        assert main(["generate", "--num-words", "16", "--num-topics", "2", "--num-behaviours",
                     "2", "--docs", "8", "--doc-length", "10", "--out-corpus", corpus]) == 0
        train = ["train", "--corpus", corpus, "--num-words", "16", "--num-topics", "2",
                 "--num-behaviours", "2", "--algo", "em", "--iterations", "4", "--out", model]
        score = ["score", "--model", model, "--corpus", corpus, "--train-corpus", corpus,
                 "--mode", "plugin", "--out", str(tmp_path / "s.jsonl")]
        localise = ["localise", "--model", model, "--corpus", corpus, "--train-corpus", corpus,
                    "--frame-w", "16", "--frame-h", "16", "--top-n", "2",
                    "--out", str(tmp_path / "l.jsonl")]
        for argv in (train, score, localise):
            done = run_python(["-c", _SCIPY_MODULES, *argv])
            assert done.returncode == 0 and done.stdout.split("\n")[-2] == "0", done.stderr
        assert (tmp_path / "s.jsonl").exists() and (tmp_path / "l.jsonl").exists()


class TestWithoutCompiler:
    def test_every_command_writes_the_same_bytes(self, tmp_path, monkeypatch, capsys):
        # EM and VB training, plug-in and MC-4 scoring and localise run the
        # forward recursion, GS training and scoring both kernels; where no
        # compiler works the Python copies write the same bytes, and the
        # build leaves no file behind.
        corpus = tmp_path / "corpus.txt"
        assert main(["generate", "--num-words", "16", "--num-topics", "3", "--num-behaviours", "2",
                     "--docs", "12", "--doc-length", "15", "--seed", "4",
                     "--out-corpus", str(corpus)]) == 0
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))

        def run(out):
            out.mkdir()
            _kernels.load.cache_clear()
            try:
                for algo in ("em", "vb", "gs"):
                    assert main(["train", "--corpus", str(corpus), "--num-words", "16",
                                 "--num-topics", "3", "--num-behaviours", "2", "--algo", algo,
                                 "--iterations", "6", "--burn-in", "6", "--spacing", "2",
                                 "--samples", "2", "--seed", "5",
                                 "--out", str(out / f"{algo}.json")]) == 0
                for algo, mode in (("em", "plugin"), ("vb", "mc"), ("gs", "mc")):
                    assert main(["score", "--model", str(out / f"{algo}.json"),
                                 "--corpus", str(corpus), "--train-corpus", str(corpus),
                                 "--mode", mode, "--mc-samples", "4", "--seed", "6",
                                 "--min-words", "0", "--out", str(out / f"{algo}.jsonl")]) == 0
                assert main(["localise", "--model", str(out / "vb.json"), "--corpus", str(corpus),
                             "--frame-w", "16", "--frame-h", "16", "--top-n", "3",
                             "--out", str(out / "localised.jsonl")]) == 0
                return _kernels.load()
            finally:
                _kernels.load.cache_clear()

        run(tmp_path / "compiled")
        assert list(scratch.iterdir()) == []
        cc = sysconfig.get_config_var
        monkeypatch.setattr(sysconfig, "get_config_var",
                            lambda name: str(tmp_path / "no-such-cc") if name == "CC" else cc(name))
        assert run(tmp_path / "fallback") is None
        assert list(scratch.iterdir()) == []
        compiled = sorted((tmp_path / "compiled").iterdir())
        assert [p.name for p in compiled] == sorted(p.name for p in (tmp_path / "fallback").iterdir())
        assert len(compiled) == 7
        for path in compiled:
            assert (tmp_path / "fallback" / path.name).read_bytes() == path.read_bytes(), path.name
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err


class TestMethodMatrix:
    @pytest.mark.parametrize("algo", ["em", "vb", "gs"])
    @pytest.mark.parametrize("prior", ["1", "H", "H+1"])
    @pytest.mark.parametrize("mode", ["plugin", "mc"])
    def test_combination_smoke(self, tmp_path, algo, prior, mode):
        train = _generate(tmp_path, docs=8, length=25)
        test = _generate(tmp_path, docs=4, length=25, seed=2, name="test.txt")
        model = _train(tmp_path, train, algo=algo, extra=["--prior", prior])
        scores = tmp_path / f"{algo}.{prior}.{mode}.jsonl"
        status = main(["score", "--model", str(model), "--corpus", str(test),
                       "--mode", mode, "--mc-samples", "4",
                       "--train-corpus", str(train), "--out", str(scores)])
        if algo == "em" and mode == "mc":
            # A plain point-estimate model has no posterior to sample: a data
            # error, and no score file.
            assert status == 3 and not scores.exists()
            return
        assert status == 0
        records = serialize.read_scores(scores)
        assert len(records) == 4
        assert all(np.isfinite(r["score"]) for r in records)


class TestMultiRun:
    def test_runs_write_summary_and_per_seed_models(self, tmp_path):
        train = _generate(tmp_path)
        model = tmp_path / "multi.json"
        assert main(["train", "--corpus", str(train), "--num-words", "6",
                     "--num-topics", "2", "--num-behaviours", "2", "--algo",
                     "em", "--iterations", "5", "--runs", "3", "--jobs", "2",
                     "--seed", "10", "--out", str(model)]) == 0
        summary = json.loads((tmp_path / "multi.json.summary.json").read_text())
        assert summary["runs"] == 3 and summary["seeds"] == [10, 11, 12]
        for p in summary["models"]:
            loaded = serialize.load_model(p)
            assert loaded.metadata["seed"] in (10, 11, 12)

    @pytest.mark.parametrize("algo", ["em", "gs"])
    def test_process_pool_writes_the_same_bytes_from_any_cache(self, kernel, tmp_path,
                                                               monkeypatch, algo):
        # The workers run the kernels from a cold cache, from a warm one, or
        # the Python copies: the same model files.
        train = _generate(tmp_path)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))

        def fit(name):
            (tmp_path / name).mkdir()
            _train(tmp_path, train, algo=algo, name=f"{name}/m.json",
                   extra=["--runs", "2", "--jobs", "2"])
            return {p.name: p.read_bytes() for p in (tmp_path / name).glob("m.seed*.json")}

        _kernels.load.cache_clear()
        cold = fit("cold")
        _kernels.load.cache_clear()
        warm = fit("warm")
        assert len(list((tmp_path / "cache" / "markovtopics").iterdir())) == 1
        # Only forked workers inherit the patched loader: under forkserver or
        # spawn they would build the kernels into the empty cache and compare
        # the kernels with themselves.
        (tmp_path / "empty").mkdir()
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "empty"))
        monkeypatch.setattr(cli, "ProcessPoolExecutor", functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))
        with without_kernels():
            copies = fit("copies")
        assert len(cold) == 2 and cold == warm == copies
        assert list((tmp_path / "empty").iterdir()) == []

    def test_eval_aggregates_multiple_score_files(self, tmp_path, capsys):
        train = _generate(tmp_path)
        test = _generate(tmp_path, docs=4, seed=3, name="test.txt")
        labels = tmp_path / "labels.txt"
        labels.write_text("0\n1\n0\n1\n")
        score_files = []
        for seed in (0, 1):
            model = _train(tmp_path, train, name=f"m{seed}.json",
                           extra=["--seed", str(seed)])
            path = tmp_path / f"s{seed}.jsonl"
            assert main(["score", "--model", str(model), "--corpus", str(test),
                         "--train-corpus", str(train), "--out", str(path)]) == 0
            score_files.append(path)
        args = ["eval", "--labels", str(labels)]
        for p in score_files:
            args += ["--scores", str(p)]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "aggregate: mean=" in out and "over 2 runs" in out


_SPEC_6_2_2 = ["--num-words", "6", "--num-topics", "2", "--num-behaviours", "2"]


class TestConfigPrecedence:
    def test_flag_beats_config_beats_default(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"num_words": 6, "num_topics": 2,
                                   "num_behaviours": 2, "docs": 5,
                                   "doc_length": 30, "seed": 4}))
        out_a = tmp_path / "a.txt"
        assert main(["generate", "--config", str(cfg),
                     "--out-corpus", str(out_a)]) == 0
        assert len(out_a.read_text().splitlines()) == 5
        out_b = tmp_path / "b.txt"
        assert main(["generate", "--config", str(cfg), "--docs", "7",
                     "--out-corpus", str(out_b)]) == 0
        assert len(out_b.read_text().splitlines()) == 7

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(SystemExit) as err:
            main(["generate", "--config", str(cfg), "--num-words", "4",
                  "--num-topics", "1", "--num-behaviours", "1", "--docs", "1",
                  "--doc-length", "25", "--out-corpus", str(tmp_path / "x")])
        assert err.value.code == 2

    @pytest.mark.parametrize("command,config", [
        ("generate", {"prior": "X"}), ("train", {"algo": "zz"}), ("score", {"mode": "bogus"}),
        ("generate", {"out_corpus": True}), ("generate", {"docs": [1, 2]})],
        ids=["prior", "algo", "mode", "out-corpus-bool", "docs-list"])
    def test_bad_config_value_is_usage_error(self, tmp_path, capsys, command, config):
        train = _generate(tmp_path)
        out = str(tmp_path / "out")
        if command == "generate":
            argv = [*_SPEC_6_2_2, "--docs", "2", "--doc-length", "5", "--out-corpus", out]
        elif command == "train":
            argv = ["--corpus", str(train), *_SPEC_6_2_2, "--algo", "em", "--out", out]
        else:
            argv = ["--model", str(_train(tmp_path, train, algo="vb")), "--corpus", str(train),
                    "--train-corpus", str(train), "--out", out]
        [key] = config
        flag = "--" + key.replace("_", "-")
        if flag in argv:
            i = argv.index(flag)
            del argv[i:i + 2]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        files = set(tmp_path.iterdir())
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            main([command, *argv, "--config", str(cfg)])
        assert err.value.code == 2
        assert set(tmp_path.iterdir()) == files
        err_text = capsys.readouterr().err
        assert flag in err_text or repr(key) in err_text

    def test_config_values_read_as_the_flags_they_name(self, tmp_path, monkeypatch):
        # A number, a null (the default seed) and a value that looks like a flag.
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prior": 1, "seed": None, "out_corpus": "-a.txt"}))
        common = ["generate", *_SPEC_6_2_2, "--docs", "3", "--doc-length", "10"]
        assert main([*common, "--config", str(cfg), "--out-truth", "a.json"]) == 0
        assert main([*common, "--prior", "1", "--out-corpus", "b.txt",
                     "--out-truth", "b.json"]) == 0
        assert (tmp_path / "-a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_config_score_list_joins_flag_scores(self, tmp_path, capsys):
        paths = []
        for name, score in (("a", -1.0), ("b", -2.0), ("c", -3.0)):
            paths.append(tmp_path / f"{name}.jsonl")
            paths[-1].write_text(f'{{"index": 1, "score": {score}, "evaluated": true}}\n'
                                 '{"index": 2, "score": -9.0, "evaluated": true}\n')
        (tmp_path / "labels.txt").write_text("0\n1\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scores": [str(paths[0]), str(paths[1])]}))
        assert main(["eval", "--config", str(cfg), "--scores", str(paths[2]),
                     "--labels", str(tmp_path / "labels.txt")]) == 0
        out = capsys.readouterr().out
        assert all(f"{p}: pr_auc=" in out for p in paths) and "over 3 runs" in out


def _run_module(argv, **env):
    """``python -m markovtopics`` in a subprocess (:func:`conftest.run_python`)."""
    return run_python(["-m", "markovtopics", *argv], **env)


class TestExitCodes:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 2

    def test_no_args_usage(self):
        assert main([]) == 2

    @pytest.mark.parametrize("argv,code", [(["--help"], 0), ([], 2)])
    def test_module_entry_point(self, argv, code):
        done = _run_module(argv)
        assert done.returncode == code
        assert "usage: markovtopics" in done.stdout
        assert "Traceback" not in done.stderr

    def test_utf8_inputs_read_whatever_the_locale(self, tmp_path):
        # Under the C locale with UTF-8 mode off, text files would otherwise
        # be decoded as ASCII, and a valid UTF-8 score file would exit 3.
        scores, labels = tmp_path / "s.jsonl", tmp_path / "l.txt"
        scores.write_text('{"index":1,"score":-1.0,"evaluated":true,"note":"\u00e9"}\n'
                          '{"index":2,"score":-2.0,"evaluated":true}\n', encoding="utf-8")
        labels.write_text("0\n1\n")
        done = _run_module(["eval", "--scores", str(scores), "--labels", str(labels)],
                           PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C")
        assert done.returncode == 0, done.stderr
        assert "pr_auc=1.0000" in done.stdout

    def test_importing_entry_point_runs_nothing(self, capsys):
        # Tools that import every module of the package (a tracer, a
        # documentation generator) must not start the command line.
        importlib.import_module("markovtopics.__main__")
        assert capsys.readouterr() == ("", "")

    def test_missing_corpus_is_data_error(self, tmp_path):
        assert main(["train", "--corpus", str(tmp_path / "nope.txt"),
                     "--num-words", "4", "--num-topics", "1",
                     "--num-behaviours", "1", "--algo", "em",
                     "--out", str(tmp_path / "m.json")]) == 3

    def test_malformed_corpus_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\n\n2\n")
        assert main(["train", "--corpus", str(bad), "--num-words", "4",
                     "--num-topics", "1", "--num-behaviours", "1", "--algo",
                     "em", "--out", str(tmp_path / "m.json")]) == 3

    def test_mc_on_plain_em_model_is_data_error(self, tmp_path):
        train = _generate(tmp_path)
        model = _train(tmp_path, train, algo="em")
        assert main(["score", "--model", str(model), "--corpus", str(train),
                     "--mode", "mc", "--train-corpus", str(train),
                     "--out", str(tmp_path / "s.jsonl")]) == 3

    def test_propagate_without_train_corpus_is_data_error(self, tmp_path):
        train = _generate(tmp_path)
        model = _train(tmp_path, train)
        assert main(["score", "--model", str(model), "--corpus", str(train),
                     "--init", "propagate",
                     "--out", str(tmp_path / "s.jsonl")]) == 3

    def test_corrupt_model_is_data_error(self, tmp_path):
        train = _generate(tmp_path)
        model = _train(tmp_path, train)
        doc = json.loads(model.read_text())
        doc["params"]["pi"]["data"] = [-0.5, 1.5]
        model.write_text(json.dumps(doc))
        scores = tmp_path / "s.jsonl"
        assert main(["score", "--model", str(model), "--corpus", str(train),
                     "--train-corpus", str(train), "--out", str(scores)]) == 3
        assert not scores.exists()

    @pytest.mark.parametrize("key,value", [("orientation", "row-conditional"),
                                           ("algorithm", "nonsense")])
    def test_unknown_orientation_or_algorithm_is_data_error(self, tmp_path, capsys, key, value):
        train = _generate(tmp_path)
        model = _train(tmp_path, train)
        doc = json.loads(model.read_text())
        doc[key] = value
        model.write_text(json.dumps(doc))
        scores = tmp_path / "s.jsonl"
        assert main(["score", "--model", str(model), "--corpus", str(train),
                     "--train-corpus", str(train), "--out", str(scores)]) == 3
        assert capsys.readouterr().err.startswith("data error: ")
        assert not scores.exists()

    @pytest.mark.parametrize("cut", ["beta", "samples"])
    def test_model_that_mc_cannot_score_is_data_error(self, tmp_path, capsys, cut):
        train = _generate(tmp_path)
        model = _train(tmp_path, train, algo="gs")
        doc = json.loads(model.read_text())
        if cut == "beta":
            doc["hyperparams"]["beta"] = doc["hyperparams"]["beta"][:3]
        else:
            doc["samples"] = []
        model.write_text(json.dumps(doc))
        scores = tmp_path / "s.jsonl"
        assert main(["score", "--model", str(model), "--corpus", str(train), "--mode", "mc",
                     "--init", "restart", "--out", str(scores)]) == 3
        assert capsys.readouterr().err.startswith("data error: ")
        assert not scores.exists()

    def test_layout_vocabulary_mismatch_is_data_error(self, tmp_path):
        train = _generate(tmp_path)
        model = _train(tmp_path, train)
        assert main(["localise", "--model", str(model), "--corpus", str(train),
                     "--frame-w", "16", "--frame-h", "16",
                     "--out", str(tmp_path / "l.jsonl")]) == 3


def _empty_corpus(tmp_path):
    (tmp_path / "empty.txt").write_text("")
    return ["train", "--corpus", str(tmp_path / "empty.txt"), "--num-words", "4",
            "--num-topics", "1", "--num-behaviours", "1", "--algo", "em",
            "--out", str(tmp_path / "m.json")]


def _one_class_labels(tmp_path):
    scores = tmp_path / "s.jsonl"
    scores.write_text('{"index": 1, "length": 20, "log_lik": -30.0, "score": -33.0, '
                      '"evaluated": true}\n')
    (tmp_path / "labels.txt").write_text("0\n")
    return ["eval", "--scores", str(scores), "--labels", str(tmp_path / "labels.txt")]


def _featurize(tmp_path, body):
    (tmp_path / "e.csv").write_text("frame,cell_x,cell_y,dir\n" + body)
    return ["featurize", "--events", str(tmp_path / "e.csv"), "--frame-w", "16",
            "--frame-h", "16", "--fps", "25", "--out-corpus", str(tmp_path / "c.txt"),
            "--out-map", str(tmp_path / "m.json")]


def _off_grid_cell(tmp_path):
    # A 16x16 frame has a 2x2 grid of 8-pixel cells: cell_x 2 is off it.
    return _featurize(tmp_path, "0,2,0,up\n")


def _event_non_integer(tmp_path):
    return _featurize(tmp_path, "0,0,0,up\n1,a,0,up\n")


def _event_three_fields(tmp_path):
    return _featurize(tmp_path, "0,0,0,up\n1,0,0\n")


def _event_overflowing_frame(tmp_path):
    return _featurize(tmp_path, "0,0,0,up\n99999999999999999999,0,0,up\n")


def _event_unknown_direction(tmp_path):
    return _featurize(tmp_path, "0,0,0,up\n1,0,0,north\n")


def _events_out_of_order(tmp_path):
    return _featurize(tmp_path, "5,0,0,up\n4,0,0,up\n")


def _overflowing_word_id(tmp_path):
    (tmp_path / "c.txt").write_text("0 1\n99999999999999999999 0\n")
    return ["train", "--corpus", str(tmp_path / "c.txt"), "--num-words", "4",
            "--num-topics", "1", "--num-behaviours", "1", "--algo", "em",
            "--out", str(tmp_path / "m.json")]


def _non_utf8_corpus(tmp_path):
    (tmp_path / "c.txt").write_bytes(b"0 1\n2 \xff\n")
    return ["train", "--corpus", str(tmp_path / "c.txt"), "--num-words", "4",
            "--num-topics", "1", "--num-behaviours", "1", "--algo", "em",
            "--out", str(tmp_path / "m.json")]


def _non_utf8_events(tmp_path):
    argv = _featurize(tmp_path, "")
    (tmp_path / "e.csv").write_bytes(b"frame,cell_x,cell_y,dir\n0,0,0,up\xff\n")
    return argv


def _score_with_model(tmp_path, text):
    (tmp_path / "m.json").write_text(text)
    (tmp_path / "c.txt").write_text("0 1\n")
    return ["score", "--model", str(tmp_path / "m.json"), "--corpus", str(tmp_path / "c.txt"),
            "--out", str(tmp_path / "s.jsonl")]


def _model_list(tmp_path):
    return _score_with_model(tmp_path, "[]")


def _model_hyperparams_list(tmp_path):
    return _score_with_model(tmp_path, json.dumps({
        "format_version": 1, "algorithm": "em", "hyperparams": [],
        "spec": {"num_words": 4, "num_topics": 1, "num_behaviours": 1}}))


def _eval_with_record(tmp_path, record):
    (tmp_path / "s.jsonl").write_text('{"index": 1, "score": -1.0, "evaluated": true}\n'
                                      + record + "\n")
    (tmp_path / "labels.txt").write_text("0\n1\n")
    return ["eval", "--scores", str(tmp_path / "s.jsonl"),
            "--labels", str(tmp_path / "labels.txt")]


def _score_record_number(tmp_path):
    return _eval_with_record(tmp_path, "5")


def _score_record_string_score(tmp_path):
    return _eval_with_record(tmp_path, '{"index": 2, "score": "x", "evaluated": true}')


def _score_record_nan_score(tmp_path):
    return _eval_with_record(tmp_path, '{"index": 2, "score": NaN, "evaluated": true}')


def _config_holding(text):
    def argv(tmp_path):
        (tmp_path / "cfg.json").write_text(text)
        (tmp_path / "c.txt").write_text("0 1\n")
        return ["train", "--config", str(tmp_path / "cfg.json"), "--corpus",
                str(tmp_path / "c.txt"), "--num-words", "4", "--num-topics", "1",
                "--num-behaviours", "1", "--algo", "em", "--out", str(tmp_path / "m.json")]
    return argv


class TestDataErrors:
    @pytest.mark.parametrize("argv", [_empty_corpus, _one_class_labels, _off_grid_cell,
                                      _overflowing_word_id, _event_non_integer,
                                      _event_three_fields, _event_overflowing_frame,
                                      _event_unknown_direction, _events_out_of_order,
                                      _non_utf8_corpus, _non_utf8_events, _model_list,
                                      _model_hyperparams_list, _score_record_number,
                                      _score_record_string_score, _score_record_nan_score,
                                      _config_holding("[]"), _config_holding("5"),
                                      _config_holding('"x"')],
                             ids=["empty-corpus", "one-class-labels", "off-grid-cell",
                                  "overflowing-word-id", "event-non-integer",
                                  "event-three-fields", "event-overflowing-frame",
                                  "event-unknown-direction", "events-out-of-order",
                                  "non-utf8-corpus", "non-utf8-events", "model-list",
                                  "model-hyperparams-list", "score-record-number",
                                  "score-record-string-score", "score-record-nan-score",
                                  "config-list", "config-number", "config-string"])
    def test_exit_code_3_without_traceback(self, tmp_path, capsys, argv):
        assert main(argv(tmp_path)) == 3
        assert capsys.readouterr().err.startswith("data error: ")

    @pytest.mark.parametrize("body", ["0,0,0,up\n30,1,1,down\n", ""],
                             ids=["clips-below-min-words", "header-only"])
    def test_featurize_with_no_clip_writes_nothing(self, tmp_path, capsys, body):
        # read_corpus would refuse a corpus file with no documents.
        assert main(_featurize(tmp_path, body)) == 3
        assert "holds no documents" in capsys.readouterr().err
        assert not (tmp_path / "c.txt").exists() and not (tmp_path / "m.json").exists()


#: Characters that ``str.splitlines`` takes as line ends, besides ``\n``.
_NOT_LINE_ENDS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestLineGrammar:
    """Label and score files end lines as corpus and event files do: at
    ``\\n`` or ``\\r\\n`` only."""

    # Last on the line, "\r" would make "\r\n": a space follows it there.
    @pytest.mark.parametrize("char", _NOT_LINE_ENDS, ids=ascii)
    @pytest.mark.parametrize("line", ["1{}0", "{}1", "1{} "])
    def test_label_line_holding_char_is_a_data_error(self, tmp_path, capsys, char, line):
        argv = _eval_with_record(tmp_path, '{"index": 2, "score": -2.0, "evaluated": true}')
        (tmp_path / "labels.txt").write_text("0\n" + line.format(char) + "\n")
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith(f"data error: label line 2 in {tmp_path}")

    @pytest.mark.parametrize("char", _NOT_LINE_ENDS, ids=ascii)
    def test_score_line_holding_char_is_a_data_error(self, tmp_path, capsys, char):
        argv = _eval_with_record(tmp_path, '{"score": -2.0}' + char + '{"score": -3.0}')
        (tmp_path / "labels.txt").write_text("0\n1\n0\n")
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("data error: bad score record on line 2 ")

    def test_crlf_and_unterminated_last_line_accepted(self, tmp_path, capsys):
        argv = _eval_with_record(tmp_path, '{"score": -2.0}\r\n{"score": -3.0}')
        (tmp_path / "s.jsonl").write_bytes((tmp_path / "s.jsonl").read_bytes().rstrip())
        (tmp_path / "labels.txt").write_bytes(b"0\r\n1\r\n\t0 ")
        assert main(argv) == 0
        assert "pr_auc=" in capsys.readouterr().out


def _reject_constant(token):
    raise ValueError(f"non-finite number {token}")


def _strict_json(text):
    """Parse JSON, refusing NaN and infinities."""
    return json.loads(text, parse_constant=_reject_constant)


class TestStrictJsonOutputs:
    def test_every_json_output_parses_under_a_strict_reader(self, tmp_path):
        train, truth = _generate(tmp_path), tmp_path / "truth.json"
        assert main(["generate", "--num-words", "6", "--num-topics", "2",
                     "--num-behaviours", "2", "--docs", "4", "--doc-length", "30",
                     "--out-corpus", str(tmp_path / "g.txt"), "--out-truth", str(truth)]) == 0
        models = [_train(tmp_path, train, algo=algo, name=f"{algo}.json")
                  for algo in ("em", "vb", "gs")]
        models.append(_train(tmp_path, train, name="runs.json", extra=["--runs", "2"]))
        outputs = [truth, *models[:3], tmp_path / "runs.seed0.json",
                   tmp_path / "runs.json.summary.json"]
        for model in models[:3]:
            scores = tmp_path / f"{model.stem}.jsonl"
            assert main(["score", "--model", str(model), "--corpus", str(train), "--mode",
                         "plugin" if model.stem == "em" else "mc", "--mc-samples", "3",
                         "--init", "restart", "--out", str(scores)]) == 0
            outputs.append(scores)
        events = tmp_path / "events.csv"
        events.write_text("frame,cell_x,cell_y,dir\n"
                          + "".join(f"{f},{f % 2},0,up\n" for f in range(50)))
        assert main(["featurize", "--events", str(events), "--frame-w", "16",
                     "--frame-h", "16", "--fps", "25", "--min-words", "0", "--out-corpus",
                     str(tmp_path / "feat.txt"), "--out-map", str(tmp_path / "map.json")]) == 0
        assert main(["train", "--corpus", str(tmp_path / "feat.txt"), "--num-words", "16",
                     "--num-topics", "2", "--num-behaviours", "2", "--algo", "em",
                     "--iterations", "3", "--out", str(tmp_path / "feat.json")]) == 0
        assert main(["localise", "--model", str(tmp_path / "feat.json"), "--corpus",
                     str(tmp_path / "feat.txt"), "--frame-w", "16", "--frame-h", "16",
                     "--out", str(tmp_path / "loc.jsonl")]) == 0
        outputs += [tmp_path / "map.json", tmp_path / "loc.jsonl"]
        for path in outputs:
            for line in path.read_text().splitlines():
                assert isinstance(_strict_json(line), dict), path.name

    def test_infinite_em_objective_written_as_null(self, tmp_path):
        # Under the prior exponent H < 1 some words reach probability 0 and
        # the log-MAP objective is +inf.
        corpus = tmp_path / "c.txt"
        corpus.write_text("0 1 0 1\n1 0 1 0\n0 0 1 1\n2 3 2 3\n")
        model = tmp_path / "m.json"
        assert main(["train", "--corpus", str(corpus), "--num-words", "4", "--num-topics", "2",
                     "--num-behaviours", "2", "--algo", "em", "--prior", "H",
                     "--iterations", "15", "--seed", "0", "--out", str(model)]) == 0
        assert _strict_json(model.read_text())["metadata"]["final_objective"] is None
        assert serialize.load_model(model).metadata["final_objective"] is None


class TestImpossibleDocument:
    def test_null_record_ranked_most_anomalous(self, tmp_path, capsys):
        # With the flat prior, EM's MAP estimate gives word 2, unseen in
        # training, probability 0, so the second test document is impossible.
        train = tmp_path / "train.txt"
        train.write_text("0 1 0 1\n1 0 0 1\n0 0 1 1\n")
        model = tmp_path / "m.json"
        assert main(["train", "--corpus", str(train), "--num-words", "3", "--num-topics", "1",
                     "--num-behaviours", "1", "--algo", "em", "--iterations", "3",
                     "--out", str(model)]) == 0
        test = tmp_path / "test.txt"
        test.write_text("0 1 0 1\n0 1 2 1\n1 1 0 0\n")
        scores = tmp_path / "s.jsonl"
        assert main(["score", "--model", str(model), "--corpus", str(test), "--init", "restart",
                     "--min-words", "0", "--out", str(scores)]) == 0
        records = [_strict_json(line) for line in scores.read_text().splitlines()]
        assert records[1] == {"index": 2, "length": 4, "log_lik": None, "score": None,
                              "evaluated": True}
        assert all(np.isfinite(r["score"]) for r in (records[0], records[2]))

        # Only the impossible document is abnormal: flagged first, it gives
        # precision 1 at every recall.  As a normal (+inf) score it would come last.
        labels = tmp_path / "labels.txt"
        labels.write_text("0\n1\n0\n")
        curve = tmp_path / "pr.csv"
        capsys.readouterr()
        assert main(["eval", "--scores", str(scores), "--labels", str(labels),
                     "--out-curve", str(curve)]) == 0
        assert "pr_auc=1.0000" in capsys.readouterr().out
        assert curve.read_text().splitlines()[1] == "1.0,1.0"


class TestTruncatedEm:
    def test_prior_h_failure_names_the_words_the_m_step_zeroed(self, tmp_path, capsys):
        # Under --prior H the M-step offsets counts by beta - 1 = -0.95 and
        # truncates at 0.  Each of the eight words, seen once, splits its
        # count over two topics; one below 0.95 in both gets probability 0
        # under every topic, and the second E-step finds the corpus impossible.
        # At seed 0 that is word 3 alone (its larger share is 0.88).  Word 8
        # is in no document: it also has probability 0, but is not counted.
        # Two documents over nine words, so a count along the documents
        # cannot pass.
        corpus = tmp_path / "c.txt"
        corpus.write_text("0 1 2 3\n4 5 6 7\n")
        argv = ["train", "--corpus", str(corpus), "--num-words", "9", "--num-topics", "2",
                "--num-behaviours", "1", "--algo", "em", "--iterations", "2", "--seed", "0",
                "--out", str(tmp_path / "m.json")]
        assert main(argv + ["--prior", "H"]) == 4
        err = capsys.readouterr().err
        assert re.fullmatch(r"numerical failure: corpus impossible under model: after a MAP "
                            r"M-step 1 corpus word\(s\) have zero probability under every "
                            r"topic \(.*use --prior H\+1 or 1\)\n", err), err
        for prior in ("H+1", "1"):
            assert main(argv + ["--prior", prior]) == 0


def _train_without_word(tmp_path, num_words):
    """EM estimate under the flat prior from a corpus of words 0 and 1 only:
    every other word has probability 0, so a document holding one is
    impossible."""
    train = tmp_path / "train.txt"
    train.write_text("0 1 0 1\n1 0 1 0\n0 0 1 1\n")
    model = tmp_path / "m.json"
    assert main(["train", "--corpus", str(train), "--num-words", str(num_words),
                 "--num-topics", "2", "--num-behaviours", "2", "--algo", "em",
                 "--prior", "1", "--iterations", "5", "--out", str(model)]) == 0
    return model


class TestImpossibleHistory:
    # --init propagate continues the training stream as it would be scored:
    # an impossible last training document restarts the belief from pi.

    def test_score_continues_after_impossible_history(self, tmp_path):
        model = _train_without_word(tmp_path, 3)
        history = tmp_path / "history.txt"
        history.write_text("0 1 2 1\n")
        test = tmp_path / "test.txt"
        test.write_text("0 1 0 1\n1 1 0 0\n")
        propagated, restarted = tmp_path / "p.jsonl", tmp_path / "r.jsonl"
        common = ["score", "--model", str(model), "--corpus", str(test), "--min-words", "0"]
        assert main([*common, "--train-corpus", str(history), "--out", str(propagated)]) == 0
        assert main([*common, "--init", "restart", "--out", str(restarted)]) == 0
        records = [_strict_json(line) for line in propagated.read_text().splitlines()]
        assert all(np.isfinite(r["score"]) for r in records)
        assert propagated.read_text() == restarted.read_text()

    def test_localise_ranks_impossible_word_first(self, tmp_path):
        model = _train_without_word(tmp_path, 4)
        corpus = tmp_path / "c.txt"
        corpus.write_text("0 1 3 1\n")
        out = tmp_path / "loc.jsonl"
        # One 8-px cell: vocabulary 4.
        assert main(["localise", "--model", str(model), "--corpus", str(corpus),
                     "--frame-w", "8", "--frame-h", "8", "--top-n", "4", "--init", "propagate",
                     "--train-corpus", str(corpus), "--out", str(out)]) == 0
        (record,) = [json.loads(line) for line in out.read_text().splitlines()]
        assert record["tokens"][0][0] == 2

    @pytest.mark.parametrize("top_n,kept", [("1", [1, 1, 1]), (str(2**64), [4, 1, 2])])
    def test_localise_records_per_document(self, tmp_path, top_n, kept):
        # Each line holds its own document's tokens, however far --top-n
        # goes beyond the longest document.
        model = _train_without_word(tmp_path, 4)
        corpus = tmp_path / "c.txt"
        corpus.write_text("0 1 3 1\n3\n1 2\n")
        out = tmp_path / "loc.jsonl"
        assert main(["localise", "--model", str(model), "--corpus", str(corpus),
                     "--frame-w", "8", "--frame-h", "8", "--top-n", top_n,
                     "--out", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["index"] for r in records] == [1, 2, 3]
        assert [len(r["tokens"]) for r in records] == kept
        words = [[0, 1, 3, 1], [3], [1, 2]]
        for r, doc in zip(records, words):
            for i, x, y, direction in r["tokens"]:
                assert (x, y) == (0, 0) and direction == DIRECTIONS[doc[i]]
        assert records[2]["tokens"][0][0] == 1  # word 2 is impossible under the model


class TestTrainMetadata:
    @pytest.mark.parametrize("algo", ["em", "vb"])
    def test_seed_used_after_rejected_draw(self, tmp_path, monkeypatch, algo):
        e_step = inference.e_step
        calls = []

        def reject_first(params, corpus):
            calls.append(1)
            if len(calls) == 1:
                raise inference.NumericalError("first draw rejected")
            return e_step(params, corpus)

        monkeypatch.setattr(inference, "e_step", reject_first)
        model = _train(tmp_path, _generate(tmp_path), algo=algo, extra=["--seed", "7"])
        metadata = serialize.load_model(model).metadata
        assert metadata["seed"] == 7 and metadata["seed_used"] == 8
        assert isinstance(metadata["converged"], bool)

    def test_vb_records_free_energy_and_tol_stop(self, tmp_path):
        corpus = _generate(tmp_path)
        model = _train(tmp_path, corpus, algo="vb",
                       extra=["--iterations", "500", "--tol", "1e-6"])
        metadata = serialize.load_model(model).metadata
        assert np.isfinite(metadata["final_objective"]) and metadata["final_objective"] < 0
        assert metadata["converged"] is True and 3 <= metadata["iterations"] < 500
        # One iteration records only the free energy of the initial draw, -inf.
        one = _train(tmp_path, corpus, algo="vb", name="one.json", extra=["--iterations", "1"])
        metadata = _strict_json(one.read_text())["metadata"]
        assert metadata["final_objective"] is None and metadata["converged"] is False

    def test_gibbs_records_its_seed(self, tmp_path):
        model = _train(tmp_path, _generate(tmp_path), algo="gs", extra=["--seed", "7"])
        metadata = serialize.load_model(model).metadata
        assert metadata["seed"] == metadata["seed_used"] == 7


def _count_flag_argv(tmp_path, command):
    """Valid arguments for ``command``; the files need not exist because a
    bad count is rejected while the arguments are parsed."""
    spec = ["--num-words", "4", "--num-topics", "1", "--num-behaviours", "1"]
    f = {name: str(tmp_path / name) for name in ("c.txt", "e.csv", "m.json", "l.txt", "o")}
    frame = ["--frame-w", "16", "--frame-h", "16"]
    return {
        "generate": [*spec, "--docs", "1", "--doc-length", "5", "--out-corpus", f["o"]],
        "featurize": ["--events", f["e.csv"], *frame, "--fps", "25",
                      "--out-corpus", f["o"], "--out-map", f["m.json"]],
        "train": ["--corpus", f["c.txt"], *spec, "--algo", "em", "--out", f["o"]],
        "score": ["--model", f["m.json"], "--corpus", f["c.txt"], "--out", f["o"]],
        "localise": ["--model", f["m.json"], "--corpus", f["c.txt"], *frame, "--out", f["o"]],
        "eval": ["--scores", f["o"], "--labels", f["l.txt"]],
    }[command]


#: Every count flag with its smallest bad value: positive counts reject 0,
#: non-negative ones reject -1.
_COUNT_FLAGS = [
    *[("generate", flag, "0") for flag in ("--num-words", "--num-topics",
                                           "--num-behaviours", "--docs", "--doc-length")],
    ("featurize", "--min-words", "-1"),
    *[("train", flag, "0") for flag in ("--num-words", "--num-topics", "--num-behaviours",
                                        "--iterations", "--samples", "--runs", "--jobs")],
    ("train", "--burn-in", "-1"),
    ("train", "--spacing", "-1"),
    ("score", "--mc-samples", "0"),
    ("score", "--min-words", "-1"),
    ("localise", "--top-n", "0"),
    *[(command, "--seed", "-1") for command in ("generate", "train", "score")],
]


class TestCountFlags:
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command,flag,bad", _COUNT_FLAGS)
    def test_bad_count_is_usage_error(self, tmp_path, capsys, command, flag, bad, source):
        argv = _count_flag_argv(tmp_path, command)
        if flag in argv:
            i = argv.index(flag)
            del argv[i:i + 2]
        if source == "flag":
            argv += [flag, bad]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({flag[2:].replace("-", "_"): int(bad)}))
            argv += ["--config", str(cfg)]
        with pytest.raises(SystemExit) as err:
            main([command, *argv])
        assert err.value.code == 2
        assert f"argument {flag}: must be >= " in capsys.readouterr().err

    def test_zero_burn_in_accepted(self, tmp_path):
        train = _generate(tmp_path)
        _train(tmp_path, train, algo="gs", extra=["--burn-in", "0"])

    @pytest.mark.parametrize("algo,samples", [("gs", "1"), ("em", "3"), ("vb", "3")])
    def test_zero_spacing_accepted_unless_gibbs_stores_copies(self, tmp_path, algo, samples):
        train = _generate(tmp_path)
        model = _train(tmp_path, train, algo=algo,
                       extra=["--spacing", "0", "--samples", samples])
        if algo == "gs":
            assert len(serialize.load_model(model).count_samples) == 1


class TestShortDocuments:
    def test_unevaluated_never_flagged(self, tmp_path, capsys):
        train = _generate(tmp_path)
        model = _train(tmp_path, train)
        test = tmp_path / "test.txt"
        # Two scorable documents and one 5-word document.
        test.write_text("0 1 2 3 4 5 0 1 2 3 4 5 0 1 2 3 4 5 0 1\n"
                        "0 0 0 0 0\n"
                        "1 2 1 2 1 2 1 2 1 2 1 2 1 2 1 2 1 2 1 2\n")
        scores = tmp_path / "s.jsonl"
        assert main(["score", "--model", str(model), "--corpus", str(test),
                     "--train-corpus", str(train), "--out", str(scores)]) == 0
        records = serialize.read_scores(scores)
        assert records[1]["evaluated"] is False and records[1]["score"] is None
        labels = tmp_path / "labels.txt"
        labels.write_text("1\n1\n0\n")
        assert main(["eval", "--scores", str(scores),
                     "--labels", str(labels)]) == 0
        out = capsys.readouterr().out
        assert "pr_auc=" in out


#: Bad frame geometry and timing, bad convergence tolerances, Gibbs samples
#: that would all be one state, and non-finite eval thresholds: each row's
#: flags, as given on the command line (``str``) and in a config file (the
#: value itself).  A 32-px cell leaves no whole cell in the 16x16 frame; the
#: last two featurize rows are valid apart but make a clip of no frames or of
#: infinitely many.
_LAYOUT_FLAGS = [
    *[(command, {flag: bad}) for command in ("featurize", "localise")
      for flag, bad in (("--frame-w", 0), ("--frame-h", 0), ("--cell", 0), ("--cell", 32))],
    *[("featurize", {"--fps": bad}) for bad in (0.0, -1.0, float("nan"), float("inf"))],
    *[("featurize", {"--clip-seconds": bad}) for bad in (0.0, -1.0)],
    ("featurize", {"--fps": 1e-200, "--clip-seconds": 1e-200}),
    ("featurize", {"--fps": 1e200, "--clip-seconds": 1e200}),
    *[("train", {"--tol": bad}) for bad in (float("nan"), -1.0, 0.0, float("inf"))],
    *[("train", {"--algo": "gs", "--samples": samples, "--spacing": 0}) for samples in (2, 5)],
    *[("eval", {"--threshold": bad}) for bad in (float("nan"), float("inf"), float("-inf"))],
]


class TestLayoutFlags:
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "command,flags", _LAYOUT_FLAGS,
        ids=[f"{c}-" + "-".join(f"{k}={v}" for k, v in f.items()) for c, f in _LAYOUT_FLAGS])
    def test_bad_layout_is_usage_error(self, tmp_path, capsys, command, flags, source):
        argv = _count_flag_argv(tmp_path, command)
        (tmp_path / "e.csv").write_text("frame,cell_x,cell_y,dir\n0,0,0,up\n")
        for flag in flags:
            if flag in argv:
                i = argv.index(flag)
                del argv[i:i + 2]
        if source == "flag":
            argv += [a for flag, bad in flags.items() for a in (flag, str(bad))]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({flag[2:].replace("-", "_"): bad
                                       for flag, bad in flags.items()}))
            argv += ["--config", str(cfg)]
        with pytest.raises(SystemExit) as err:
            main([command, *argv])
        assert err.value.code == 2
        err_text = capsys.readouterr().err
        assert all(flag in err_text for flag in flags)
