import json
import re
import time

import numpy as np
import pytest

from markovtopics import inference, serialize, vb
from markovtopics.cli import main


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


class TestMethodMatrix:
    @pytest.mark.parametrize("algo", ["em", "vb", "gs"])
    @pytest.mark.parametrize("prior", ["1", "H", "H+1"])
    @pytest.mark.parametrize("mode", ["plugin", "mc"])
    def test_combination_smoke(self, tmp_path, algo, prior, mode):
        if algo == "em" and mode == "mc":
            pytest.skip("plain point-estimate models have no posterior to sample")
        train = _generate(tmp_path, docs=8, length=25)
        test = _generate(tmp_path, docs=4, length=25, seed=2, name="test.txt")
        model = _train(tmp_path, train, algo=algo, extra=["--prior", prior])
        scores = tmp_path / f"{algo}.{prior}.{mode}.jsonl"
        assert main(["score", "--model", str(model), "--corpus", str(test),
                     "--mode", mode, "--mc-samples", "4",
                     "--train-corpus", str(train), "--out", str(scores)]) == 0
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


class TestExitCodes:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 2

    def test_no_args_usage(self):
        assert main([]) == 2

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


class TestDataErrors:
    @pytest.mark.parametrize("argv", [_empty_corpus, _one_class_labels, _off_grid_cell,
                                      _overflowing_word_id, _event_non_integer,
                                      _event_three_fields, _event_overflowing_frame,
                                      _event_unknown_direction, _events_out_of_order],
                             ids=["empty-corpus", "one-class-labels", "off-grid-cell",
                                  "overflowing-word-id", "event-non-integer",
                                  "event-three-fields", "event-overflowing-frame",
                                  "event-unknown-direction", "events-out-of-order"])
    def test_exit_code_3_without_traceback(self, tmp_path, capsys, argv):
        assert main(argv(tmp_path)) == 3
        assert capsys.readouterr().err.startswith("data error: ")


def _reject_constant(token):
    raise ValueError(f"non-finite number {token}")


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
        records = [json.loads(line, parse_constant=_reject_constant)
                   for line in scores.read_text().splitlines()]
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
        records = [json.loads(line, parse_constant=_reject_constant)
                   for line in propagated.read_text().splitlines()]
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

    def test_gibbs_records_its_seed(self, tmp_path):
        model = _train(tmp_path, _generate(tmp_path), algo="gs", extra=["--seed", "7"])
        metadata = serialize.load_model(model).metadata
        assert metadata["seed"] == metadata["seed_used"] == 7


def _count_flag_argv(tmp_path, command):
    """Valid arguments for ``command``; the files need not exist because a
    bad count is rejected while the arguments are parsed."""
    spec = ["--num-words", "4", "--num-topics", "1", "--num-behaviours", "1"]
    f = {name: str(tmp_path / name) for name in ("c.txt", "e.csv", "m.json", "o")}
    frame = ["--frame-w", "16", "--frame-h", "16"]
    return {
        "generate": [*spec, "--docs", "1", "--doc-length", "5", "--out-corpus", f["o"]],
        "featurize": ["--events", f["e.csv"], *frame, "--fps", "25",
                      "--out-corpus", f["o"], "--out-map", f["m.json"]],
        "train": ["--corpus", f["c.txt"], *spec, "--algo", "em", "--out", f["o"]],
        "score": ["--model", f["m.json"], "--corpus", f["c.txt"], "--out", f["o"]],
        "localise": ["--model", f["m.json"], "--corpus", f["c.txt"], *frame, "--out", f["o"]],
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


#: Bad frame geometry and timing, and bad convergence tolerances: each
#: row's flags, as given on the command line (``str``) and in a config file
#: (the number itself).  A 32-px cell leaves no whole cell in the 16x16
#: frame; the last two featurize rows are valid apart but make a clip of no
#: frames or of infinitely many.
_LAYOUT_FLAGS = [
    *[(command, {flag: bad}) for command in ("featurize", "localise")
      for flag, bad in (("--frame-w", 0), ("--frame-h", 0), ("--cell", 0), ("--cell", 32))],
    *[("featurize", {"--fps": bad}) for bad in (0.0, -1.0, float("nan"), float("inf"))],
    *[("featurize", {"--clip-seconds": bad}) for bad in (0.0, -1.0)],
    ("featurize", {"--fps": 1e-200, "--clip-seconds": 1e-200}),
    ("featurize", {"--fps": 1e200, "--clip-seconds": 1e200}),
    *[("train", {"--tol": bad}) for bad in (float("nan"), -1.0, 0.0, float("inf"))],
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
