"""Command-line surface: generate | featurize | train | score | localise | eval.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
Flag values take precedence over a --config JSON file, which takes
precedence over built-in defaults (100 EM/VB iterations, 500 burn-in
sweeps, spacing 100).  All outputs are deterministic given the
configuration, seeds included.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import anomaly, em, gibbs, metrics, serialize, vb
from .generate import generate
from .ingest import FrameLayout, build_corpus
from .model import (
    DataError,
    Hyperparams,
    ModelSpec,
    NumericalError,
    make_prior,
)


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return parse


_positive = _int_at_least(1)
_non_negative = _int_at_least(0)


def _positive_real(text):
    """argparse type: a finite real number above zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {value}")
    return value


def _layout_args(parser):
    parser.add_argument("--frame-w", type=_positive, required=True)
    parser.add_argument("--frame-h", type=_positive, required=True)
    parser.add_argument("--cell", type=_positive, default=8)


def _layout_from(args, parser) -> FrameLayout:
    layout = FrameLayout(frame_w=args.frame_w, frame_h=args.frame_h, cell=args.cell)
    if layout.vocabulary_size == 0:
        parser.error(f"--cell {args.cell} leaves no whole cell in a "
                     f"{args.frame_w}x{args.frame_h} frame")
    return layout


def _spec_args(parser):
    parser.add_argument("--num-words", type=_positive, required=True)
    parser.add_argument("--num-topics", type=_positive, required=True)
    parser.add_argument("--num-behaviours", type=_positive, required=True)


def _spec_from(args) -> ModelSpec:
    return ModelSpec(args.num_words, args.num_topics, args.num_behaviours)


def _apply_config(argv, parser):
    """Two-pass parse so --config values act as defaults under the flags."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if known.config:
        try:
            config = json.loads(Path(known.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise DataError(f"cannot read config {known.config}: {exc}") from exc
        valid = {a.dest for a in parser._actions}
        unknown = set(config) - valid
        if unknown:
            parser.error(f"unknown config keys: {sorted(unknown)}")
        # argparse applies an argument's type only to string defaults; as
        # strings, config values pass the same conversion and checks as flags.
        typed = {a.dest for a in parser._actions if a.type is not None}
        parser.set_defaults(**{k: str(v) if k in typed and v is not None else v
                               for k, v in config.items()})
        for action in parser._actions:
            if action.dest in config:
                action.required = False
    return parser.parse_args(argv)


def cmd_generate(argv):
    parser = argparse.ArgumentParser(prog="markovtopics generate")
    parser.add_argument("--config")
    _spec_args(parser)
    parser.add_argument("--prior", choices=["1", "H", "H+1"], default="1")
    parser.add_argument("--docs", type=_positive, required=True)
    parser.add_argument("--doc-length", type=_positive, required=True)
    parser.add_argument("--seed", type=_non_negative, default=0)
    parser.add_argument("--out-corpus", required=True)
    parser.add_argument("--out-truth")
    args = _apply_config(argv, parser)
    spec = _spec_from(args)
    hyper = make_prior(args.prior, spec)
    dataset = generate(spec, hyper, args.docs, [args.doc_length] * args.docs, args.seed)
    serialize.write_corpus(args.out_corpus, dataset.corpus)
    if args.out_truth:
        serialize.write_ground_truth(args.out_truth, dataset)
    print(f"wrote {len(dataset.corpus)} documents to {args.out_corpus}")
    return 0


def cmd_featurize(argv):
    parser = argparse.ArgumentParser(prog="markovtopics featurize")
    parser.add_argument("--config")
    parser.add_argument("--events", required=True)
    _layout_args(parser)
    parser.add_argument("--fps", type=_positive_real, required=True)
    parser.add_argument("--clip-seconds", type=_positive_real, default=1.0)
    parser.add_argument("--min-words", type=_non_negative, default=20)
    parser.add_argument("--out-corpus", required=True)
    parser.add_argument("--out-map", required=True)
    args = _apply_config(argv, parser)
    layout = _layout_from(args, parser)
    frames = args.fps * args.clip_seconds
    if not (math.isfinite(frames) and frames > 0):
        parser.error(f"--fps {args.fps} times --clip-seconds {args.clip_seconds} "
                     "is not a finite positive number of frames")
    events = serialize.read_events(args.events)
    corpus, index_map = build_corpus(events, layout, fps=args.fps,
                                     clip_seconds=args.clip_seconds,
                                     min_words=args.min_words)
    serialize.write_corpus(args.out_corpus, corpus)
    Path(args.out_map).write_text(json.dumps({str(k): v for k, v in index_map.items()}))
    print(f"wrote {len(corpus)} documents (vocabulary {layout.vocabulary_size}) "
          f"to {args.out_corpus}")
    return 0


def _train_one(task):
    """Fit one model; returns its parameters, what scoring reads besides
    them, and the metadata that says how the fit ran."""
    (algo, corpus, hyper, spec, seed, iters, tol, burn_in, spacing, samples) = task
    if algo == "em":
        params, trace = em.em_fit(corpus, hyper, spec, seed, max_iters=iters, tol=tol)
        return {"params": params, "metadata": {
            "iterations": trace.iterations, "final_objective": trace.objectives[-1],
            "seed_used": trace.seed_used, "converged": trace.converged}}
    if algo == "vb":
        post, params, trace = vb.vb_fit(corpus, hyper, spec, seed, max_iters=iters, tol=tol)
        return {"params": params, "posterior": post, "metadata": {
            "iterations": trace.iterations, "seed_used": trace.seed_used,
            "converged": trace.converged}}
    count_samples, _, pooled = gibbs.gs_fit(corpus, hyper, spec, seed,
                                            burn_in=burn_in, num_samples=samples,
                                            spacing=spacing)
    return {"params": pooled, "count_samples": count_samples, "metadata": {
        "iterations": burn_in + (samples - 1) * spacing, "seed_used": seed}}


def cmd_train(argv):
    parser = argparse.ArgumentParser(prog="markovtopics train")
    parser.add_argument("--config")
    parser.add_argument("--corpus", required=True)
    _spec_args(parser)
    parser.add_argument("--algo", choices=["em", "vb", "gs"], required=True)
    parser.add_argument("--prior", choices=["1", "H", "H+1"], default="1")
    parser.add_argument("--iterations", type=_positive, default=100)
    parser.add_argument("--tol", type=_positive_real, default=None)
    parser.add_argument("--burn-in", type=_non_negative, default=500)
    parser.add_argument("--spacing", type=_non_negative, default=100)
    parser.add_argument("--samples", type=_positive, default=5)
    parser.add_argument("--seed", type=_non_negative, default=0)
    parser.add_argument("--runs", type=_positive, default=1)
    parser.add_argument("--jobs", type=_positive, default=1)
    parser.add_argument("--out", required=True)
    args = _apply_config(argv, parser)
    spec = _spec_from(args)
    hyper = make_prior(args.prior, spec)
    corpus = serialize.read_corpus(args.corpus, spec)

    seeds = [args.seed + r for r in range(args.runs)]
    tasks = [(args.algo, corpus, hyper, spec, s, args.iterations, args.tol,
              args.burn_in, args.spacing, args.samples) for s in seeds]
    if args.jobs > 1 and args.runs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_train_one, tasks))
    else:
        results = [_train_one(t) for t in tasks]

    out_paths = []
    for seed, result in zip(seeds, results):
        path = args.out if args.runs == 1 else _run_path(args.out, seed)
        metadata = {"seed": seed, "prior": args.prior, "algorithm": args.algo,
                    **result["metadata"]}
        serialize.save_model(
            path, spec, hyper, result["params"], algorithm=args.algo,
            posterior=result.get("posterior"),
            samples=result.get("count_samples"),
            metadata=metadata,
        )
        out_paths.append(str(path))
    if args.runs > 1:
        summary = {"runs": args.runs, "seeds": seeds, "models": out_paths}
        Path(str(args.out) + ".summary.json").write_text(json.dumps(summary))
    print(f"trained {args.runs} model(s): {', '.join(out_paths)}")
    return 0


def _run_path(base: str, seed: int) -> str:
    p = Path(base)
    return str(p.with_name(f"{p.stem}.seed{seed}{p.suffix}"))


def _initial_state(model: serialize.LoadedModel, samples, init, train_corpus):
    """Predictive state over ``samples``; ``--init propagate`` continues the
    training stream as the point estimate filters it (an impossible last
    training document restarts each sample from its ``pi``)."""
    last = None
    if init == "propagate":
        if train_corpus is None:
            raise DataError("--init propagate requires --train-corpus")
        last = anomaly.filtered_belief(model.params, train_corpus)
    return anomaly.init_state(samples, last_filtered=last)


def _score_stream(model: serialize.LoadedModel, test_corpus, mode, mc_samples,
                  seed, init, train_corpus, min_words):
    # Plug-in scoring is Monte Carlo with the point estimate as the only
    # sample.  Monte Carlo samples come from the VB posterior or the stored
    # GS count samples (at most as many as were stored); plain EM models
    # carry neither.  Samples stream into the state one at a time.
    t0 = time.perf_counter()
    if mode == "plugin":
        samples = [model.params]
    elif model.posterior is not None:
        samples = vb.sample_posterior(model.posterior, mc_samples, seed)
    elif model.count_samples is not None:
        samples = itertools.islice(model.sample_params(), mc_samples)
    else:
        raise DataError("mc scoring requires a model with a posterior or samples "
                        "(train with vb or gs)")
    state = _initial_state(model, samples, init, train_corpus)
    scored, _ = anomaly.score(state, test_corpus, min_words)
    return scored, len(state.pi), time.perf_counter() - t0


def cmd_score(argv):
    parser = argparse.ArgumentParser(prog="markovtopics score")
    parser.add_argument("--config")
    parser.add_argument("--model", required=True)
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--mode", choices=["plugin", "mc"], default="plugin")
    parser.add_argument("--mc-samples", type=_positive, default=100)
    parser.add_argument("--seed", type=_non_negative, default=0)
    parser.add_argument("--init", choices=["restart", "propagate"], default="propagate")
    parser.add_argument("--train-corpus")
    parser.add_argument("--min-words", type=_non_negative, default=20)
    parser.add_argument("--out", required=True)
    args = _apply_config(argv, parser)
    model = serialize.load_model(args.model)
    test_corpus = serialize.read_corpus(args.corpus, model.spec)
    train_corpus = (serialize.read_corpus(args.train_corpus, model.spec)
                    if args.train_corpus else None)
    scored, num_samples, elapsed = _score_stream(
        model, test_corpus, args.mode, args.mc_samples, args.seed, args.init,
        train_corpus, args.min_words)
    serialize.write_scores(args.out, scored)
    per_doc = elapsed / max(len(scored), 1)
    print(f"scored {len(scored)} documents under {num_samples} parameter sample(s) "
          f"in {elapsed:.3f}s ({per_doc * 1000:.3f} ms/document)")
    return 0


def cmd_localise(argv):
    parser = argparse.ArgumentParser(prog="markovtopics localise")
    parser.add_argument("--config")
    parser.add_argument("--model", required=True)
    parser.add_argument("--corpus", required=True)
    _layout_args(parser)
    parser.add_argument("--top-n", type=_positive, default=10)
    parser.add_argument("--init", choices=["restart", "propagate"], default="restart")
    parser.add_argument("--train-corpus")
    parser.add_argument("--out", required=True)
    args = _apply_config(argv, parser)
    layout = _layout_from(args, parser)
    model = serialize.load_model(args.model)
    if layout.vocabulary_size != model.spec.num_words:
        raise DataError(f"layout vocabulary {layout.vocabulary_size} does not match "
                        f"model vocabulary {model.spec.num_words}")
    test_corpus = serialize.read_corpus(args.corpus, model.spec)
    train_corpus = (serialize.read_corpus(args.train_corpus, model.spec)
                    if args.train_corpus else None)
    state = _initial_state(model, [model.params], args.init, train_corpus)
    wll = anomaly.word_log_liks(state, test_corpus)
    offsets = test_corpus.offsets
    lines = []
    for t, doc in enumerate(test_corpus.documents):
        triples = anomaly.localise(wll[offsets[t]:offsets[t + 1]], doc, layout, args.top_n)
        lines.append(json.dumps({"index": doc.timestamp, "tokens": triples}))
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"localised {len(lines)} documents to {args.out}")
    return 0


def cmd_eval(argv):
    parser = argparse.ArgumentParser(prog="markovtopics eval")
    parser.add_argument("--config")
    parser.add_argument("--scores", action="append", required=True,
                        help="score file; repeat for multi-run aggregation")
    parser.add_argument("--labels", required=True)
    parser.add_argument("--threshold", type=float)
    parser.add_argument("--out-curve")
    args = _apply_config(argv, parser)
    labels = serialize.read_labels(args.labels)
    if labels.all() or not labels.any():
        raise DataError(f"labels file {args.labels} needs at least one 0 and one 1")
    aucs = []
    curve = None
    for path in args.scores:
        records = serialize.read_scores(path)
        if len(records) != len(labels):
            raise DataError(f"{path} has {len(records)} scores but labels file has "
                            f"{len(labels)}")
        # Unevaluated documents are normal by default: never flagged.  An
        # evaluated one without a score was impossible under the model: the
        # most anomalous.
        scores = np.asarray([r["score"] if r.get("score") is not None
                             else -np.inf if r.get("evaluated") else np.inf
                             for r in records])
        data = metrics.LabelledScores(scores=scores, labels=labels)
        curve = metrics.pr_curve(data)
        aucs.append(metrics.auc_pr(curve))
        if args.threshold is not None:
            acc = metrics.accuracy(data, args.threshold)
            print(f"{path}: pr_auc={aucs[-1]:.4f} accuracy@{args.threshold}={acc:.4f}")
        else:
            print(f"{path}: pr_auc={aucs[-1]:.4f}")
    if len(aucs) > 1:
        print(f"aggregate: mean={np.mean(aucs):.4f} min={np.min(aucs):.4f} "
              f"max={np.max(aucs):.4f} over {len(aucs)} runs")
    if args.out_curve:
        serialize.write_pr_curve(args.out_curve, curve)
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "featurize": cmd_featurize,
    "train": cmd_train,
    "score": cmd_score,
    "localise": cmd_localise,
    "eval": cmd_eval,
}


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print("usage: markovtopics {generate|featurize|train|score|localise|eval} ...")
        return 0 if argv else 2
    cmd = argv[0]
    if cmd not in _COMMANDS:
        print(f"unknown subcommand {cmd!r}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[cmd](argv[1:])
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
