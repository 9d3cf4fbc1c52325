#!/usr/bin/env python3
"""Benchmark of the ``markovtopics`` command line.

    python3 bench/run.py --workload paper_fit --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload (see ``workloads.py``) is set up several times
(``setup_s`` is the median), then its CLI steps run in process, one after
another in a closed loop, pass after pass until ``--seconds`` is used up.
Every pass's outputs are checked.  With ``--trace 1`` untraced passes
alternate with passes in which every public function of the package
records a span, and the per-layer metrics listed in ``BENCHMARK.json`` are
reported instead of the end-to-end ones (``layers.json`` says which
end-to-end step each should move).

Times are reported in seconds at the reference speed of ``speed.py``,
which takes the host's speed changes out of them; the raw wall times are
printed and recorded beside them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a report and the
environment precede it, and ``bench/out/`` receives the same data plus, for
traced runs, every span.  Exit status: 0 when every check passed, 1 when
one failed, 2 when the package cannot be imported.
"""
from __future__ import annotations

import os

# Pinned before numpy loads: one process scores one stream, and the matrix
# products here are too small to gain from BLAS threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gzip
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy

from speed import PROBE_SPAN, SpeedSampler
from tracer import SpanTable, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
PACKAGE = "markovtopics"
BENCH_SPANS = ("setup", "pass")


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": {v: os.environ[v] for v in
                                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": git_commit(ROOT),
        "workload": workload.describe(),
    }


def run_pass(workload, cli, tracer=None):
    """One pass over the workload's steps; returns each step's
    (start, end) ``perf_counter`` interval and captured stdout."""
    intervals, outputs = {}, {}
    for metric, argv in workload.steps():
        if tracer is None:
            *intervals[metric], outputs[metric] = cli(argv)
        else:
            with tracer.span(f"step.{metric}"):
                *intervals[metric], outputs[metric] = cli(argv)
    return intervals, outputs


def keep_going(start: float, rounds: int, seconds: float) -> bool:
    """Whether another round of the same length still fits in ``seconds``."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / rounds <= seconds


def measure(workload, cli, gate, seconds):
    """Untraced run: set-up repeats, then passes until time is up.

    The first pass grows the heap and fills caches; when later passes
    follow, it is left out of the statistics.  Returns the raw wall times
    and the same times normalised to the reference speed (``speed.py``),
    each as {metric: [one per repeat]}, and the last pass's quality figures.
    """
    setups, passes, quality = [], [], {}
    with SpeedSampler() as sampler:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup(cli)
            setups.append((start, time.perf_counter()))
        begin = time.perf_counter()
        while not passes or keep_going(begin, len(passes), seconds):
            intervals, outputs = run_pass(workload, cli)
            passes.append(intervals)
            quality = gate.run("pass checks", workload.check, gate, outputs) or {}
    passes = passes[1:] or passes
    raw = {"setup_s": [e - s for s, e in setups],
           "pass_s": [sum(e - s for s, e in p.values()) for p in passes]}
    norm = {"setup_s": [sampler.normalise(s, e) for s, e in setups],
            "pass_s": [sum(sampler.normalise(s, e) for s, e in p.values()) for p in passes]}
    for metric in passes[0]:
        raw[metric] = [e - s for s, e in (p[metric] for p in passes)]
        norm[metric] = [sampler.normalise(s, e) for s, e in (p[metric] for p in passes)]
    raw["probe_s"] = sampler.durations
    return raw, norm, quality


def measure_traced(workload, cli, gate, seconds, tracer):
    """Traced run: one traced set-up, then untraced and traced passes in
    pairs, so the overhead ratio compares like with like.  Returns the
    (untraced, traced) pass times and each step's untraced and traced
    times, all at the reference speed."""
    with SpeedSampler(span=tracer.span) as sampler:
        workload.setup(cli)
        with tracer.installed(), tracer.span("setup"):
            workload.setup(cli)
        passes = []
        begin = time.perf_counter()
        while not passes or keep_going(begin, len(passes), seconds):
            untraced, outputs = run_pass(workload, cli)
            gate.run("pass checks", workload.check, gate, outputs)
            with tracer.installed(), tracer.span("pass"):
                traced, outputs = run_pass(workload, cli, tracer)
            gate.run("pass checks", workload.check, gate, outputs)
            passes.append((untraced, traced))
    norm = [tuple({m: sampler.normalise(s, e) for m, (s, e) in p.items()} for p in pair)
            for pair in passes]
    pairs = [(sum(u.values()), sum(t.values())) for u, t in norm]
    steps = {m: ([u[m] for u, _ in norm], [t[m] for _, t in norm]) for m in norm[0][0]}
    return pairs, steps, sampler


def speed_factors(table, sampler) -> list[float]:
    """Per span, the reference-speed factor (``SpeedSampler.speed``) of the
    step or set-up span it ran in, so that self times of runs made at
    different machine speeds compare."""
    factors = [1.0] * len(table.spans)
    for i, (name, start, end, parent) in enumerate(table.spans):
        if name.startswith("step.") or (parent < 0 and name == "setup"):
            factors[i] = sampler.speed(start, end)
        elif parent >= 0:
            factors[i] = factors[parent]
    return factors


def is_layer(name: str) -> bool:
    """A span of the package, not one the benchmark opened."""
    return not (name in BENCH_SPANS or name == PROBE_SPAN or name.startswith("step."))


def layer_metrics(spec: list[dict], layers: dict, table, factors, pairs, workload,
                  known: set[str]):
    """Per-layer values over the traced passes (per pass) or the traced
    set-up, as ``layers.json`` assigns each metric; times at the reference
    speed.  A metric of a function the package does not have reads 0 and is
    listed as absent."""
    def self_s(i):
        return table.self_time[i] * factors[i]

    roots = {phase: {i for i, s in enumerate(table.spans) if s[3] < 0 and s[0] == phase}
             for phase in BENCH_SPANS}
    passes = max(len(roots["pass"]), 1)

    def under(name, ancestors, phase="pass"):
        return [i for i in table.select(name, roots[phase])
                if any(table.has_ancestor(i, a) for a in ancestors)]

    in_pass = [i for i in range(len(table.spans)) if table.root[i] in roots["pass"]]
    layer_self = sum(table.self_time[i] for i in in_pass if is_layer(table.spans[i][0]))
    traced_wall = (sum(table.duration[i] for i in roots["pass"])
                   - sum(table.duration[i] for i in table.select(PROBE_SPAN, roots["pass"])))
    fits = len(table.select("em.em_fit", roots["pass"]) + table.select("vb.vb_fit", roots["pass"]))
    sweeps = table.select("gibbs.gibbs_sweep", roots["pass"])
    special = {
        "trace.overhead_ratio": lambda: statistics.median(t / u for u, t in pairs),
        "trace.accounted_ratio": lambda: layer_self / traced_wall,
        "inference.messages.calls_per_fit": lambda: (
            len(under("inference.messages", ("em.em_fit", "vb.vb_fit"))) / fits if fits else 0.0),
        "anomaly.filtered_belief.backward_calls": lambda: (
            len(under("inference.backward", ("anomaly.filtered_belief",))) / passes),
        "inference.word_mixture_logs.calls_per_localised_doc": lambda: (
            len(under("inference.word_mixture_logs", ("cli.cmd_localise",)))
            / (passes * workload.localised_docs) if workload.localised_docs else 0.0),
        "gibbs.us_per_token_sweep": lambda: (
            1e6 * sum(self_s(i) for i in sweeps) / (len(sweeps) * workload.gibbs_tokens)
            if sweeps else 0.0),
    }
    metrics, absent = {}, []
    for entry in spec:
        name = entry["name"]
        if name in special:
            value = special[name]()
        else:
            phase = layers.get(name, {}).get("phase", "pass")
            path, stat = name.rsplit(".", 1)
            if path not in known:
                absent.append(name)
            idx = table.select(path, roots[phase])
            count = max(len(roots[phase]), 1)
            if stat == "self_s":
                value = sum(self_s(i) for i in idx) / count
            elif stat == "calls":
                value = len(idx) / count
            elif stat in ("p50_ms", "p99_ms"):
                q = 50 if stat == "p50_ms" else 99
                durations = [table.duration[i] * factors[i] for i in idx]
                value = float(np.percentile(durations, q)) * 1e3 if idx else 0.0
            else:
                raise ValueError(f"unknown per-layer metric {name}")
        metrics[name] = {"value": float(value), "unit": entry["unit"]}
    return metrics, absent


def step_accounting(table, factors, steps) -> list[str]:
    """Per step: untraced and traced times, and the package's self times
    inside the traced step, summed and largest first; all at the reference
    speed."""
    children = defaultdict(list)
    by_step = defaultdict(list)
    for i, (name, _, _, parent) in enumerate(table.spans):
        if parent >= 0:
            children[parent].append(i)
        if name.startswith("step."):
            by_step[name[5:]].append(i)
    lines = []
    for metric, ids in by_step.items():
        layer_self, wall = defaultdict(float), 0.0
        for step in ids:
            wall += table.duration[step] * factors[step]
            stack = list(children[step])
            while stack:
                i = stack.pop()
                name = table.spans[i][0]
                if name == PROBE_SPAN:
                    wall -= table.duration[i] * factors[i]
                else:
                    layer_self[name] += table.self_time[i] * factors[i]
                    stack.extend(children[i])
        n = len(ids)
        untraced, traced = (statistics.median(v) for v in steps[metric])
        top = sorted(layer_self.items(), key=lambda kv: -kv[1])[:6]
        lines.append(
            f"  {metric}: untraced {untraced:.4f} s, traced {traced:.4f} s "
            f"(x{traced / untraced:.3f}); layer self times sum to "
            f"{sum(layer_self.values()) / n:.4f} s ({sum(layer_self.values()) / wall:.4f} of "
            f"the traced step); top: " + ", ".join(f"{k} {v / n:.4f}" for k, v in top))
    return lines


def write_spans(path: Path, spans) -> None:
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    with gzip.open(path, "wt", compresslevel=1) as fh:
        json.dump({"fields": ["name", "start_s", "end_s", "parent"], "names": names,
                   "spans": [[index[n], s, e, p] for n, s, e, p in spans]}, fh)


def summary(values: list[float]) -> str:
    return (f"median {statistics.median(values):.6g} min {min(values):.6g} "
            f"max {max(values):.6g} n={len(values)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        from markovtopics import cli as cli_module
        import workloads
    except ImportError as exc:
        print(f"cannot import {PACKAGE} from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(cli_module.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"{PACKAGE} was imported from {cli_module.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(workloads.WORKLOADS)}")

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = {e["name"]: e for e in json.loads((HERE / "layers.json").read_text())["layers"]}
    out_dir = HERE / "out"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    gate = workloads.Gate()
    cli = workloads.Cli(cli_module, gate)
    workload = workloads.WORKLOADS[args.workload](args.seed, work)
    env = environment(workload)
    report = [f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}",
              "environment: " + json.dumps(env)]
    record = {"environment": env}
    try:
        if args.trace:
            tracer = Tracer(PACKAGE)
            pairs, steps, sampler = measure_traced(workload, cli, gate, args.seconds, tracer)
            table = SpanTable(tracer.spans)
            factors = speed_factors(table, sampler)
            metrics, absent = layer_metrics(config["per_layer"], layers, table, factors, pairs,
                                            workload, tracer.names)
            report.append(f"absent at this commit: {', '.join(absent) or 'none'}")
            report.append(f"{len(pairs)} untraced/traced pass pairs; per step, at the "
                          f"reference speed:")
            report += step_accounting(table, factors, steps)
            write_spans(out_dir / f"{tag}-spans.json.gz", tracer.spans)
            record["pass_pairs_s"] = pairs
            record["absent"] = absent
        else:
            raw, norm, quality = measure(workload, cli, gate, args.seconds)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            values = {"setup_s": statistics.median(norm["setup_s"]),
                      "pass_s": statistics.median(norm["pass_s"]),
                      "peak_rss_mb": peak_mb}
            metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]}
                       for e in config["end_to_end"]}
            report.append("times at the reference speed (raw wall time in brackets):")
            report += [f"  {name} [s]: {summary(v)} (raw {summary(raw[name])})"
                       for name, v in norm.items()]
            report.append(f"  speed probe [s]: {summary(raw['probe_s'])}")
            report += [f"  {name} [1]: {v:.6f} (last pass)" for name, v in quality.items()]
            report.append(f"  peak_rss_mb [MB]: {peak_mb:.1f} (whole process)")
            record.update(raw_s=raw, reference_speed_s=norm, quality=quality)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(gate.failures)
    report.append(f"  failure_rate [failed/attempted]: {failed}/{gate.attempted} = "
                  f"{failed / max(gate.attempted, 1):.4f}")
    result = {"correct": failed == 0, "attempted": gate.attempted, "failed": failed,
              "metrics": metrics}
    record.update(result, failures=gate.failures)
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print("\n".join(report))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
