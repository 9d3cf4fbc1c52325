"""Synthetic data generation following the model's generative process.

Also serves as the ground-truth oracle for parameter-recovery tests: the
sampled parameters and hidden assignments are returned alongside the corpus.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .model import Corpus, Hyperparams, ModelParams, ModelSpec, random_init

# Sub-stream labels for the splittable seeded RNG.  Parameter draws and token
# draws come from independent streams so that a dataset can be replayed from
# its parameters alone.
_STREAM_LABELS = {"params": 0x9e3779b9, "tokens": 0x85ebca6b}
#: Tokens per ``rng.random`` call of :func:`generate_from`, in whole documents;
#: blocks of 2**17 tokens or more raised the peak memory of paper-scale corpora.
_BLOCK_TOKENS = 2**14


def _stream(seed: int, label: str) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAM_LABELS[label]])


@dataclass
class GeneratedDataset:
    """A synthetic corpus plus the ground truth that produced it."""

    corpus: Corpus
    true_params: ModelParams
    true_topics: list[np.ndarray]  # per-document token topic assignments
    true_behaviours: np.ndarray  # per-document behaviour assignments


def generate_from(params: ModelParams, num_docs: int, doc_lengths: list[int],
                  seed: int) -> GeneratedDataset:
    """Run the generative chain with the supplied parameters.

    The behaviour of document 1 is drawn from ``pi``, later behaviours from
    the transition column of the previous behaviour; each token draws a topic
    from the behaviour's topic column and a word from the topic's word column.

    A document of ``n`` tokens takes ``1 + 2n`` uniforms: the behaviour's,
    the ``n`` topic and the ``n`` word uniforms, the stream of one draw per
    variable.  Each double is one 64-bit output, so one ``rng.random`` call
    for several documents continues the stream as a call per document would.
    A call covers a block of about ``_BLOCK_TOKENS`` tokens: one call for the
    whole corpus would hold all its uniforms at once and raise peak memory.
    """
    if len(doc_lengths) != num_docs:
        raise ValueError("doc_lengths must have num_docs entries")
    if any(n <= 0 for n in doc_lengths):
        raise ValueError("zero-length documents are not allowed")
    spec = params.spec
    rng = _stream(seed, "tokens")

    # columns[0] is pi's cumulative column, columns[z + 1] that of xi from z.
    columns = [np.cumsum(params.pi).tolist(), *np.cumsum(params.xi, axis=0).T.tolist()]
    cum_theta = np.cumsum(params.theta, axis=0)
    cum_phi = np.cumsum(params.phi, axis=0)

    offsets = np.cumsum([0, *doc_lengths], dtype=np.int64)
    bounds = offsets.tolist()
    topics = np.empty(bounds[-1], dtype=np.int64)
    words = np.empty_like(topics)
    behaviours = np.empty(num_docs, dtype=np.int64)
    cuts = [*np.unique(offsets[:-1] // _BLOCK_TOKENS, return_index=True)[1].tolist(), num_docs]
    z = -1
    for d0, d1 in zip(cuts, cuts[1:]):
        n = np.diff(offsets[d0:d1 + 1])
        kind = np.repeat(np.tile(np.arange(3, dtype=np.int8), d1 - d0),
                         np.column_stack([np.ones_like(n), n, n]).ravel())
        u = rng.random(len(kind))
        chain = [z := min(bisect_right(columns[z + 1], v), spec.num_behaviours - 1)
                 for v in u[kind == 0].tolist()]
        behaviours[d0:d1] = chain
        ys, xs = topics[bounds[d0]:bounds[d1]], words[bounds[d0]:bounds[d1]]
        z_tokens, u_topic, u_word = np.repeat(chain, n), u[kind == 1], u[kind == 2]
        for k in set(chain):
            at = np.flatnonzero(z_tokens == k)
            ys[at] = np.searchsorted(cum_theta[:, k], u_topic[at], side="right")
        np.clip(ys, 0, spec.num_topics - 1, out=ys)
        for y in range(spec.num_topics):
            at = np.flatnonzero(ys == y)
            xs[at] = np.searchsorted(cum_phi[:, y], u_word[at], side="right")
    np.clip(words, 0, spec.num_words - 1, out=words)
    return GeneratedDataset(corpus=Corpus(words, offsets, spec), true_params=params,
                            true_topics=[topics[a:b] for a, b in zip(bounds, bounds[1:])],
                            true_behaviours=behaviours)


def generate(spec: ModelSpec, hyper: Hyperparams, num_docs: int,
             doc_lengths: list[int], seed: int) -> GeneratedDataset:
    """Draw parameters from their priors, then generate a corpus from them.

    Uses independent sub-streams of ``seed`` for the parameter and token
    draws, so ``generate_from`` with the returned parameters and the same
    seed replays the identical corpus.
    """
    params = random_init(spec, hyper, _stream(seed, "params"))
    return generate_from(params, num_docs, doc_lengths, seed)
