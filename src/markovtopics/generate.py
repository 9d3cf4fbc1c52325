"""Synthetic data generation following the model's generative process.

Also serves as the ground-truth oracle for parameter-recovery tests: the
sampled parameters and hidden assignments are returned alongside the corpus.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Corpus, Hyperparams, ModelParams, ModelSpec, random_init

# Sub-stream labels for the splittable seeded RNG.  Parameter draws and token
# draws come from independent streams so that a dataset can be replayed from
# its parameters alone.
_STREAM_LABELS = {"params": 0x9e3779b9, "tokens": 0x85ebca6b}


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

    Per document one call draws ``1 + 2n`` uniforms: the behaviour's, then
    the ``n`` topic uniforms, then the ``n`` word uniforms, which is the
    stream of a draw per variable in that order.  Behaviours and topics are
    picked as the chain goes; the words of the whole corpus are picked after
    it, with one search per topic over that topic's tokens.
    """
    if len(doc_lengths) != num_docs:
        raise ValueError("doc_lengths must have num_docs entries")
    if any(n <= 0 for n in doc_lengths):
        raise ValueError("zero-length documents are not allowed")
    spec = params.spec
    rng = _stream(seed, "tokens")

    cum_pi = np.cumsum(params.pi)
    cum_xi = np.cumsum(params.xi, axis=0)
    cum_theta = np.cumsum(params.theta, axis=0)
    cum_phi = np.cumsum(params.phi, axis=0)

    offsets = np.cumsum([0, *doc_lengths], dtype=np.int64)
    bounds = offsets.tolist()
    spans = list(zip(bounds, bounds[1:]))
    topics = np.empty(bounds[-1], dtype=np.int64)
    u_word = np.empty(bounds[-1])
    behaviours = np.empty(num_docs, dtype=np.int64)
    cum_z = cum_pi
    for t, (a, b) in enumerate(spans):
        u = rng.random(1 + 2 * (b - a))
        z = int(np.searchsorted(cum_z, u[0], side="right").clip(0, spec.num_behaviours - 1))
        behaviours[t] = z
        cum_z = cum_xi[:, z]
        topics[a:b] = np.searchsorted(cum_theta[:, z], u[1:1 + b - a], side="right")
        u_word[a:b] = u[1 + b - a:]
    np.clip(topics, 0, spec.num_topics - 1, out=topics)
    words = np.empty_like(topics)
    for y in range(spec.num_topics):
        at = np.flatnonzero(topics == y)
        words[at] = np.searchsorted(cum_phi[:, y], u_word[at], side="right")
    np.clip(words, 0, spec.num_words - 1, out=words)
    return GeneratedDataset(corpus=Corpus(words, offsets, spec), true_params=params,
                            true_topics=[topics[a:b] for a, b in spans],
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
