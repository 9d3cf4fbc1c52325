"""Synthetic data generation following the model's generative process.

Also serves as the ground-truth oracle for parameter-recovery tests: the
sampled parameters and hidden assignments are returned alongside the corpus.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .model import Corpus, Hyperparams, ModelParams, ModelSpec, _columns, _shapes, random_init

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
    Each block refills one buffer, and ``sample_chain`` of ``_kernels.c``, or
    its copy :func:`_chain_in_python`, walks the chain over it.

    A parameter array of the wrong shape, or with a negative or non-finite
    entry, raises ValueError before any draw; columns that sum to less than
    1 are allowed, and a uniform past a column's sum draws its last entry.
    """
    if len(doc_lengths) != num_docs:
        raise ValueError("doc_lengths must have num_docs entries")
    if min(doc_lengths, default=1) <= 0:
        raise ValueError("zero-length documents are not allowed")
    spec = params.spec
    X, Y, Z = spec.num_words, spec.num_topics, spec.num_behaviours
    for name, col, shape in zip(("phi", "theta", "xi", "pi"), _columns(params), _shapes(spec)):
        if col.shape != shape:
            raise ValueError(f"the shape of {name} does not match {spec}")
        if not np.all((col >= 0) & (col < np.inf)):
            raise ValueError(f"{name} holds a negative or non-finite entry")
    rng = _stream(seed, "tokens")

    # cum_z[0] is pi's cumulative column, cum_z[z + 1] that of xi from z; a
    # row of cum_theta or cum_phi is the cumulative column of one behaviour
    # or topic.  guide[y, j] counts the words of topic y whose cell,
    # min(floor(X * cum_phi[y, x]), X - 1), is below j.
    cum_z, cum_theta, cum_phi = (np.ascontiguousarray(np.cumsum(m, axis=0).T) for m in (
        np.column_stack([params.pi, params.xi]), params.theta, params.phi))
    cells = np.minimum(cum_phi * X, X - 1).astype(np.int64) + X * np.arange(Y)[:, None]
    guide = np.zeros((Y, X + 1), dtype=np.int64)
    np.cumsum(np.bincount(cells.ravel(), minlength=Y * X).reshape(Y, X), axis=1, out=guide[:, 1:])

    offsets = np.cumsum([0, *doc_lengths], dtype=np.int64)
    topics = np.empty(offsets[-1], dtype=np.int64)
    words = np.empty_like(topics)
    behaviours = np.empty(num_docs, dtype=np.int64)
    cuts = np.append(np.unique(offsets[:-1] // _BLOCK_TOKENS, return_index=True)[1], num_docs)
    sizes = np.diff(cuts) + 2 * np.diff(offsets[cuts])  # uniforms per block
    span, uniforms = np.empty(2, dtype=np.int64), np.empty(sizes.max(initial=0))
    sample = _kernels.bind("sample_chain", _chain_in_python, Y, Z, X, span, offsets, uniforms,
                           cum_z, cum_theta, cum_phi, guide, behaviours, topics, words)
    for d0, d1, size in zip(cuts.tolist(), cuts[1:].tolist(), sizes.tolist()):
        span[:] = d0, d1
        rng.random(out=uniforms[:size])
        sample()
    bounds = offsets.tolist()
    return GeneratedDataset(corpus=Corpus(words, offsets, spec), true_params=params,
                            true_topics=[topics[a:b] for a, b in zip(bounds, bounds[1:])],
                            true_behaviours=behaviours)


def _chain_in_python(num_topics: int, num_behaviours: int, num_words: int, span: np.ndarray,
                     offsets: np.ndarray, uniforms: np.ndarray, cum_z: np.ndarray,
                     cum_theta: np.ndarray, cum_phi: np.ndarray, guide: np.ndarray,
                     behaviours: np.ndarray, topics: np.ndarray, words: np.ndarray) -> None:
    """The copy of ``sample_chain`` in ``_kernels.c``: the chain over
    documents ``span[0]`` to ``span[1] - 1``, from the behaviour before them
    and their uniforms at the start of ``uniforms``.  The behaviour chain is
    walked with ``bisect_right``, topics are searched once per behaviour and
    words once per topic by ``searchsorted``, which needs no ``guide``."""
    d0, d1 = span.tolist()
    n = np.diff(offsets[d0:d1 + 1])
    kind = np.repeat(np.tile(np.arange(3, dtype=np.int8), d1 - d0),
                     np.column_stack([np.ones_like(n), n, n]).ravel())
    u, columns = uniforms[:len(kind)], cum_z.tolist()
    z = int(behaviours[d0 - 1]) if d0 else -1
    chain = [z := min(bisect_right(columns[z + 1], v), num_behaviours - 1)
             for v in u[kind == 0].tolist()]
    behaviours[d0:d1] = chain
    ys, xs = topics[offsets[d0]:offsets[d1]], words[offsets[d0]:offsets[d1]]
    z_tokens, u_topic, u_word = np.repeat(chain, n), u[kind == 1], u[kind == 2]
    for k in set(chain):
        at = np.flatnonzero(z_tokens == k)
        ys[at] = np.searchsorted(cum_theta[k], u_topic[at], side="right")
    np.clip(ys, 0, num_topics - 1, out=ys)
    for y in range(num_topics):
        at = np.flatnonzero(ys == y)
        xs[at] = np.searchsorted(cum_phi[y], u_word[at], side="right")
    np.clip(xs, 0, num_words - 1, out=xs)


def generate(spec: ModelSpec, hyper: Hyperparams, num_docs: int,
             doc_lengths: list[int], seed: int) -> GeneratedDataset:
    """Draw parameters from their priors, then generate a corpus from them.

    Uses independent sub-streams of ``seed`` for the parameter and token
    draws, so ``generate_from`` with the returned parameters and the same
    seed replays the identical corpus.
    """
    params = random_init(spec, hyper, _stream(seed, "params"))
    return generate_from(params, num_docs, doc_lengths, seed)
