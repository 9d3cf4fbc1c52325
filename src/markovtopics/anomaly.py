"""Online scoring of test documents by predictive marginal likelihood.

All scores are kept in the log domain; the per-document normality measure
(likelihood divided by length) is represented as log likelihood minus log
length, a strictly monotone transform that leaves thresholds and
precision-recall curves unaffected.

There is one scorer, and it takes a whole stream.  The predictive state
holds S parameter samples and carries, per sample, the behaviour belief for
the *upcoming* document, i.e. p(z_next | history, sample).  A document's
emission does not depend on the belief, so every emission under every
sample comes first, one sparse product with the doc-term matrix per sample.
One loop over the documents then multiplies each emission into the belief,
normalises (the normaliser is exactly the per-sample document likelihood)
and propagates one step through each sample's transition matrix; the
reported likelihood is the mean over samples.  Plug-in scoring with a point
estimate is the case S = 1.  Scoring a stream in consecutive chunks gives
the same result as one call.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from . import inference
from .inference import _lse
from .ingest import decode_word
from .model import Corpus, Document, ModelParams

#: Documents shorter than this are not evaluated and count as normal.
MIN_SCORABLE_WORDS = 20


@dataclass
class PredictiveState:
    """Parameter samples and each sample's belief over the next document's
    behaviour given the history."""

    log_mix: list[np.ndarray]  # S arrays (num_words, num_behaviours)
    xi: np.ndarray  # (S, Z, Z); xi[s, z_new, z_old]
    pi: np.ndarray  # (S, Z)
    behaviour_belief: np.ndarray  # (S, Z)
    last_doc_index: int = 0


@dataclass
class ScoredDocument:
    """Per-document scoring record."""

    index: int
    length: int
    log_lik: float
    score: float | None
    evaluated: bool = True


def init_state(samples: Iterable[ModelParams], last_filtered: np.ndarray | None = None,
               ) -> PredictiveState:
    """Initial predictive state for a test stream scored under ``samples``.

    Default: each sample's initial behaviour distribution, as if the stream
    restarted.  With ``last_filtered`` (the filtered belief of the last
    training document), each sample's belief is that vector propagated one
    step through its transition matrix, which makes test scoring the exact
    continuation of the training stream.

    ``samples`` is read once, and each sample is dropped before the next is
    requested, so the state holds no ``phi``: only S (X, Z) word mixture
    logs, kept as one array per sample so a process can reuse its heap.
    """
    xi, pi, log_mix = [], [], []
    for p in samples:
        xi.append(p.xi)
        pi.append(p.pi)
        log_mix.append(inference.word_mixture_logs(p))
        del p
    xi, pi = np.stack(xi), np.stack(pi)
    if last_filtered is None:
        belief = pi.copy()
    else:
        belief = xi @ np.asarray(last_filtered, dtype=float)
        belief /= belief.sum(axis=1, keepdims=True)
    return PredictiveState(log_mix=log_mix, xi=xi, pi=pi, behaviour_belief=belief)


def filtered_belief(params: ModelParams, corpus: Corpus) -> np.ndarray:
    """Filtered behaviour posterior after the last training document."""
    la = inference.forward(params, corpus)[:, -1]
    b = np.exp(la - _lse(la, axis=0))
    return b / b.sum()


def normalise_score(log_lik: float, length: int) -> float:
    """Log of the length-normalised likelihood."""
    if length < 1:
        raise ValueError("length must be >= 1")
    return log_lik - np.log(length)


def _filter(state: PredictiveState, corpus: Corpus,
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the recursive Bayes update of every sample over ``corpus``.

    Returns each document's log likelihood under each sample (T, S), each
    sample's log belief before each document (T, S, Z), and the belief for
    the document after the last one (S, Z).  A sample under which a
    document is impossible restarts from its own initial distribution.
    """
    num_samples, num_behaviours = state.behaviour_belief.shape
    block = np.empty((len(corpus), num_samples, num_behaviours))
    for s, log_mix in enumerate(state.log_mix):
        block[:, s, :] = inference.emission_logs(None, corpus, log_mix=log_mix).T
    per_sample = np.empty((len(corpus), num_samples))
    xi, pi = state.xi, state.pi
    belief = state.behaviour_belief
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(len(corpus)):
            log_belief = np.log(belief)
            joint = block[t] + log_belief
            # The emission is read once; its slot keeps the log belief.
            block[t] = log_belief
            m = joint.max(axis=1, keepdims=True)
            m[~np.isfinite(m)] = 0.0
            lik = m[:, 0] + np.log(np.exp(joint - m).sum(axis=1))
            belief = np.einsum("sij,sj->si", xi, np.exp(joint - lik[:, None]))
            belief /= belief.sum(axis=1, keepdims=True)
            impossible = ~np.isfinite(lik)
            if impossible.any():
                belief[impossible] = pi[impossible]
            per_sample[t] = lik
    return per_sample, block, belief


def score(state: PredictiveState, corpus: Corpus, min_words: int = MIN_SCORABLE_WORDS,
          ) -> tuple[list[ScoredDocument], PredictiveState]:
    """Score the documents of ``corpus`` in order and advance the state past
    them.

    Record indices continue from ``state.last_doc_index``.  Documents with
    fewer than ``min_words`` words, and empty documents, still update the
    state but are flagged as not evaluated (normal by default).
    """
    per_sample, _, belief = _filter(state, corpus)
    log_liks = _lse(per_sample, axis=1) - np.log(per_sample.shape[1])
    first = state.last_doc_index
    scored = []
    for t, (doc, log_lik) in enumerate(zip(corpus.documents, log_liks.tolist())):
        n = len(doc)
        evaluated = n >= max(min_words, 1)
        scored.append(ScoredDocument(
            index=first + t + 1,
            length=n,
            log_lik=log_lik,
            score=normalise_score(log_lik, n) if evaluated else None,
            evaluated=evaluated,
        ))
    return scored, replace(state, behaviour_belief=belief,
                           last_doc_index=first + len(corpus))


def word_log_liks(state: PredictiveState, corpus: Corpus) -> np.ndarray:
    """Per-token log marginal likelihoods, aligned with ``corpus.tokens``.

    Each token is scored under the beliefs before its document, as the
    stream is filtered from ``state``, and averaged over the samples.
    """
    _, log_beliefs, _ = _filter(state, corpus)
    lengths = np.diff(corpus.offsets)
    per_sample = np.array([
        _lse(log_mix[corpus.tokens] + np.repeat(log_beliefs[:, s], lengths, axis=0), axis=1)
        for s, log_mix in enumerate(state.log_mix)])  # (S, N)
    return _lse(per_sample, axis=0) - np.log(len(per_sample))


def localise(word_lls: np.ndarray, doc: Document, layout, top_n: int,
             ) -> list[tuple[int, int, int, str]]:
    """The ``top_n`` least likely tokens decoded to frame positions.

    Returns (token index, cell x, cell y, direction) tuples sorted by
    ascending likelihood; ties keep token order.  ``top_n`` larger than the
    document clamps.
    """
    if top_n <= 0:
        raise ValueError("top_n must be positive")
    top_n = min(top_n, len(doc))
    order = np.argsort(word_lls, kind="stable")[:top_n]
    return [(int(i), *decode_word(layout, int(doc.words[i]))) for i in order]
