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

The scorer's update stays in the log domain, operation for operation the
per-document reference it is tested against at 1e-12 relative error: log
likelihoods within rounding of 0 (a one-word vocabulary) meet that bound no
other way.  The training stream that a scored stream continues needs only
its last filtered posterior, and :func:`filtered_belief` runs it through
the cheaper scaled recursion, with the same restarts.
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

_TINY = np.finfo(float).tiny


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


def filtered_belief(params: ModelParams, corpus: Corpus) -> np.ndarray | None:
    """Filtered behaviour posterior after the last training document, or
    None when the stream restarts after it: that document is impossible
    under ``params``, or there is none.

    The training stream is filtered from ``params.pi`` as :func:`score`
    filters a stream: a document impossible under the belief before it
    restarts the belief from ``params.pi``.  The recursion is the scaled
    forward pass (Rabiner 1989) on the emissions, exponentiated once after
    shifting each document's emission logs by their maximum.  An update
    whose normaliser is zero or subnormal (the shifted emissions underflowed
    under the belief) is redone in the log domain.
    """
    log_emit = inference.emission_logs(params, corpus).T  # (T, Z)
    shift = log_emit.max(axis=1, keepdims=True)
    shift[~np.isfinite(shift)] = 0.0
    emit = np.exp(log_emit - shift)
    xi, pi = params.xi, params.pi
    belief, post = pi, None
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(len(corpus)):
            a = emit[t] * belief
            c = a.sum()
            if c >= _TINY:
                post = a / c
            else:
                joint = log_emit[t] + np.log(belief)
                log_lik = _lse(joint, axis=0)
                if log_lik == -np.inf:
                    belief, post = pi, None
                    continue
                post = np.exp(joint - log_lik)
            belief = xi @ post
    return post


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
            # NaN for a sample under whose belief the document is impossible.
            lik = m + np.log(np.exp(joint - m).sum(axis=1, keepdims=True))
            belief = np.einsum("sij,sj->si", xi, np.exp(joint - lik))
            belief /= belief.sum(axis=1, keepdims=True)
            per_sample[t] = lik[:, 0]
            if not np.isfinite(lik).all():
                impossible = np.isnan(per_sample[t])
                per_sample[t, impossible] = -np.inf
                belief[impossible] = pi[impossible]
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
