"""Online scoring of test documents by predictive marginal likelihood.

All scores are kept in the log domain; the per-document normality measure
(likelihood divided by length) is represented as log likelihood minus log
length, a strictly monotone transform that leaves thresholds and
precision-recall curves unaffected.

There is one scorer.  The predictive state holds S parameter samples and
carries, per sample, the behaviour belief for the *upcoming* document, i.e.
p(z_next | history, sample).  Scoring a document multiplies in its
emission, normalises (the normaliser is exactly the per-sample document
likelihood) and propagates one step through that sample's transition
matrix; the reported likelihood is the mean over samples.  Plug-in scoring
with a point estimate is the case S = 1.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import inference
from .inference import _lse
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


def init_state(samples: list[ModelParams], last_filtered: np.ndarray | None = None,
               ) -> PredictiveState:
    """Initial predictive state for a test stream scored under ``samples``.

    Default: each sample's initial behaviour distribution, as if the stream
    restarted.  With ``last_filtered`` (the filtered belief of the last
    training document), each sample's belief is that vector propagated one
    step through its transition matrix, which makes test scoring the exact
    continuation of the training stream.
    """
    xi = np.stack([p.xi for p in samples])
    pi = np.stack([p.pi for p in samples])
    if last_filtered is None:
        belief = pi.copy()
    else:
        belief = xi @ np.asarray(last_filtered, dtype=float)
        belief /= belief.sum(axis=1, keepdims=True)
    # One array per sample, not one stacked (S, X, Z) block: small arrays reuse
    # heap memory a long-running process already holds, while a block of 20 MB
    # (100 samples at paper scale) needs fresh pages and raises its peak RSS.
    log_mix = [inference.word_mixture_logs(p) for p in samples]
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


def score(state: PredictiveState, doc: Document, min_words: int = MIN_SCORABLE_WORDS,
          ) -> tuple[ScoredDocument, PredictiveState]:
    """Score one document and advance the state by it.

    Per sample, the document log likelihood mixes the per-behaviour emission
    over that sample's belief; the recursive Bayes update divides by that
    same likelihood and propagates through the sample's transition matrix.
    A sample under which the document is impossible restarts from its own
    initial distribution.  The reported log likelihood is the log mean of
    the per-sample likelihoods.  Documents shorter than ``min_words`` still
    update the state but are flagged as not evaluated (normal by default).
    """
    loge = np.array([lm[doc.words].sum(axis=0) for lm in state.log_mix])  # (S, Z)
    with np.errstate(divide="ignore", invalid="ignore"):
        joint = loge + np.log(state.behaviour_belief)
        per_sample = _lse(joint, axis=1)  # (S,)
        filtered = np.exp(joint - per_sample[:, None])
        belief = np.einsum("sij,sj->si", state.xi, filtered)
        belief /= belief.sum(axis=1, keepdims=True)
    belief = np.where(np.isfinite(per_sample)[:, None], belief, state.pi)
    log_lik = float(_lse(per_sample, axis=0) - np.log(len(per_sample)))
    new_state = replace(state, behaviour_belief=belief,
                        last_doc_index=state.last_doc_index + 1)

    n = len(doc)
    evaluated = n >= min_words
    scored = ScoredDocument(
        index=new_state.last_doc_index,
        length=n,
        log_lik=log_lik,
        score=normalise_score(log_lik, n) if evaluated else None,
        evaluated=evaluated,
    )
    return scored, new_state


def word_log_liks(state: PredictiveState, doc: Document) -> np.ndarray:
    """Per-token log marginal likelihoods under the current beliefs,
    averaged over the state's samples."""
    with np.errstate(divide="ignore"):
        log_belief = np.log(state.behaviour_belief)
    tokens = np.array([lm[doc.words] for lm in state.log_mix])  # (S, N, Z)
    per_sample = _lse(tokens + log_belief[:, None, :], axis=2)
    return _lse(per_sample, axis=0) - np.log(len(per_sample))


def localise(word_lls: np.ndarray, doc: Document, layout, top_n: int,
             ) -> list[tuple[int, int, int, str]]:
    """The ``top_n`` least likely tokens decoded to frame positions.

    Returns (token index, cell x, cell y, direction) tuples sorted by
    ascending likelihood; ties keep token order.  ``top_n`` larger than the
    document clamps.
    """
    from .ingest import decode_word  # local import to avoid a cycle

    if top_n <= 0:
        raise ValueError("top_n must be positive")
    top_n = min(top_n, len(doc))
    order = np.argsort(word_lls, kind="stable")[:top_n]
    out = []
    for i in order:
        cx, cy, direction = decode_word(layout, int(doc.words[i]))
        out.append((int(i), cx, cy, direction))
    return out
