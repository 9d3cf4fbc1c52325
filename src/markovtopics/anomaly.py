"""Online scoring of test documents by predictive marginal likelihood.

All scores are kept in the log domain; the per-document normality measure
(likelihood divided by length) that ``serialize.write_scores`` writes is log
likelihood minus log length, a strictly monotone transform that leaves
thresholds and precision-recall curves unaffected.

There is one scorer, and it takes a whole stream.  The predictive state
holds S parameter samples and carries, per sample, the behaviour belief for
the *upcoming* document, i.e. p(z_next | history, sample).  Every sample's
chain is filtered from that belief by one call of the fit's forward
recursion, ``inference.forward``: it gives each document's likelihood under
each sample and the belief before it, in the log domain, so a behaviour
whose belief fell far below the others can revive, and the belief after the
last document.  The reported likelihood is the mean over the samples.
Plug-in scoring with a point estimate is the case S = 1.  Scoring a stream
in consecutive chunks gives the bytes of one call while no belief entry
carried between chunks is below 1e-280.
:func:`filtered_belief` gives the last filtered posterior of a training
stream by the same recursion.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from . import inference
from .inference import _lse
from .ingest import decode_words
from .model import Corpus, ModelParams


@dataclass
class PredictiveState:
    """Parameter samples and each sample's belief over the next document's
    behaviour given the history."""

    log_mix: list[np.ndarray]  # S arrays (num_words, num_behaviours)
    xi: np.ndarray  # (S, Z, Z); xi[s, z_new, z_old]
    pi: np.ndarray  # (S, Z)
    behaviour_belief: np.ndarray  # (S, Z)


def init_state(samples: Iterable[ModelParams], last_filtered: np.ndarray | None = None,
               ) -> PredictiveState:
    """Initial predictive state for a test stream scored under ``samples``.

    Default: each sample's initial behaviour distribution, as if the stream
    restarted.  With ``last_filtered`` (the filtered belief of the last
    training document), each sample's belief is that vector propagated one
    step through its transition matrix, which makes test scoring the exact
    continuation of the training stream.

    ``samples`` is read once, on this thread, and each sample is dropped
    before the next is requested, so the state holds no ``phi``: only S
    (X, Z) word mixture logs, kept as one array per sample so a process can
    reuse its heap.  ``vb.sample_posterior`` then keeps at most
    ``workers + 1`` samples alive at a time.
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
    restarts the belief from ``params.pi``.
    """
    loge = inference.emission_logs(inference.word_mixture_logs(params), corpus)
    log_alpha, _, log_lik, _ = inference.forward(np.ascontiguousarray(loge[:, None]),
                                                 params.pi[None], params.xi[None], params.pi[None])
    return None if not len(corpus) or log_lik[-1, 0] == -np.inf else np.exp(log_alpha[-1, 0])


def _filter(state: PredictiveState, corpus: Corpus,
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Filter ``corpus`` under every sample with one ``inference.forward``.

    Returns each document's log likelihood under each sample (T, S), each
    sample's log belief before each document (T, S, Z), and the belief for
    the document after the last one (S, Z).  A sample under which a
    document is impossible restarts from its own initial distribution.
    """
    num_samples, num_behaviours = state.behaviour_belief.shape
    loge = np.empty((len(corpus), num_samples, num_behaviours))
    for s, log_mix in enumerate(state.log_mix):
        inference.emission_logs(log_mix, corpus, loge[:, s])
    _, log_beliefs, per_sample, belief = inference.forward(
        loge, state.behaviour_belief, state.xi, state.pi)
    return per_sample, log_beliefs, belief


def score(state: PredictiveState, corpus: Corpus) -> tuple[np.ndarray, PredictiveState]:
    """Score the documents of ``corpus`` in order and advance the state past
    them.

    Returns each document's log likelihood, the mean over the samples, as a
    (T,) array: -inf for a document impossible under every sample.  Empty
    and short documents update the state like any other.
    """
    per_sample, _, belief = _filter(state, corpus)
    log_liks = _lse(per_sample, axis=1) - np.log(per_sample.shape[1])
    return log_liks, replace(state, behaviour_belief=belief)


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


def localise(word_lls: np.ndarray, corpus: Corpus, layout, top_n: int,
             ) -> tuple[np.ndarray, ...]:
    """The ``top_n`` least likely tokens of every document of ``corpus``
    (per-token log likelihoods ``word_lls``, aligned with ``corpus.tokens``),
    decoded to frame positions.

    Returns five aligned arrays: document, token index in the document, cell
    x, cell y and direction index.  They run document by document and, within
    a document, by ascending likelihood; ties keep token order.  A document
    shorter than ``top_n`` gives all its tokens.
    """
    if top_n <= 0:
        raise ValueError("top_n must be positive")
    doc = np.repeat(np.arange(len(corpus)), np.diff(corpus.offsets))
    # Stable sorts by likelihood, then by document: ``np.lexsort((word_lls,
    # doc))``'s order, with the document key in the smallest type that holds
    # it, which numpy radix-sorts.
    key = doc.astype(np.min_scalar_type(len(corpus)))
    order = np.argsort(word_lls, kind="stable")
    order = order[np.argsort(key[order], kind="stable")]
    # ``doc`` is sorted, so ``order`` keeps each document in its own slots:
    # the token at position i of ``order`` has rank i - starts[i] in it.
    starts = corpus.offsets[doc]
    keep = order[np.arange(len(order)) - starts < top_n]
    return (doc[keep], keep - starts[keep], *decode_words(layout, corpus.tokens[keep]))
