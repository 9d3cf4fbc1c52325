"""Forward-backward engine for the behaviour chain, and the EM/VB fit loop.

:func:`forward` is the one forward recursion, shared by the fits and the
anomaly scorer: the scaled per-document recursion (Rabiner 1989) of S chains
in the log domain, compiled from ``_kernels.c`` once per process, with a
line-for-line Python copy that gives the same bytes where no compiler works.
Fits use :func:`e_step`: the forward pass and the same pass on the reversed
stream, on the per-document emission block ``(T, Z)`` of the corpus's sparse
doc-term matrix, yield the four expected count arrays without per-token
tensors.  The token-level recursions the oracle tests check against live in
``tests/_oracles.py``.

The engine also accepts the sub-stochastic "tilde" surrogate parameters used
by variational inference; normalization by the overall constant absorbs the
column deficit, so the returned posteriors are proper distributions either
way.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import reduce
from operator import add, mul

import numpy as np

from . import _kernels
from .model import (
    Corpus,
    Hyperparams,
    ModelParams,
    ModelSpec,
    NumericalError,
    SufficientCounts,
    random_init,
)


def _lse(a: np.ndarray, axis: int) -> np.ndarray:
    """Log-sum-exp over one axis of a small dense array.

    scipy's logsumexp dominates the recursion runtime through per-call
    overhead, so the hot loops use this minimal version.  All -inf slices
    are handled (the max is shifted to 0 so exp never sees nan).  Fewer than
    8 columns are reduced one by one, as numpy sums that few: in order.
    """
    cols = np.moveaxis(a, axis, 0)
    short = len(cols) < 8
    m = reduce(np.maximum, cols) if short else np.max(cols, axis=0)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(invalid="ignore"):
        s = (reduce(np.add, [np.exp(c - m_safe) for c in cols]) if short
             else np.sum(np.exp(cols - m_safe), axis=0))
    with np.errstate(divide="ignore"):
        return m_safe + np.log(s)


def word_mixture_logs(params: ModelParams) -> np.ndarray:
    """log sum_y phi[x, y] theta[y, z] for every word/behaviour pair, shape
    (num_words, num_behaviours).  Zero mixtures become -inf."""
    mix = params.phi @ params.theta
    with np.errstate(divide="ignore"):
        return np.log(mix)


def emission_logs(log_mix: np.ndarray, corpus: Corpus) -> np.ndarray:
    """Per-document log emission under each behaviour, shape (T, Z), from the
    word mixture logs ``log_mix`` (num_words, Z).

    Entry (t, z) sums the log mixture probability of every token of
    document t given behaviour z: ``B^T log_mix`` for the doc-term matrix
    ``B``.  A token with zero mixture probability contributes -inf; it is
    propagated, not clamped.
    """
    return corpus.doc_term.T @ log_mix


def forward(loge: np.ndarray, start: np.ndarray, xi: np.ndarray, pi: np.ndarray,
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Normalised log forward messages (T, S, Z) of S chains with emission
    logs ``loge`` (T, S, Z) under ``xi`` (S, Z, Z), from the beliefs ``start``
    (S, Z) before document 0, written over ``loge``; the log belief before
    each document (T, S, Z); each document's log likelihood given those
    before it (T, S); and the belief after the last document (S, Z).  A
    document impossible under the belief before it has log likelihood -inf
    and NaN messages, and restarts the chain's belief from its ``pi`` (S, Z).

    ``forward`` of ``_kernels.c`` runs where it builds and its line-for-line
    copy :func:`_forward_in_python` elsewhere, with the same bytes; the
    kernel indexes without bounds checks, so the inputs are checked first.
    """
    if not (loge.ndim == 3 and loge.dtype == np.float64 and loge.flags.c_contiguous
            and loge.flags.writeable):
        raise ValueError("loge must be a writeable C-contiguous float64 array of shape (T, S, Z)")
    T, S, Z = loge.shape
    start, xi, pi = (np.ascontiguousarray(a, dtype=np.float64) for a in (start, xi, pi))
    if (start.shape, xi.shape, pi.shape) != ((S, Z), (S, Z, Z), (S, Z)):
        raise ValueError("start, xi and pi must have shapes (S, Z), (S, Z, Z) and (S, Z)")
    # log_prior has a row for the belief after the last document.
    log_prior, log_lik, belief = np.empty((T + 1, S, Z)), np.empty((T, S)), start.copy()
    _kernels.bind("forward", _forward_in_python, T, S, Z, loge, start, xi, pi, log_prior, log_lik,
                  belief)()
    return loge, log_prior[:-1], log_lik, belief


def _log0(v: float) -> float:
    return math.log(v) if v > 0.0 else -math.inf


def _log_sum(x: list, e: list) -> float:
    """``log_sum`` of ``_kernels.c``: log sum_j x[j] exp(e[j]) in the log domain."""
    top = max(_log0(a) + b for a, b in zip(x, e))
    return top if top == -math.inf else top + math.log(
        reduce(add, (math.exp(_log0(a) + b - top) for a, b in zip(x, e)), 0.0))


def _forward_in_python(num_docs, num_chains, num_behaviours, loge, start, xi, pi, log_prior,
                       log_lik, belief):
    """``forward`` of ``_kernels.c`` line for line, over lists, with a new
    list where the kernel overwrites a row in place.  Sums run left to right
    from 0.0 as in C, with ``reduce``: ``sum`` compensates since Python 3.12."""
    messages, beliefs, log_liks, finals = out = [
        a.tolist() for a in (loge, log_prior, log_lik, belief)]
    for s, (x, p) in enumerate(zip(xi.tolist(), pi.tolist())):
        beliefs[0][s] = [_log0(v) for v in start[s].tolist()]
        for t in range(num_docs):
            e = [a + b for a, b in zip(messages[t][s], beliefs[t][s])]
            top = max(e)
            if top == -math.inf:
                log_liks[t][s], messages[t][s] = -math.inf, [math.nan] * num_behaviours
                beliefs[t + 1][s], finals[s] = [_log0(v) for v in p], p
                continue
            w = [math.exp(v - top) for v in e]
            total = reduce(add, w, 0.0)
            log_total = math.log(total)
            log_liks[t][s] = top + log_total
            messages[t][s] = e = [v - top - log_total for v in e]
            w = [v / total for v in w]
            finals[s] = [reduce(add, map(mul, row, w), 0.0) for row in x]
            beliefs[t + 1][s] = [math.log(v) if v >= 1e-280 else _log_sum(row, e)
                                 for v, row in zip(finals[s], x)]
    for a, values in zip((loge, log_prior, log_lik, belief), out):
        a[...] = np.reshape(values, a.shape)  # an empty list has no shape


def e_step(params: ModelParams, corpus: Corpus) -> tuple[float, SufficientCounts]:
    """Log normalisation constant and expected counts from the doc-term matrix.

    :func:`forward` gives the forward messages, and on the reversed stream
    under ``xi^T`` the normalised ``emit[t] * beta[t]``.  Tokens of one word
    in one document share a posterior, so with ``C = (B gamma) / mix`` the
    counts are ``n_xy = phi * (C theta^T)`` and ``n_yz = theta * (phi^T C)``.
    Raises :class:`NumericalError` when the corpus is impossible under the
    model; a corpus with no documents gives log K = 0 and all-zero counts.
    """
    mix = params.phi @ params.theta
    ones = np.ones_like(params.pi)
    with np.errstate(divide="ignore"):
        loge = emission_logs(np.log(mix), corpus)
        log_xi = np.log(params.xi)
    la, prior, log_lik = (a[:, 0] for a in forward(
        loge[:, None].copy(), params.pi[None], params.xi[None], params.pi[None])[:3])
    log_K = float(log_lik.sum())
    if log_K == -np.inf:
        raise NumericalError("corpus impossible under model: normalisation constant is zero")
    post = forward(loge[::-1, None].copy(), ones[None], params.xi.T[None], ones[None])[0][::-1, 0]
    # Posterior post[t] + prior[t] - norm[t]; pair posterior of documents
    # t - 1, t: log xi + la[t - 1] + post[t] - norm[t].
    norm = _lse(post + prior, axis=1)[:, None]
    gamma = np.exp(post + prior - norm)
    pair = log_xi + la[:-1, None, :] + (post - norm)[1:, :, None]
    return log_K, _counts(params, corpus, mix, gamma, np.exp(pair).sum(axis=0))


def _counts(params: ModelParams, corpus: Corpus, mix: np.ndarray, gamma: np.ndarray,
            n_zz: np.ndarray) -> SufficientCounts:
    """The four expected count arrays from the behaviour posteriors ``gamma``
    (T, Z) and the summed pair posteriors ``n_zz``."""
    c = np.divide(corpus.doc_term @ gamma, mix, out=np.zeros_like(mix), where=mix > 0)
    return SufficientCounts(n_xy=params.phi * (c @ params.theta.T),
                            n_yz=params.theta * (params.phi.T @ c),
                            n_zz=n_zz, n_z1=gamma[:1].sum(axis=0))


def init_e_step(corpus: Corpus, hyper: Hyperparams, spec: ModelSpec, seed: int,
                ) -> tuple[ModelParams, int, float, SufficientCounts]:
    """First E-step of a fit: on the first of 5 prior draws, seeded ``seed``,
    ``seed + 1``, ..., under which the corpus is possible.

    Returns the draw, its seed, and its :func:`e_step` result.  Raises
    :class:`NumericalError` when the corpus is impossible under all five.
    """
    for attempt in range(5):
        params = random_init(spec, hyper, seed + attempt)
        try:
            log_lik, counts = e_step(params, corpus)
        except NumericalError:
            continue
        return params, seed + attempt, log_lik, counts
    raise NumericalError("corpus impossible under 5 consecutive initializations")


@dataclass
class FitTrace:
    """Per-iteration objective values and termination info of a fit."""

    objectives: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    seed_used: int | None = None


def fit(corpus: Corpus, hyper: Hyperparams, spec: ModelSpec, seed: int, max_iters: int,
        tol: float | None, m_step: Callable, objective: Callable,
        e_params: Callable = lambda state: state) -> tuple[object, FitTrace]:
    """Alternate E and M steps from the state :func:`init_e_step` draws.

    Each E-step runs on ``e_params(state)`` and is followed by recording
    ``objective(state, log_K, hyper)``, then ``m_step(counts, hyper)`` makes
    the next state, for ``max_iters`` iterations; with ``tol``, a change of
    the objective below it stops the fit before the M-step.
    """
    trace = FitTrace()
    state, trace.seed_used, log_k, counts = init_e_step(corpus, hyper, spec, seed)
    for it in range(max_iters):
        if it:
            log_k, counts = e_step(e_params(state), corpus)
        trace.objectives.append(objective(state, log_k, hyper))
        trace.iterations = it + 1
        if tol is not None and it >= 1 and abs(trace.objectives[-1] - trace.objectives[-2]) < tol:
            trace.converged = True
            break
        state = m_step(counts, hyper)
    return state, trace
