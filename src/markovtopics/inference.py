"""Forward-backward engine for the behaviour chain, and the EM/VB fit loop.

:func:`forward` is the one forward recursion, shared by the fits and the
anomaly scorer: the messages of one chain are running products of
per-document maps, one prefix scan (Blelloch 1990), and where the scan cannot
be trusted the chain is redone in the log domain, where nothing underflows.
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

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

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
    are handled (the max is shifted to 0 so exp never sees nan).
    """
    m = np.max(a, axis=axis, keepdims=True)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(invalid="ignore"):
        s = np.sum(np.exp(a - m_safe), axis=axis)
    with np.errstate(divide="ignore"):
        return np.squeeze(m_safe, axis=axis) + np.log(s)


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


def _running_products(maps: np.ndarray) -> np.ndarray:
    """Running products ``maps[t] @ ... @ maps[0]`` of a nonnegative (T, Z, Z)
    stack, each divided by the sum of its entries, by an odd-even prefix scan
    (Blelloch 1990): multiply adjacent pairs, scan the half-length stack, fill
    in the even entries.  A vanished product and all later ones are NaN."""
    with np.errstate(invalid="ignore"):
        out = maps / np.einsum("tij->t", maps)[:, None, None]
        if len(maps) > 1:
            out[1::2] = _running_products(out[1::2] @ out[:-1:2])
            even = out[2::2] @ out[1:-1:2]
            out[2::2] = even / np.einsum("tij->t", even)[:, None, None]
    return out


#: Smallest belief entry a scan is trusted with.  A linear message drops
#: mass below 1e-323, which cannot move an entry this large by one rounding.
_FLOOR = 1e-280


def forward(loge: np.ndarray, start: np.ndarray, xi: np.ndarray, pi: np.ndarray,
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalised log forward messages (T, Z) of one chain with emission logs
    ``loge`` (T, Z) under ``xi``, from the belief ``start`` before document
    0; the log belief before each document (T, Z); and each document's log
    likelihood given those before it (T,).  A document impossible under the
    belief before it (log likelihood -inf) restarts the belief from ``pi``.

    The messages are scanned from ``diag(emit[0] * start)`` over
    ``diag(emit[t]) xi``, each document's emissions shifted by their largest.
    The scan stands when every belief entry is at least ``_FLOOR`` and every
    message entry is within 1e-12 relative of its one-step update taken from
    the exponents, ``exp(loge - shift - log scale + log prior)``: the floor
    catches a behaviour a message dropped gradually, and the step one dropped
    within a single document, or by a product of documents that underflowed
    where no single step does.  Otherwise :func:`_log_forward` redoes the
    chain.
    """
    if len(loge):
        # Column by column: numpy reduces and broadcasts along a short last
        # axis one row at a time, twenty times slower at Z = 4.
        shift = reduce(np.maximum, loge.T)[:, None]
        with np.errstate(all="ignore"):
            shifted = loge - shift
            emit = np.exp(shifted)
            maps = np.einsum("tz,zy->tzy", emit, xi)
            maps[0] = np.diag(emit[0] * start)
            rows = np.einsum("tij->ti", _running_products(maps))
            alpha = rows / np.einsum("ti->t", rows)[:, None]
            prior = np.vstack([start, alpha[:-1] @ xi.T])
            log_prior = np.log(prior)
            log_scale = np.log(np.einsum("tz,tz->t", emit, prior))[:, None]
            step = np.exp(shifted - log_scale + log_prior)
            if prior.min() >= _FLOOR and np.all(np.abs(alpha - step) <= 1e-12 * step):
                return np.log(alpha), log_prior, (shift + log_scale)[:, 0]
    return _log_forward(loge, start, xi, pi)


def _log_forward(loge: np.ndarray, start: np.ndarray, xi: np.ndarray, pi: np.ndarray,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`forward` in the log domain, one document at a time.  An
    impossible document has a NaN message."""
    with np.errstate(divide="ignore"):
        log_xi, log_pi = np.log(xi), np.log(pi)
        prior = np.log(start)
    log_alpha, log_prior, scale = np.empty_like(loge), np.empty_like(loge), np.empty(len(loge))
    with np.errstate(invalid="ignore"):
        for t in range(len(loge)):
            log_prior[t] = prior
            joint = loge[t] + prior
            scale[t] = _lse(joint, axis=0)
            log_alpha[t] = joint - scale[t]
            prior = log_pi if scale[t] == -np.inf else _lse(log_alpha[t] + log_xi, axis=1)
    return log_alpha, log_prior, scale


def e_step(params: ModelParams, corpus: Corpus) -> tuple[float, SufficientCounts]:
    """Log normalisation constant and expected counts from the doc-term matrix.

    :func:`forward` gives the forward messages, and on the reversed stream
    under ``xi^T`` the normalised ``emit[t] * beta[t]``.  Tokens of one word
    in one document share a posterior, so with ``C = (B gamma) / mix`` the
    counts are ``n_xy = phi * (C theta^T)`` and ``n_yz = theta * (phi^T C)``.
    Raises :class:`NumericalError` when the corpus is impossible under the
    model.
    """
    mix = params.phi @ params.theta
    ones = np.ones_like(params.pi)
    with np.errstate(divide="ignore"):
        loge = emission_logs(np.log(mix), corpus)
        log_xi = np.log(params.xi)
    la, prior, log_lik = forward(loge, params.pi, params.xi, params.pi)
    log_K = float(log_lik.sum())
    if log_K == -np.inf:
        raise NumericalError("corpus impossible under model: normalisation constant is zero")
    # A scan drops what falls below e^-745 of a message's largest entry, which
    # the posterior may ignore only beside belief entries of at least _FLOOR.
    backward = forward if prior.min() >= np.log(_FLOOR) else _log_forward
    post = backward(loge[::-1], ones, params.xi.T, ones)[0][::-1]
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
                            n_zz=n_zz, n_z1=gamma[0].copy())


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
