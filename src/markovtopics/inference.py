"""Forward-backward engine for the behaviour chain, and the EM/VB fit loop.

Fits use :func:`e_step`: one forward-backward pass on the per-document
emission block ``(T, Z)`` of the corpus's sparse doc-term matrix, which
yields the four expected count arrays without per-token tensors.  Its
messages are running products of per-document maps, one prefix scan each
(Blelloch 1990), and :func:`_forward` alone decides whether a scan stands;
when one does not, the pass is redone on the same block in the log domain,
where nothing underflows.  The token-level recursions the oracle tests check
against live in ``tests/_oracles.py``.

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
    stack, each divided by its largest entry, by an odd-even prefix scan
    (Blelloch 1990): multiply adjacent pairs, scan the half-length stack, fill
    in the even entries.  A vanished product and all later ones are NaN."""
    with np.errstate(invalid="ignore"):
        out = maps / maps.max(axis=(1, 2), keepdims=True)
        if len(maps) > 1:
            out[1::2] = _running_products(out[1::2] @ out[:-1:2])
            even = out[2::2] @ out[1:-1:2]
            out[2::2] = even / even.max(axis=(1, 2), keepdims=True)
    return out


#: Smallest belief entry a scan is trusted with.  A linear message drops
#: mass below 1e-323, which cannot move an entry this large by one rounding.
_FLOOR = 1e-280


def _forward(loge: np.ndarray, pi: np.ndarray, xi: np.ndarray,
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalised forward messages (T, Z) of the emission logs ``loge``
    (T, Z), each document shifted by its largest, scanned from
    ``diag(emit[0] * pi)`` over ``diag(emit[t]) xi``; the belief before each
    document (``pi``, then ``xi @ alpha[t - 1]``); and each document's log
    likelihood given those before it (T,).

    All three are NaN unless every belief entry is at least ``_FLOOR`` and
    every message entry is within 1e-12 relative of its one-step update
    taken from the exponents, ``exp(loge - shift - log scale + log prior)``.
    The floor catches a behaviour a message dropped gradually, and the step
    one dropped within a single document, or by a product of documents that
    underflowed where no single step does.
    """
    # Column by column: numpy reduces and broadcasts along a short last axis
    # one row at a time, twenty times slower at Z = 4.
    shift = reduce(np.maximum, loge.T)[:, None]
    with np.errstate(all="ignore"):
        shifted = loge - shift
        emit = np.exp(shifted)
        maps = np.einsum("tz,zy->tzy", emit, xi)
        maps[0] = np.diag(emit[0] * pi)
        rows = _running_products(maps).sum(axis=2)
        alpha = rows / rows.sum(axis=1, keepdims=True)
        prior = np.vstack([pi, alpha[:-1] @ xi.T])
        log_scale = np.log(np.einsum("tz,tz->t", emit, prior))[:, None]
        step = np.exp(shifted - log_scale + np.log(prior))
        trusted = prior.min() >= _FLOOR and np.all(np.abs(alpha - step) <= 1e-12 * step)
    if not trusted:
        return np.full_like(alpha, np.nan), np.full_like(prior, np.nan), np.full(len(loge), np.nan)
    return alpha, prior, (shift + log_scale)[:, 0]


def e_step(params: ModelParams, corpus: Corpus) -> tuple[float, SufficientCounts]:
    """Log normalisation constant and expected counts from the doc-term matrix.

    :func:`_forward` scans the forward messages, and on the reversed stream
    under ``xi^T`` the normalised ``emit[t] * beta[t]``.  Tokens of one word
    in one document share a posterior, so with ``C = (B gamma) / mix`` the
    counts are ``n_xy = phi * (C theta^T)`` and ``n_yz = theta * (phi^T C)``.
    When either scan is not trusted (NaN), the pass is redone in the log
    domain (:func:`_log_e_step`), which raises :class:`NumericalError` when
    the corpus is impossible under the model.
    """
    mix = params.phi @ params.theta
    xi = params.xi
    with np.errstate(divide="ignore"):
        loge = emission_logs(np.log(mix), corpus)
    alpha, prior, log_lik = _forward(loge, params.pi, xi)
    post = _forward(loge[::-1], np.ones_like(params.pi), xi.T)[0][::-1]
    if np.isnan(log_lik[0]) or np.isnan(post[0, 0]):
        return _log_e_step(params, corpus, mix, loge)
    # Posterior post[t] * prior[t] / norm[t]; pair posterior of documents
    # t - 1, t: xi * outer(post[t], alpha[t - 1]) / norm[t].
    norm = np.einsum("tz,tz->t", post, prior)[:, None]
    n_zz = xi * ((post[1:] / norm[1:]).T @ alpha[:-1])
    return float(log_lik.sum()), _counts(params, corpus, mix, post * prior / norm, n_zz)


def _log_forward(loge: np.ndarray, log_pi: np.ndarray, log_xi: np.ndarray,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Normalised log forward messages (T, Z) of the emission logs ``loge``
    (T, Z) from the log prior ``log_pi`` under ``log_xi``, one document at a
    time, and each document's log likelihood given those before it (T,).  A
    document impossible under the belief before it (log likelihood -inf) has
    a NaN message and restarts the belief from ``log_pi``."""
    log_alpha, scale = np.empty_like(loge), np.empty(len(loge))
    prior = log_pi
    with np.errstate(invalid="ignore"):
        for t in range(len(loge)):
            joint = loge[t] + prior
            scale[t] = _lse(joint, axis=0)
            log_alpha[t] = joint - scale[t]
            prior = log_pi if scale[t] == -np.inf else _lse(log_alpha[t] + log_xi, axis=1)
    return log_alpha, scale


def _log_e_step(params: ModelParams, corpus: Corpus, mix: np.ndarray,
                loge: np.ndarray) -> tuple[float, SufficientCounts]:
    """:func:`e_step` in the log domain, on the word mixtures ``mix`` and
    their emission block ``loge`` (T, Z): :func:`_log_forward` runs forward
    and on the reversed stream under ``xi^T`` from a zero log prior, and the
    posteriors follow as in :func:`e_step`.  Raises :class:`NumericalError`
    when the corpus is impossible under the model.
    """
    with np.errstate(divide="ignore"):
        log_pi, log_xi = np.log(params.pi), np.log(params.xi)
    la, scale = _log_forward(loge, log_pi, log_xi)
    log_K = float(scale.sum())
    if log_K == -np.inf:
        raise NumericalError("corpus impossible under model: normalisation constant is zero")
    post = _log_forward(loge[::-1], np.zeros_like(log_pi), log_xi.T)[0][::-1]
    prior = np.vstack([log_pi, _lse(la[:-1, None, :] + log_xi, axis=2)])
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
