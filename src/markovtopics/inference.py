"""Forward-backward engine for the behaviour chain.

Fits use :func:`e_step`: one forward-backward pass on the per-document
emission block ``(Z, T)`` of the corpus's sparse doc-term matrix, which
yields the four expected count arrays without per-token tensors.  The pass
runs scaled (Rabiner 1989); when its messages under- or overflow it is
redone on the same block in the log domain, where nothing underflows.  The
token-level recursions the oracle tests check against exhaustive
enumeration live in ``tests/_oracles.py``.

The engine also accepts the sub-stochastic "tilde" surrogate parameters used
by variational inference; normalization by the overall constant absorbs the
column deficit, so the returned posteriors are proper distributions either
way.
"""
from __future__ import annotations

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


def emission_logs(params: ModelParams | None, corpus: Corpus,
                  log_mix: np.ndarray | None = None) -> np.ndarray:
    """Per-document log emission under each behaviour, shape (Z, T).

    Entry (z, t) sums the log mixture probability of every token of
    document t given behaviour z: ``(B^T log_mix)^T`` for the doc-term
    matrix ``B``.  A token with zero mixture probability contributes -inf;
    it is propagated, not clamped.  ``params`` is read only when
    ``log_mix`` is not given.
    """
    if log_mix is None:
        log_mix = word_mixture_logs(params)
    return (corpus.doc_term.T @ log_mix).T


def e_step(params: ModelParams, corpus: Corpus) -> tuple[float, SufficientCounts]:
    """Log normalisation constant and expected counts from the doc-term matrix.

    One scaled forward-backward pass runs on the emissions shifted by their
    per-document maximum; the behaviour posteriors ``gamma`` (Z, T) and the
    summed pair posteriors come from its messages.  Tokens of one word in
    one document share a posterior, so with ``C = (B gamma^T) / mix`` the
    counts are ``n_xy = phi * (C theta^T)`` and ``n_yz = theta * (phi^T C)``.

    The scaled messages can underflow on a possible corpus: a zero scale, or
    a behaviour whose forward message underflowed to zero while later
    documents make it probable (its backward message overflows).  Either
    leaves a non-finite posterior, and the pass is then redone in the log
    domain on the same emission block (:func:`_log_e_step`), which raises
    :class:`NumericalError` when the corpus is impossible under the model.
    """
    mix = params.phi @ params.theta
    xi = params.xi
    with np.errstate(all="ignore"):
        loge = emission_logs(params, corpus, np.log(mix))
        shift = loge.max(axis=0)
        emit = np.exp(loge - shift)
        Z, T = emit.shape
        alpha = np.empty((Z, T))
        scale = np.empty(T)
        a = params.pi * emit[:, 0]
        scale[0] = a.sum()
        alpha[:, 0] = a / scale[0]
        for t in range(1, T):
            a = emit[:, t] * (xi @ alpha[:, t - 1])
            scale[t] = a.sum()
            alpha[:, t] = a / scale[t]
        # beta is scaled by the same constants, so alpha * beta is the posterior.
        emit /= scale
        xi_t = xi.T
        beta = np.empty((Z, T))
        beta[:, T - 1] = 1.0
        for t in range(T - 2, -1, -1):
            beta[:, t] = xi_t @ (emit[:, t + 1] * beta[:, t + 1])
        gamma = alpha * beta
        n_zz = xi * ((emit[:, 1:] * beta[:, 1:]) @ alpha[:, :-1].T)
    if not (np.all(np.isfinite(gamma)) and np.all(np.isfinite(n_zz))):
        return _log_e_step(params, corpus, mix, loge)
    log_K = float(np.sum(np.log(scale)) + np.sum(shift))
    return log_K, _counts(params, corpus, mix, gamma, n_zz)


def _log_e_step(params: ModelParams, corpus: Corpus, mix: np.ndarray,
                loge: np.ndarray) -> tuple[float, SufficientCounts]:
    """:func:`e_step` in the log domain, on the word mixtures ``mix`` and
    their emission block ``loge`` (Z, T).

    The forward message ``la[z, t]`` is the log joint of documents ``1..t``
    and behaviour ``z`` at ``t``; the backward message ``lb[z, t]`` the log
    probability of the later documents given it.  Raises
    :class:`NumericalError` when the corpus is impossible under the model.
    """
    Z, T = loge.shape
    with np.errstate(divide="ignore"):
        log_pi = np.log(params.pi)
        log_xi = np.log(params.xi)
    la = np.empty((Z, T))
    la[:, 0] = log_pi + loge[:, 0]
    for t in range(1, T):
        la[:, t] = loge[:, t] + _lse(la[None, :, t - 1] + log_xi, axis=1)
    lb = np.empty((Z, T))
    lb[:, T - 1] = 0.0
    for t in range(T - 2, -1, -1):
        lb[:, t] = _lse((lb[:, t + 1] + loge[:, t + 1])[:, None] + log_xi, axis=0)
    log_K = float(_lse(la[:, 0] + lb[:, 0], axis=0))
    if log_K == -np.inf:
        raise NumericalError("corpus impossible under model: normalisation constant is zero")
    gamma = np.exp(la + lb - log_K)
    # [t - 1, z_new, z_old]: forward into z_old at t - 1, transition, then
    # emission and backward out of z_new at t.
    pair = la.T[:-1, None, :] + log_xi + (loge + lb).T[1:, :, None] - log_K
    return log_K, _counts(params, corpus, mix, gamma, np.exp(pair).sum(axis=0))


def _counts(params: ModelParams, corpus: Corpus, mix: np.ndarray, gamma: np.ndarray,
            n_zz: np.ndarray) -> SufficientCounts:
    """The four expected count arrays from the behaviour posteriors ``gamma``
    (Z, T) and the summed pair posteriors ``n_zz``."""
    c = np.divide(corpus.doc_term @ gamma.T, mix, out=np.zeros_like(mix), where=mix > 0)
    return SufficientCounts(n_xy=params.phi * (c @ params.theta.T),
                            n_yz=params.theta * (params.phi.T @ c),
                            n_zz=n_zz, n_z1=gamma[:, 0].copy(), mode="expected")


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
