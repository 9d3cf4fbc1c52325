"""Forward-backward engine for the behaviour chain.

Fits use :func:`e_step`: one scaled forward-backward pass (Rabiner 1989) on
the corpus's sparse doc-term matrix, which yields the four expected count
arrays without per-token tensors.  :func:`messages`, :func:`posteriors`,
:func:`expected_counts` and :func:`infer` are the token-level reference:
their recursions run in the log domain, where nothing underflows, and the
oracle tests check them against exhaustive enumeration.  ``e_step`` falls
back to them when its scaled messages under- or overflow.

The engine also accepts the sub-stochastic "tilde" surrogate parameters used
by variational inference; normalization by the overall constant absorbs the
column deficit, so the returned posteriors are proper distributions either
way.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

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


@dataclass
class Messages:
    """Log forward/backward messages, the normalisation constant and the
    cached per-document emission logs."""

    log_alpha: np.ndarray  # (num_behaviours, T)
    log_beta: np.ndarray  # (num_behaviours, T)
    log_K: float
    log_emission: np.ndarray  # (num_behaviours, T)


@dataclass
class Posteriors:
    """Hidden-variable posteriors given a corpus and parameters."""

    z1: np.ndarray  # (num_behaviours,)
    pair_zz: np.ndarray  # (T-1, Z, Z); [t-1, z_new, z_old] = p(z_{t+1}=z_new, z_t=z_old | x)
    token_yz: list[np.ndarray]  # per document (N_t, Y, Z)
    token_y: list[np.ndarray]  # per document (N_t, Y)


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


def forward(params: ModelParams, corpus: Corpus,
            log_emission: np.ndarray | None = None) -> np.ndarray:
    """Log forward messages: joint of the prefix and the current behaviour."""
    if log_emission is None:
        log_emission = emission_logs(params, corpus)
    Z, T = log_emission.shape
    with np.errstate(divide="ignore"):
        log_pi = np.log(params.pi)
        log_xi = np.log(params.xi)
    la = np.empty((Z, T))
    la[:, 0] = log_pi + log_emission[:, 0]
    for t in range(1, T):
        # la[z, t] = e(z, t) + logsumexp_z'( la[z', t-1] + log xi[z, z'] )
        la[:, t] = log_emission[:, t] + _lse(la[None, :, t - 1] + log_xi, axis=1)
    return la


def backward(params: ModelParams, corpus: Corpus,
             log_emission: np.ndarray | None = None) -> np.ndarray:
    """Log backward messages; the final column is zero by definition."""
    if log_emission is None:
        log_emission = emission_logs(params, corpus)
    Z, T = log_emission.shape
    with np.errstate(divide="ignore"):
        log_xi = np.log(params.xi)
    lb = np.empty((Z, T))
    lb[:, T - 1] = 0.0
    for t in range(T - 2, -1, -1):
        # lb[z, t] = logsumexp_z'( lb[z', t+1] + log xi[z', z] + e(z', t+1) )
        lb[:, t] = _lse((lb[:, t + 1] + log_emission[:, t + 1])[:, None] + log_xi, axis=0)
    return lb


def messages(params: ModelParams, corpus: Corpus) -> Messages:
    """Run both passes once, sharing the emission logs."""
    loge = emission_logs(params, corpus)
    la = forward(params, corpus, loge)
    lb = backward(params, corpus, loge)
    log_K = float(logsumexp(la[:, 0] + lb[:, 0]))
    return Messages(log_alpha=la, log_beta=lb, log_K=log_K, log_emission=loge)


def posteriors(params: ModelParams, corpus: Corpus, msgs: Messages) -> Posteriors:
    """The four hidden-variable posteriors, exponentiated from log space.

    Raises :class:`NumericalError` when the corpus is impossible under the
    model (overall normalisation constant zero).
    """
    la, lb, log_K = msgs.log_alpha, msgs.log_beta, msgs.log_K
    loge = msgs.log_emission
    Z, T = la.shape
    if not np.isfinite(log_K):
        raise NumericalError("corpus impossible under model: normalisation constant is zero")
    with np.errstate(divide="ignore"):
        log_xi = np.log(params.xi)
        log_phi = np.log(params.phi)
        log_theta = np.log(params.theta)
    log_mix = word_mixture_logs(params)

    z1 = np.exp(la[:, 0] + lb[:, 0] - log_K)

    pair_zz = np.empty((T - 1, Z, Z))
    for t in range(1, T):
        # [z_new, z_old]: forward into z_old at t-1, transition, emission
        # and backward out of z_new at t.
        lp = (la[None, :, t - 1] + log_xi
              + (loge[:, t] + lb[:, t])[:, None] - log_K)
        pair_zz[t - 1] = np.exp(lp)

    token_yz = []
    token_y = []
    for t, doc in enumerate(corpus.documents):
        # Leave-one-token-out product = loge[z, t] - log_mix[x_i, z]; combined
        # with the forward message this is la[z, t] - log_mix[x_i, z].
        # Behaviours with la = -inf have zero posterior mass: mask them to
        # avoid -inf minus -inf.
        base = la[:, t] + lb[:, t] - log_K  # (Z,)
        lm = log_mix[doc.words]  # (N_t, Z)
        with np.errstate(invalid="ignore"):
            lw = base[None, :] - lm  # (N_t, Z)
        lw[:, ~np.isfinite(base)] = -np.inf
        # (N_t, Y, Z): token term + log phi + log theta
        lt = lw[:, None, :] + log_phi[doc.words][:, :, None] + log_theta[None, :, :]
        p = np.exp(lt)
        token_yz.append(p)
        token_y.append(p.sum(axis=2))
    return Posteriors(z1=z1, pair_zz=pair_zz, token_yz=token_yz, token_y=token_y)


def expected_counts(post: Posteriors, corpus: Corpus) -> SufficientCounts:
    """Aggregate the posteriors into the four sufficient-count arrays."""
    spec = corpus.spec
    n_xy = np.zeros((spec.num_words, spec.num_topics))
    n_yz = np.zeros((spec.num_topics, spec.num_behaviours))
    for t, doc in enumerate(corpus.documents):
        np.add.at(n_xy, doc.words, post.token_y[t])
        n_yz += post.token_yz[t].sum(axis=0)
    n_zz = post.pair_zz.sum(axis=0) if len(post.pair_zz) else np.zeros(
        (spec.num_behaviours, spec.num_behaviours))
    return SufficientCounts(n_xy=n_xy, n_yz=n_yz, n_zz=n_zz,
                            n_z1=post.z1.copy(), mode="expected")


def infer(params: ModelParams, corpus: Corpus):
    """Convenience: messages, posteriors and counts in one call."""
    msgs = messages(params, corpus)
    post = posteriors(params, corpus, msgs)
    return msgs, post, expected_counts(post, corpus)


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
    leaves a non-finite posterior, and the result then comes from the
    log-domain :func:`infer`, which raises :class:`NumericalError` when the
    corpus is impossible under the model.
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
        msgs, _, counts = infer(params, corpus)
        return msgs.log_K, counts
    c = np.divide(corpus.doc_term @ gamma.T, mix, out=np.zeros_like(mix), where=mix > 0)
    counts = SufficientCounts(n_xy=params.phi * (c @ params.theta.T),
                              n_yz=params.theta * (params.phi.T @ c),
                              n_zz=n_zz, n_z1=gamma[:, 0].copy(), mode="expected")
    return float(np.sum(np.log(scale)) + np.sum(shift)), counts


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
