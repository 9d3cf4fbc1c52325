"""Forward-backward engine for the behaviour chain, and the EM/VB fit loop.

:func:`forward` is the one forward recursion, shared by the fits and the
anomaly scorer: a few chains are each scanned as running products of
per-document maps (Blelloch 1990), many are stepped along the documents
together, and a chain whose messages one trust rule rejects is redone in the
log domain, where nothing underflows.
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

#: Chains from which :func:`forward` steps every chain along the documents
#: at once instead of scanning each: a scan costs per chain and document, a
#: step per document.  Scanned vs stepped, T = 1000, Z = 4, 2-core host, best
#: of 15 with the trust rule: 4.4 vs 9.1 ms for 8 chains, 9.0 vs 9.8 for 16,
#: 11.7 vs 10.7 for 20, 18.2 vs 12.9 for 32 and 57.9 vs 21.0 for 100.
_STEPPED_FROM = 20


def forward(loge: np.ndarray, start: np.ndarray, xi: np.ndarray, pi: np.ndarray,
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalised log forward messages (T, S, Z) of S chains with emission
    logs ``loge`` (T, S, Z) under ``xi`` (S, Z, Z), from the beliefs ``start``
    (S, Z) before document 0, written over ``loge``; the log belief before
    each document (T, S, Z); and each document's log likelihood given those
    before it (T, S).  A document impossible under the belief before it (log
    likelihood -inf) restarts the chain's belief from its ``pi`` (S, Z).

    Each document's emissions are shifted by their largest.  Fewer than
    ``_STEPPED_FROM`` chains are each scanned from ``diag(emit[0] * start)``
    over ``diag(emit[t]) xi``; more are stepped together, one normalised step
    per document.  A chain's messages stand when every belief entry is at
    least ``_FLOOR`` and every message entry is within 1e-12 relative of its
    one-step update taken from the exponents, ``exp(loge - shift - log scale
    + log prior)``: the floor catches a behaviour a message dropped
    gradually, and the step one dropped within a single document, or by a
    product of documents that underflowed where no single step does.  A
    document impossible under every behaviour has no finite shift, so its
    update is NaN and fails.  Otherwise :func:`_log_forward` redoes the
    chain.
    """
    log_prior = np.empty_like(loge)
    log_lik = np.empty(loge.shape[:2])
    # Column by column: numpy reduces and broadcasts along a short last axis
    # one row at a time, twenty times slower at Z = 4.  A copy, since at Z = 1
    # the reduction is a view of ``loge``, which the messages overwrite.
    shift = reduce(np.maximum, np.moveaxis(loge, -1, 0)).copy()
    with np.errstate(all="ignore"):
        regime = _scan if len(loge) and len(start) < _STEPPED_FROM else _step
        trusted = regime(loge, shift, start, xi, log_prior, log_lik)
        log_lik += shift
    for s in np.flatnonzero(~trusted):
        loge[:, s], log_prior[:, s], log_lik[:, s] = _log_forward(
            loge[:, s], start[s], xi[s], pi[s])
    return loge, log_prior, log_lik


def _scan(loge, shift, start, xi, log_prior, log_lik) -> np.ndarray:
    """Scan each chain; a trusted chain's messages overwrite its ``loge``."""
    trusted = np.empty(len(start), dtype=bool)
    for s in range(len(start)):
        shifted = loge[:, s] - shift[:, s, None]
        emit = np.exp(shifted)
        maps = np.einsum("tz,zy->tzy", emit, xi[s])
        maps[0] = np.diag(emit[0] * start[s])
        rows = np.einsum("tij->ti", _running_products(maps))
        alpha = rows / np.einsum("ti->t", rows)[:, None]
        prior = np.vstack([start[s], alpha[:-1] @ xi[s].T])
        trusted[s] = _settle(shifted, alpha, prior, np.einsum("tz,tz->t", emit, prior),
                             log_prior[:, s], log_lik[:, s])
        if trusted[s]:
            np.log(alpha, out=loge[:, s])
    return trusted


def _step(loge, shift, start, xi, log_prior, log_lik) -> np.ndarray:
    """Step every chain together, 32 documents at a time to keep temporaries
    small; a trusted chain's messages, from the exponents, overwrite its ``loge``."""
    chunks = [slice(lo, lo + 32) for lo in range(0, len(loge), 32)]
    trusted, prior = np.ones(len(start), dtype=bool), start
    for docs in chunks:
        shifted = loge[docs] - shift[docs, :, None]
        emit = np.exp(shifted)
        alpha, beliefs, scale = np.empty_like(emit), log_prior[docs], log_lik[docs]
        for t in range(len(emit)):
            beliefs[t] = prior
            joint = emit[t] * prior
            scale[t] = reduce(np.add, joint.T)
            np.divide(joint, scale[t, :, None], out=alpha[t])
            prior = np.einsum("sij,sj->si", xi, alpha[t])
        trusted &= _settle(shifted, alpha, beliefs, scale, beliefs, scale)
    for docs in chunks:
        step = loge[docs] - shift[docs, :, None] - log_lik[docs, :, None] + log_prior[docs]
        loge[docs] = np.where(trusted[:, None], step, loge[docs])
    return trusted


def _settle(shifted, alpha, prior, scale, log_prior, log_lik):
    """Write the logs of linear beliefs ``prior`` and scales ``scale`` into
    ``log_prior`` and ``log_lik``, which may be the same arrays, and return
    whether each chain's linear messages ``alpha`` stand by :func:`forward`'s
    trust rule."""
    above = prior >= _FLOOR
    np.log(prior, out=log_prior)
    np.log(scale, out=log_lik)
    step = np.exp(shifted - log_lik[..., None] + log_prior)
    ok = above & (np.abs(alpha - step) <= 1e-12 * step)
    # Over the documents first: numpy reduces a short last axis row by row.
    return ok.all() if ok.ndim == 2 else ok.all(axis=0).all(axis=-1)


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
    model; a corpus with no documents gives log K = 0 and all-zero counts.
    """
    mix = params.phi @ params.theta
    ones = np.ones_like(params.pi)
    with np.errstate(divide="ignore"):
        loge = emission_logs(np.log(mix), corpus)
        log_xi = np.log(params.xi)
    la, prior, log_lik = (a[:, 0] for a in forward(
        loge[:, None].copy(), params.pi[None], params.xi[None], params.pi[None]))
    log_K = float(log_lik.sum())
    if log_K == -np.inf:
        raise NumericalError("corpus impossible under model: normalisation constant is zero")
    # A scan drops what falls below e^-745 of a message's largest entry, which
    # the posterior may ignore only beside belief entries of at least _FLOOR.
    if np.all(prior >= np.log(_FLOOR)):
        post = forward(loge[::-1, None], ones[None], params.xi.T[None], ones[None])[0][::-1, 0]
    else:
        post = _log_forward(loge[::-1], ones, params.xi.T, ones)[0][::-1]
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
