"""Brute-force oracles used by the tests.

These are deliberately independent of the library's dynamic-programming
implementations: exhaustive enumeration over behaviour paths (and, for the
collapsed sampler, over complete hidden assignments).  The token-level
log-domain forward-backward (``messages``, ``posteriors``,
``expected_counts``, ``infer``), the per-token generator, the per-document
Gibbs initial draw, the per-token Gibbs topic step, the numpy Gibbs
behaviour step, the per-document scorer, the per-record score writer, the
per-document localiser, the per-event ``build_corpus``, the per-token
corpus reader, the per-line event reader, the list-building posterior
sampler, the per-document scaled loops of the E-step and of the filtered
belief, and the E-step on the log-domain forward recursion alone are the
straightforward versions the fast library paths must match.  ``zero_counts`` builds the all-zero counts that the M-step
tests start from.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import gammaln, logsumexp

from markovtopics.em import _log_map
from markovtopics.generate import GeneratedDataset, _stream
from markovtopics.gibbs import GibbsState, tally
from markovtopics.inference import _counts, _lse, emission_logs, word_mixture_logs
from markovtopics.ingest import DIRECTIONS
from markovtopics.model import (
    Corpus,
    DataError,
    ModelParams,
    ModelSpec,
    NumericalError,
    SufficientCounts,
    corpus_from_lists,
)
from markovtopics.vb import _dirichlet_columns


def zero_counts(spec: ModelSpec) -> SufficientCounts:
    return SufficientCounts(
        n_xy=np.zeros((spec.num_words, spec.num_topics)),
        n_yz=np.zeros((spec.num_topics, spec.num_behaviours)),
        n_zz=np.zeros((spec.num_behaviours, spec.num_behaviours)),
        n_z1=np.zeros(spec.num_behaviours),
    )


def enum_marginal_and_posteriors(params, corpus):
    """Enumerate all behaviour paths; topic sums are folded analytically.

    Returns a dict with the marginal likelihood and the four posteriors in
    the same layout as :class:`Posteriors`.
    """
    phi, theta, xi, pi = params.phi, params.theta, params.xi, params.pi
    Z = pi.shape[0]
    Y = theta.shape[0]
    T = len(corpus)
    mix = phi @ theta  # (X, Z)

    doc_words = list(corpus)
    path_probs = {}
    for path in itertools.product(range(Z), repeat=T):
        p = pi[path[0]]
        for t in range(1, T):
            p *= xi[path[t], path[t - 1]]
        for t in range(T):
            for x in doc_words[t]:
                p *= mix[x, path[t]]
        path_probs[path] = p
    marginal = sum(path_probs.values())

    z1 = np.zeros(Z)
    zt = np.zeros((T, Z))
    pair = np.zeros((T - 1, Z, Z))
    for path, p in path_probs.items():
        z1[path[0]] += p
        for t in range(T):
            zt[t, path[t]] += p
        for t in range(1, T):
            pair[t - 1, path[t], path[t - 1]] += p
    z1 /= marginal
    zt /= marginal
    pair /= marginal

    token_yz = []
    token_y = []
    for t in range(T):
        n = len(doc_words[t])
        tyz = np.zeros((n, Y, Z))
        for i, x in enumerate(doc_words[t]):
            for z in range(Z):
                if mix[x, z] == 0:
                    continue
                tyz[i, :, z] = zt[t, z] * phi[x, :] * theta[:, z] / mix[x, z]
        token_yz.append(tyz)
        token_y.append(tyz.sum(axis=2))
    return {
        "marginal": marginal,
        "z1": z1,
        "zt": zt,
        "pair_zz": pair,
        "token_yz": token_yz,
        "token_y": token_y,
    }


def enum_expected_counts(params, corpus):
    """Sufficient counts from the enumeration posteriors."""
    post = enum_marginal_and_posteriors(params, corpus)
    spec = corpus.spec
    n_xy = np.zeros((spec.num_words, spec.num_topics))
    n_yz = np.zeros((spec.num_topics, spec.num_behaviours))
    for t, words in enumerate(corpus):
        for i, x in enumerate(words):
            n_xy[x] += post["token_y"][t][i]
        n_yz += post["token_yz"][t].sum(axis=0)
    n_zz = post["pair_zz"].sum(axis=0)
    return n_xy, n_yz, n_zz, post["z1"]


def collapsed_log_joint(doc_topics, z_assign, corpus, hyper):
    """Log joint of a complete hidden assignment with parameters integrated
    out, up to an assignment-independent constant."""
    spec = corpus.spec
    X, Y, Z = spec.num_words, spec.num_topics, spec.num_behaviours
    n_xy = np.zeros((X, Y))
    n_yz = np.zeros((Y, Z))
    n_zz = np.zeros((Z, Z))
    for t, words in enumerate(corpus):
        for i, x in enumerate(words):
            n_xy[x, doc_topics[t][i]] += 1
            n_yz[doc_topics[t][i], z_assign[t]] += 1
    for t in range(1, len(corpus)):
        n_zz[z_assign[t], z_assign[t - 1]] += 1

    lg = math.lgamma
    total = math.log(hyper.eta[z_assign[0]] / hyper.eta.sum())
    gamma_sum = hyper.gamma.sum()
    for z in range(Z):
        out_z = n_zz[:, z].sum()
        total += lg(gamma_sum) - lg(gamma_sum + out_z)
        for z2 in range(Z):
            total += lg(hyper.gamma[z2] + n_zz[z2, z]) - lg(hyper.gamma[z2])
    alpha_sum = hyper.alpha.sum()
    for z in range(Z):
        tot = n_yz[:, z].sum()
        total += lg(alpha_sum) - lg(alpha_sum + tot)
        for y in range(Y):
            total += lg(hyper.alpha[y] + n_yz[y, z]) - lg(hyper.alpha[y])
    beta_sum = hyper.beta.sum()
    for y in range(Y):
        tot = n_xy[:, y].sum()
        total += lg(beta_sum) - lg(beta_sum + tot)
        for x in range(X):
            total += lg(hyper.beta[x] + n_xy[x, y]) - lg(hyper.beta[x])
    return total


def enum_collapsed_posterior(corpus, hyper):
    """Exact posterior over complete hidden assignments (tiny corpora only).

    Returns a dict mapping (z tuple, flattened y tuple) to probability.
    """
    spec = corpus.spec
    T = len(corpus)
    lengths = [len(words) for words in corpus]
    total_tokens = sum(lengths)
    log_probs = {}
    for zs in itertools.product(range(spec.num_behaviours), repeat=T):
        for ys_flat in itertools.product(range(spec.num_topics), repeat=total_tokens):
            doc_topics = []
            pos = 0
            for n in lengths:
                doc_topics.append(list(ys_flat[pos:pos + n]))
                pos += n
            log_probs[(zs, ys_flat)] = collapsed_log_joint(doc_topics, zs, corpus, hyper)
    m = max(log_probs.values())
    probs = {k: math.exp(v - m) for k, v in log_probs.items()}
    norm = sum(probs.values())
    return {k: v / norm for k, v in probs.items()}


def per_token_generate_from(params: ModelParams, num_docs: int, doc_lengths: list[int],
                            seed: int) -> GeneratedDataset:
    """The generative chain with one word search per token: the reference
    ``generate.generate_from`` must match exactly, the next draw of the
    token stream included.

    The behaviour of document 1 is drawn from ``pi``, later behaviours from
    the transition column of the previous behaviour; each token draws a topic
    from the behaviour's topic column and a word from the topic's word column.
    """
    if len(doc_lengths) != num_docs:
        raise ValueError("doc_lengths must have num_docs entries")
    if any(n <= 0 for n in doc_lengths):
        raise ValueError("zero-length documents are not allowed")
    spec = params.spec
    rng = _stream(seed, "tokens")

    # Precomputed cumulative columns: token sampling dominates the cost.
    cum_pi = np.cumsum(params.pi)
    cum_xi = np.cumsum(params.xi, axis=0)
    cum_theta = np.cumsum(params.theta, axis=0)
    cum_phi = np.cumsum(params.phi, axis=0)

    docs = []
    topics = []
    behaviours = np.empty(num_docs, dtype=np.int64)
    z = None
    for t in range(num_docs):
        if t == 0:
            z = int(np.searchsorted(cum_pi, rng.random(), side="right").clip(0, spec.num_behaviours - 1))
        else:
            z = int(np.searchsorted(cum_xi[:, z], rng.random(), side="right").clip(0, spec.num_behaviours - 1))
        behaviours[t] = z
        n = doc_lengths[t]
        u_topic = rng.random(n)
        y = np.searchsorted(cum_theta[:, z], u_topic, side="right").clip(0, spec.num_topics - 1)
        u_word = rng.random(n)
        x = np.empty(n, dtype=np.int64)
        for i in range(n):
            x[i] = np.searchsorted(cum_phi[:, y[i]], u_word[i], side="right").clip(0, spec.num_words - 1)
        docs.append(x)
        topics.append(np.asarray(y, dtype=np.int64))
    return GeneratedDataset(corpus=corpus_from_lists(docs, spec), true_params=params,
                            true_topics=topics, true_behaviours=behaviours)


def per_document_gibbs_init(corpus: Corpus, spec: ModelSpec, seed: int):
    """``gibbs.gibbs_init`` with one ``rng.integers`` call per document for
    the topics: the reference the one-call draw must match, the state the
    generator is left in included."""
    rng = np.random.default_rng(seed)
    y_flat = np.concatenate([np.empty(0, dtype=np.int64)]
                            + [rng.integers(0, spec.num_topics, size=n)
                               for n in np.diff(corpus.offsets).tolist()])
    z_assign = rng.integers(0, spec.num_behaviours, size=len(corpus))
    return GibbsState(y_flat=y_flat, z_assign=z_assign,
                      counts=tally(y_flat, z_assign, corpus), rng=rng)


def vectorised_topic_step(state, corpus, hyper):
    """The collapsed Gibbs topic step as one numpy conditional per token,
    drawing one uniform per token: the reference the scalar loop in
    ``gibbs`` must match bit for bit."""
    n_xy, n_yz = state.counts.n_xy, state.counts.n_yz
    totals = n_xy.sum(axis=0)
    alpha, beta = hyper.alpha, hyper.beta
    beta_sum = beta.sum()
    num_topics = n_xy.shape[1]
    rng = state.rng

    for t, words in enumerate(corpus):
        z_t = int(state.z_assign[t])
        ys = state.y_flat[corpus.offsets[t]:corpus.offsets[t + 1]]
        for i in range(len(words)):
            x = int(words[i])
            y_old = int(ys[i])
            n_xy[x, y_old] -= 1
            totals[y_old] -= 1
            n_yz[y_old, z_t] -= 1
            w = (n_xy[x] + beta[x]) / (totals + beta_sum) * (n_yz[:, z_t] + alpha)
            cw = np.cumsum(w)
            k = int(np.searchsorted(cw, rng.random() * cw[-1], side="right").clip(0, num_topics - 1))
            n_xy[x, k] += 1
            totals[k] += 1
            n_yz[k, z_t] += 1
            ys[i] = k


def vectorised_behaviour_step(state, corpus, hyper):
    """The collapsed Gibbs behaviour step as numpy conditionals over all
    behaviours, drawing one uniform per document: the reference the scalar
    loop in ``gibbs`` must match bit for bit."""
    n_yz, n_zz, n_z1 = state.counts.n_yz, state.counts.n_zz, state.counts.n_z1
    z = state.z_assign
    alpha, gamma, eta = hyper.alpha, hyper.gamma, hyper.eta
    num_topics = n_yz.shape[0]
    num_behaviours = n_yz.shape[1]
    T = len(corpus)
    ks = np.arange(num_behaviours)
    log_eta = np.log(eta)
    gamma_sum = gamma.sum()
    rng = state.rng

    for t in range(T):
        z_old = int(z[t])
        m = np.bincount(state.y_flat[corpus.offsets[t]:corpus.offsets[t + 1]],
                        minlength=num_topics)
        n_t = int(m.sum())

        # Exclude document t's own contributions before scoring candidates.
        n_yz[:, z_old] -= m
        if t == 0:
            n_z1[z_old] -= 1
        else:
            n_zz[z_old, z[t - 1]] -= 1
        if t < T - 1:
            n_zz[z[t + 1], z_old] -= 1

        # Dirichlet-multinomial compound term of the document's topic counts.
        a = n_yz + alpha[:, None]
        dm = (gammaln(a + m[:, None]) - gammaln(a)).sum(axis=0)
        tot = a.sum(axis=0)
        dm -= gammaln(tot + n_t) - gammaln(tot)

        logp = dm
        if t == 0:
            logp = logp + log_eta
        else:
            logp = logp + np.log(n_zz[:, z[t - 1]] + gamma)
        if t < T - 1:
            z_next = int(z[t + 1])
            num = n_zz[z_next, :] + gamma[z_next]
            den = n_zz.sum(axis=0) + gamma_sum
            if t > 0:
                z_prev = int(z[t - 1])
                num = num + ((ks == z_prev) & (z_next == z_prev))
                den = den + (ks == z_prev)
            logp = logp + np.log(num) - np.log(den)

        logp -= logp.max()
        p = np.exp(logp)
        cp = np.cumsum(p)
        k = int(np.searchsorted(cp, rng.random() * cp[-1], side="right").clip(0, num_behaviours - 1))

        n_yz[:, k] += m
        if t == 0:
            n_z1[k] += 1
        else:
            n_zz[k, z[t - 1]] += 1
        if t < T - 1:
            n_zz[z[t + 1], k] += 1
        z[t] = k


def score_one_document(state, words):
    """The scorer one document at a time: gather each sample's emission from
    the document's words, then one Bayes update of every sample's belief,
    moved linearly through ``exp`` then ``xi``.  The reference the batched
    ``anomaly.score`` must match on beliefs no entry of which falls below
    about e^-745 of the largest; returns the document's log likelihood and
    the state after it."""
    loge = np.array([lm[words].sum(axis=0) for lm in state.log_mix])  # (S, Z)
    with np.errstate(divide="ignore", invalid="ignore"):
        joint = loge + np.log(state.behaviour_belief)
        per_sample = _lse(joint, axis=1)  # (S,)
        filtered = np.exp(joint - per_sample[:, None])
        belief = np.einsum("sij,sj->si", state.xi, filtered)
        belief /= belief.sum(axis=1, keepdims=True)
    belief = np.where(np.isfinite(per_sample)[:, None], belief, state.pi)
    log_lik = float(_lse(per_sample, axis=0) - np.log(len(per_sample)))
    return log_lik, dataclasses.replace(state, behaviour_belief=belief)


def score_record(index, length, log_lik, min_words):
    """One score-file record, as ``serialize.write_scores`` must write it:
    evaluated from ``max(min_words, 1)`` words, scored as the log of the
    length-normalised likelihood, null for an impossible document."""
    evaluated = length >= max(min_words, 1)
    if log_lik == -math.inf:
        return {"index": index, "length": length, "log_lik": None, "score": None,
                "evaluated": evaluated}
    return {"index": index, "length": length, "log_lik": log_lik,
            "score": log_lik - np.log(length) if evaluated else None, "evaluated": evaluated}


def word_log_liks_one_document(state, words):
    """Per-token log likelihoods of one document under the state's current
    beliefs, averaged over the samples."""
    with np.errstate(divide="ignore"):
        log_belief = np.log(state.behaviour_belief)
    tokens = np.array([lm[words] for lm in state.log_mix])  # (S, N, Z)
    per_sample = _lse(tokens + log_belief[:, None, :], axis=2)
    return _lse(per_sample, axis=0) - np.log(len(per_sample))


def decode_word(layout, word):
    """Cell x, cell y and direction index of one word id."""
    cell, direction = divmod(word, len(DIRECTIONS))
    return cell % layout.cols, cell // layout.cols, direction


def localise_one_document(word_lls, words, layout, top_n):
    """``anomaly.localise`` for one document: a stable argsort of its
    per-token log likelihoods, then each kept token decoded on its own.
    Returns (token index, cell x, cell y, direction index) tuples."""
    order = np.argsort(word_lls, kind="stable")[:min(top_n, len(words))]
    return [(int(i), *decode_word(layout, int(words[i]))) for i in order]


def sample_posterior_list(post, num_samples, seed):
    """All ``num_samples`` posterior draws at once, as a list, one after
    another: sample s from ``default_rng`` of the s-th of ``num_samples``
    children spawned together from ``SeedSequence(seed)``, each drawing its
    columns in the order phi, theta, xi, pi."""
    return [ModelParams(phi=_dirichlet_columns(rng, post.beta_t),
                        theta=_dirichlet_columns(rng, post.alpha_t),
                        xi=_dirichlet_columns(rng, post.gamma_t),
                        pi=_dirichlet_columns(rng, post.eta_t))
            for rng in map(np.random.default_rng,
                           np.random.SeedSequence(seed).spawn(num_samples))]


@dataclass
class Messages:
    """Log forward/backward messages, the normalisation constant and the
    cached per-document emission logs."""

    log_alpha: np.ndarray  # (num_behaviours, T)
    log_beta: np.ndarray  # (num_behaviours, T)
    log_K: float
    log_emission: np.ndarray  # (T, num_behaviours)


@dataclass
class Posteriors:
    """Hidden-variable posteriors given a corpus and parameters."""

    z1: np.ndarray  # (num_behaviours,)
    pair_zz: np.ndarray  # (T-1, Z, Z); [t-1, z_new, z_old] = p(z_{t+1}=z_new, z_t=z_old | x)
    token_yz: list[np.ndarray]  # per document (N_t, Y, Z)
    token_y: list[np.ndarray]  # per document (N_t, Y)


def forward(params: ModelParams, corpus: Corpus,
            log_emission: np.ndarray | None = None) -> np.ndarray:
    """Log forward messages: joint of the prefix and the current behaviour."""
    if log_emission is None:
        log_emission = emission_logs(word_mixture_logs(params), corpus)
    T, Z = log_emission.shape
    with np.errstate(divide="ignore"):
        log_pi = np.log(params.pi)
        log_xi = np.log(params.xi)
    la = np.empty((Z, T))
    la[:, 0] = log_pi + log_emission[0]
    for t in range(1, T):
        # la[z, t] = e(z, t) + logsumexp_z'( la[z', t-1] + log xi[z, z'] )
        la[:, t] = log_emission[t] + _lse(la[None, :, t - 1] + log_xi, axis=1)
    return la


def backward(params: ModelParams, corpus: Corpus,
             log_emission: np.ndarray | None = None) -> np.ndarray:
    """Log backward messages; the final column is zero by definition."""
    if log_emission is None:
        log_emission = emission_logs(word_mixture_logs(params), corpus)
    T, Z = log_emission.shape
    with np.errstate(divide="ignore"):
        log_xi = np.log(params.xi)
    lb = np.empty((Z, T))
    lb[:, T - 1] = 0.0
    for t in range(T - 2, -1, -1):
        # lb[z, t] = logsumexp_z'( lb[z', t+1] + log xi[z', z] + e(z', t+1) )
        lb[:, t] = _lse((lb[:, t + 1] + log_emission[t + 1])[:, None] + log_xi, axis=0)
    return lb


def scaled_e_step(params: ModelParams, corpus: Corpus) -> tuple[float, SufficientCounts]:
    """The scaled forward-backward (Rabiner 1989) as a loop over the
    documents, on the emissions shifted by their per-document maximum, with
    no log-domain fallback: its log K and counts are NaN or infinite where
    the scaled messages under- or overflow.  A reference that
    ``inference.e_step`` must match where it is finite."""
    mix = params.phi @ params.theta
    xi = params.xi
    with np.errstate(all="ignore"):
        loge = emission_logs(np.log(mix), corpus)
        shift = loge.max(axis=1)
        emit = np.exp(loge - shift[:, None])
        T, Z = emit.shape
        alpha = np.empty((T, Z))
        scale = np.empty(T)
        a = params.pi * emit[0]
        scale[0] = a.sum()
        alpha[0] = a / scale[0]
        for t in range(1, T):
            a = emit[t] * (xi @ alpha[t - 1])
            scale[t] = a.sum()
            alpha[t] = a / scale[t]
        # beta is scaled by the same constants, so alpha * beta is the posterior.
        emit /= scale[:, None]
        beta = np.empty((T, Z))
        beta[T - 1] = 1.0
        for t in range(T - 2, -1, -1):
            beta[t] = xi.T @ (emit[t + 1] * beta[t + 1])
        gamma = alpha * beta
        n_zz = xi * ((emit[1:] * beta[1:]).T @ alpha[:-1])
        log_K = float(np.sum(np.log(scale)) + np.sum(shift))
        return log_K, _counts(params, corpus, mix, gamma, n_zz)


def scaled_filtered_belief(params: ModelParams, corpus: Corpus) -> np.ndarray | None:
    """``anomaly.filtered_belief`` as a loop over the documents: the scaled
    forward update, each update whose normaliser is zero or subnormal redone
    in the log domain, and the belief restarted from ``pi`` after a document
    impossible under it."""
    log_emit = emission_logs(word_mixture_logs(params), corpus)
    shift = log_emit.max(axis=1, keepdims=True)
    shift[~np.isfinite(shift)] = 0.0
    emit = np.exp(log_emit - shift)
    xi, pi = params.xi, params.pi
    belief, post = pi, None
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(len(corpus)):
            a = emit[t] * belief
            c = a.sum()
            if c >= np.finfo(float).tiny:
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


def log_forward(loge: np.ndarray, start: np.ndarray, xi: np.ndarray, pi: np.ndarray,
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``inference.forward`` of one chain in the log domain with numpy, one
    document at a time: the normalised log messages (T, Z), the log belief
    before each document and each document's log likelihood.  An impossible
    document has a NaN message and restarts the belief from ``pi``."""
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


def log_e_step(params: ModelParams, corpus: Corpus) -> tuple[float, SufficientCounts]:
    """``inference.e_step`` on the log-domain forward recursion alone:
    :func:`log_forward` forward, and on the reversed stream under
    ``xi^T`` from a uniform belief, with the belief before each document
    recomputed from the messages.  Raises :class:`NumericalError` when the
    corpus is impossible under the model."""
    mix = params.phi @ params.theta
    ones = np.ones_like(params.pi)
    with np.errstate(divide="ignore"):
        loge = emission_logs(np.log(mix), corpus)
        log_pi, log_xi = np.log(params.pi), np.log(params.xi)
    la, _, scale = log_forward(loge, params.pi, params.xi, params.pi)
    log_K = float(scale.sum())
    if log_K == -np.inf:
        raise NumericalError("corpus impossible under model: normalisation constant is zero")
    post = log_forward(loge[::-1], ones, params.xi.T, ones)[0][::-1]
    prior = np.vstack([log_pi, _lse(la[:-1, None, :] + log_xi, axis=2)])
    norm = _lse(post + prior, axis=1)[:, None]
    gamma = np.exp(post + prior - norm)
    pair = log_xi + la[:-1, None, :] + (post - norm)[1:, :, None]
    return log_K, _counts(params, corpus, mix, gamma, np.exp(pair).sum(axis=0))


def messages(params: ModelParams, corpus: Corpus) -> Messages:
    """Run both passes once, sharing the emission logs."""
    loge = emission_logs(word_mixture_logs(params), corpus)
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
              + (loge[t] + lb[:, t])[:, None] - log_K)
        pair_zz[t - 1] = np.exp(lp)

    token_yz = []
    token_y = []
    for t, words in enumerate(corpus):
        # Leave-one-token-out product = loge[z, t] - log_mix[x_i, z]; combined
        # with the forward message this is la[z, t] - log_mix[x_i, z].
        # Behaviours with la = -inf have zero posterior mass: mask them to
        # avoid -inf minus -inf.
        base = la[:, t] + lb[:, t] - log_K  # (Z,)
        lm = log_mix[words]  # (N_t, Z)
        with np.errstate(invalid="ignore"):
            lw = base[None, :] - lm  # (N_t, Z)
        lw[:, ~np.isfinite(base)] = -np.inf
        # (N_t, Y, Z): token term + log phi + log theta
        lt = lw[:, None, :] + log_phi[words][:, :, None] + log_theta[None, :, :]
        p = np.exp(lt)
        token_yz.append(p)
        token_y.append(p.sum(axis=2))
    return Posteriors(z1=z1, pair_zz=pair_zz, token_yz=token_yz, token_y=token_y)


def expected_counts(post: Posteriors, corpus: Corpus) -> SufficientCounts:
    """Aggregate the posteriors into the four sufficient-count arrays."""
    spec = corpus.spec
    n_xy = np.zeros((spec.num_words, spec.num_topics))
    n_yz = np.zeros((spec.num_topics, spec.num_behaviours))
    for t, words in enumerate(corpus):
        np.add.at(n_xy, words, post.token_y[t])
        n_yz += post.token_yz[t].sum(axis=0)
    n_zz = post.pair_zz.sum(axis=0) if len(post.pair_zz) else np.zeros(
        (spec.num_behaviours, spec.num_behaviours))
    return SufficientCounts(n_xy=n_xy, n_yz=n_yz, n_zz=n_zz,
                            n_z1=post.z1.copy())


def infer(params: ModelParams, corpus: Corpus):
    """Convenience: messages, posteriors and counts in one call."""
    msgs = messages(params, corpus)
    post = posteriors(params, corpus, msgs)
    return msgs, post, expected_counts(post, corpus)


def log_marginal_likelihood(msgs):
    """log p(x_{1:T} | params), read off the last forward column."""
    return float(logsumexp(msgs.log_alpha[:, -1]))


def log_map_objective(params, corpus, hyper):
    """EM's objective from the token-level messages: log marginal likelihood
    plus the prior log density up to constants."""
    return _log_map(params, log_marginal_likelihood(messages(params, corpus)), hyper)


def build_corpus_per_event(events, layout, fps, clip_seconds=1.0, min_words=20):
    """``ingest.build_corpus`` one event at a time: check the frame order and
    check each event's cell and encode it on its own, then bucket it by window."""
    window = math.ceil(fps * clip_seconds)
    last_frame = None
    buckets = {}
    for frame, cx, cy, d in zip(*(np.asarray(c).tolist() for c in events)):
        if last_frame is not None and frame < last_frame:
            raise DataError(f"events out of frame order at frame {frame}")
        last_frame = frame
        if not (0 <= cx < layout.cols and 0 <= cy < layout.rows):
            raise DataError(f"event at frame {frame}: cell ({cx}, {cy}) outside "
                            f"{layout.cols}x{layout.rows} grid")
        word = (cy * layout.cols + cx) * len(DIRECTIONS) + d
        buckets.setdefault(frame // window, []).append(word)
    spec = ModelSpec(num_words=layout.vocabulary_size, num_topics=1, num_behaviours=1)
    docs, index_map = [], {}
    for w, words in buckets.items():
        if len(words) >= min_words:
            docs.append(words)
            index_map[len(docs)] = w
    return corpus_from_lists(docs, spec), index_map


def _lines(path) -> list[bytes]:
    """The lines of ``path`` after making each ``\\r\\n`` a ``\\n``; the
    last newline is optional."""
    lines = Path(path).read_bytes().replace(b"\r\n", b"\n").split(b"\n")
    return lines[:-1] if lines[-1] == b"" else lines


def read_corpus_per_token(path, spec):
    """``serialize.read_corpus`` one line at a time: a ``re.fullmatch`` of
    the grammar, then ``int()`` per token."""
    docs = []
    for t, line in enumerate(_lines(path), start=1):
        if not re.fullmatch(rb"[ \t]*[0-9]{1,18}(?:[ \t]+[0-9]{1,18})*[ \t]*", line):
            raise DataError(f"line {t} of {path}: expected word ids of 1 to 18 ASCII digits "
                            "separated by spaces or tabs")
        docs.append([int(tok) for tok in line.split()])
    if not docs:
        raise DataError(f"corpus file {path} holds no documents")
    return corpus_from_lists(docs, spec)


def read_events_per_line(path):
    """``serialize.read_events`` one line at a time: a ``re.fullmatch`` of
    the grammar, then ``int()`` per field and a tuple lookup per direction."""
    lines = _lines(path)
    if lines[:1] != [b"frame,cell_x,cell_y,dir"]:
        raise DataError(f"line 1 of {path}: expected the header 'frame,cell_x,cell_y,dir'")
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        if not re.fullmatch(rb"[0-9]{1,18},[0-9]{1,18},[0-9]{1,18},(up|left|down|right)", line):
            raise DataError(f"line {i} of {path}: expected digits,digits,digits,direction (1 to "
                            "18 ASCII digits each; up, left, down or right)")
        *numbers, direction = line.decode().split(",")
        rows.append([int(f) for f in numbers] + [DIRECTIONS.index(direction)])
    return np.array(rows, dtype=np.int64).reshape(-1, 4).T
