"""Brute-force oracles used by the tests.

These are deliberately independent of the library's dynamic-programming
implementations: exhaustive enumeration over behaviour paths (and, for the
collapsed sampler, over complete hidden assignments).  The token-level
log-domain forward-backward (``messages``, ``posteriors``,
``expected_counts``, ``infer``), the per-token Gibbs topic step, the per-document scorer, the per-event corpus builder, the
per-token corpus reader and the list-building posterior sampler are the
straightforward versions the fast library paths must match.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import logsumexp

from markovtopics.anomaly import ScoredDocument, normalise_score
from markovtopics.em import _log_prior_exponents
from markovtopics.inference import _lse, emission_logs, word_mixture_logs
from markovtopics.ingest import DIRECTIONS, word_id
from markovtopics.model import (
    Corpus,
    DataError,
    Document,
    ModelParams,
    ModelSpec,
    NumericalError,
    SufficientCounts,
)
from markovtopics.vb import _dirichlet_columns


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

    doc_words = [doc.words for doc in corpus.documents]
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
    for t, doc in enumerate(corpus.documents):
        for i, x in enumerate(doc.words):
            n_xy[x] += post["token_y"][t][i]
        n_yz += post["token_yz"][t].sum(axis=0)
    n_zz = post["pair_zz"].sum(axis=0)
    return n_xy, n_yz, n_zz, post["z1"]


def collapsed_log_joint(y_assign, z_assign, corpus, hyper):
    """Log joint of a complete hidden assignment with parameters integrated
    out, up to an assignment-independent constant."""
    spec = corpus.spec
    X, Y, Z = spec.num_words, spec.num_topics, spec.num_behaviours
    n_xy = np.zeros((X, Y))
    n_yz = np.zeros((Y, Z))
    n_zz = np.zeros((Z, Z))
    for t, doc in enumerate(corpus.documents):
        for i, x in enumerate(doc.words):
            n_xy[x, y_assign[t][i]] += 1
            n_yz[y_assign[t][i], z_assign[t]] += 1
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
    lengths = [len(doc) for doc in corpus.documents]
    total_tokens = sum(lengths)
    log_probs = {}
    for zs in itertools.product(range(spec.num_behaviours), repeat=T):
        for ys_flat in itertools.product(range(spec.num_topics), repeat=total_tokens):
            y_assign = []
            pos = 0
            for n in lengths:
                y_assign.append(list(ys_flat[pos:pos + n]))
                pos += n
            log_probs[(zs, ys_flat)] = collapsed_log_joint(y_assign, zs, corpus, hyper)
    m = max(log_probs.values())
    probs = {k: math.exp(v - m) for k, v in log_probs.items()}
    norm = sum(probs.values())
    return {k: v / norm for k, v in probs.items()}


def vectorised_topic_step(state, corpus, hyper):
    """The collapsed Gibbs topic step as one numpy conditional per token,
    drawing one uniform per token: the reference the scalar loop in
    ``gibbs`` must match bit for bit."""
    n_xy, n_yz = state.counts.n_xy, state.counts.n_yz
    totals = state.topic_totals
    alpha, beta = hyper.alpha, hyper.beta
    beta_sum = beta.sum()
    num_topics = n_xy.shape[1]
    rng = state.rng

    for t, doc in enumerate(corpus.documents):
        z_t = int(state.z_assign[t])
        ys = state.y_assign[t]
        words = doc.words
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


def score_one_document(state, doc, min_words):
    """The scorer one document at a time: gather each sample's emission from
    the document's words, then one Bayes update of every sample's belief.
    The reference the batched ``anomaly.score`` must match."""
    loge = np.array([lm[doc.words].sum(axis=0) for lm in state.log_mix])  # (S, Z)
    with np.errstate(divide="ignore", invalid="ignore"):
        joint = loge + np.log(state.behaviour_belief)
        per_sample = _lse(joint, axis=1)  # (S,)
        filtered = np.exp(joint - per_sample[:, None])
        belief = np.einsum("sij,sj->si", state.xi, filtered)
        belief /= belief.sum(axis=1, keepdims=True)
    belief = np.where(np.isfinite(per_sample)[:, None], belief, state.pi)
    log_lik = float(_lse(per_sample, axis=0) - np.log(len(per_sample)))
    new_state = dataclasses.replace(state, behaviour_belief=belief,
                                    last_doc_index=state.last_doc_index + 1)
    n = len(doc)
    evaluated = n >= max(min_words, 1)
    scored = ScoredDocument(index=new_state.last_doc_index, length=n, log_lik=log_lik,
                            score=normalise_score(log_lik, n) if evaluated else None,
                            evaluated=evaluated)
    return scored, new_state


def word_log_liks_one_document(state, doc):
    """Per-token log likelihoods of one document under the state's current
    beliefs, averaged over the samples."""
    with np.errstate(divide="ignore"):
        log_belief = np.log(state.behaviour_belief)
    tokens = np.array([lm[doc.words] for lm in state.log_mix])  # (S, N, Z)
    per_sample = _lse(tokens + log_belief[:, None, :], axis=2)
    return _lse(per_sample, axis=0) - np.log(len(per_sample))


def sample_posterior_list(post, num_samples, seed):
    """All ``num_samples`` posterior draws at once, as a list: the same
    gamma calls in the same order as the library's sample generator."""
    rng = np.random.default_rng(seed)
    return [ModelParams(phi=_dirichlet_columns(rng, post.beta_t),
                        theta=_dirichlet_columns(rng, post.alpha_t),
                        xi=_dirichlet_columns(rng, post.gamma_t),
                        pi=_dirichlet_columns(rng, post.eta_t))
            for _ in range(num_samples)]


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


def log_marginal_likelihood(msgs):
    """log p(x_{1:T} | params), read off the last forward column."""
    return float(logsumexp(msgs.log_alpha[:, -1]))


def log_map_objective(params, corpus, hyper):
    """EM's objective from the token-level messages: log marginal likelihood
    plus the prior log density up to constants."""
    return (log_marginal_likelihood(messages(params, corpus))
            + _log_prior_exponents(params, hyper))


def build_corpus_per_event(events, layout, fps, clip_seconds=1.0, min_words=20):
    """``ingest.build_corpus`` one event at a time: check the frame order and
    encode each event with ``word_id``, then bucket it by window."""
    window = math.ceil(fps * clip_seconds)
    last_frame = None
    buckets = {}
    for frame, cx, cy, d in zip(*(np.asarray(c).tolist() for c in events)):
        if last_frame is not None and frame < last_frame:
            raise DataError(f"events out of frame order at frame {frame}")
        last_frame = frame
        try:
            word = word_id(layout, cx, cy, DIRECTIONS[d])
        except ValueError as exc:
            raise DataError(f"event at frame {frame}: {exc}") from exc
        buckets.setdefault(frame // window, []).append(word)
    spec = ModelSpec(num_words=layout.vocabulary_size, num_topics=1, num_behaviours=1)
    docs, index_map = [], {}
    for w, words in buckets.items():
        if len(words) >= min_words:
            docs.append(Document(words=np.asarray(words, dtype=np.int64),
                                 timestamp=len(docs) + 1))
            index_map[len(docs)] = w
    return Corpus(documents=docs, spec=spec), index_map


def read_corpus_per_token(path, spec):
    """``serialize.read_corpus`` one token at a time with ``int()``."""
    lines = Path(path).read_text().split("\n")
    if lines and lines[-1] == "":
        lines = lines[:-1]
    docs = []
    for t, line in enumerate(lines, start=1):
        if line.strip() == "":
            raise DataError(f"blank line at document position {t} in {path}")
        try:
            words = np.asarray([int(tok) for tok in line.split()], dtype=np.int64)
        except (ValueError, OverflowError) as exc:
            raise DataError(f"word id at document {t} in {path} is not a 64-bit "
                            "integer") from exc
        docs.append(Document(words=words, timestamp=t))
    if not docs:
        raise DataError(f"corpus file {path} holds no documents")
    return Corpus(documents=docs, spec=spec)
