"""Collapsed Gibbs sampling: hidden assignments with the parameter matrices
integrated out.

The conditionals are derived from the full joint of the model.  For a topic
assignment the conditional is the usual word-count ratio times the
topic-given-behaviour count.  For a behaviour assignment it combines the
Dirichlet-multinomial compound likelihood of the document's topic counts
with the collapsed transition terms into and out of the document, including
the self-transition correction when the neighbouring behaviours coincide.
The initial-behaviour distribution is not sampled; its collapsed single
observation contributes a term proportional to the prior vector.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .model import (
    Corpus,
    Hyperparams,
    ModelParams,
    ModelSpec,
    SufficientCounts,
)
from .vb import point_estimates, vb_m_step


@dataclass
class GibbsState:
    """Assignments, their tallies and the chain's RNG."""

    y_flat: np.ndarray  # topic of every token, in the order of Corpus.tokens
    y_assign: list[np.ndarray]  # per-document views into y_flat
    z_assign: np.ndarray
    counts: SufficientCounts
    topic_totals: np.ndarray  # cached column sums of n_xy
    rng: np.random.Generator
    sweeps: int = 0


def tally(y_assign, z_assign, corpus: Corpus) -> SufficientCounts:
    """Full recount of the assignments; used for init and audits."""
    spec = corpus.spec
    Y, Z = spec.num_topics, spec.num_behaviours
    y = np.concatenate(y_assign).astype(np.int64)
    z = np.asarray(z_assign, dtype=np.int64)
    z_tokens = np.repeat(z, np.diff(corpus.offsets))
    return SufficientCounts(
        n_xy=np.bincount(corpus.tokens * Y + y, minlength=spec.num_words * Y).reshape(-1, Y),
        n_yz=np.bincount(y * Z + z_tokens, minlength=Y * Z).reshape(Y, Z),
        n_zz=np.bincount(z[1:] * Z + z[:-1], minlength=Z * Z).reshape(Z, Z),
        n_z1=np.bincount(z[:1], minlength=Z),
        mode="integer")


def gibbs_init(corpus: Corpus, spec: ModelSpec, seed: int) -> GibbsState:
    """Uniform-random assignments with consistent tallies.

    The topics are drawn one document at a time: a single draw for every
    token would give a different stream.
    """
    rng = np.random.default_rng(seed)
    y_flat = np.concatenate([rng.integers(0, spec.num_topics, size=len(doc))
                             for doc in corpus.documents])
    y_assign = np.split(y_flat, corpus.offsets[1:-1])
    z_assign = rng.integers(0, spec.num_behaviours, size=len(corpus))
    counts = tally(y_assign, z_assign, corpus)
    return GibbsState(y_flat=y_flat, y_assign=y_assign, z_assign=z_assign,
                      counts=counts, topic_totals=counts.n_xy.sum(axis=0), rng=rng)


def _resample_behaviours(state: GibbsState, corpus: Corpus, hyper: Hyperparams):
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
        m = np.bincount(state.y_assign[t], minlength=num_topics)
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


def _resample_topics(state: GibbsState, corpus: Corpus, hyper: Hyperparams):
    """Resample every token's topic, in corpus order.

    A loop over Python scalars: per token the conditional is
    ``(n_xy[x, k] + beta_x) / (tot_k + sum(beta)) * (n_yz[k, z] + alpha_k)``,
    summed as it goes, and the topic is the first whose running sum exceeds
    ``u * total``.  These are the float64 operations, in the same order, of
    the per-token numpy conditional the tests keep as the reference, so the
    chain matches it bit for bit.  The uniforms are drawn in one call, which
    gives the same stream as one draw per token.
    """
    counts = state.counts
    last = counts.n_xy.shape[1] - 1
    topics = range(last + 1)
    n_xy = counts.n_xy.tolist()
    n_zy = counts.n_yz.T.tolist()
    totals = state.topic_totals.tolist()
    alpha = hyper.alpha.tolist()
    beta = hyper.beta.tolist()
    beta_sum = float(hyper.beta.sum())
    words = corpus.tokens.tolist()
    behaviours = np.repeat(state.z_assign, np.diff(corpus.offsets)).tolist()
    ys = state.y_flat.tolist()
    uniforms = state.rng.random(len(ys)).tolist()
    cw = [0.0] * (last + 1)

    for i in range(len(ys)):
        x, y_old = words[i], ys[i]
        row, col = n_xy[x], n_zy[behaviours[i]]
        row[y_old] -= 1
        totals[y_old] -= 1
        col[y_old] -= 1
        b = beta[x]
        s = 0.0
        for k in topics:
            s += (row[k] + b) / (totals[k] + beta_sum) * (col[k] + alpha[k])
            cw[k] = s
        k = min(bisect_right(cw, uniforms[i] * s), last)
        row[k] += 1
        totals[k] += 1
        col[k] += 1
        ys[i] = k

    counts.n_xy[...] = n_xy
    counts.n_yz[...] = np.array(n_zy).T
    state.topic_totals[...] = totals
    state.y_flat[...] = ys


def gibbs_sweep(state: GibbsState, corpus: Corpus, hyper: Hyperparams,
                audit: bool = False) -> GibbsState:
    """One full pass: behaviours in time order, then topics in corpus order.

    With ``audit`` the tallies are recounted from scratch afterwards and a
    mismatch aborts.
    """
    _resample_behaviours(state, corpus, hyper)
    _resample_topics(state, corpus, hyper)
    state.sweeps += 1
    if audit:
        fresh = tally(state.y_assign, state.z_assign, corpus)
        for name in ("n_xy", "n_yz", "n_zz", "n_z1"):
            if not np.array_equal(getattr(fresh, name), getattr(state.counts, name)):
                raise AssertionError(f"count audit failed for {name} after sweep {state.sweeps}")
    return state


def point_estimate(counts: SufficientCounts, hyper: Hyperparams) -> ModelParams:
    """Posterior-mean estimate from a single counts sample: (count + prior)
    column-normalised — algebraically the same form as the VB point
    estimate, so it is computed through it."""
    float_counts = SufficientCounts(
        n_xy=np.asarray(counts.n_xy, dtype=float),
        n_yz=np.asarray(counts.n_yz, dtype=float),
        n_zz=np.asarray(counts.n_zz, dtype=float),
        n_z1=np.asarray(counts.n_z1, dtype=float),
    )
    return point_estimates(vb_m_step(float_counts, hyper))


def gs_fit(corpus: Corpus, hyper: Hyperparams, spec: ModelSpec, seed: int,
           burn_in: int = 500, num_samples: int = 5, spacing: int = 100,
           ) -> tuple[list[SufficientCounts], list[ModelParams], ModelParams]:
    """Run one chain; capture spaced count samples after burn-in.

    Returns the captured counts, the per-sample point estimates and their
    pooled (averaged) estimate.
    """
    state = gibbs_init(corpus, spec, seed)
    for _ in range(burn_in):
        gibbs_sweep(state, corpus, hyper)
    samples = []
    for s in range(num_samples):
        if s > 0:
            for _ in range(spacing):
                gibbs_sweep(state, corpus, hyper)
        samples.append(state.counts.copy())
    per_sample = [point_estimate(c, hyper) for c in samples]
    pooled = ModelParams(
        phi=np.mean([p.phi for p in per_sample], axis=0),
        theta=np.mean([p.theta for p in per_sample], axis=0),
        xi=np.mean([p.xi for p in per_sample], axis=0),
        pi=np.mean([p.pi for p in per_sample], axis=0),
    )
    return samples, per_sample, pooled
