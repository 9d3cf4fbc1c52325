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
from itertools import accumulate

import numpy as np

from . import _kernels
from .model import (
    Corpus,
    Hyperparams,
    ModelParams,
    ModelSpec,
    SufficientCounts,
    _columns,
    _from_columns,
)
from .vb import point_estimates, vb_m_step


@dataclass
class GibbsState:
    """Assignments, their tallies and the chain's RNG."""

    y_flat: np.ndarray  # topic of every token, in the order of Corpus.tokens
    z_assign: np.ndarray
    counts: SufficientCounts
    rng: np.random.Generator


def tally(y_flat, z_assign, corpus: Corpus) -> SufficientCounts:
    """Full recount of the assignments (token topics in the order of
    ``corpus.tokens``, document behaviours); used for init and audits."""
    spec = corpus.spec
    Y, Z = spec.num_topics, spec.num_behaviours
    y = np.asarray(y_flat, dtype=np.int64)
    z = np.asarray(z_assign, dtype=np.int64)
    z_tokens = np.repeat(z, np.diff(corpus.offsets))
    return SufficientCounts(
        n_xy=np.bincount(corpus.tokens * Y + y, minlength=spec.num_words * Y).reshape(-1, Y),
        n_yz=np.bincount(y * Z + z_tokens, minlength=Y * Z).reshape(Y, Z),
        n_zz=np.bincount(z[1:] * Z + z[:-1], minlength=Z * Z).reshape(Z, Z),
        n_z1=np.bincount(z[:1], minlength=Z))


def gibbs_init(corpus: Corpus, spec: ModelSpec, seed: int) -> GibbsState:
    """Uniform-random assignments with consistent tallies.

    Every token's topic comes from one ``rng.integers`` call: numpy draws
    these from 32-bit values that PCG64 cuts from 64-bit outputs, keeping a
    spare half in its state, so stream and state are those of a call per document.
    """
    rng = np.random.default_rng(seed)
    y_flat = rng.integers(0, spec.num_topics, size=corpus.num_tokens)
    z_assign = rng.integers(0, spec.num_behaviours, size=len(corpus))
    return GibbsState(y_flat=y_flat, z_assign=z_assign,
                      counts=tally(y_flat, z_assign, corpus), rng=rng)


def _column_total(column, alpha) -> float:
    """``sum(n_y + alpha_y)`` over topics, added in topic order as numpy's
    column sum of the (topics, behaviours) array adds its rows."""
    total = 0.0
    for n, a in zip(column, alpha):
        total += n + a
    return total


def _resample_behaviours(state: GibbsState, corpus: Corpus, hyper: Hyperparams):
    """Resample every document's behaviour, in time order.

    A loop over Python scalars.  The conditional of behaviour ``k`` is the
    Dirichlet-multinomial term of the document's topic counts ``m`` under
    column ``k`` of ``n_yz + alpha`` (rows with ``m_y = 0`` add exactly 0,
    so only the used topics are visited), then the transition into the
    document, then the transitions out of it over their column total, with
    the self-transition correction.  ``gammaln`` of every ``n_yz + alpha``
    entry and of the column totals is cached and refreshed in the columns
    ``place`` touches.  The transition logs come from tables built with one
    ``np.log`` call per sweep, and each document's conditional is
    exponentiated with one ``np.exp`` call; the float64 operations are
    those, in the same order, of the numpy conditional the tests keep as the
    reference, so the chain matches it bit for bit.  The uniforms are drawn
    in one call, which gives the same stream as one draw per document.
    """
    # The ufunc's own scalar routine, imported here: the extension maps
    # about 1 MB that only a Gibbs fit needs.
    from scipy.special.cython_special import gammaln

    counts = state.counts
    num_topics, num_behaviours = counts.n_yz.shape
    T = len(corpus)
    last = num_behaviours - 1
    behaviours = range(num_behaviours)
    alpha = hyper.alpha.tolist()
    lengths = np.diff(corpus.offsets)
    docs = np.repeat(np.arange(T) * num_topics, lengths)
    histograms = np.bincount(docs + state.y_flat, minlength=T * num_topics)
    histograms = histograms.reshape(T, num_topics).tolist()
    lengths = lengths.tolist()

    # Transition logs by count n in [0, T]: log(n + gamma_j), the same plus
    # one (a self transition), log(n + sum(gamma)) and the same plus one.
    grid = np.arange(T + 1)
    into = grid + hyper.gamma[:, None]
    out_of = grid + hyper.gamma.sum()
    logs = np.log(np.vstack([into, into + 1.0, out_of, out_of + 1.0])).tolist()
    log_into, log_self = logs[:num_behaviours], logs[num_behaviours:-2]
    log_out, log_out_self = logs[-2], logs[-1]
    log_eta = np.log(hyper.eta).tolist()

    z = state.z_assign.tolist()
    n_zz = counts.n_zz.tolist()  # [z_new][z_old]
    n_z1 = counts.n_z1.tolist()
    leaving = counts.n_zz.sum(axis=0).tolist()
    columns = counts.n_yz.T.tolist()  # [z][y]
    lg = [[gammaln(n + a) for n, a in zip(col, alpha)] for col in columns]
    totals = [_column_total(col, alpha) for col in columns]
    lg_totals = [gammaln(s) for s in totals]
    uniforms = state.rng.random(T).tolist()

    def place(k, sign):
        """Add (+1) or remove (-1) document t under behaviour k."""
        col, lg_k = columns[k], lg[k]
        for y, c in used:
            col[y] += sign * c
            lg_k[y] = gammaln(col[y] + alpha[y])
        totals[k] = _column_total(col, alpha)
        lg_totals[k] = gammaln(totals[k])
        if first:
            n_z1[k] += sign
        else:
            n_zz[k][z_prev] += sign
            leaving[z_prev] += sign
        if not final:
            n_zz[z_next][k] += sign
            leaving[k] += sign

    for t in range(T):
        used = [(y, c) for y, c in enumerate(histograms[t]) if c]
        n_t = lengths[t]
        first, final = t == 0, t == T - 1
        if not first:
            z_prev = z[t - 1]
        if not final:
            z_next = z[t + 1]
            next_row = n_zz[z_next]

        # Exclude document t's own contributions before scoring candidates.
        place(z[t], -1)
        logp = []
        for k in behaviours:
            col, lg_k = columns[k], lg[k]
            dm = 0.0
            for y, c in used:
                dm += gammaln(col[y] + alpha[y] + c) - lg_k[y]
            dm -= gammaln(totals[k] + n_t) - lg_totals[k]
            v = dm + (log_eta[k] if first else log_into[k][n_zz[k][z_prev]])
            if not final:
                if first or k != z_prev:
                    v = v + log_into[z_next][next_row[k]] - log_out[leaving[k]]
                elif z_next == z_prev:
                    v = v + log_self[z_next][next_row[k]] - log_out_self[leaving[k]]
                else:
                    v = v + log_into[z_next][next_row[k]] - log_out_self[leaving[k]]
            logp.append(v)

        top = max(logp)
        cw = list(accumulate(np.exp([v - top for v in logp]).tolist()))
        k = min(bisect_right(cw, uniforms[t] * cw[-1]), last)
        place(k, 1)
        z[t] = k

    counts.n_yz[...] = np.array(columns).T
    counts.n_zz[...] = n_zz
    counts.n_z1[...] = n_z1
    state.z_assign[...] = z


def _resample_topics(state: GibbsState, corpus: Corpus, hyper: Hyperparams):
    """Resample every token's topic, in corpus order, with the compiled
    kernel where it builds and the Python loop where it does not: one
    argument list, the same bytes.

    The uniforms are drawn in one call, which gives the same stream as one
    draw per token.  The kernel indexes without bounds checks, so the arrays
    it writes and the indices it reads are checked first, on either path.
    """
    counts = state.counts
    n_xy, n_yz, ys, z = counts.n_xy, counts.n_yz, state.y_flat, state.z_assign
    num_topics, num_behaviours = n_yz.shape
    num_words = corpus.spec.num_words
    for name, a, shape in (("n_xy", n_xy, (num_words, num_topics)),
                           ("n_yz", n_yz, (num_topics, num_behaviours)),
                           ("y_flat", ys, (corpus.num_tokens,))):
        if not (a.dtype == np.int64 and a.flags.c_contiguous and a.flags.writeable
                and a.shape == shape):
            raise ValueError(f"{name} must be a writeable C-contiguous int64 array of shape {shape}")
    if ys.size and not 0 <= ys.min() <= ys.max() < num_topics:
        raise ValueError(f"y_flat holds topics outside [0, {num_topics})")
    if z.dtype != np.int64 or z.shape != (len(corpus),) or (
            z.size and not 0 <= z.min() <= z.max() < num_behaviours):
        raise ValueError(f"z_assign must be {len(corpus)} int64 behaviours in [0, {num_behaviours})")
    if hyper.alpha.shape != (num_topics,) or hyper.beta.shape != (num_words,):
        raise ValueError("alpha and beta must have one entry per topic and per word")

    # The arguments of resample_topics in _kernels.c, for either
    # implementation; the list holds every buffer until the kernel returns.
    arrays = [np.ascontiguousarray(a) for a in (
        corpus.offsets, corpus.tokens, z, state.rng.random(len(ys)), hyper.alpha, hyper.beta,
        n_xy, n_yz, n_xy.sum(axis=0), ys, np.empty(num_topics))]
    scalars = (len(corpus), num_topics, num_behaviours, float(hyper.beta.sum()))
    lib = _kernels.load()
    if lib is None:
        _topics_in_python(*scalars, *arrays)
    else:
        lib.resample_topics(*scalars, *[a.ctypes.data for a in arrays])


def _topics_in_python(num_docs, num_topics, num_behaviours, beta_sum, offsets, words, z,
                      uniforms, alpha, beta, n_xy, n_yz, totals, ys, cw):
    """``resample_topics`` of ``_kernels.c`` line for line, over lists, with
    ``col[k]`` for the kernel's ``col[k * num_behaviours]``: per token the
    conditional ``(n_xy[x, k] + beta_x) / (tot_k + beta_sum) * (n_yz[k, z] +
    alpha_k)`` is summed as it goes, and the topic is the first whose running
    sum exceeds ``u * s``; the float64 operations, in the same order, of the
    per-token numpy conditional the tests keep as the reference."""
    offsets, words, z, uniforms, alpha, beta, totals, cw = (
        a.tolist() for a in (offsets, words, z, uniforms, alpha, beta, totals, cw))
    rows, columns, y = n_xy.tolist(), n_yz.T.tolist(), ys.tolist()
    topics, last = range(num_topics), num_topics - 1
    for t in range(num_docs):
        col = columns[z[t]]
        for i in range(offsets[t], offsets[t + 1]):
            row, k = rows[words[i]], y[i]
            b, s = beta[words[i]], 0.0
            row[k] -= 1
            totals[k] -= 1
            col[k] -= 1
            for k in topics:
                s += (row[k] + b) / (totals[k] + beta_sum) * (col[k] + alpha[k])
                cw[k] = s
            k = min(bisect_right(cw, uniforms[i] * s), last)
            row[k] += 1
            totals[k] += 1
            col[k] += 1
            y[i] = k
    n_xy[...] = rows
    n_yz[...] = np.array(columns).T
    ys[...] = y


def gibbs_sweep(state: GibbsState, corpus: Corpus, hyper: Hyperparams) -> GibbsState:
    """One full pass: behaviours in time order, then topics in corpus order."""
    _resample_behaviours(state, corpus, hyper)
    _resample_topics(state, corpus, hyper)
    return state


def point_estimate(counts: SufficientCounts, hyper: Hyperparams) -> ModelParams:
    """Posterior-mean estimate from a single counts sample: (count + prior)
    column-normalised — algebraically the same form as the VB point
    estimate, so it is computed through it."""
    return point_estimates(vb_m_step(counts, hyper))


def gs_fit(corpus: Corpus, hyper: Hyperparams, spec: ModelSpec, seed: int,
           burn_in: int = 500, num_samples: int = 5, spacing: int = 100,
           ) -> tuple[list[SufficientCounts], ModelParams]:
    """Run one chain; capture spaced count samples after burn-in.

    Returns the captured counts and the pooled estimate: the average of
    their point estimates.
    """
    state = gibbs_init(corpus, spec, seed)
    samples = []
    for s in range(num_samples):
        for _ in range(spacing if s else burn_in):
            gibbs_sweep(state, corpus, hyper)
        samples.append(state.counts.copy())
    per_sample = [point_estimate(c, hyper) for c in samples]
    pooled = _from_columns(ModelParams, [np.mean(group, axis=0)
                                         for group in zip(*map(_columns, per_sample))])
    return samples, pooled
