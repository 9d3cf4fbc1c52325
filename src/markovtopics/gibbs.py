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

import math
from bisect import bisect_right
from collections.abc import Callable
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
    n_zz, n_z1 = _transitions(z, Z)
    return SufficientCounts(
        n_xy=np.bincount(corpus.tokens * Y + y, minlength=spec.num_words * Y).reshape(-1, Y),
        n_yz=np.bincount(y * Z + z_tokens, minlength=Y * Z).reshape(Y, Z), n_zz=n_zz, n_z1=n_z1)


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


def _transitions(z, num_behaviours):
    """``n_zz`` ([z_new, z_old]) and ``n_z1`` recounted from the behaviours ``z``."""
    Z = num_behaviours
    return (np.bincount(z[1:] * Z + z[:-1], minlength=Z * Z).reshape(Z, Z),
            np.bincount(z[:1], minlength=Z))


def _behaviours_in_python(num_docs, num_topics, num_behaviours, gammaln, offsets, ys, uniforms,
                          alpha, log_eta, logs, z, n_yz, n_zz, n_z1, leaving, hist, work):
    """``resample_behaviours`` of ``_kernels.c`` line for line, over lists,
    with ``columns[k][y]`` for the kernel's ``n_yz[y * Z + k]``, a document's
    used topics listed once rather than tested for each behaviour,
    ``gammaln(x)`` for the kernel's ``gammaln(x, 0)``, lists of its own for
    the scratch ``hist`` and ``work``, and ``left`` for ``leaving``, written
    back as the kernel keeps it."""
    offsets, ys, uniforms, alpha, log_eta, zs, z1, left = (
        a.tolist() for a in (offsets, ys, uniforms, alpha, log_eta, z, n_z1, leaving))
    columns, rows = n_yz.T.tolist(), n_zz.tolist()
    (*log_into, log_out), (*log_self, log_out_self) = logs.reshape(
        2, num_behaviours + 1, num_docs + 1).tolist()
    topics, behaviours, last = range(num_topics), range(num_behaviours), num_behaviours - 1

    def total(col):
        s = 0.0
        for y in topics:
            s += col[y] + alpha[y]
        return s

    def place(t, k, sign):
        """Add (+1) or remove (-1) document t under behaviour k."""
        col, lg_k = columns[k], lg[k]
        for y, c in used:
            col[y] += sign * c
            lg_k[y] = gammaln(col[y] + alpha[y])
        totals[k] = total(col)
        lg_totals[k] = gammaln(totals[k])
        if t == 0:
            z1[k] += sign
        else:
            rows[k][zs[t - 1]] += sign
            left[zs[t - 1]] += sign
        if t < num_docs - 1:
            rows[zs[t + 1]][k] += sign
            left[k] += sign

    lg = [[gammaln(col[y] + alpha[y]) for y in topics] for col in columns]
    totals = [total(col) for col in columns]
    lg_totals = [gammaln(s) for s in totals]
    for t in range(num_docs):
        n_t, first, final = offsets[t + 1] - offsets[t], t == 0, t == num_docs - 1
        z_prev, z_next = 0 if first else zs[t - 1], 0 if final else zs[t + 1]
        next_row = rows[z_next]
        hist = [0] * num_topics
        for i in range(offsets[t], offsets[t + 1]):
            hist[ys[i]] += 1
        used = [(y, c) for y, c in enumerate(hist) if c]

        # Exclude document t's own contributions before scoring candidates.
        place(t, zs[t], -1)
        logp = []
        for k in behaviours:
            col, lg_k = columns[k], lg[k]
            dm = 0.0
            for y, c in used:
                dm += gammaln(col[y] + alpha[y] + c) - lg_k[y]
            dm -= gammaln(totals[k] + n_t) - lg_totals[k]
            v = dm + (log_eta[k] if first else log_into[k][rows[k][z_prev]])
            if not final:
                if first or k != z_prev:
                    v = v + log_into[z_next][next_row[k]] - log_out[left[k]]
                elif z_next == z_prev:
                    v = v + log_self[z_next][next_row[k]] - log_out_self[left[k]]
                else:
                    v = v + log_into[z_next][next_row[k]] - log_out_self[left[k]]
            logp.append(v)
        top = max(logp)
        cw = list(accumulate(math.exp(v - top) for v in logp))
        k = min(bisect_right(cw, uniforms[t] * cw[-1]), last)
        place(t, k, 1)
        zs[t] = k
    n_yz[...] = np.array(columns).T
    n_zz[...] = rows
    n_z1[...] = z1
    leaving[...] = left
    z[...] = zs


def _topics_in_python(num_docs, num_topics, num_behaviours, beta_sum, offsets, words, z,
                      uniforms, alpha, beta, n_xy, n_yz, totals, ys, cw):
    """``resample_topics`` of ``_kernels.c`` line for line, over lists, with
    ``col[k]`` for the kernel's ``col[k * num_behaviours]`` and ``tot`` for
    ``totals``, written back as the kernel keeps it: per token the
    conditional ``(n_xy[x, k] + beta_x) / (tot_k + beta_sum) * (n_yz[k, z] +
    alpha_k)`` is summed as it goes, and the topic is the first whose running
    sum exceeds ``u * s``; the float64 operations, in the same order, of the
    per-token numpy conditional the tests keep as the reference."""
    offsets, words, z, uniforms, alpha, beta, cw = (
        a.tolist() for a in (offsets, words, z, uniforms, alpha, beta, cw))
    rows, columns, tot, y = n_xy.tolist(), n_yz.T.tolist(), totals.tolist(), ys.tolist()
    topics, last = range(num_topics), num_topics - 1
    for t in range(num_docs):
        col = columns[z[t]]
        for i in range(offsets[t], offsets[t + 1]):
            row, k = rows[words[i]], y[i]
            b, s = beta[words[i]], 0.0
            row[k] -= 1
            tot[k] -= 1
            col[k] -= 1
            for k in topics:
                s += (row[k] + b) / (tot[k] + beta_sum) * (col[k] + alpha[k])
                cw[k] = s
            k = min(bisect_right(cw, uniforms[i] * s), last)
            row[k] += 1
            tot[k] += 1
            col[k] += 1
            y[i] = k
    n_xy[...] = rows
    n_yz[...] = np.array(columns).T
    totals[...] = tot
    ys[...] = y


@dataclass
class GibbsChain:
    """A state with its two steps bound once by :func:`chain`, the behaviour
    step and then the topic step, each with the buffer its uniforms are drawn
    into; and the column sums of ``n_xy`` (``totals``) and ``n_zz``
    (``leaving``), which the steps keep current."""

    state: GibbsState
    steps: tuple[tuple[np.ndarray, Callable[[], None]], ...]
    totals: np.ndarray
    leaving: np.ndarray


def chain(state: GibbsState, corpus: Corpus, hyper: Hyperparams) -> GibbsChain:
    """``state``'s behaviour and topic steps, each bound once by
    ``_kernels.bind`` to its kernel's argument list: one guard first, on
    either path, since the kernels index without bounds checks and the
    behaviour step indexes log tables by ``n_zz``'s entries and column sums
    (``ValueError``).  The chain then owns the state's arrays: a state changed
    other than by :func:`gibbs_sweep` needs a new chain.

    The transition logs, ``log(n + gamma_j)`` and ``log(n + sum(gamma))`` for
    counts ``n`` in ``[0, T]`` and the same plus one (a self transition), and
    ``log(eta)`` come from ``np.log``, as in the numpy reference; the kernel
    and the copy exponentiate with libm's ``exp``, which may differ from
    ``np.exp`` in the last bit, so a draw could move only where a uniform
    falls within that bit."""
    counts, ys, z = state.counts, state.y_flat, state.z_assign
    T, X = len(corpus), corpus.spec.num_words
    Y, Z = corpus.spec.num_topics, corpus.spec.num_behaviours
    for name, a, shape in (("y_flat", ys, (corpus.num_tokens,)), ("z_assign", z, (T,)),
                           ("n_xy", counts.n_xy, (X, Y)), ("n_yz", counts.n_yz, (Y, Z)),
                           ("n_zz", counts.n_zz, (Z, Z)), ("n_z1", counts.n_z1, (Z,))):
        if not (a.dtype == np.int64 and a.flags.c_contiguous and a.flags.writeable
                and a.shape == shape):
            raise ValueError(f"{name} must be a writeable C-contiguous int64 array of shape {shape}")
    if ys.size and not 0 <= ys.min() <= ys.max() < Y:
        raise ValueError(f"y_flat holds topics outside [0, {Y})")
    if T and not 0 <= z.min() <= z.max() < Z:
        raise ValueError(f"z_assign holds behaviours outside [0, {Z})")
    recount = _transitions(z, Z)
    if not (np.array_equal(counts.n_zz, recount[0]) and np.array_equal(counts.n_z1, recount[1])):
        raise ValueError("n_zz and n_z1 must equal their recount from z_assign")
    if (hyper.alpha.shape, hyper.beta.shape, hyper.gamma.shape, hyper.eta.shape) != (
            (Y,), (X,), (Z,), (Z,)):
        raise ValueError(f"alpha, beta, gamma and eta must have lengths {Y}, {X}, {Z} and {Z}")

    offsets, words, alpha, beta = (np.ascontiguousarray(a) for a in (
        corpus.offsets, corpus.tokens, hyper.alpha, hyper.beta))
    totals, leaving = counts.n_xy.sum(axis=0), counts.n_zz.sum(axis=0)
    sums = np.arange(T + 1) + np.append(hyper.gamma, hyper.gamma.sum())[:, None]
    per_doc, per_token = np.empty(T), np.empty(corpus.num_tokens)  # uniforms
    behaviours = _kernels.bind(
        "resample_behaviours", _behaviours_in_python, T, Y, Z, _kernels.GAMMALN, offsets, ys,
        per_doc, alpha, np.log(hyper.eta), np.log(np.concatenate((sums, sums + 1.0))), z,
        counts.n_yz, counts.n_zz, counts.n_z1, leaving, np.empty(Y, np.int64),
        np.empty(Z * (Y + 3)))
    topics = _kernels.bind(
        "resample_topics", _topics_in_python, T, Y, Z, float(hyper.beta.sum()), offsets, words, z,
        per_token, alpha, beta, counts.n_xy, counts.n_yz, totals, ys, np.empty(Y))
    return GibbsChain(state, ((per_doc, behaviours), (per_token, topics)), totals, leaving)


def gibbs_sweep(chain: GibbsChain) -> GibbsState:
    """One full pass: behaviours in time order, then topics in corpus order,
    each step's uniforms drawn first into its buffer, with the values and
    generator state of one draw per document or token."""
    for uniforms, resample in chain.steps:
        chain.state.rng.random(out=uniforms)
        resample()
    return chain.state


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
    kept = chain(state, corpus, hyper)
    samples = []
    for s in range(num_samples):
        for _ in range(spacing if s else burn_in):
            gibbs_sweep(kept)
        samples.append(state.counts.copy())
    per_sample = [point_estimate(c, hyper) for c in samples]
    pooled = _from_columns(ModelParams, [np.mean(group, axis=0)
                                         for group in zip(*map(_columns, per_sample))])
    return samples, pooled
