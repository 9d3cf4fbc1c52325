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
from dataclasses import dataclass
from functools import cache
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


def _check_written(*arrays):
    """Raise ``ValueError`` unless each ``(name, array, shape)`` is a
    writeable C-contiguous int64 array of that shape, as a kernel that
    writes it in place needs."""
    for name, a, shape in arrays:
        if not (a.dtype == np.int64 and a.flags.c_contiguous and a.flags.writeable
                and a.shape == shape):
            raise ValueError(f"{name} must be a writeable C-contiguous int64 array of shape {shape}")


#: The signature scipy's capsule names for the C routine of
#: ``cython_special.gammaln``: ``gl(x, 0)`` is ``gammaln(x)``.
_GAMMALN = b"double (double, int __pyx_skip_dispatch)"


@cache
def _gammaln_address(capsule):
    """The address ``capsule`` holds where it names the signature of
    ``cython_special.gammaln``'s C routine; None otherwise, and for None."""
    import ctypes

    if capsule is None:
        return None
    api = ctypes.pythonapi
    is_valid = ctypes.PYFUNCTYPE(ctypes.c_int, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_IsValid", api))
    if not is_valid(capsule, _GAMMALN):
        return None
    return ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))(capsule, _GAMMALN)


def _resample_behaviours(state: GibbsState, corpus: Corpus, hyper: Hyperparams):
    """Resample every document's behaviour, in time order, with the compiled
    kernel where it builds and scipy's ``gammaln`` capsule is found, and the
    Python copy where not: one argument list, the same bytes.

    The transition logs, ``log(n + gamma_j)`` and ``log(n + sum(gamma))``
    for counts ``n`` in ``[0, T]`` and the same plus one (a self transition),
    and ``log(eta)`` come from ``np.log``, as in the numpy conditional the
    tests keep as the reference.  Each document's conditional is
    exponentiated with libm's ``exp``, which may differ from ``np.exp`` in
    the last bit, so a draw could move only where a uniform falls within
    that bit.  The uniforms are drawn in one call, which gives the same
    stream as one draw per document.  The kernel indexes without bounds
    checks, and indexes the log tables by ``n_zz``'s entries and column sums,
    so the arrays and indices are checked first, on either path.
    """
    counts = state.counts
    z, n_yz, n_zz, n_z1, ys = state.z_assign, counts.n_yz, counts.n_zz, counts.n_z1, state.y_flat
    T, num_topics, num_behaviours = len(corpus), corpus.spec.num_topics, corpus.spec.num_behaviours
    _check_written(("z_assign", z, (T,)), ("n_yz", n_yz, (num_topics, num_behaviours)),
                   ("n_zz", n_zz, (num_behaviours, num_behaviours)),
                   ("n_z1", n_z1, (num_behaviours,)))
    if T and not 0 <= z.min() <= z.max() < num_behaviours:
        raise ValueError(f"z_assign holds behaviours outside [0, {num_behaviours})")
    if ys.dtype != np.int64 or ys.shape != (corpus.num_tokens,) or (
            ys.size and not 0 <= ys.min() <= ys.max() < num_topics):
        raise ValueError(f"y_flat must be {corpus.num_tokens} int64 topics in [0, {num_topics})")
    recount = _transitions(z, num_behaviours)
    if not (np.array_equal(n_zz, recount[0]) and np.array_equal(n_z1, recount[1])):
        raise ValueError("n_zz and n_z1 must equal their recount from z_assign")
    if (hyper.alpha.shape, hyper.gamma.shape, hyper.eta.shape) != (
            (num_topics,), (num_behaviours,), (num_behaviours,)):
        raise ValueError("alpha must have one entry per topic, gamma and eta one per behaviour")

    # The arguments of resample_behaviours in _kernels.c, for either
    # implementation; the list holds every buffer until the kernel returns.
    sums = np.arange(T + 1) + np.append(hyper.gamma, hyper.gamma.sum())[:, None]
    arrays = [np.ascontiguousarray(a) for a in (
        corpus.offsets, ys, state.rng.random(T), hyper.alpha, np.log(hyper.eta),
        np.log(np.concatenate((sums, sums + 1.0))), z, n_yz, n_zz, n_z1, n_zz.sum(axis=0),
        np.empty(num_topics, np.int64), np.empty(num_behaviours * (num_topics + 3)))]
    scalars = (T, num_topics, num_behaviours)
    # Imported here: the extension maps about 1 MB that only a Gibbs fit needs.
    from scipy.special import cython_special

    lib = _kernels.load()
    gammaln = None if lib is None else _gammaln_address(cython_special.__pyx_capi__.get("gammaln"))
    if gammaln is not None:
        lib.resample_behaviours(*scalars, gammaln, *[a.ctypes.data for a in arrays])
    else:
        _behaviours_in_python(*scalars, cython_special.gammaln, *arrays)


def _behaviours_in_python(num_docs, num_topics, num_behaviours, gammaln, offsets, ys, uniforms,
                          alpha, log_eta, logs, z, n_yz, n_zz, n_z1, leaving, hist, work):
    """``resample_behaviours`` of ``_kernels.c`` line for line, over lists,
    with ``columns[k][y]`` for the kernel's ``n_yz[y * Z + k]``, a document's
    used topics listed once rather than tested for each behaviour,
    ``gammaln(x)`` for the kernel's ``gammaln(x, 0)``, and lists of its own
    for the scratch ``hist`` and ``work``."""
    offsets, ys, uniforms, alpha, log_eta, zs, z1, leaving = (
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
            leaving[zs[t - 1]] += sign
        if t < num_docs - 1:
            rows[zs[t + 1]][k] += sign
            leaving[k] += sign

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
                    v = v + log_into[z_next][next_row[k]] - log_out[leaving[k]]
                elif z_next == z_prev:
                    v = v + log_self[z_next][next_row[k]] - log_out_self[leaving[k]]
                else:
                    v = v + log_into[z_next][next_row[k]] - log_out_self[leaving[k]]
            logp.append(v)
        top = max(logp)
        cw = list(accumulate(math.exp(v - top) for v in logp))
        k = min(bisect_right(cw, uniforms[t] * cw[-1]), last)
        place(t, k, 1)
        zs[t] = k
    n_yz[...] = np.array(columns).T
    n_zz[...] = rows
    n_z1[...] = z1
    z[...] = zs


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
    _check_written(("n_xy", n_xy, (num_words, num_topics)),
                   ("n_yz", n_yz, (num_topics, num_behaviours)),
                   ("y_flat", ys, (corpus.num_tokens,)))
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
