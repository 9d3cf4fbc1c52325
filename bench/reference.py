"""Independent NumPy reference computations for the benchmark's checks.

Nothing here imports the package under test.  The forward-backward pass is
the scaled recursion (Rabiner 1989) on a sparse doc-term matrix, a different
algorithm from the package's per-token log-domain one, so agreement between
the two is evidence rather than a tautology.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse

#: (alpha, beta, gamma, eta) of the named symmetric priors the EM fits use.
PRIORS = {"H+1": (9.0, 1.05, 2.0, 2.0)}


def read_corpus(path) -> list[np.ndarray]:
    """One int64 array of word ids per non-empty line."""
    with open(path) as fh:
        return [np.array(line.split(), dtype=np.int64) for line in fh if line.strip()]


def doc_term(docs: list[np.ndarray], num_words: int) -> scipy.sparse.csr_matrix:
    """Sparse (num_words, T) count matrix; repeated words are summed."""
    cols = np.repeat(np.arange(len(docs)), [len(d) for d in docs])
    rows = np.concatenate(docs)
    data = np.ones(len(rows))
    return scipy.sparse.csr_matrix((data, (rows, cols)), shape=(num_words, len(docs)))


def forward_backward(phi, theta, xi, pi, counts, backward: bool = True):
    """Scaled forward(-backward) over the documents in ``counts``.

    Returns the log marginal likelihood and, with ``backward``, the
    behaviour posteriors gamma (Z, T) and the summed pair posteriors
    (Z, Z) indexed [z_new, z_old].
    """
    mix = phi @ theta
    with np.errstate(divide="ignore"):
        loge = np.asarray(counts.T @ np.log(mix)).T  # (Z, T)
    shift = loge.max(axis=0)
    emit = np.exp(loge - shift)
    num_z, T = emit.shape
    alpha = np.empty((num_z, T))
    scale = np.empty(T)
    a = pi * emit[:, 0]
    scale[0] = a.sum()
    alpha[:, 0] = a / scale[0]
    for t in range(1, T):
        a = emit[:, t] * (xi @ alpha[:, t - 1])
        scale[t] = a.sum()
        alpha[:, t] = a / scale[t]
    log_lik = float(np.sum(np.log(scale)) + np.sum(shift))
    if not backward:
        return log_lik, None, None
    beta = np.empty((num_z, T))
    beta[:, T - 1] = 1.0
    for t in range(T - 2, -1, -1):
        beta[:, t] = xi.T @ (emit[:, t + 1] * beta[:, t + 1]) / scale[t + 1]
    gamma = alpha * beta
    w = emit[:, 1:] * beta[:, 1:] / scale[1:]
    pair = xi * (w @ alpha[:, :-1].T)
    return log_lik, gamma, pair


def log_marginal(params: dict, docs: list[np.ndarray]) -> float:
    """log p(docs | params) with params as a dict of phi/theta/xi/pi arrays."""
    counts = doc_term(docs, params["phi"].shape[0])
    return forward_backward(params["phi"], params["theta"], params["xi"], params["pi"],
                            counts, backward=False)[0]


def _map_columns(counts: np.ndarray, prior: float) -> np.ndarray:
    num = np.maximum((prior - 1.0) + counts, 0.0)
    denom = num.sum(axis=0)
    safe = np.where(denom > 0, denom, 1.0)
    return np.where(denom > 0, num / safe, 1.0 / num.shape[0])


def em_final_objective(docs: list[np.ndarray], num_words: int, num_topics: int,
                       num_behaviours: int, prior: str, seed: int, iterations: int) -> float:
    """Log MAP objective recorded at the start of the last of ``iterations``
    EM iterations from the seeded prior draw (a fixed-iteration fit)."""
    a, b, g, e = PRIORS[prior]
    rng = np.random.default_rng(seed)
    phi = rng.dirichlet(np.full(num_words, b), size=num_topics).T
    theta = rng.dirichlet(np.full(num_topics, a), size=num_behaviours).T
    xi = rng.dirichlet(np.full(num_behaviours, g), size=num_behaviours).T
    pi = rng.dirichlet(np.full(num_behaviours, e))
    counts = doc_term(docs, num_words)
    for it in range(iterations):
        log_lik, gamma, pair = forward_backward(phi, theta, xi, pi, counts)
        log_prior = sum((p - 1.0) * float(np.sum(np.log(m)))
                        for m, p in ((phi, b), (theta, a), (xi, g), (pi, e)) if p != 1.0)
        if it == iterations - 1:
            return log_lik + log_prior
        mix = phi @ theta
        c = np.asarray(counts @ gamma.T) / mix  # (X, Z)
        n_xy = phi * (c @ theta.T)
        n_yz = theta * (phi.T @ c)
        phi = _map_columns(n_xy, b)
        theta = _map_columns(n_yz, a)
        xi = _map_columns(pair, g)
        pi = _map_columns(gamma[:, :1], e)[:, 0]
    raise ValueError("iterations must be at least 1")


def pr_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the precision-recall curve, lower score = more anomalous.

    One curve point per distinct score (ties flagged together), trapezoids
    over recall, anchored at recall 0 with the first point's precision.
    """
    order = np.argsort(scores, kind="stable")
    s, y = scores[order], labels[order]
    last = np.r_[s[1:] != s[:-1], True]
    tp = np.cumsum(y)[last]
    flagged = np.arange(1, len(s) + 1)[last]
    recall = np.r_[0.0, tp / y.sum()]
    precision = tp / flagged
    precision = np.r_[precision[0], precision]
    return float(np.sum(np.diff(recall) * (precision[1:] + precision[:-1]) / 2))
