"""MAP parameter estimation via expectation-maximisation.

The E-step is :func:`inference.e_step`, one forward-backward pass on the
doc-term matrix; the M-step normalizes the truncated prior-offset counts
column by column.  With all-ones hyperparameters the prior offsets cancel
and the procedure reduces exactly to maximum likelihood.
"""
from __future__ import annotations

import numpy as np

from . import inference
from .model import (Corpus, Hyperparams, ModelParams, ModelSpec, NumericalError,
                    SufficientCounts, _columns, _from_columns, _priors)


def _map_columns(counts: np.ndarray, prior: np.ndarray) -> np.ndarray:
    """Truncated mode-of-Dirichlet normalization per column; columns whose
    truncated mass vanishes fall back to uniform."""
    # (prior - 1) first: with a flat prior the offset is exactly zero and
    # the result is bitwise plain count normalization.
    num = np.maximum((prior[:, None] - 1.0) + counts, 0.0)
    denom = num.sum(axis=0)
    out = np.empty_like(num)
    ok = denom > 0
    out[:, ok] = num[:, ok] / denom[ok]
    out[:, ~ok] = 1.0 / num.shape[0]
    return out


def m_step(counts: SufficientCounts, hyper: Hyperparams) -> ModelParams:
    """Closed-form M-step: truncated (prior + count - 1) normalization."""
    return _from_columns(ModelParams, map(_map_columns, _columns(counts), _priors(hyper)))


def _log_map(params: ModelParams, log_lik: float, hyper: Hyperparams) -> float:
    """Log MAP objective: the log likelihood plus the sum of
    (hyper - 1) * log(param) over all entries, dropping the constant
    Dirichlet normalizers.  Exponent-zero terms contribute nothing even at
    zero entries."""
    total = 0.0
    for mat, prior in zip(_columns(params), _priors(hyper)):
        expo = prior - 1.0
        active = expo != 0.0
        if not np.any(active):
            continue
        with np.errstate(divide="ignore"):
            logs = np.log(mat[active])
        total += float(np.sum(expo[active][:, None] * logs.reshape(int(active.sum()), -1)))
    return log_lik + total


def em_fit(corpus: Corpus, hyper: Hyperparams, spec: ModelSpec, seed: int,
           max_iters: int = 100, tol: float | None = None,
           ) -> tuple[ModelParams, inference.FitTrace]:
    """Alternate E and M steps from a random prior draw, recording the log
    MAP objective (:func:`inference.fit`).

    A prior exponent below 1 truncates a word's small expected counts to
    zero; when that leaves a corpus word zero probability under every topic,
    the next E-step's NumericalError says so.
    """
    estimates = []

    def step(counts: SufficientCounts, hyper: Hyperparams) -> ModelParams:
        estimates[:] = [m_step(counts, hyper)]
        return estimates[0]

    try:
        return inference.fit(corpus, hyper, spec, seed, max_iters, tol, step, _log_map)
    except NumericalError as exc:
        in_corpus = np.bincount(corpus.tokens, minlength=spec.num_words) > 0
        lost = np.count_nonzero(in_corpus & ~estimates[0].phi.any(axis=1)) if estimates else 0
        if not lost:
            raise
        raise NumericalError(
            f"corpus impossible under model: after a MAP M-step {lost} corpus word(s) "
            "have zero probability under every topic (a prior exponent below 1 "
            "truncates small expected counts to zero; use --prior H+1 or 1)") from exc
