"""MAP parameter estimation via expectation-maximisation.

The E-step is :func:`inference.e_step`, one forward-backward pass on the
doc-term matrix; the M-step normalizes the truncated prior-offset counts
column by column.  With all-ones hyperparameters the prior offsets cancel
and the procedure reduces exactly to maximum likelihood.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import inference
from .model import Corpus, Hyperparams, ModelParams, ModelSpec, SufficientCounts


@dataclass
class EmTrace:
    """Per-iteration log MAP objective values and termination info."""

    objectives: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    seed_used: int | None = None


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
    phi = _map_columns(counts.n_xy, hyper.beta)
    theta = _map_columns(counts.n_yz, hyper.alpha)
    xi = _map_columns(counts.n_zz, hyper.gamma)
    pi = _map_columns(counts.n_z1[:, None], hyper.eta)[:, 0]
    return ModelParams(phi=phi, theta=theta, xi=xi, pi=pi)


def _log_prior_exponents(params: ModelParams, hyper: Hyperparams) -> float:
    """Sum of (hyper - 1) * log(param) over all entries, dropping the
    constant Dirichlet normalizers.  Exponent-zero terms contribute nothing
    even at zero entries."""
    total = 0.0
    for mat, prior in ((params.phi, hyper.beta), (params.theta, hyper.alpha),
                       (params.xi, hyper.gamma), (params.pi[:, None], hyper.eta)):
        expo = prior - 1.0
        active = expo != 0.0
        if not np.any(active):
            continue
        with np.errstate(divide="ignore"):
            logs = np.log(mat[active])
        total += float(np.sum(expo[active][:, None] * logs.reshape(int(active.sum()), -1)))
    return total


def em_fit(corpus: Corpus, hyper: Hyperparams, spec: ModelSpec, seed: int,
           max_iters: int = 100, tol: float | None = None,
           ) -> tuple[ModelParams, EmTrace]:
    """Alternate E and M steps from a random prior draw.

    Runs a fixed number of iterations unless ``tol`` is given, in which case
    it also stops once the objective change drops below it.  If the corpus is
    impossible under an initialization, up to 5 derived seeds are tried.
    """
    trace = EmTrace()
    params, trace.seed_used, log_lik, counts = inference.init_e_step(corpus, hyper, spec, seed)
    for it in range(max_iters):
        if it:
            log_lik, counts = inference.e_step(params, corpus)
        trace.objectives.append(log_lik + _log_prior_exponents(params, hyper))
        trace.iterations = it + 1
        if tol is not None and it >= 1 and abs(trace.objectives[-1] - trace.objectives[-2]) < tol:
            trace.converged = True
            break
        params = m_step(counts, hyper)
    return params, trace
