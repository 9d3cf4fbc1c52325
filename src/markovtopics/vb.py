"""Variational Bayes inference with factorised parameter posteriors.

Coordinate ascent alternates closed-form Dirichlet posterior updates of the
parameters with an E-like step, :func:`inference.e_step` on the
digamma-transformed (sub-stochastic) surrogate parameters.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np
from scipy.special import digamma

from . import inference
from .model import Corpus, Hyperparams, ModelParams, ModelSpec, SufficientCounts


@dataclass
class PosteriorHyperparams:
    """Updated Dirichlet posterior parameters for the four groups."""

    beta_t: np.ndarray  # (num_words, num_topics)
    alpha_t: np.ndarray  # (num_topics, num_behaviours)
    eta_t: np.ndarray  # (num_behaviours,)
    gamma_t: np.ndarray  # (num_behaviours, num_behaviours)


@dataclass
class VbTrace:
    """Per-iteration max absolute hyperparameter change and termination info."""

    max_changes: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    seed_used: int | None = None


def vb_m_step(counts: SufficientCounts, hyper: Hyperparams) -> PosteriorHyperparams:
    """Posterior hyperparameters: prior vector broadcast down columns plus
    the expected counts."""
    return PosteriorHyperparams(
        beta_t=hyper.beta[:, None] + counts.n_xy,
        alpha_t=hyper.alpha[:, None] + counts.n_yz,
        eta_t=hyper.eta + counts.n_z1,
        gamma_t=hyper.gamma[:, None] + counts.n_zz,
    )


def _tilde_columns(post: np.ndarray) -> np.ndarray:
    return np.exp(digamma(post) - digamma(post.sum(axis=0, keepdims=True)))


def tilde_params(post: PosteriorHyperparams) -> ModelParams:
    """Geometric-mean surrogate parameters exp(psi(a) - psi(sum a)).

    Columns are strictly sub-stochastic for columns of length >= 2; the
    forward-backward normalisation absorbs the deficit.
    """
    return ModelParams(
        phi=_tilde_columns(post.beta_t),
        theta=_tilde_columns(post.alpha_t),
        xi=_tilde_columns(post.gamma_t),
        pi=np.exp(digamma(post.eta_t) - digamma(post.eta_t.sum())),
    )


def point_estimates(post: PosteriorHyperparams) -> ModelParams:
    """Posterior-mean point estimates: columns of the posterior
    hyperparameters, normalised."""
    return ModelParams(
        phi=post.beta_t / post.beta_t.sum(axis=0, keepdims=True),
        theta=post.alpha_t / post.alpha_t.sum(axis=0, keepdims=True),
        xi=post.gamma_t / post.gamma_t.sum(axis=0, keepdims=True),
        pi=post.eta_t / post.eta_t.sum(),
    )


def _dirichlet_columns(rng: np.random.Generator, post: np.ndarray) -> np.ndarray:
    """One Dirichlet draw per column of ``post``: independent gammas with
    the column's parameters as shapes, normalised down the column."""
    draw = rng.standard_gamma(post)
    draw /= draw.sum(axis=0, keepdims=True)
    return draw


def sample_posterior(post: PosteriorHyperparams, num_samples: int,
                     seed: int) -> Iterator[ModelParams]:
    """Yield parameter sets drawn column-wise from the posterior Dirichlets,
    each when it is requested, so a consumer need hold only one at a time."""
    rng = np.random.default_rng(seed)
    for _ in range(num_samples):
        yield ModelParams(phi=_dirichlet_columns(rng, post.beta_t),
                          theta=_dirichlet_columns(rng, post.alpha_t),
                          xi=_dirichlet_columns(rng, post.gamma_t),
                          pi=_dirichlet_columns(rng, post.eta_t))


def vb_fit(corpus: Corpus, hyper: Hyperparams, spec: ModelSpec, seed: int,
           max_iters: int = 100, tol: float | None = None,
           ) -> tuple[PosteriorHyperparams, ModelParams, VbTrace]:
    """Coordinate ascent from a random prior draw.

    The first E-like step runs on a random parameter draw; afterwards the
    surrogate parameters come from the current posterior.  Convergence is
    monitored on the max absolute change of the posterior hyperparameters.
    """
    trace = VbTrace()
    surrogate, trace.seed_used, _, counts = inference.init_e_step(corpus, hyper, spec, seed)
    post = None
    for it in range(max_iters):
        if it:
            _, counts = inference.e_step(surrogate, corpus)
        new_post = vb_m_step(counts, hyper)
        if post is not None:
            change = max(
                float(np.abs(new_post.beta_t - post.beta_t).max()),
                float(np.abs(new_post.alpha_t - post.alpha_t).max()),
                float(np.abs(new_post.gamma_t - post.gamma_t).max()),
                float(np.abs(new_post.eta_t - post.eta_t).max()),
            )
            trace.max_changes.append(change)
        post = new_post
        trace.iterations = it + 1
        if tol is not None and trace.max_changes and trace.max_changes[-1] < tol:
            trace.converged = True
            break
        surrogate = tilde_params(post)
    return post, point_estimates(post), trace
