"""Variational Bayes inference with factorised parameter posteriors.

Coordinate ascent alternates closed-form Dirichlet posterior updates of the
parameters with an E-like step, :func:`inference.e_step` on the
digamma-transformed (sub-stochastic) surrogate parameters, and ascends the
free energy, a lower bound on the log evidence (Beal 2003, ch. 3).
"""
from __future__ import annotations

import os
from collections import deque
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import inference
from .model import (Corpus, Hyperparams, ModelParams, ModelSpec, SufficientCounts, _columns,
                    _from_columns, _priors)


@dataclass
class PosteriorHyperparams:
    """Updated Dirichlet posterior parameters for the four groups, in the
    order of ``model._columns``."""

    beta_t: np.ndarray  # (num_words, num_topics)
    alpha_t: np.ndarray  # (num_topics, num_behaviours)
    gamma_t: np.ndarray  # (num_behaviours, num_behaviours)
    eta_t: np.ndarray  # (num_behaviours,)

    @cached_property
    def expected_logs(self) -> ModelParams:
        """E[log parameter], psi(a) - psi(sum a) per column, laid out as the
        parameters; computed once for :func:`tilde_params` and :func:`free_energy`."""
        return _from_columns(ModelParams, map(_expected_log_columns, _columns(self)))


def _expected_log_columns(post: np.ndarray) -> np.ndarray:
    # Imported here, as in _kl_columns: scipy.special takes about 0.19 s to
    # import, which generate, featurize and eval never need.
    from scipy.special import digamma

    return digamma(post) - digamma(post.sum(axis=0, keepdims=True))


def vb_m_step(counts: SufficientCounts, hyper: Hyperparams) -> PosteriorHyperparams:
    """Posterior hyperparameters: prior vector broadcast down columns plus
    the expected counts."""
    return _from_columns(PosteriorHyperparams, [
        prior[:, None] + n for prior, n in zip(_priors(hyper), _columns(counts))])


def tilde_params(post: PosteriorHyperparams) -> ModelParams:
    """Geometric-mean surrogate parameters exp(psi(a) - psi(sum a)).

    Columns are strictly sub-stochastic for columns of length >= 2; the
    forward-backward normalisation absorbs the deficit.
    """
    return _from_columns(ModelParams, map(np.exp, _columns(post.expected_logs)))


def _kl_columns(post: np.ndarray, prior: np.ndarray, logs: np.ndarray) -> float:
    """Summed KL(Dir(column of ``post``) || Dir(``prior``)) over the columns
    of ``post``, whose expected logs are ``logs``."""
    from scipy.special import gammaln

    log_norm_prior = gammaln(prior.sum()) - gammaln(prior).sum()
    return float(gammaln(post.sum(axis=0)).sum() - gammaln(post).sum()
                 - post.shape[1] * log_norm_prior
                 + np.sum((post - prior[:, None]) * logs))


def free_energy(post: PosteriorHyperparams | ModelParams, log_k: float,
                hyper: Hyperparams) -> float:
    """F = log K~ - sum KL(Dir(posterior column) || Dir(prior column)), with
    ``log_k`` the E-step's log K~ under ``tilde_params(post)``.  F is -inf
    at the random draw that starts a fit, a point mass (a ModelParams)."""
    if not isinstance(post, PosteriorHyperparams):
        return -np.inf
    kl = 0.0  # left to right: sum() of floats compensates from Python 3.12 on
    for kl_group in map(_kl_columns, _columns(post), _priors(hyper),
                        _columns(post.expected_logs)):
        kl += kl_group
    return log_k - kl


def point_estimates(post: PosteriorHyperparams) -> ModelParams:
    """Posterior-mean point estimates: columns of the posterior
    hyperparameters, normalised."""
    return _from_columns(ModelParams, [a / a.sum(axis=0, keepdims=True) for a in _columns(post)])


def _dirichlet_columns(rng: np.random.Generator, post: np.ndarray) -> np.ndarray:
    """One Dirichlet draw per column of ``post``: independent gammas with
    the column's parameters as shapes, normalised down the column."""
    draw = rng.standard_gamma(post)
    draw /= draw.sum(axis=0, keepdims=True)
    return draw


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _draw(post: PosteriorHyperparams, seed: np.random.SeedSequence) -> ModelParams:
    """One parameter set drawn column-wise from the posterior Dirichlets,
    from its own stream ``seed``."""
    rng = np.random.default_rng(seed)
    return _from_columns(ModelParams, [_dirichlet_columns(rng, a) for a in _columns(post)])


def sample_posterior(post: PosteriorHyperparams, num_samples: int,
                     seed: int) -> Iterator[ModelParams]:
    """Yield ``num_samples`` parameter sets drawn from the posterior, in
    order.

    Sample s is drawn from its own stream, the s-th child of
    ``SeedSequence(seed)``, so the draws do not depend on where they run.
    They run on a pool of one thread per usable CPU, capped at
    ``num_samples`` (numpy's gamma sampler releases the GIL), with at most
    ``workers + 1`` draws in flight: a consumer that drops each sample before
    requesting the next holds at most ``workers + 1`` at a time, counting
    those drawn ahead.  Closing the generator early cancels the draws not yet
    started and joins the pool.
    """
    workers = min(_usable_cpus(), max(num_samples, 1))
    seeds = np.random.SeedSequence(seed)
    pool = ThreadPoolExecutor(workers, thread_name_prefix="sample_posterior")
    pending: deque = deque()
    try:
        for _ in range(num_samples):
            pending.append(pool.submit(_draw, post, seeds.spawn(1)[0]))
            if len(pending) > workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def vb_fit(corpus: Corpus, hyper: Hyperparams, spec: ModelSpec, seed: int,
           max_iters: int = 100, tol: float | None = None,
           ) -> tuple[PosteriorHyperparams, ModelParams, inference.FitTrace]:
    """Coordinate ascent from a random prior draw (:func:`inference.fit`),
    recording the free energy; as F is -inf at the draw, ``tol`` can stop
    a fit only from its third iteration on."""
    post, trace = inference.fit(corpus, hyper, spec, seed, max_iters, tol,
                                vb_m_step, free_energy, tilde_params)
    return post, point_estimates(post), trace
