import numpy as np
import pytest

from markovtopics import (
    Hyperparams,
    ModelSpec,
    corpus_from_lists,
    make_prior,
    random_init,
)
from markovtopics import em, generate, inference, vb
from markovtopics.model import ModelParams, NumericalError, SufficientCounts

import _oracles
from _oracles import log_marginal_likelihood, log_map_objective, zero_counts
from conftest import random_instance


def _counts(spec, n_xy=None, n_yz=None, n_zz=None, n_z1=None):
    c = zero_counts(spec)
    return SufficientCounts(
        n_xy=c.n_xy if n_xy is None else np.asarray(n_xy, dtype=float),
        n_yz=c.n_yz if n_yz is None else np.asarray(n_yz, dtype=float),
        n_zz=c.n_zz if n_zz is None else np.asarray(n_zz, dtype=float),
        n_z1=c.n_z1 if n_z1 is None else np.asarray(n_z1, dtype=float),
    )


class TestMStep:
    def test_flat_prior_is_plain_normalisation(self):
        spec = ModelSpec(2, 1, 1)
        h = make_prior("1", spec)
        counts = _counts(spec, n_xy=[[4.0], [2.0]], n_yz=[[6.0]],
                         n_zz=[[0.0]], n_z1=[1.0])
        p = em.m_step(counts, h)
        assert np.allclose(p.phi[:, 0], [4 / 6, 2 / 6])

    def test_prior_offset_arithmetic(self):
        # (beta + n - 1) with beta = 2: (2+4-1, 2+2-1) = (5, 3) -> (5/8, 3/8).
        spec = ModelSpec(2, 1, 1)
        h = Hyperparams(alpha=np.ones(1), beta=np.full(2, 2.0),
                        gamma=np.ones(1), eta=np.ones(1))
        counts = _counts(spec, n_xy=[[4.0], [2.0]])
        p = em.m_step(counts, h)
        assert np.allclose(p.phi[:, 0], [5 / 8, 3 / 8])

    def test_truncation_clips_negative_mass(self):
        # beta = 0.05, counts (1, 0): numerators (0.05, -0.95) -> (1, 0).
        spec = ModelSpec(2, 1, 1)
        h = Hyperparams(alpha=np.ones(1), beta=np.full(2, 0.05),
                        gamma=np.ones(1), eta=np.ones(1))
        counts = _counts(spec, n_xy=[[1.0], [0.0]])
        p = em.m_step(counts, h)
        assert np.allclose(p.phi[:, 0], [1.0, 0.0])

    def test_zero_denominator_uniform_fallback(self):
        # Sub-one hyperparameters and empty counts truncate to all zeros.
        spec = ModelSpec(3, 1, 1)
        h = Hyperparams(alpha=np.ones(1), beta=np.full(3, 0.5),
                        gamma=np.ones(1), eta=np.ones(1))
        p = em.m_step(zero_counts(spec), h)
        assert np.allclose(p.phi[:, 0], 1 / 3)

    def test_all_outputs_are_distributions(self, rng):
        for _ in range(10):
            spec, params, corpus = random_instance(rng)
            _, _, counts = _oracles.infer(params, corpus)
            est = em.m_step(counts, make_prior("1", spec))
            assert np.allclose(est.phi.sum(axis=0), 1.0)
            assert np.allclose(est.theta.sum(axis=0), 1.0)
            assert np.allclose(est.xi.sum(axis=0), 1.0)
            assert np.isclose(est.pi.sum(), 1.0)


class TestObjective:
    def test_flat_prior_objective_is_marginal(self, rng):
        spec, params, corpus = random_instance(rng)
        h = make_prior("1", spec)
        msgs = _oracles.messages(params, corpus)
        assert np.isclose(log_map_objective(params, corpus, h),
                          log_marginal_likelihood(msgs), atol=1e-12)

    def test_prior_exponent_hand_case(self):
        spec = ModelSpec(2, 1, 1)
        h = Hyperparams(alpha=np.ones(1), beta=np.array([3.0, 2.0]),
                        gamma=np.ones(1), eta=np.ones(1))
        params = random_init(spec, make_prior("1", spec), 0)
        corpus = corpus_from_lists([[0]], spec)
        msgs = _oracles.messages(params, corpus)
        expected = (log_marginal_likelihood(msgs)
                    + 2.0 * np.log(params.phi[0, 0])
                    + 1.0 * np.log(params.phi[1, 0]))
        assert np.isclose(log_map_objective(params, corpus, h), expected,
                          atol=1e-12)

    def test_zero_exponent_at_zero_entry_is_finite(self):
        # Hyperparameter exactly 1 must not produce 0 * log(0) = nan.
        spec = ModelSpec(2, 1, 1)
        params = em.m_step(_counts(spec, n_xy=[[1.0], [0.0]]), make_prior("1", spec))
        corpus = corpus_from_lists([[0]], spec)
        obj = log_map_objective(params, corpus, make_prior("1", spec))
        assert np.isfinite(obj)


class TestEmFit:
    def test_monotone_objective_flat_prior(self, rng):
        for seed in range(3):
            spec = ModelSpec(4, 2, 2)
            ds = generate.generate(spec, make_prior("1", spec), 15, [6] * 15,
                                   seed=seed)
            _, trace = em.em_fit(ds.corpus, make_prior("1", spec), spec,
                                 seed=seed, max_iters=25)
            diffs = np.diff(trace.objectives)
            assert np.all(diffs >= -1e-8)

    def test_monotone_objective_hplus1_prior(self):
        spec = ModelSpec(4, 2, 2)
        h = make_prior("H+1", spec)
        ds = generate.generate(spec, make_prior("1", spec), 15, [6] * 15, seed=3)
        _, trace = em.em_fit(ds.corpus, h, spec, seed=0, max_iters=25)
        assert np.all(np.diff(trace.objectives) >= -1e-8)

    def test_fixed_iteration_budget(self):
        spec = ModelSpec(3, 2, 2)
        ds = generate.generate(spec, make_prior("1", spec), 8, [4] * 8, seed=0)
        _, trace = em.em_fit(ds.corpus, make_prior("1", spec), spec, seed=0,
                             max_iters=7)
        assert trace.iterations == 7 and not trace.converged

    def test_tolerance_stop(self):
        spec = ModelSpec(3, 2, 2)
        ds = generate.generate(spec, make_prior("1", spec), 8, [4] * 8, seed=0)
        _, trace = em.em_fit(ds.corpus, make_prior("1", spec), spec, seed=0,
                             max_iters=500, tol=1e-5)
        assert trace.converged and trace.iterations < 500

    def test_deterministic_in_seed(self):
        spec = ModelSpec(3, 2, 2)
        ds = generate.generate(spec, make_prior("1", spec), 8, [4] * 8, seed=1)
        h = make_prior("1", spec)
        a, _ = em.em_fit(ds.corpus, h, spec, seed=5, max_iters=10)
        b, _ = em.em_fit(ds.corpus, h, spec, seed=5, max_iters=10)
        assert np.array_equal(a.phi, b.phi) and np.array_equal(a.xi, b.xi)

    def test_single_topic_single_behaviour_mle(self):
        # With Y = Z = 1 the model is a unigram model; the MLE is the
        # empirical word frequency, reached in one M-step.
        spec = ModelSpec(3, 1, 1)
        corpus = corpus_from_lists([[0, 0, 1], [2, 0]], spec)
        p, _ = em.em_fit(corpus, make_prior("1", spec), spec, seed=0,
                         max_iters=3)
        assert np.allclose(p.phi[:, 0], [3 / 5, 1 / 5, 1 / 5])

    def test_recovery_separable(self):
        # Two behaviours with disjoint vocabularies; EM should fit the
        # training data essentially perfectly.
        spec = ModelSpec(4, 2, 2)
        from markovtopics.model import ModelParams
        truth = ModelParams(
            phi=np.array([[0.9, 0.0], [0.1, 0.0], [0.0, 0.8], [0.0, 0.2]]),
            theta=np.eye(2),
            xi=np.array([[0.9, 0.1], [0.1, 0.9]]),
            pi=np.array([0.5, 0.5]),
        )
        ds = generate.generate_from(truth, 60, [25] * 60, seed=2)
        p, trace = em.em_fit(ds.corpus, make_prior("1", spec), spec, seed=0,
                             max_iters=60)
        fitted = trace.objectives[-1]
        ideal = log_map_objective(truth, ds.corpus, make_prior("1", spec))
        assert fitted >= ideal - 5.0


class TestImpossibleCorpus:
    def test_reseeds_then_raises(self, monkeypatch):
        # A Dirichlet draw never gives a word zero mass, so the first k draws
        # of a fit are edited to give word 2, which the corpus uses, none: the
        # corpus is impossible under them and the fit moves on to seed + k.
        real_init = inference.random_init

        def impossible_first(k):
            draws = []

            def init(spec, hyper, seed):
                draws.append(seed)
                params = real_init(spec, hyper, seed)
                if len(draws) > k:
                    return params
                phi = params.phi.copy()
                phi[2] = 0.0
                return ModelParams(phi=phi / phi.sum(axis=0), theta=params.theta,
                                   xi=params.xi, pi=params.pi)
            monkeypatch.setattr(inference, "random_init", init)

        spec = ModelSpec(3, 2, 2)
        h = make_prior("1", spec)
        corpus = corpus_from_lists([[0, 1], [2, 0], [1, 1]], spec)
        fits = [lambda: em.em_fit(corpus, h, spec, seed=17, max_iters=2)[1],
                lambda: vb.vb_fit(corpus, h, spec, seed=17, max_iters=2)[2]]
        for fit in fits:
            for k in range(5):
                impossible_first(k)
                assert fit().seed_used == 17 + k
            impossible_first(5)
            with pytest.raises(NumericalError):
                fit()
