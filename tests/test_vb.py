import itertools
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import digamma, logsumexp
from scipy.stats import beta as beta_dist

from markovtopics import (
    Hyperparams,
    ModelSpec,
    corpus_from_lists,
    make_prior,
)
from markovtopics import em, generate, inference, vb
from markovtopics.model import SufficientCounts, validate_params

import _oracles
from _oracles import sample_posterior_list, zero_counts
from conftest import random_instance


class TestVbMStep:
    def test_zero_counts_return_prior(self):
        spec = ModelSpec(3, 2, 2)
        h = make_prior("H", spec)
        post = vb.vb_m_step(zero_counts(spec), h)
        assert np.allclose(post.beta_t, 0.05)
        assert np.allclose(post.alpha_t, 8.0)
        assert np.allclose(post.eta_t, 1.0)
        assert np.allclose(post.gamma_t, 1.0)

    def test_counts_add(self):
        spec = ModelSpec(2, 1, 1)
        h = make_prior("1", spec)
        counts = SufficientCounts(
            n_xy=np.array([[2.5], [0.5]]), n_yz=np.array([[3.0]]),
            n_zz=np.array([[1.0]]), n_z1=np.array([1.0]))
        post = vb.vb_m_step(counts, h)
        assert np.allclose(post.beta_t[:, 0], [3.5, 1.5])
        assert np.allclose(post.eta_t, [2.0])

    def test_count_conservation(self, rng):
        spec, params, corpus = random_instance(rng)
        _, _, counts = _oracles.infer(params, corpus)
        h = make_prior("1", spec)
        post = vb.vb_m_step(counts, h)
        expected_mass = corpus.num_tokens + spec.num_words * spec.num_topics
        assert np.isclose(post.beta_t.sum(), expected_mass, atol=1e-8)


class TestTildeParams:
    def test_sub_stochastic(self, rng):
        spec, params, corpus = random_instance(rng)
        _, _, counts = _oracles.infer(params, corpus)
        post = vb.vb_m_step(counts, make_prior("1", spec))
        tilde = vb.tilde_params(post)
        assert np.all(tilde.phi.sum(axis=0) <= 1.0 + 1e-12)
        assert np.all(tilde.theta.sum(axis=0) <= 1.0 + 1e-12)
        assert np.all(tilde.xi.sum(axis=0) <= 1.0 + 1e-12)
        assert tilde.pi.sum() <= 1.0 + 1e-12

    def test_singleton_column_is_exactly_one(self):
        spec = ModelSpec(1, 1, 1)
        post = vb.vb_m_step(zero_counts(spec), make_prior("1", spec))
        tilde = vb.tilde_params(post)
        assert tilde.phi[0, 0] == 1.0 and tilde.pi[0] == 1.0

    def test_symmetric_column_entries_equal(self):
        spec = ModelSpec(3, 1, 1)
        post = vb.vb_m_step(zero_counts(spec), make_prior("1", spec))
        tilde = vb.tilde_params(post)
        assert np.allclose(tilde.phi[:, 0], tilde.phi[0, 0])

    def test_large_count_asymptotics(self):
        # exp(psi(a) - psi(a + b)) approaches a / (a + b) as counts grow:
        # with counts (1e6/3, 2e6/3) the tilde column approaches (1/3, 2/3).
        a = np.array([[1e6 / 3], [2e6 / 3]])
        col = np.exp(digamma(a) - digamma(a.sum()))
        assert np.allclose(col[:, 0], [1 / 3, 2 / 3], atol=1e-5)

    def test_hand_digamma_value(self):
        post = vb.PosteriorHyperparams(
            beta_t=np.array([[2.0], [3.0]]), alpha_t=np.array([[1.0]]),
            eta_t=np.array([1.0]), gamma_t=np.array([[1.0]]))
        tilde = vb.tilde_params(post)
        assert np.isclose(tilde.phi[0, 0], np.exp(digamma(2.0) - digamma(5.0)),
                          atol=1e-15)


class TestPointEstimates:
    def test_normalised(self, rng):
        spec, params, corpus = random_instance(rng)
        _, _, counts = _oracles.infer(params, corpus)
        est = vb.point_estimates(vb.vb_m_step(counts, make_prior("1", spec)))
        assert validate_params(est, spec) == []

    def test_matches_em_m_step_with_incremented_prior(self, rng):
        # Posterior-mean normalisation equals the truncated MAP M-step run
        # with every hyperparameter raised by one.
        for _ in range(10):
            spec, params, corpus = random_instance(rng)
            _, _, counts = _oracles.infer(params, corpus)
            h = make_prior("1", spec)
            shifted = Hyperparams(alpha=h.alpha + 1.0, beta=h.beta + 1.0,
                                  gamma=h.gamma + 1.0, eta=h.eta + 1.0)
            a = vb.point_estimates(vb.vb_m_step(counts, h))
            b = em.m_step(counts, shifted)
            assert np.allclose(a.phi, b.phi, atol=1e-12)
            assert np.allclose(a.theta, b.theta, atol=1e-12)
            assert np.allclose(a.xi, b.xi, atol=1e-12)
            assert np.allclose(a.pi, b.pi, atol=1e-12)


class TestSamplePosterior:
    def test_shapes_and_validity(self):
        spec = ModelSpec(3, 2, 2)
        post = vb.vb_m_step(zero_counts(spec), make_prior("H", spec))
        for p in vb.sample_posterior(post, 5, seed=0):
            assert validate_params(p, spec) == []

    def test_deterministic_in_seed(self):
        spec = ModelSpec(3, 2, 2)
        post = vb.vb_m_step(zero_counts(spec), make_prior("1", spec))
        a = vb.sample_posterior(post, 3, seed=4)
        b = vb.sample_posterior(post, 3, seed=4)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.phi, pb.phi)

    def test_generator_matches_list_of_draws(self, rng):
        # The pool's draws, each from its own spawned stream, equal the same
        # draws made one after another with every child spawned up front.
        spec = ModelSpec(7, 3, 2)
        post = vb.vb_m_step(zero_counts(spec), make_prior("1", spec))
        post.beta_t += rng.random(post.beta_t.shape)
        got = list(vb.sample_posterior(post, 6, seed=11))
        want = sample_posterior_list(post, 6, seed=11)
        assert len(got) == len(want) == 6
        for g, w in zip(got, want):
            for name in ("phi", "theta", "xi", "pi"):
                assert np.array_equal(getattr(g, name), getattr(w, name))

    @given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_fewer_samples_are_a_prefix(self, k, extra, seed):
        spec = ModelSpec(4, 2, 3)
        post = vb.vb_m_step(zero_counts(spec), make_prior("1", spec))
        short = list(vb.sample_posterior(post, k, seed))
        longer = list(vb.sample_posterior(post, k + extra, seed))
        assert len(short) == k
        for a, b in zip(short, longer):
            for name in ("phi", "theta", "xi", "pi"):
                assert np.array_equal(getattr(a, name), getattr(b, name))

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_early_close_joins_the_pool(self, monkeypatch, cpus):
        monkeypatch.setattr(vb, "_usable_cpus", lambda: cpus)
        spec = ModelSpec(50, 3, 2)
        post = vb.vb_m_step(zero_counts(spec), make_prior("1", spec))
        before = set(threading.enumerate())
        draws = vb.sample_posterior(post, 100, seed=3)
        (first,) = itertools.islice(draws, 1)
        started = set(threading.enumerate()) - before
        # One CPU draws on the pool too.
        assert started and all(t.name.startswith("sample_posterior") for t in started)
        draws.close()
        assert not any(t.is_alive() for t in started)
        assert validate_params(first, spec) == []

    def test_concentrated_posterior_mean(self):
        # Dirichlet(5000, 5000) column: samples average to 0.5 tightly.
        post = vb.PosteriorHyperparams(
            beta_t=np.full((2, 1), 5000.0), alpha_t=np.array([[1.0]]),
            eta_t=np.array([1.0]), gamma_t=np.array([[1.0]]))
        draws = vb.sample_posterior(post, 400, seed=1)
        mean = np.mean([p.phi[0, 0] for p in draws])
        assert abs(mean - 0.5) < 0.01


def _enumerated_log_evidence(corpus, hyper):
    """log p(x): the collapsed log joint summed over every topic and
    behaviour assignment."""
    lengths = [len(words) for words in corpus]
    Y, Z = corpus.spec.num_topics, corpus.spec.num_behaviours
    offsets = np.cumsum([0] + lengths)
    terms = []
    for flat in itertools.product(range(Y), repeat=sum(lengths)):
        doc_topics = [flat[a:b] for a, b in zip(offsets[:-1], offsets[1:])]
        for z_assign in itertools.product(range(Z), repeat=len(corpus)):
            terms.append(_oracles.collapsed_log_joint(doc_topics, z_assign, corpus, hyper))
    return logsumexp(terms)


class TestFreeEnergy:
    def test_prior_posterior_has_no_kl(self):
        spec = ModelSpec(3, 2, 2)
        h = make_prior("H+1", spec)
        post = vb.vb_m_step(zero_counts(spec), h)
        assert vb.free_energy(post, -12.5, h) == -12.5

    def test_kl_matches_numerical_integration(self):
        # With two words, topics and behaviours every column is a Beta
        # distribution, so F at log K~ = 0 is minus a sum of seven Beta KLs.
        spec = ModelSpec(2, 2, 2)
        h = Hyperparams(alpha=[0.4, 1.5], beta=[0.7, 2.5], gamma=[3.0, 0.2], eta=[1.2, 0.6])
        rng = np.random.default_rng(5)
        post = vb.vb_m_step(SufficientCounts(
            n_xy=rng.uniform(0, 4, (2, 2)), n_yz=rng.uniform(0, 4, (2, 2)),
            n_zz=rng.uniform(0, 4, (2, 2)), n_z1=rng.uniform(0, 1, 2)), h)

        def kl(a, b):
            def integrand(p):
                log_q = beta_dist.logpdf(p, *a)
                return np.exp(log_q) * (log_q - beta_dist.logpdf(p, *b))
            return quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-12)[0]

        expected = sum(kl(col, prior) for mat, prior in (
            (post.beta_t, h.beta), (post.alpha_t, h.alpha), (post.gamma_t, h.gamma),
            (post.eta_t[:, None], h.eta)) for col in mat.T)
        assert np.isclose(-vb.free_energy(post, 0.0, h), expected, rtol=1e-9, atol=0)

    def test_point_mass_is_minus_infinity(self):
        spec = ModelSpec(3, 2, 2)
        h = make_prior("1", spec)
        draw = em.m_step(zero_counts(spec), h)
        assert vb.free_energy(draw, -12.5, h) == -np.inf

    def test_bounded_by_enumerated_log_evidence(self):
        # F <= log p(x) for every posterior when log K~ comes from the E-step
        # under its surrogates: along a fit, and at random posteriors.
        rng = np.random.default_rng(31)
        spec = ModelSpec(3, 2, 2)
        for case in range(12):
            cuts = np.sort(rng.choice(np.arange(1, 7), size=int(rng.integers(1, 4)),
                                      replace=False))
            words = rng.integers(0, 3, size=7)
            corpus = corpus_from_lists(np.split(words, cuts), spec)
            h = make_prior(("1", "H", "H+1")[case % 3], spec)
            log_evidence = _enumerated_log_evidence(corpus, h)
            _, _, trace = vb.vb_fit(corpus, h, spec, seed=case, max_iters=15)
            bounds = trace.objectives[1:]
            for _ in range(3):
                post = vb.PosteriorHyperparams(
                    beta_t=rng.uniform(0.05, 5.0, (3, 2)), alpha_t=rng.uniform(0.05, 5.0, (2, 2)),
                    eta_t=rng.uniform(0.05, 5.0, 2), gamma_t=rng.uniform(0.05, 5.0, (2, 2)))
                log_k, _ = inference.e_step(vb.tilde_params(post), corpus)
                bounds.append(vb.free_energy(post, log_k, h))
            assert np.all(np.isfinite(bounds))
            assert max(bounds) <= log_evidence


class TestVbFit:
    def test_trivial_model_fixed_point(self):
        # With |Y| = |Z| = 1 the expected counts are the raw data counts and
        # the posterior stabilises after one iteration.
        spec = ModelSpec(3, 1, 1)
        corpus = corpus_from_lists([[0, 0, 1], [2, 0]], spec)
        post, est, trace = vb.vb_fit(corpus, make_prior("1", spec), spec,
                                     seed=0, max_iters=5, tol=1e-12)
        assert trace.converged
        assert np.allclose(post.beta_t[:, 0], [4.0, 2.0, 2.0])
        assert np.allclose(est.phi[:, 0], [4 / 8, 2 / 8, 2 / 8])

    def test_deterministic_in_seed(self):
        spec = ModelSpec(3, 2, 2)
        ds = generate.generate(spec, make_prior("1", spec), 8, [4] * 8, seed=1)
        h = make_prior("1", spec)
        _, a, _ = vb.vb_fit(ds.corpus, h, spec, seed=5, max_iters=10)
        _, b, _ = vb.vb_fit(ds.corpus, h, spec, seed=5, max_iters=10)
        assert np.array_equal(a.phi, b.phi)

    def test_posterior_mass_matches_data(self):
        spec = ModelSpec(4, 2, 2)
        ds = generate.generate(spec, make_prior("1", spec), 10, [5] * 10, seed=2)
        post, _, _ = vb.vb_fit(ds.corpus, make_prior("1", spec), spec, seed=0,
                               max_iters=10)
        n = ds.corpus.num_tokens
        assert np.isclose(post.beta_t.sum(), n + 8, atol=1e-6)
        assert np.isclose(post.alpha_t.sum(), n + 4, atol=1e-6)
        assert np.isclose(post.gamma_t.sum(), len(ds.corpus) - 1 + 4, atol=1e-6)
        assert np.isclose(post.eta_t.sum(), 1 + 2, atol=1e-6)

    def test_convergence_tolerance(self):
        spec = ModelSpec(3, 2, 2)
        ds = generate.generate(spec, make_prior("1", spec), 8, [4] * 8, seed=0)
        _, _, trace = vb.vb_fit(ds.corpus, make_prior("1", spec), spec, seed=0,
                                max_iters=500, tol=1e-6)
        assert trace.converged and trace.iterations < 500
        # The stop is on the free energy, which is -inf at the initial draw.
        assert trace.objectives[0] == -np.inf
        assert abs(trace.objectives[-1] - trace.objectives[-2]) < 1e-6
