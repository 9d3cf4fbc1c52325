import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from markovtopics import (
    ModelParams,
    ModelSpec,
    corpus_from_lists,
    make_prior,
    random_init,
)
from markovtopics import generate, inference
from markovtopics.model import NumericalError

import _oracles
from _oracles import enum_expected_counts, enum_marginal_and_posteriors, log_marginal_likelihood
from conftest import random_instance


def _uniform_params(X, Y, Z):
    return ModelParams(
        phi=np.full((X, Y), 1.0 / X),
        theta=np.full((Y, Z), 1.0 / Y),
        xi=np.full((Z, Z), 1.0 / Z),
        pi=np.full(Z, 1.0 / Z),
    )


class TestEmissionLogs:
    def test_uniform_emission(self):
        X = 4
        p = _uniform_params(X, 1, 2)
        corpus = corpus_from_lists([[0, 1, 2], [3]], ModelSpec(X, 1, 2))
        loge = inference.emission_logs(p, corpus)
        assert np.allclose(loge[:, 0], 3 * np.log(1 / X))
        assert np.allclose(loge[:, 1], np.log(1 / X))

    def test_hand_arithmetic_2x2x2(self):
        phi = np.array([[0.7, 0.2], [0.3, 0.8]])
        theta = np.array([[0.6, 0.1], [0.4, 0.9]])
        p = ModelParams(phi=phi, theta=theta, xi=np.full((2, 2), 0.5),
                        pi=np.array([0.5, 0.5]))
        corpus = corpus_from_lists([[0, 1]], ModelSpec(2, 2, 2))
        mix = phi @ theta
        expected = np.log(mix[0]) + np.log(mix[1])
        assert np.allclose(inference.emission_logs(p, corpus)[:, 0], expected)

    def test_zero_mixture_gives_neg_inf(self):
        phi = np.array([[1.0], [0.0]])
        p = ModelParams(phi=phi, theta=np.ones((1, 1)), xi=np.ones((1, 1)),
                        pi=np.array([1.0]))
        corpus = corpus_from_lists([[1]], ModelSpec(2, 1, 1))
        assert inference.emission_logs(p, corpus)[0, 0] == -np.inf


class TestForwardBackward:
    def test_single_state_forward_is_prefix_sum(self):
        p = _uniform_params(3, 2, 1)
        corpus = corpus_from_lists([[0], [1, 2], [2]], ModelSpec(3, 2, 1))
        loge = inference.emission_logs(p, corpus)
        la = _oracles.forward(p, corpus, loge)
        assert np.allclose(la[0], np.cumsum(loge[0]))

    def test_single_state_backward_is_suffix_sum(self):
        p = _uniform_params(3, 2, 1)
        corpus = corpus_from_lists([[0], [1, 2], [2]], ModelSpec(3, 2, 1))
        loge = inference.emission_logs(p, corpus)
        lb = _oracles.backward(p, corpus, loge)
        expected = np.concatenate([np.cumsum(loge[0, ::-1])[::-1][1:], [0.0]])
        assert np.allclose(lb[0], expected)

    def test_symmetric_states_equal_messages(self):
        p = _uniform_params(3, 2, 2)
        corpus = corpus_from_lists([[0, 1], [2]], ModelSpec(3, 2, 2))
        la = _oracles.forward(p, corpus)
        lb = _oracles.backward(p, corpus)
        assert np.allclose(la[0], la[1])
        assert np.allclose(lb[0], lb[1])

    def test_final_backward_column_zero(self):
        spec = ModelSpec(3, 2, 2)
        p = random_init(spec, make_prior("1", spec), 0)
        corpus = corpus_from_lists([[0], [1]], spec)
        assert np.all(_oracles.backward(p, corpus)[:, -1] == 0.0)

    def test_marginal_matches_path_enumeration(self):
        spec = ModelSpec(2, 2, 2)
        p = random_init(spec, make_prior("1", spec), 5)
        corpus = corpus_from_lists([[0, 1], [1], [0]], spec)
        msgs = _oracles.messages(p, corpus)
        oracle = enum_marginal_and_posteriors(p, corpus)
        assert np.isclose(np.exp(log_marginal_likelihood(msgs)),
                          oracle["marginal"], rtol=1e-10)

    def test_time_slice_invariance(self, rng):
        for _ in range(20):
            spec, p, corpus = random_instance(rng)
            msgs = _oracles.messages(p, corpus)
            slices = logsumexp(msgs.log_alpha + msgs.log_beta, axis=0)
            assert np.allclose(slices, msgs.log_K, atol=1e-8)

    def test_log_k_equals_marginal(self, rng):
        for _ in range(10):
            spec, p, corpus = random_instance(rng)
            msgs = _oracles.messages(p, corpus)
            assert np.isclose(msgs.log_K, log_marginal_likelihood(msgs),
                              atol=1e-12)


class TestPosteriors:
    def test_single_behaviour_token_responsibility(self):
        # With one behaviour the token posterior reduces to the mixture
        # responsibility phi[x, y] * theta[y] / mix.
        phi = np.array([[0.7, 0.2], [0.3, 0.8]])
        theta = np.array([[0.6], [0.4]])
        p = ModelParams(phi=phi, theta=theta, xi=np.ones((1, 1)),
                        pi=np.array([1.0]))
        corpus = corpus_from_lists([[0, 1]], ModelSpec(2, 2, 1))
        msgs = _oracles.messages(p, corpus)
        post = _oracles.posteriors(p, corpus, msgs)
        for i, x in enumerate([0, 1]):
            expected = phi[x] * theta[:, 0]
            expected /= expected.sum()
            assert np.allclose(post.token_y[0][i], expected)

    def test_uniform_model_uniform_pairs(self):
        p = _uniform_params(3, 2, 2)
        corpus = corpus_from_lists([[0], [1], [2]], ModelSpec(3, 2, 2))
        msgs = _oracles.messages(p, corpus)
        post = _oracles.posteriors(p, corpus, msgs)
        assert np.allclose(post.pair_zz, 0.25)

    def test_normalisation_invariants(self, rng):
        for _ in range(20):
            spec, p, corpus = random_instance(rng)
            msgs = _oracles.messages(p, corpus)
            post = _oracles.posteriors(p, corpus, msgs)
            assert abs(post.z1.sum() - 1.0) < 1e-9
            for mat in post.pair_zz:
                assert abs(mat.sum() - 1.0) < 1e-9
            for t in range(len(corpus)):
                sums = post.token_yz[t].sum(axis=(1, 2))
                assert np.allclose(sums, 1.0, atol=1e-9)

    def test_marginal_consistency_over_tokens(self, rng):
        # Every token of a document sees the same p(z_t | x).
        for _ in range(10):
            spec, p, corpus = random_instance(rng)
            msgs = _oracles.messages(p, corpus)
            post = _oracles.posteriors(p, corpus, msgs)
            for t in range(len(corpus)):
                pz = post.token_yz[t].sum(axis=1)
                assert np.allclose(pz, pz[0][None, :], atol=1e-8)

    def test_token_y_is_z_sum(self, rng):
        spec, p, corpus = random_instance(rng)
        msgs = _oracles.messages(p, corpus)
        post = _oracles.posteriors(p, corpus, msgs)
        for t in range(len(corpus)):
            assert np.allclose(post.token_y[t], post.token_yz[t].sum(axis=2),
                               atol=1e-12)

    def test_matches_enumeration(self, rng):
        for _ in range(25):
            spec, p, corpus = random_instance(rng)
            msgs = _oracles.messages(p, corpus)
            post = _oracles.posteriors(p, corpus, msgs)
            oracle = enum_marginal_and_posteriors(p, corpus)
            assert np.allclose(post.z1, oracle["z1"], rtol=1e-10, atol=1e-12)
            assert np.allclose(post.pair_zz, oracle["pair_zz"], rtol=1e-10, atol=1e-12)
            for t in range(len(corpus)):
                assert np.allclose(post.token_yz[t], oracle["token_yz"][t],
                                   rtol=1e-10, atol=1e-12)

    def test_impossible_corpus_reported(self):
        phi = np.array([[1.0], [0.0]])
        p = ModelParams(phi=phi, theta=np.ones((1, 1)), xi=np.ones((1, 1)),
                        pi=np.array([1.0]))
        corpus = corpus_from_lists([[1]], ModelSpec(2, 1, 1))
        msgs = _oracles.messages(p, corpus)
        with pytest.raises(NumericalError):
            _oracles.posteriors(p, corpus, msgs)

    def test_sub_stochastic_inputs_still_normalise(self, rng):
        # Tilde-style columns summing to < 1: normalisation by the overall
        # constant absorbs the deficit.
        spec = ModelSpec(3, 2, 2)
        base = random_init(spec, make_prior("1", spec), 1)
        shrink = ModelParams(phi=base.phi * 0.8, theta=base.theta * 0.9,
                             xi=base.xi * 0.7, pi=base.pi * 0.6)
        corpus = corpus_from_lists([[0, 2], [1]], spec)
        msgs = _oracles.messages(shrink, corpus)
        post = _oracles.posteriors(shrink, corpus, msgs)
        assert abs(post.z1.sum() - 1.0) < 1e-9
        for t in range(len(corpus)):
            assert np.allclose(post.token_yz[t].sum(axis=(1, 2)), 1.0, atol=1e-9)


class TestExpectedCounts:
    def test_totals(self, rng):
        for _ in range(10):
            spec, p, corpus = random_instance(rng)
            _, post, counts = _oracles.infer(p, corpus)
            assert np.isclose(counts.n_xy.sum(), corpus.num_tokens, atol=1e-6)
            assert np.isclose(counts.n_yz.sum(), corpus.num_tokens, atol=1e-6)
            assert np.isclose(counts.n_zz.sum(), len(corpus) - 1, atol=1e-6)
            assert np.isclose(counts.n_z1.sum(), 1.0, atol=1e-6)

    def test_matches_enumeration(self, rng):
        for _ in range(15):
            spec, p, corpus = random_instance(rng)
            _, _, counts = _oracles.infer(p, corpus)
            n_xy, n_yz, n_zz, n_z1 = enum_expected_counts(p, corpus)
            assert np.allclose(counts.n_xy, n_xy, rtol=1e-10, atol=1e-12)
            assert np.allclose(counts.n_yz, n_yz, rtol=1e-10, atol=1e-12)
            assert np.allclose(counts.n_zz, n_zz, rtol=1e-10, atol=1e-12)
            assert np.allclose(counts.n_z1, n_z1, rtol=1e-10, atol=1e-12)


class TestLogMarginal:
    def test_degenerate_uniform(self):
        X = 5
        p = _uniform_params(X, 1, 1)
        corpus = corpus_from_lists([[0, 1], [2, 3, 4]], ModelSpec(X, 1, 1))
        msgs = _oracles.messages(p, corpus)
        assert np.isclose(log_marginal_likelihood(msgs),
                          5 * np.log(1 / X), atol=1e-12)


class TestEStep:
    def test_matches_token_level_reference_mid_size(self):
        spec = ModelSpec(240, 5, 3)
        ds = generate.generate(spec, make_prior("H", spec), 320, [100] * 320, seed=4)
        params = random_init(spec, make_prior("H+1", spec), 9)
        log_lik, counts = inference.e_step(params, ds.corpus)
        msgs, _, ref = _oracles.infer(params, ds.corpus)
        assert math.isclose(log_lik, msgs.log_K, rel_tol=1e-12)
        for name in ("n_xy", "n_yz", "n_zz", "n_z1"):
            # Largest absolute difference relative to the largest count.
            fast, slow = getattr(counts, name), getattr(ref, name)
            assert np.abs(fast - slow).max() <= 1e-7 * np.abs(slow).max(), name

    def test_zero_scale_falls_back_to_log_domain(self):
        # Behaviour 1 is the only one that can emit word 2, but after 100
        # tokens of word 0 its scaled forward message is exactly zero and
        # identity transitions never revive it: the second scale is zero.
        params = ModelParams(phi=np.array([[0.9, 1e-9], [0.1, 0.5], [0.0, 0.5 - 1e-9]]),
                             theta=np.eye(2), xi=np.eye(2), pi=np.array([0.5, 0.5]))
        corpus = corpus_from_lists([[0] * 100, [2]], ModelSpec(3, 2, 2))
        log_lik, counts = inference.e_step(params, corpus)
        msgs, _, ref = _oracles.infer(params, corpus)
        assert math.isclose(log_lik, -2073.7, abs_tol=0.05)
        assert math.isclose(log_lik, msgs.log_K, rel_tol=1e-12)
        for name in ("n_xy", "n_yz", "n_zz", "n_z1"):
            assert np.allclose(getattr(counts, name), getattr(ref, name), rtol=1e-12, atol=0)

    def test_overflowed_backward_falls_back_to_log_domain(self):
        # Document 1 favours behaviour 0 by about e^815, so behaviour 1's
        # scaled forward message underflows to zero; the later documents
        # favour behaviour 1 by e^680 each.  Every scale is positive, but the
        # backward message of behaviour 1 overflows.
        phi = np.array([[0.9, 1e-3], [1e-3, 0.9], [0.099, 0.099]])
        params = ModelParams(phi=phi / phi.sum(axis=0), theta=np.eye(2), xi=np.eye(2),
                             pi=np.array([0.5, 0.5]))
        corpus = corpus_from_lists([[0] * 120] + [[1] * 100] * 4, ModelSpec(3, 2, 2))
        log_lik, counts = inference.e_step(params, corpus)
        msgs, _, ref = _oracles.infer(params, corpus)
        assert math.isclose(log_lik, msgs.log_K, rel_tol=1e-12)
        assert np.allclose(counts.n_z1, [0.0, 1.0])
        for name in ("n_xy", "n_yz", "n_zz", "n_z1"):
            assert np.allclose(getattr(counts, name), getattr(ref, name), rtol=1e-12, atol=0)

    def test_one_document_falls_back_to_log_domain(self):
        # Behaviour 0 starts the chain but gives word 1 a tenth of the mass
        # behaviour 1 does: e^-921 against e^-0.4 over 400 tokens.  Shifted by
        # the larger emission, behaviour 0's emission underflows to zero and
        # pi zeroes behaviour 1, so the only scale is zero.
        params = ModelParams(phi=np.array([[0.9, 1e-3], [0.1, 0.999]]), theta=np.eye(2),
                             xi=np.eye(2), pi=np.array([1.0, 0.0]))
        corpus = corpus_from_lists([[1] * 400], ModelSpec(2, 2, 2))
        log_lik, counts = inference.e_step(params, corpus)
        msgs, _, ref = _oracles.infer(params, corpus)
        assert math.isclose(log_lik, 400 * math.log(0.1), rel_tol=1e-12)
        assert math.isclose(log_lik, msgs.log_K, rel_tol=1e-12)
        assert counts.n_zz.shape == (2, 2) and np.all(counts.n_zz == 0.0)
        for name in ("n_xy", "n_yz", "n_zz", "n_z1"):
            assert np.allclose(getattr(counts, name), getattr(ref, name), rtol=1e-12, atol=0)

    def test_impossible_corpus_raises(self):
        phi = np.array([[1.0], [0.0]])
        p = ModelParams(phi=phi, theta=np.ones((1, 1)), xi=np.ones((1, 1)),
                        pi=np.array([1.0]))
        corpus = corpus_from_lists([[0], [1]], ModelSpec(2, 1, 1))
        with pytest.raises(NumericalError):
            inference.e_step(p, corpus)

    def test_zero_mixture_words_get_no_counts(self):
        # A truncated MAP estimate gives exact zeros; words the corpus never
        # uses may have zero mixture probability under every behaviour.
        phi = np.array([[0.5, 0.0], [0.5, 0.4], [0.0, 0.6]])
        p = ModelParams(phi=phi, theta=np.array([[1.0, 0.0], [0.0, 1.0]]),
                        xi=np.full((2, 2), 0.5), pi=np.array([0.5, 0.5]))
        corpus = corpus_from_lists([[0, 1], [1], [0]], ModelSpec(3, 2, 2))
        _, counts = inference.e_step(p, corpus)
        _, _, ref = _oracles.infer(p, corpus)
        assert np.all(np.isfinite(counts.n_xy)) and np.all(counts.n_xy[2] == 0.0)
        assert np.allclose(counts.n_xy, ref.n_xy, rtol=1e-12, atol=1e-15)
        assert np.allclose(counts.n_yz, ref.n_yz, rtol=1e-12, atol=1e-15)


@st.composite
def _tiny_instances(draw):
    """Random tiny parameters, possibly sub-stochastic like the VB
    surrogates, with a random corpus."""
    spec = ModelSpec(draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    params = random_init(spec, make_prior(draw(st.sampled_from(["1", "H", "H+1"])), spec),
                         draw(st.integers(0, 2**32 - 1)))
    shrink = draw(st.floats(0.5, 1.0))
    params = ModelParams(phi=params.phi * shrink, theta=params.theta * shrink,
                         xi=params.xi * shrink, pi=params.pi * shrink)
    docs = draw(st.lists(st.lists(st.integers(0, spec.num_words - 1), min_size=1, max_size=5),
                         min_size=1, max_size=6))
    return params, corpus_from_lists(docs, spec)


class TestEStepProperties:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_tiny_instances())
    def test_mass_and_likelihood(self, instance):
        params, corpus = instance
        log_K = _oracles.messages(params, corpus).log_K
        if log_K == -np.inf:
            with pytest.raises(NumericalError):
                inference.e_step(params, corpus)
            return
        log_lik, counts = inference.e_step(params, corpus)
        n, T = corpus.num_tokens, len(corpus)
        assert math.isclose(counts.n_xy.sum(), n, rel_tol=1e-10)
        assert math.isclose(counts.n_yz.sum(), n, rel_tol=1e-10)
        assert math.isclose(counts.n_zz.sum(), T - 1, rel_tol=1e-10, abs_tol=1e-12)
        assert math.isclose(counts.n_z1.sum(), 1.0, rel_tol=1e-10)
        assert math.isclose(log_lik, log_K, rel_tol=1e-10, abs_tol=1e-10)
