import itertools

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from markovtopics import ModelSpec, corpus_from_lists, make_prior, random_init
from markovtopics import anomaly, inference
from markovtopics.ingest import FrameLayout
from markovtopics.model import Document, ModelParams

from conftest import random_instance


def _uniform_params(X, Y, Z):
    return ModelParams(
        phi=np.full((X, Y), 1.0 / X),
        theta=np.full((Y, Z), 1.0 / Y),
        xi=np.full((Z, Z), 1.0 / Z),
        pi=np.full(Z, 1.0 / Z),
    )


def _score_stream(samples, corpus, min_words=0, last_filtered=None):
    state = anomaly.init_state(samples, last_filtered=last_filtered)
    out, states = [], []
    for doc in corpus.documents:
        scored, state = anomaly.score(state, doc, min_words=min_words)
        out.append(scored)
        states.append(state)
    return out, states


class TestInitState:
    def test_default_is_initial_distribution(self):
        p = _uniform_params(2, 1, 3)
        st = anomaly.init_state([p])
        assert np.allclose(st.behaviour_belief, 1 / 3)

    def test_propagated_belief(self):
        xi = np.array([[0.9, 0.2], [0.1, 0.8]])
        p = ModelParams(phi=np.full((2, 1), 0.5), theta=np.ones((1, 2)),
                        xi=xi, pi=np.array([0.5, 0.5]))
        st = anomaly.init_state([p], last_filtered=np.array([1.0, 0.0]))
        assert np.allclose(st.behaviour_belief, xi[:, 0])


class TestFilteredBelief:
    def test_matches_forward_column(self, rng):
        spec, p, corpus = random_instance(rng)
        b = anomaly.filtered_belief(p, corpus)
        msgs = inference.messages(p, corpus)
        expected = np.exp(msgs.log_alpha[:, -1] - logsumexp(msgs.log_alpha[:, -1]))
        assert np.allclose(b, expected, atol=1e-12)
        assert np.isclose(b.sum(), 1.0, atol=1e-12)


class TestScorePlugin:
    def test_uniform_model_score(self):
        X = 4
        p = _uniform_params(X, 1, 2)
        doc = Document(words=np.array([0, 1, 2]), timestamp=1)
        st = anomaly.init_state([p])
        scored, _ = anomaly.score(st, doc, min_words=0)
        assert np.isclose(scored.log_lik, 3 * np.log(1 / X), atol=1e-12)
        assert np.isclose(scored.score, 3 * np.log(1 / X) - np.log(3), atol=1e-12)

    def test_chain_rule_against_enumeration(self, rng):
        # Cumulative per-document predictive log likelihoods must reproduce
        # the joint marginal computed by exhaustive path enumeration.
        from _oracles import enum_marginal_and_posteriors
        for _ in range(15):
            spec, p, corpus = random_instance(rng)
            scored, _ = _score_stream([p], corpus)
            total = sum(s.log_lik for s in scored)
            oracle = enum_marginal_and_posteriors(p, corpus)
            assert np.isclose(total, np.log(oracle["marginal"]), atol=1e-10)

    def test_chain_rule_against_forward(self, rng):
        for _ in range(10):
            spec, p, corpus = random_instance(rng)
            scored, _ = _score_stream([p], corpus)
            total = sum(s.log_lik for s in scored)
            msgs = inference.messages(p, corpus)
            assert np.isclose(total, inference.log_marginal_likelihood(msgs),
                              atol=1e-8)

    def test_bayes_update_hand_case(self):
        # Two behaviours with disjoint vocabularies and a sticky chain.
        phi = np.array([[1.0, 0.0], [0.0, 1.0]])
        xi = np.array([[0.9, 0.1], [0.1, 0.9]])
        p = ModelParams(phi=phi, theta=np.eye(2), xi=xi,
                        pi=np.array([0.5, 0.5]))
        st = anomaly.init_state([p])
        doc = Document(words=np.array([0]), timestamp=1)
        scored, st = anomaly.score(st, doc, min_words=0)
        # Likelihood 0.5, filtered belief (1, 0), propagated (0.9, 0.1).
        assert np.isclose(scored.log_lik, np.log(0.5), atol=1e-12)
        assert np.allclose(st.behaviour_belief, [0.9, 0.1], atol=1e-12)

    def test_impossible_document_resets_belief(self):
        phi = np.array([[1.0], [0.0]])
        p = ModelParams(phi=phi, theta=np.ones((1, 1)), xi=np.ones((1, 1)),
                        pi=np.array([1.0]))
        st = anomaly.init_state([p])
        doc = Document(words=np.array([1]), timestamp=1)
        scored, st = anomaly.score(st, doc, min_words=0)
        assert scored.log_lik == -np.inf
        assert np.allclose(st.behaviour_belief, p.pi)

    def test_short_document_not_evaluated(self):
        p = _uniform_params(3, 1, 1)
        doc = Document(words=np.array([0] * 19), timestamp=1)
        st = anomaly.init_state([p])
        scored, _ = anomaly.score(st, doc)
        assert not scored.evaluated and scored.score is None

    def test_twenty_words_evaluated(self):
        p = _uniform_params(3, 1, 1)
        doc = Document(words=np.array([0] * 20), timestamp=1)
        st = anomaly.init_state([p])
        scored, _ = anomaly.score(st, doc)
        assert scored.evaluated and scored.score is not None

    def test_short_document_still_updates_state(self):
        phi = np.array([[1.0, 0.0], [0.0, 1.0]])
        p = ModelParams(phi=phi, theta=np.eye(2),
                        xi=np.array([[0.9, 0.1], [0.1, 0.9]]),
                        pi=np.array([0.5, 0.5]))
        st = anomaly.init_state([p])
        doc = Document(words=np.array([0]), timestamp=1)
        _, st = anomaly.score(st, doc)
        assert np.allclose(st.behaviour_belief, [0.9, 0.1])


class TestScoreMc:
    def test_identical_samples_reduce_to_plugin(self, rng):
        spec, p, corpus = random_instance(rng)
        doc = corpus.documents[0]
        mc, _ = anomaly.score(anomaly.init_state([p] * 4), doc, min_words=0)
        plug, _ = anomaly.score(anomaly.init_state([p]), doc, min_words=0)
        assert np.isclose(mc.log_lik, plug.log_lik, atol=1e-12)

    def test_average_of_two_point_masses(self):
        # Sample 1 gives the doc probability 1, sample 2 gives it 0:
        # the Monte Carlo estimate is exactly 1/2.
        pa = ModelParams(phi=np.array([[1.0], [0.0]]), theta=np.ones((1, 1)),
                         xi=np.ones((1, 1)), pi=np.array([1.0]))
        pb = ModelParams(phi=np.array([[0.0], [1.0]]), theta=np.ones((1, 1)),
                         xi=np.ones((1, 1)), pi=np.array([1.0]))
        doc = Document(words=np.array([0]), timestamp=1)
        scored, _ = anomaly.score(anomaly.init_state([pa, pb]), doc, min_words=0)
        assert np.isclose(scored.log_lik, np.log(0.5), atol=1e-12)

    def test_bounded_by_sample_extremes(self, rng):
        spec = ModelSpec(3, 2, 2)
        h = make_prior("1", spec)
        samples = [random_init(spec, h, s) for s in range(5)]
        doc = Document(words=np.array([0, 1, 2]), timestamp=1)
        per = []
        for p in samples:
            scored, _ = anomaly.score(anomaly.init_state([p]), doc, min_words=0)
            per.append(scored.log_lik)
        mc, _ = anomaly.score(anomaly.init_state(samples), doc, min_words=0)
        assert min(per) - 1e-12 <= mc.log_lik <= max(per) + 1e-12

    def test_states_tracked_per_sample(self, rng):
        spec = ModelSpec(3, 2, 2)
        h = make_prior("1", spec)
        samples = [random_init(spec, h, s) for s in range(3)]
        doc = Document(words=np.array([0, 2]), timestamp=1)
        _, new_st = anomaly.score(anomaly.init_state(samples), doc, min_words=0)
        assert new_st.behaviour_belief.shape == (3, 2)
        beliefs = [tuple(b) for b in new_st.behaviour_belief]
        assert len(set(beliefs)) == 3

    def test_matches_independent_single_sample_streams(self):
        # Sample 1 gives word 2 probability zero, so document 3 is
        # impossible under it alone: only its belief restarts from its pi.
        spec = ModelSpec(3, 2, 2)
        h = make_prior("1", spec)
        samples = [random_init(spec, h, s) for s in range(3)]
        phi = samples[1].phi.copy()
        phi[2] = 0.0
        samples[1] = ModelParams(phi=phi / phi.sum(axis=0), theta=samples[1].theta,
                                 xi=samples[1].xi, pi=samples[1].pi)
        corpus = corpus_from_lists([[0, 1, 0], [1, 1], [0, 2, 1], [0, 0, 1, 1],
                                    [1, 0], [0, 1, 1]], spec)
        last = np.array([0.3, 0.7])
        stacked, states = _score_stream(samples, corpus, last_filtered=last)
        single = [_score_stream([p], corpus, last_filtered=last) for p in samples]
        for t in range(len(corpus)):
            per = np.array([recs[t].log_lik for recs, _ in single])
            assert np.isfinite(per).sum() == (2 if t == 2 else 3)
            expected = logsumexp(per) - np.log(len(samples))
            assert np.isclose(stacked[t].log_lik, expected, rtol=1e-12, atol=1e-12)
            for s, (_, sts) in enumerate(single):
                assert np.allclose(states[t].behaviour_belief[s], sts[t].behaviour_belief[0],
                                   rtol=1e-12, atol=1e-12)
        after = states[2].behaviour_belief
        assert np.array_equal(after[1], samples[1].pi)
        assert not np.allclose(after[0], samples[0].pi)
        assert not np.allclose(after[2], samples[2].pi)


class TestNormaliseScore:
    def test_arithmetic(self):
        assert np.isclose(anomaly.normalise_score(-10.0, 5), -10.0 - np.log(5))

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            anomaly.normalise_score(-1.0, 0)


class TestWordLogLiks:
    def test_hand_case_2x2x2(self):
        phi = np.array([[0.7, 0.2], [0.3, 0.8]])
        theta = np.eye(2)
        p = ModelParams(phi=phi, theta=theta, xi=np.full((2, 2), 0.5),
                        pi=np.array([0.6, 0.4]))
        st = anomaly.init_state([p])
        doc = Document(words=np.array([0, 1]), timestamp=1)
        lls = anomaly.word_log_liks(st, doc)
        # Token marginal mixes phi over the belief: 0.6*0.7 + 0.4*0.2 = 0.5.
        assert np.isclose(lls[0], np.log(0.5), atol=1e-12)
        assert np.isclose(lls[1], np.log(0.6 * 0.3 + 0.4 * 0.8), atol=1e-12)

    def test_mc_mode_averages(self):
        pa = ModelParams(phi=np.array([[1.0], [0.0]]), theta=np.ones((1, 1)),
                         xi=np.ones((1, 1)), pi=np.array([1.0]))
        pb = ModelParams(phi=np.array([[0.5], [0.5]]), theta=np.ones((1, 1)),
                         xi=np.ones((1, 1)), pi=np.array([1.0]))
        doc = Document(words=np.array([0]), timestamp=1)
        lls = anomaly.word_log_liks(anomaly.init_state([pa, pb]), doc)
        assert np.isclose(lls[0], np.log(0.75), atol=1e-12)


class TestLocalise:
    def _layout(self):
        return FrameLayout(frame_w=16, frame_h=16)

    def test_orders_by_ascending_likelihood(self):
        layout = self._layout()
        doc = Document(words=np.array([0, 5, 9]), timestamp=1)
        lls = np.array([-1.0, -5.0, -3.0])
        out = anomaly.localise(lls, doc, layout, top_n=3)
        assert [o[0] for o in out] == [1, 2, 0]

    def test_ties_keep_token_order(self):
        layout = self._layout()
        doc = Document(words=np.array([3, 2, 1]), timestamp=1)
        lls = np.array([-2.0, -2.0, -2.0])
        out = anomaly.localise(lls, doc, layout, top_n=2)
        assert [o[0] for o in out] == [0, 1]

    def test_top_n_clamped(self):
        layout = self._layout()
        doc = Document(words=np.array([0, 1]), timestamp=1)
        out = anomaly.localise(np.array([-1.0, -2.0]), doc, layout, top_n=10)
        assert len(out) == 2

    def test_decodes_positions(self):
        layout = self._layout()
        # Word id for cell (1, 0), direction index 2 ("down"): (0*2+1)*4+2.
        wid = (0 * layout.cols + 1) * 4 + 2
        doc = Document(words=np.array([wid]), timestamp=1)
        out = anomaly.localise(np.array([-1.0]), doc, layout, top_n=1)
        assert out[0] == (0, 1, 0, "down")

    def test_nonpositive_top_n_rejected(self):
        layout = self._layout()
        doc = Document(words=np.array([0]), timestamp=1)
        with pytest.raises(ValueError):
            anomaly.localise(np.array([-1.0]), doc, layout, top_n=0)


@st.composite
def _train_test_streams(draw):
    """Random tiny parameters with a training and a test stream."""
    spec = ModelSpec(draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    params = random_init(spec, make_prior(draw(st.sampled_from(["1", "H", "H+1"])), spec),
                         draw(st.integers(0, 2**32 - 1)))
    docs = st.lists(st.lists(st.integers(0, spec.num_words - 1), max_size=5),
                    min_size=1, max_size=5)
    return params, draw(docs), draw(docs)


class TestChainRuleProperty:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_train_test_streams())
    def test_plugin_continues_forward(self, streams):
        # Scoring the test stream from the training stream's filtered belief
        # gives, summed, log p(train + test) - log p(train).  An empty
        # document has no length-normalised score, so min_words is 1; its
        # log-lik still counts.
        params, train, test = streams
        spec = params.spec
        train_corpus = corpus_from_lists(train, spec)
        log_train = inference.messages(params, train_corpus).log_K
        assume(np.isfinite(log_train))
        last = anomaly.filtered_belief(params, train_corpus)
        scored, _ = _score_stream([params], corpus_from_lists(test, spec), min_words=1,
                                  last_filtered=last)
        total = sum(s.log_lik for s in scored)
        assume(np.isfinite(total))
        log_both = inference.messages(params, corpus_from_lists(train + test, spec)).log_K
        assert math.isclose(total, log_both - log_train, rel_tol=1e-10, abs_tol=1e-10)
