import itertools

import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from markovtopics import ModelSpec, corpus_from_lists, make_prior, random_init
from markovtopics import anomaly, vb
from markovtopics.ingest import FrameLayout
from markovtopics.model import Document, ModelParams, zero_counts

import _oracles
from _oracles import log_marginal_likelihood, score_one_document, word_log_liks_one_document
from conftest import random_instance


def _uniform_params(X, Y, Z):
    return ModelParams(
        phi=np.full((X, Y), 1.0 / X),
        theta=np.full((Y, Z), 1.0 / Y),
        xi=np.full((Z, Z), 1.0 / Z),
        pi=np.full(Z, 1.0 / Z),
    )


def _score_stream(samples, corpus, min_words=0, last_filtered=None):
    """Score ``corpus`` in one call from a fresh state over ``samples``."""
    state = anomaly.init_state(samples, last_filtered=last_filtered)
    return anomaly.score(state, corpus, min_words=min_words)


def _score_each(samples, corpus, last_filtered=None):
    """Score ``corpus`` one document per call; returns the records and the
    state after each document."""
    state = anomaly.init_state(samples, last_filtered=last_filtered)
    out, states = [], []
    for doc in corpus.documents:
        (scored,), state = anomaly.score(state, _one_doc(doc.words, corpus.spec), min_words=0)
        out.append(scored)
        states.append(state)
    return out, states


def _one_doc(words, spec):
    return corpus_from_lists([words], spec)


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


class TestStreamedSamples:
    @staticmethod
    def _posterior(rng):
        spec = ModelSpec(9, 3, 2)
        post = vb.vb_m_step(zero_counts(spec), make_prior("1", spec))
        post.beta_t += rng.random(post.beta_t.shape)
        return post

    def test_generator_matches_list(self, rng):
        post = self._posterior(rng)
        last = np.array([0.3, 0.7])
        streamed = anomaly.init_state(vb.sample_posterior(post, 5, seed=2), last_filtered=last)
        listed = anomaly.init_state(list(vb.sample_posterior(post, 5, seed=2)),
                                    last_filtered=last)
        assert len(streamed.log_mix) == len(listed.log_mix) == 5
        for a, b in zip(streamed.log_mix, listed.log_mix):
            assert np.array_equal(a, b)
        assert np.array_equal(streamed.xi, listed.xi)
        assert np.array_equal(streamed.pi, listed.pi)
        assert np.array_equal(streamed.behaviour_belief, listed.behaviour_belief)

    def test_each_sample_freed_before_next_draw(self, rng):
        # init_state keeps what scoring reads of a sample and lets the sample
        # go, so S draws never hold S phi matrices at once.
        refs, alive = [], []

        def watched(samples):
            for p in samples:
                refs.append(weakref.ref(p.phi))
                yield p
                del p
                alive.append(refs[-1]() is not None)

        anomaly.init_state(watched(vb.sample_posterior(self._posterior(rng), 4, seed=0)))
        assert len(refs) == 4
        assert alive == [False] * 4


def _underflow_params():
    """xi = I and pi = (1, 0), so behaviour 0 is the only reachable one.
    Twenty copies of word 1 are 786 nats less likely under it than under
    behaviour 1: its emission, shifted by the maximum, underflows to 0."""
    phi = np.array([[1.0 - math.exp(-40.0), 0.5], [math.exp(-40.0), 0.5]])
    return ModelParams(phi=phi, theta=np.eye(2), xi=np.eye(2), pi=np.array([1.0, 0.0]))


def _with_impossible_word(p):
    """``p`` with word 0 given probability 0 under every topic."""
    phi = p.phi.copy()
    phi[0] = 0.0
    return ModelParams(phi=phi / phi.sum(axis=0), theta=p.theta, xi=p.xi, pi=p.pi)


class TestFilteredBelief:
    def test_matches_forward_column(self, rng):
        spec, p, corpus = random_instance(rng)
        b = anomaly.filtered_belief(p, corpus)
        msgs = _oracles.messages(p, corpus)
        expected = np.exp(msgs.log_alpha[:, -1] - logsumexp(msgs.log_alpha[:, -1]))
        assert np.allclose(b, expected, atol=1e-12)
        assert np.isclose(b.sum(), 1.0, atol=1e-12)

    def test_underflow_redone_in_log_domain(self):
        p = _underflow_params()
        corpus = corpus_from_lists([[0, 1], [1] * 20], p.spec)
        _, ref_state, _ = _reference_stream([p], corpus, 0)
        # xi = I: the filtered posterior is the next document's belief.
        np.testing.assert_allclose(anomaly.filtered_belief(p, corpus),
                                   ref_state.behaviour_belief[0], rtol=1e-12, atol=0)

    def test_impossible_document_restarts(self):
        spec = ModelSpec(3, 2, 2)
        p = _with_impossible_word(random_init(spec, make_prior("1", spec), 5))
        tail = [[1, 2], [2, 2, 1]]
        after = anomaly.filtered_belief(p, corpus_from_lists([[1], [0, 1]] + tail, spec))
        assert np.array_equal(after, anomaly.filtered_belief(p, corpus_from_lists(tail, spec)))

    def test_none_when_stream_restarts_after_it(self):
        spec = ModelSpec(3, 2, 2)
        p = _with_impossible_word(random_init(spec, make_prior("1", spec), 5))
        assert anomaly.filtered_belief(p, corpus_from_lists([[1, 2], [2, 0]], spec)) is None
        assert anomaly.filtered_belief(p, corpus_from_lists([], spec)) is None


class TestScorePlugin:
    def test_uniform_model_score(self):
        X = 4
        p = _uniform_params(X, 1, 2)
        st = anomaly.init_state([p])
        (scored,), _ = anomaly.score(st, _one_doc([0, 1, 2], p.spec), min_words=0)
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
            msgs = _oracles.messages(p, corpus)
            assert np.isclose(total, log_marginal_likelihood(msgs),
                              atol=1e-8)

    def test_bayes_update_hand_case(self):
        # Two behaviours with disjoint vocabularies and a sticky chain.
        phi = np.array([[1.0, 0.0], [0.0, 1.0]])
        xi = np.array([[0.9, 0.1], [0.1, 0.9]])
        p = ModelParams(phi=phi, theta=np.eye(2), xi=xi,
                        pi=np.array([0.5, 0.5]))
        st = anomaly.init_state([p])
        (scored,), st = anomaly.score(st, _one_doc([0], p.spec), min_words=0)
        # Likelihood 0.5, filtered belief (1, 0), propagated (0.9, 0.1).
        assert np.isclose(scored.log_lik, np.log(0.5), atol=1e-12)
        assert np.allclose(st.behaviour_belief, [0.9, 0.1], atol=1e-12)

    def test_impossible_document_resets_belief(self):
        phi = np.array([[1.0], [0.0]])
        p = ModelParams(phi=phi, theta=np.ones((1, 1)), xi=np.ones((1, 1)),
                        pi=np.array([1.0]))
        st = anomaly.init_state([p])
        (scored,), st = anomaly.score(st, _one_doc([1], p.spec), min_words=0)
        assert scored.log_lik == -np.inf
        assert np.allclose(st.behaviour_belief, p.pi)

    def test_short_document_not_evaluated(self):
        p = _uniform_params(3, 1, 1)
        st = anomaly.init_state([p])
        (scored,), _ = anomaly.score(st, _one_doc([0] * 19, p.spec))
        assert not scored.evaluated and scored.score is None

    def test_twenty_words_evaluated(self):
        p = _uniform_params(3, 1, 1)
        st = anomaly.init_state([p])
        (scored,), _ = anomaly.score(st, _one_doc([0] * 20, p.spec))
        assert scored.evaluated and scored.score is not None

    def test_empty_document_never_evaluated(self):
        # With min_words 0 an empty document still has no length-normalised
        # score; it passes the belief on through the transition matrix.
        p = ModelParams(phi=np.eye(2), theta=np.eye(2),
                        xi=np.array([[0.9, 0.1], [0.1, 0.9]]),
                        pi=np.array([0.8, 0.2]))
        st = anomaly.init_state([p])
        (empty, after), st = anomaly.score(st, corpus_from_lists([[], [0]], p.spec),
                                           min_words=0)
        assert np.isclose(empty.log_lik, 0.0, atol=1e-12)
        assert not empty.evaluated and empty.score is None
        assert after.evaluated and after.index == 2
        assert np.isclose(after.log_lik, np.log(0.9 * 0.8 + 0.1 * 0.2), atol=1e-12)

    def test_empty_stream_leaves_state(self):
        p = _uniform_params(3, 1, 2)
        st = anomaly.init_state([p])
        scored, after = anomaly.score(st, corpus_from_lists([], p.spec))
        assert scored == [] and after.last_doc_index == 0
        assert np.array_equal(after.behaviour_belief, st.behaviour_belief)
        assert anomaly.word_log_liks(st, corpus_from_lists([], p.spec)).shape == (0,)

    def test_short_document_still_updates_state(self):
        phi = np.array([[1.0, 0.0], [0.0, 1.0]])
        p = ModelParams(phi=phi, theta=np.eye(2),
                        xi=np.array([[0.9, 0.1], [0.1, 0.9]]),
                        pi=np.array([0.5, 0.5]))
        st = anomaly.init_state([p])
        _, st = anomaly.score(st, _one_doc([0], p.spec))
        assert np.allclose(st.behaviour_belief, [0.9, 0.1])


class TestScoreMc:
    def test_identical_samples_reduce_to_plugin(self, rng):
        spec, p, corpus = random_instance(rng)
        doc = _one_doc(corpus.documents[0].words, spec)
        (mc,), _ = anomaly.score(anomaly.init_state([p] * 4), doc, min_words=0)
        (plug,), _ = anomaly.score(anomaly.init_state([p]), doc, min_words=0)
        assert np.isclose(mc.log_lik, plug.log_lik, atol=1e-12)

    def test_average_of_two_point_masses(self):
        # Sample 1 gives the doc probability 1, sample 2 gives it 0:
        # the Monte Carlo estimate is exactly 1/2.
        pa = ModelParams(phi=np.array([[1.0], [0.0]]), theta=np.ones((1, 1)),
                         xi=np.ones((1, 1)), pi=np.array([1.0]))
        pb = ModelParams(phi=np.array([[0.0], [1.0]]), theta=np.ones((1, 1)),
                         xi=np.ones((1, 1)), pi=np.array([1.0]))
        doc = _one_doc([0], pa.spec)
        (scored,), _ = anomaly.score(anomaly.init_state([pa, pb]), doc, min_words=0)
        assert np.isclose(scored.log_lik, np.log(0.5), atol=1e-12)

    def test_bounded_by_sample_extremes(self, rng):
        spec = ModelSpec(3, 2, 2)
        h = make_prior("1", spec)
        samples = [random_init(spec, h, s) for s in range(5)]
        doc = _one_doc([0, 1, 2], spec)
        per = []
        for p in samples:
            (scored,), _ = anomaly.score(anomaly.init_state([p]), doc, min_words=0)
            per.append(scored.log_lik)
        (mc,), _ = anomaly.score(anomaly.init_state(samples), doc, min_words=0)
        assert min(per) - 1e-12 <= mc.log_lik <= max(per) + 1e-12

    def test_states_tracked_per_sample(self, rng):
        spec = ModelSpec(3, 2, 2)
        h = make_prior("1", spec)
        samples = [random_init(spec, h, s) for s in range(3)]
        doc = _one_doc([0, 2], spec)
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
        stacked, states = _score_each(samples, corpus, last_filtered=last)
        single = [_score_each([p], corpus, last_filtered=last) for p in samples]
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
        lls = anomaly.word_log_liks(st, _one_doc([0, 1], p.spec))
        # Token marginal mixes phi over the belief: 0.6*0.7 + 0.4*0.2 = 0.5.
        assert np.isclose(lls[0], np.log(0.5), atol=1e-12)
        assert np.isclose(lls[1], np.log(0.6 * 0.3 + 0.4 * 0.8), atol=1e-12)

    def test_mc_mode_averages(self):
        pa = ModelParams(phi=np.array([[1.0], [0.0]]), theta=np.ones((1, 1)),
                         xi=np.ones((1, 1)), pi=np.array([1.0]))
        pb = ModelParams(phi=np.array([[0.5], [0.5]]), theta=np.ones((1, 1)),
                         xi=np.ones((1, 1)), pi=np.array([1.0]))
        lls = anomaly.word_log_liks(anomaly.init_state([pa, pb]), _one_doc([0], pa.spec))
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
        log_train = _oracles.messages(params, train_corpus).log_K
        assume(np.isfinite(log_train))
        last = anomaly.filtered_belief(params, train_corpus)
        scored, _ = _score_stream([params], corpus_from_lists(test, spec), min_words=1,
                                  last_filtered=last)
        total = sum(s.log_lik for s in scored)
        assume(np.isfinite(total))
        log_both = _oracles.messages(params, corpus_from_lists(train + test, spec)).log_K
        assert math.isclose(total, log_both - log_train, rel_tol=1e-10, abs_tol=1e-10)


@st.composite
def _streams_with_impossible_documents(draw):
    """Random tiny parameters, some with a word every topic gives
    probability 0, and a training and a test stream that may use it."""
    params, train, test = draw(_train_test_streams())
    if params.spec.num_words > 1 and draw(st.booleans()):
        params = _with_impossible_word(params)
    return params, train, test


class TestPropagationProperty:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_streams_with_impossible_documents())
    def test_propagated_records_are_the_tail_of_one_call(self, streams):
        # --init propagate continues the training stream as the scorer
        # filters it, impossible training documents included.
        params, train, test = streams
        spec = params.spec
        last = anomaly.filtered_belief(params, corpus_from_lists(train, spec))
        continued, state = _score_stream([params], corpus_from_lists(test, spec), 1, last)
        whole, whole_state = _score_stream([params], corpus_from_lists(train + test, spec), 1)
        tail = whole[len(train):]
        assert [(r.length, r.evaluated) for r in continued] == [(r.length, r.evaluated)
                                                                 for r in tail]
        for got, want in zip(continued, tail):
            assert (got.log_lik == want.log_lik == -np.inf
                    or math.isclose(got.log_lik, want.log_lik, rel_tol=1e-10, abs_tol=1e-10))
        np.testing.assert_allclose(state.behaviour_belief, whole_state.behaviour_belief,
                                   rtol=1e-10, atol=1e-10)


def _reference_stream(samples, corpus, min_words, last_filtered=None):
    """Records, final state and flat per-token log-liks of the per-document
    reference scorer."""
    state = anomaly.init_state(samples, last_filtered=last_filtered)
    records, word_lls = [], [np.zeros(0)]
    for doc in corpus.documents:
        word_lls.append(word_log_liks_one_document(state, doc))
        rec, state = score_one_document(state, doc, min_words)
        records.append(rec)
    return records, state, np.concatenate(word_lls)


def _assert_matches_reference(samples, corpus, min_words, last_filtered=None):
    state = anomaly.init_state(samples, last_filtered=last_filtered)
    records, final = anomaly.score(state, corpus, min_words)
    word_lls = anomaly.word_log_liks(state, corpus)
    ref_records, ref_final, ref_word_lls = _reference_stream(samples, corpus, min_words,
                                                             last_filtered)
    assert ([(r.index, r.length, r.evaluated) for r in records]
            == [(r.index, r.length, r.evaluated) for r in ref_records])
    np.testing.assert_allclose([r.log_lik for r in records],
                               [r.log_lik for r in ref_records], rtol=1e-12, atol=0)
    assert [r.score is None for r in records] == [r.score is None for r in ref_records]
    np.testing.assert_allclose([r.score for r in records if r.score is not None],
                               [r.score for r in ref_records if r.score is not None],
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose(final.behaviour_belief, ref_final.behaviour_belief,
                               rtol=1e-12, atol=0)
    assert final.last_doc_index == ref_final.last_doc_index == len(corpus)
    assert word_lls.shape == (corpus.num_tokens,)
    np.testing.assert_allclose(word_lls, ref_word_lls, rtol=1e-12, atol=0)
    return records


class TestMatchesPerDocumentReference:
    @pytest.mark.parametrize("num_samples", [1, 3])
    def test_random_instances(self, rng, num_samples):
        for _ in range(25):
            spec, p, corpus = random_instance(rng, max_docs=6, max_len=5)
            hyper = make_prior("1", spec)
            samples = [p] + [random_init(spec, hyper, int(rng.integers(2**31)))
                             for _ in range(num_samples - 1)]
            last = rng.dirichlet(np.ones(spec.num_behaviours))
            _assert_matches_reference(samples, corpus, int(rng.integers(0, 4)), last)

    def test_document_impossible_under_one_sample(self):
        spec = ModelSpec(3, 2, 2)
        h = make_prior("1", spec)
        samples = [random_init(spec, h, s) for s in range(3)]
        phi = samples[1].phi.copy()
        phi[2] = 0.0
        samples[1] = ModelParams(phi=phi / phi.sum(axis=0), theta=samples[1].theta,
                                 xi=samples[1].xi, pi=samples[1].pi)
        corpus = corpus_from_lists([[0, 1], [0, 2, 1], [1, 1, 0]], spec)
        records = _assert_matches_reference(samples, corpus, 0)
        assert all(np.isfinite(r.log_lik) for r in records)

    def test_emission_underflow(self):
        # Scaled by the maximum over behaviours, the long document's emission
        # under the only reachable behaviour is exp(-786) = 0.
        p = _underflow_params()
        corpus = corpus_from_lists([[0, 1], [1] * 20, [0]], p.spec)
        records = _assert_matches_reference([p], corpus, 0)
        assert all(np.isfinite(r.log_lik) for r in records)
        assert math.isclose(records[1].log_lik, -800.0, rel_tol=1e-9)

    def test_document_impossible_under_every_sample(self):
        p = ModelParams(phi=np.array([[1.0], [0.0]]), theta=np.ones((1, 1)),
                        xi=np.ones((1, 1)), pi=np.array([1.0]))
        corpus = corpus_from_lists([[0], [1, 0], [0, 0]], p.spec)
        records = _assert_matches_reference([p, p], corpus, 1)
        assert records[1].log_lik == -np.inf and records[1].evaluated
        assert np.isfinite(records[2].log_lik)

    @pytest.mark.parametrize("min_words", [0, 1, 2, 3])
    def test_empty_document_and_min_words_boundary(self, min_words):
        spec = ModelSpec(3, 2, 2)
        h = make_prior("1", spec)
        samples = [random_init(spec, h, s) for s in (4, 5, 6)]
        corpus = corpus_from_lists([[0, 1], [], [2], [0, 1, 2], [1, 2]], spec)
        for group in (samples[:1], samples):
            records = _assert_matches_reference(group, corpus, min_words)
            assert ([r.evaluated for r in records]
                    == [n >= max(min_words, 1) for n in (2, 0, 1, 3, 2)])


@st.composite
def _stream_and_cuts(draw):
    """Random tiny samples, a stream that may hold empty documents, and the
    cut points that split it into consecutive chunks."""
    spec = ModelSpec(draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    hyper = make_prior(draw(st.sampled_from(["1", "H", "H+1"])), spec)
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3))
    samples = [random_init(spec, hyper, seed) for seed in seeds]
    docs = draw(st.lists(st.lists(st.integers(0, spec.num_words - 1), max_size=5),
                         min_size=1, max_size=8))
    cuts = sorted(draw(st.sets(st.integers(1, len(docs)), max_size=3)) | {len(docs)})
    return samples, docs, cuts, draw(st.integers(0, 3))


class TestChunkingProperty:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_stream_and_cuts())
    def test_chunks_continue_one_call(self, case):
        # Scoring consecutive chunks, each from the state the previous one
        # left, gives the records, per-token log-liks and final state of one
        # call over the whole stream.
        samples, docs, cuts, min_words = case
        spec = samples[0].spec
        state = anomaly.init_state(samples)
        whole, whole_state = anomaly.score(state, corpus_from_lists(docs, spec), min_words)
        whole_lls = anomaly.word_log_liks(state, corpus_from_lists(docs, spec))
        chunked, chunked_lls, start = [], [], 0
        for stop in cuts:
            chunk = corpus_from_lists(docs[start:stop], spec)
            chunked_lls.append(anomaly.word_log_liks(state, chunk))
            records, state = anomaly.score(state, chunk, min_words)
            chunked.extend(records)
            start = stop
        assert chunked == whole
        assert state.last_doc_index == whole_state.last_doc_index == len(docs)
        assert np.array_equal(state.behaviour_belief, whole_state.behaviour_belief)
        assert np.array_equal(np.concatenate(chunked_lls), whole_lls)
