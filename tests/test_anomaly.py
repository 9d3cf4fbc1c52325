import math
import threading
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from markovtopics import ModelSpec, corpus_from_lists, make_prior, random_init
from markovtopics import anomaly, serialize, vb
from markovtopics.ingest import DIRECTIONS, FrameLayout
from markovtopics.model import ModelParams

import _oracles
from _oracles import (
    localise_one_document,
    log_marginal_likelihood,
    score_one_document,
    score_record,
    word_log_liks_one_document,
    zero_counts,
)
from conftest import (
    Implementations,
    block_underflow_instance,
    gradual_instance,
    random_instance,
    revival_instance,
    steep_instance,
    steep_streams,
    swinging_streams,
    with_zeros,
)


def _uniform_params(X, Y, Z):
    return ModelParams(
        phi=np.full((X, Y), 1.0 / X),
        theta=np.full((Y, Z), 1.0 / Y),
        xi=np.full((Z, Z), 1.0 / Z),
        pi=np.full(Z, 1.0 / Z),
    )


def _score_stream(samples, corpus, last_filtered=None):
    """Score ``corpus`` in one call from a fresh state over ``samples``."""
    state = anomaly.init_state(samples, last_filtered=last_filtered)
    return anomaly.score(state, corpus)


def _score_each(samples, corpus, last_filtered=None):
    """Score ``corpus`` one document per call; returns the log likelihoods
    and the state after each document."""
    state = anomaly.init_state(samples, last_filtered=last_filtered)
    out, states = [], []
    for words in corpus:
        (log_lik,), state = anomaly.score(state, _one_doc(words, corpus.spec))
        out.append(log_lik)
        states.append(state)
    return out, states


def _records(tmp_path, log_liks, corpus, min_words):
    """The score records that ``write_scores`` writes for ``corpus``."""
    path = tmp_path / "scores.jsonl"
    serialize.write_scores(path, log_liks, np.diff(corpus.offsets), min_words)
    return serialize.read_scores(path)


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
        # go, and the draws keep no reference to a sample they have yielded.
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

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_at_most_workers_plus_one_samples_alive(self, rng, monkeypatch, cpus):
        # init_state keeps what scoring reads of a sample and lets the sample
        # go, and the pool draws at most workers + 1 ahead of it, so S draws
        # never hold more than workers + 1 phi matrices at once.  A phi
        # appears only when a draw ends, so the peak is seen there.
        monkeypatch.setattr(vb, "_usable_cpus", lambda: cpus)
        draw, lock, refs, alive = vb._draw, threading.Lock(), [], []

        def watched(post, seed):
            p = draw(post, seed)
            with lock:
                refs.append(weakref.ref(p.phi))
                alive.append(sum(r() is not None for r in refs))
            return p

        monkeypatch.setattr(vb, "_draw", watched)
        state = anomaly.init_state(vb.sample_posterior(self._posterior(rng), 12, seed=0))
        assert len(refs) == len(state.log_mix) == 12
        assert max(alive) <= cpus + 1
        assert all(r() is None for r in refs)

    def test_same_state_for_any_pool_size(self, rng, monkeypatch):
        post, last = self._posterior(rng), np.array([0.3, 0.7])
        states = []
        for cpus in (1, 2, 4):
            monkeypatch.setattr(vb, "_usable_cpus", lambda n=cpus: n)
            states.append(anomaly.init_state(vb.sample_posterior(post, 9, seed=6),
                                             last_filtered=last))
        for other in states[1:]:
            assert len(other.log_mix) == 9
            for a, b in zip(states[0].log_mix, other.log_mix):
                assert np.array_equal(a, b)
            for name in ("xi", "pi", "behaviour_belief"):
                assert np.array_equal(getattr(states[0], name), getattr(other, name))


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


class TestFilteredBelief(Implementations):
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
        _, ref_state, _ = _reference_stream([p], corpus)
        # xi = I: the filtered posterior is the next document's belief.
        np.testing.assert_allclose(anomaly.filtered_belief(p, corpus),
                                   ref_state.behaviour_belief[0], rtol=1e-12, atol=0)

    def test_block_underflow_redone_in_log_domain(self):
        # Every normaliser is normal, but a product of documents 2 and 3 drops
        # behaviour 1, which the last documents make ~1e171 times likelier.
        p, corpus = block_underflow_instance()
        got = anomaly.filtered_belief(p, corpus)
        np.testing.assert_allclose(got, _oracles.scaled_filtered_belief(p, corpus), rtol=1e-12, atol=0)
        assert got[1] == 1.0

    def test_revives_behaviour_below_float_range(self):
        # Behaviour 0 is ~e^-879 of behaviour 1 after document 1, which a
        # linear belief drops for good; document 2 makes it the likelier.
        p, corpus = revival_instance()
        log_alpha = _oracles.messages(p, corpus).log_alpha[:, -1]
        np.testing.assert_allclose(anomaly.filtered_belief(p, corpus),
                                   np.exp(log_alpha - logsumexp(log_alpha)), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("instance", [steep_instance(), steep_instance(1e-200),
                                          gradual_instance()],
                             ids=["steep", "steep-off-1e-200", "gradual"])
    def test_behaviour_dropped_by_linear_message(self, instance):
        # A linear message drops the behaviour that is likelier at the end:
        # within document 2 of the steep streams, whose emissions span e^769,
        # and after document 1 of the gradual one, at e^-879.
        p, corpus = instance
        log_alpha = _oracles.messages(p, corpus).log_alpha[:, -1]
        got = anomaly.filtered_belief(p, corpus)
        np.testing.assert_allclose(got, np.exp(log_alpha - logsumexp(log_alpha)), rtol=1e-12, atol=0)
        assert np.argmax(got) == np.argmax(log_alpha)

    @settings(max_examples=500, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.differing_executors])
    @given(steep_streams())
    def test_steep_stream_matches_forward_column(self, instance):
        p, corpus = instance
        log_alpha = _oracles.messages(p, corpus).log_alpha[:, -1]
        np.testing.assert_allclose(anomaly.filtered_belief(p, corpus),
                                   np.exp(log_alpha - logsumexp(log_alpha)), rtol=1e-10, atol=1e-12)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.differing_executors])
    @given(swinging_streams())
    def test_swinging_stream_matches_loop_reference(self, instance):
        p, corpus = instance
        np.testing.assert_allclose(anomaly.filtered_belief(p, corpus),
                                   _oracles.scaled_filtered_belief(p, corpus), rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("docs, expected", [
        ([[0], [1], [1]], [0.0, 1.0]),
        ([[0], [1]], None),
        ([[0], [1], [0, 0]], [1.0, 0.0]),
    ])
    def test_restart_that_depends_on_the_belief(self, docs, expected):
        # Behaviour z emits only word z, and xi = I keeps the belief on the
        # behaviour of document 0.  Word 1 after word 0 is impossible under
        # that belief, though not under every behaviour: it restarts the
        # belief from pi.
        p = ModelParams(phi=np.eye(2), theta=np.eye(2), xi=np.eye(2), pi=np.array([0.5, 0.5]))
        got = anomaly.filtered_belief(p, corpus_from_lists(docs, ModelSpec(2, 2, 2)))
        if expected is None:
            assert got is None
        else:
            assert np.array_equal(got, expected)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.differing_executors])
    @given(st.integers(2, 4), st.integers(1, 3), st.booleans(), st.sampled_from([0.0, 0.3, 0.6]),
           st.integers(0, 2**32 - 1))
    def test_matches_loop_reference(self, X, Z, impossible_word, zero_rate, seed):
        # The filter reads only phi @ theta, xi and pi, so theta = I loses
        # nothing.  Zeroing entries of phi, xi and pi at ``zero_rate`` makes
        # documents impossible under the belief and not under every
        # behaviour; the impossible word makes them impossible under all.
        rng = np.random.default_rng(seed)
        spec = ModelSpec(X, Z, Z)
        p = random_init(spec, make_prior("1", spec), seed)
        if impossible_word:
            p = _with_impossible_word(p)
        phi, xi, pi = (with_zeros(m, rng.random(m.shape) >= zero_rate) for m in (p.phi, p.xi, p.pi))
        p = ModelParams(phi=phi, theta=np.eye(Z), xi=xi, pi=pi)
        docs = [rng.integers(0, X, rng.integers(0, 4)) for _ in range(rng.integers(0, 71))]
        corpus = corpus_from_lists(docs, spec)
        got, want = anomaly.filtered_belief(p, corpus), _oracles.scaled_filtered_belief(p, corpus)
        if want is None:
            assert got is None
        else:
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

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


class TestScorePlugin(Implementations):
    def test_uniform_model_score(self, tmp_path):
        X = 4
        p = _uniform_params(X, 1, 2)
        st = anomaly.init_state([p])
        doc = _one_doc([0, 1, 2], p.spec)
        log_liks, _ = anomaly.score(st, doc)
        (scored,) = _records(tmp_path, log_liks, doc, 0)
        assert np.isclose(log_liks[0], 3 * np.log(1 / X), atol=1e-12)
        assert np.isclose(scored["score"], 3 * np.log(1 / X) - np.log(3), atol=1e-12)

    def test_chain_rule_against_enumeration(self, rng):
        # Cumulative per-document predictive log likelihoods must reproduce
        # the joint marginal computed by exhaustive path enumeration.
        from _oracles import enum_marginal_and_posteriors
        for _ in range(15):
            spec, p, corpus = random_instance(rng)
            log_liks, _ = _score_stream([p], corpus)
            total = log_liks.sum()
            oracle = enum_marginal_and_posteriors(p, corpus)
            assert np.isclose(total, np.log(oracle["marginal"]), atol=1e-10)

    def test_chain_rule_against_forward(self, rng):
        for _ in range(10):
            spec, p, corpus = random_instance(rng)
            log_liks, _ = _score_stream([p], corpus)
            total = log_liks.sum()
            msgs = _oracles.messages(p, corpus)
            assert np.isclose(total, log_marginal_likelihood(msgs),
                              atol=1e-8)

    def test_revival_chain_rule(self):
        # Behaviour 0 falls to ~e^-879 of behaviour 1 after document 1, which
        # a belief moved linearly drops for good; document 2 makes it the
        # likelier.  A scorer that drops it sums to -1194.13.
        p, corpus = revival_instance()
        log_liks, _ = _score_stream([p], corpus)
        assert math.isclose(log_liks.sum(), _oracles.messages(p, corpus).log_K, rel_tol=1e-12)

    def test_bayes_update_hand_case(self):
        # Two behaviours with disjoint vocabularies and a sticky chain.
        phi = np.array([[1.0, 0.0], [0.0, 1.0]])
        xi = np.array([[0.9, 0.1], [0.1, 0.9]])
        p = ModelParams(phi=phi, theta=np.eye(2), xi=xi,
                        pi=np.array([0.5, 0.5]))
        st = anomaly.init_state([p])
        (log_lik,), st = anomaly.score(st, _one_doc([0], p.spec))
        # Likelihood 0.5, filtered belief (1, 0), propagated (0.9, 0.1).
        assert np.isclose(log_lik, np.log(0.5), atol=1e-12)
        assert np.allclose(st.behaviour_belief, [0.9, 0.1], atol=1e-12)

    def test_impossible_document_resets_belief(self):
        phi = np.array([[1.0], [0.0]])
        p = ModelParams(phi=phi, theta=np.ones((1, 1)), xi=np.ones((1, 1)),
                        pi=np.array([1.0]))
        st = anomaly.init_state([p])
        (log_lik,), st = anomaly.score(st, _one_doc([1], p.spec))
        assert log_lik == -np.inf
        assert np.allclose(st.behaviour_belief, p.pi)

    def test_short_document_not_evaluated(self, tmp_path):
        p = _uniform_params(3, 1, 1)
        doc = _one_doc([0] * 19, p.spec)
        log_liks, _ = anomaly.score(anomaly.init_state([p]), doc)
        (scored,) = _records(tmp_path, log_liks, doc, 20)
        assert not scored["evaluated"] and scored["score"] is None

    def test_twenty_words_evaluated(self, tmp_path):
        p = _uniform_params(3, 1, 1)
        doc = _one_doc([0] * 20, p.spec)
        log_liks, _ = anomaly.score(anomaly.init_state([p]), doc)
        (scored,) = _records(tmp_path, log_liks, doc, 20)
        assert scored["evaluated"] and scored["score"] is not None

    def test_empty_document_never_evaluated(self, tmp_path):
        # With min_words 0 an empty document still has no length-normalised
        # score; it passes the belief on through the transition matrix.
        p = ModelParams(phi=np.eye(2), theta=np.eye(2),
                        xi=np.array([[0.9, 0.1], [0.1, 0.9]]),
                        pi=np.array([0.8, 0.2]))
        st = anomaly.init_state([p])
        corpus = corpus_from_lists([[], [0]], p.spec)
        log_liks, st = anomaly.score(st, corpus)
        empty, after = _records(tmp_path, log_liks, corpus, 0)
        assert np.isclose(log_liks[0], 0.0, atol=1e-12)
        assert not empty["evaluated"] and empty["score"] is None
        assert after["evaluated"] and after["index"] == 2
        assert np.isclose(log_liks[1], np.log(0.9 * 0.8 + 0.1 * 0.2), atol=1e-12)

    def test_empty_stream_leaves_state(self):
        p = _uniform_params(3, 1, 2)
        st = anomaly.init_state([p])
        log_liks, after = anomaly.score(st, corpus_from_lists([], p.spec))
        assert log_liks.shape == (0,)
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


def _assert_revival_sample_redone(num_draws):
    """Score the revival stream under the revival parameters, whose belief
    falls below the float range and revives, and ``num_draws`` random draws:
    each sample's likelihoods and final belief are those of its own
    one-sample run."""
    p, corpus = revival_instance()
    samples = [p] + [random_init(p.spec, make_prior("1", p.spec), s) for s in range(num_draws)]
    log_liks, after = _score_stream(samples, corpus)
    single = [_score_stream([q], corpus) for q in samples]
    per = np.array([lls for lls, _ in single])
    np.testing.assert_allclose(log_liks, logsumexp(per, axis=0) - np.log(len(samples)),
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose(after.behaviour_belief,
                               [state.behaviour_belief[0] for _, state in single],
                               rtol=1e-12, atol=0)
    assert math.isclose(per[0].sum(), _oracles.messages(p, corpus).log_K, rel_tol=1e-12)


class TestScoreMc(Implementations):
    def test_identical_samples_reduce_to_plugin(self, rng):
        spec, p, corpus = random_instance(rng)
        doc = _one_doc(corpus[0], spec)
        (mc,), _ = anomaly.score(anomaly.init_state([p] * 4), doc)
        (plug,), _ = anomaly.score(anomaly.init_state([p]), doc)
        assert np.isclose(mc, plug, atol=1e-12)

    def test_average_of_two_point_masses(self):
        # Sample 1 gives the doc probability 1, sample 2 gives it 0:
        # the Monte Carlo estimate is exactly 1/2.
        pa = ModelParams(phi=np.array([[1.0], [0.0]]), theta=np.ones((1, 1)),
                         xi=np.ones((1, 1)), pi=np.array([1.0]))
        pb = ModelParams(phi=np.array([[0.0], [1.0]]), theta=np.ones((1, 1)),
                         xi=np.ones((1, 1)), pi=np.array([1.0]))
        doc = _one_doc([0], pa.spec)
        (log_lik,), _ = anomaly.score(anomaly.init_state([pa, pb]), doc)
        assert np.isclose(log_lik, np.log(0.5), atol=1e-12)

    def test_bounded_by_sample_extremes(self, rng):
        spec = ModelSpec(3, 2, 2)
        h = make_prior("1", spec)
        samples = [random_init(spec, h, s) for s in range(5)]
        doc = _one_doc([0, 1, 2], spec)
        per = []
        for p in samples:
            (log_lik,), _ = anomaly.score(anomaly.init_state([p]), doc)
            per.append(log_lik)
        (mc,), _ = anomaly.score(anomaly.init_state(samples), doc)
        assert min(per) - 1e-12 <= mc <= max(per) + 1e-12

    def test_states_tracked_per_sample(self, rng):
        spec = ModelSpec(3, 2, 2)
        h = make_prior("1", spec)
        samples = [random_init(spec, h, s) for s in range(3)]
        doc = _one_doc([0, 2], spec)
        _, new_st = anomaly.score(anomaly.init_state(samples), doc)
        assert new_st.behaviour_belief.shape == (3, 2)
        beliefs = [tuple(b) for b in new_st.behaviour_belief]
        assert len(set(beliefs)) == 3

    def test_sample_redone_in_log_domain_beside_scanned_ones(self):
        _assert_revival_sample_redone(num_draws=2)

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
            per = np.array([lls[t] for lls, _ in single])
            assert np.isfinite(per).sum() == (2 if t == 2 else 3)
            expected = logsumexp(per) - np.log(len(samples))
            assert np.isclose(stacked[t], expected, rtol=1e-12, atol=1e-12)
            for s, (_, sts) in enumerate(single):
                assert np.allclose(states[t].behaviour_belief[s], sts[t].behaviour_belief[0],
                                   rtol=1e-12, atol=1e-12)
        after = states[2].behaviour_belief
        assert np.array_equal(after[1], samples[1].pi)
        assert not np.allclose(after[0], samples[0].pi)
        assert not np.allclose(after[2], samples[2].pi)


def test_revival_sample_among_many_draws():
    # Many chains, as Monte Carlo scoring filters them.
    _assert_revival_sample_redone(num_draws=21)


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

    def _localise(self, words, lls, top_n):
        corpus = corpus_from_lists([words], ModelSpec(16, 1, 1))
        return anomaly.localise(np.array(lls), corpus, self._layout(), top_n)

    def test_orders_by_ascending_likelihood(self):
        doc, token, *_ = self._localise([0, 5, 9], [-1.0, -5.0, -3.0], top_n=3)
        assert doc.tolist() == [0, 0, 0]
        assert token.tolist() == [1, 2, 0]

    def test_ties_keep_token_order(self):
        _, token, *_ = self._localise([3, 2, 1], [-2.0, -2.0, -2.0], top_n=2)
        assert token.tolist() == [0, 1]

    def test_top_n_clamped(self):
        _, token, *_ = self._localise([0, 1], [-1.0, -2.0], top_n=10)
        assert len(token) == 2

    def test_decodes_positions(self):
        layout = self._layout()
        # Word id for cell (1, 0), direction index 2 ("down"): (0*2+1)*4+2.
        wid = (0 * layout.cols + 1) * 4 + 2
        out = self._localise([wid], [-1.0], top_n=1)
        assert [a.tolist() for a in out] == [[0], [0], [1], [0], [DIRECTIONS.index("down")]]

    def test_nonpositive_top_n_rejected(self):
        with pytest.raises(ValueError):
            self._localise([0], [-1.0], top_n=0)

    @pytest.mark.parametrize("num_docs", [256, 65537])
    def test_long_streams_keep_lexsort_order(self, rng, num_docs):
        # Past 255 and 65535 documents the document key needs a wider type.
        layout = self._layout()
        lengths = rng.integers(0, 4, num_docs)
        words = rng.integers(0, layout.vocabulary_size, lengths.sum())
        docs = np.split(words, np.cumsum(lengths)[:-1])
        corpus = corpus_from_lists(docs, ModelSpec(layout.vocabulary_size, 1, 1))
        lls = rng.choice([-np.inf, -3.0, -1.0, -0.5], size=len(corpus.tokens))
        doc, token, *_ = anomaly.localise(lls, corpus, layout, top_n=2)
        of_doc = np.repeat(np.arange(num_docs), np.diff(corpus.offsets))
        order = np.lexsort((lls, of_doc))
        rank = np.arange(len(order)) - corpus.offsets[of_doc]
        keep = order[rank < 2]
        assert np.array_equal(doc, of_doc[keep])
        assert np.array_equal(token, keep - corpus.offsets[of_doc[keep]])


@st.composite
def _localise_streams(draw):
    """A small grid, a stream that may hold empty documents, per-token log
    likelihoods with ties and -inf, and a ``top_n`` from 1 to beyond int64."""
    layout = FrameLayout(frame_w=8 * draw(st.integers(1, 3)), frame_h=8 * draw(st.integers(1, 3)))
    words = st.integers(0, layout.vocabulary_size - 1)
    docs = draw(st.lists(st.lists(words, max_size=6), max_size=6))
    lls = st.sampled_from([-np.inf, -7.5, -2.0, -2.0, -0.5, 0.0])
    word_lls = np.array(draw(st.lists(lls, min_size=sum(map(len, docs)),
                                      max_size=sum(map(len, docs)))), dtype=float)
    top_n = draw(st.one_of(st.integers(1, 8), st.integers(2**63 - 1, 2**70)))
    corpus = corpus_from_lists(docs, ModelSpec(layout.vocabulary_size, 1, 1))
    return layout, corpus, word_lls, top_n


class TestLocaliseMatchesPerDocumentReference:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_localise_streams())
    def test_same_tokens_and_positions(self, case):
        layout, corpus, word_lls, top_n = case
        doc, token, x, y, direction = anomaly.localise(word_lls, corpus, layout, top_n)
        offsets = corpus.offsets
        expected = [(t, *row) for t, words in enumerate(corpus)
                    for row in localise_one_document(word_lls[offsets[t]:offsets[t + 1]],
                                                     words, layout, top_n)]
        got = list(zip(doc.tolist(), token.tolist(), x.tolist(), y.tolist(),
                       direction.tolist()))
        assert got == expected


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
        # document's log-lik (0) counts too.
        params, train, test = streams
        spec = params.spec
        train_corpus = corpus_from_lists(train, spec)
        log_train = _oracles.messages(params, train_corpus).log_K
        assume(np.isfinite(log_train))
        last = anomaly.filtered_belief(params, train_corpus)
        log_liks, _ = _score_stream([params], corpus_from_lists(test, spec), last_filtered=last)
        total = log_liks.sum()
        assume(np.isfinite(total))
        log_both = _oracles.messages(params, corpus_from_lists(train + test, spec)).log_K
        assert math.isclose(total, log_both - log_train, rel_tol=1e-10, abs_tol=1e-10)


class TestChainRulePastFloatRange(Implementations):
    """Plug-in scoring from pi sums to the oracle's log K on streams whose
    beliefs or emissions span more than a float carries."""

    @staticmethod
    def _assert_chain_rule(params, corpus):
        log_liks, _ = _score_stream([params], corpus)
        assert math.isclose(log_liks.sum(), _oracles.messages(params, corpus).log_K,
                            rel_tol=1e-10)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.differing_executors])
    @given(steep_streams())
    def test_steep_streams(self, instance):
        self._assert_chain_rule(*instance)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.differing_executors])
    @given(swinging_streams())
    def test_swinging_streams(self, instance):
        self._assert_chain_rule(*instance)


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
        continued, state = _score_stream([params], corpus_from_lists(test, spec), last)
        whole, whole_state = _score_stream([params], corpus_from_lists(train + test, spec))
        tail = whole[len(train):]
        assert len(continued) == len(tail) == len(test)
        for got, want in zip(continued.tolist(), tail.tolist()):
            assert (got == want == -np.inf
                    or math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-10))
        np.testing.assert_allclose(state.behaviour_belief, whole_state.behaviour_belief,
                                   rtol=1e-10, atol=1e-10)


def _reference_stream(samples, corpus, last_filtered=None):
    """Log likelihoods, final state and flat per-token log-liks of the
    per-document reference scorer."""
    state = anomaly.init_state(samples, last_filtered=last_filtered)
    log_liks, word_lls = [], [np.zeros(0)]
    for words in corpus:
        word_lls.append(word_log_liks_one_document(state, words))
        log_lik, state = score_one_document(state, words)
        log_liks.append(log_lik)
    return log_liks, state, np.concatenate(word_lls)


def _assert_matches_reference(tmp_path, samples, corpus, min_words, last_filtered=None):
    """Compare the stream scorer and the records ``write_scores`` makes of
    its log likelihoods with the per-document reference; returns the log
    likelihoods and the records.

    Each document's likelihood is pinned to 1e-12 relative: its log and the
    per-token logs to 1e-12 relative or 1e-14 absolute, since a log
    likelihood at rounding distance from 0 (a one-word vocabulary, an empty
    document) has no meaningful relative error."""
    state = anomaly.init_state(samples, last_filtered=last_filtered)
    log_liks, final = anomaly.score(state, corpus)
    word_lls = anomaly.word_log_liks(state, corpus)
    records = _records(tmp_path, log_liks, corpus, min_words)
    ref_log_liks, ref_final, ref_word_lls = _reference_stream(samples, corpus, last_filtered)
    ref_records = [score_record(t, n, ll, min_words) for t, (n, ll) in
                   enumerate(zip(np.diff(corpus.offsets).tolist(), ref_log_liks), start=1)]
    assert log_liks.shape == (len(corpus),)
    np.testing.assert_allclose(log_liks, ref_log_liks, rtol=1e-12, atol=1e-14)
    assert ([(r["index"], r["length"], r["evaluated"], r["log_lik"] is None) for r in records]
            == [(r["index"], r["length"], r["evaluated"], r["log_lik"] is None)
                for r in ref_records])
    assert [r["score"] is None for r in records] == [r["score"] is None for r in ref_records]
    np.testing.assert_allclose([r["score"] for r in records if r["score"] is not None],
                               [r["score"] for r in ref_records if r["score"] is not None],
                               rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(final.behaviour_belief, ref_final.behaviour_belief,
                               rtol=1e-12, atol=0)
    assert word_lls.shape == (corpus.num_tokens,)
    np.testing.assert_allclose(word_lls, ref_word_lls, rtol=1e-12, atol=1e-14)
    return log_liks, records


class TestMatchesPerDocumentReference(Implementations):
    @pytest.mark.parametrize("num_samples", [1, 3])
    def test_random_instances(self, rng, tmp_path, num_samples):
        for _ in range(25):
            spec, p, corpus = random_instance(rng, max_docs=6, max_len=5)
            hyper = make_prior("1", spec)
            samples = [p] + [random_init(spec, hyper, int(rng.integers(2**31)))
                             for _ in range(num_samples - 1)]
            last = rng.dirichlet(np.ones(spec.num_behaviours))
            _assert_matches_reference(tmp_path, samples, corpus, int(rng.integers(0, 4)), last)

    def test_document_impossible_under_one_sample(self, tmp_path):
        spec = ModelSpec(3, 2, 2)
        h = make_prior("1", spec)
        samples = [random_init(spec, h, s) for s in range(3)]
        phi = samples[1].phi.copy()
        phi[2] = 0.0
        samples[1] = ModelParams(phi=phi / phi.sum(axis=0), theta=samples[1].theta,
                                 xi=samples[1].xi, pi=samples[1].pi)
        corpus = corpus_from_lists([[0, 1], [0, 2, 1], [1, 1, 0]], spec)
        log_liks, _ = _assert_matches_reference(tmp_path, samples, corpus, 0)
        assert np.isfinite(log_liks).all()

    def test_emission_underflow(self, tmp_path):
        # Scaled by the maximum over behaviours, the long document's emission
        # under the only reachable behaviour is exp(-786) = 0.
        p = _underflow_params()
        corpus = corpus_from_lists([[0, 1], [1] * 20, [0]], p.spec)
        log_liks, _ = _assert_matches_reference(tmp_path, [p], corpus, 0)
        assert np.isfinite(log_liks).all()
        assert math.isclose(log_liks[1], -800.0, rel_tol=1e-9)

    def test_document_impossible_under_every_sample(self, tmp_path):
        p = ModelParams(phi=np.array([[1.0], [0.0]]), theta=np.ones((1, 1)),
                        xi=np.ones((1, 1)), pi=np.array([1.0]))
        corpus = corpus_from_lists([[0], [1, 0], [0, 0]], p.spec)
        log_liks, records = _assert_matches_reference(tmp_path, [p, p], corpus, 1)
        assert log_liks[1] == -np.inf and records[1]["evaluated"]
        assert np.isfinite(log_liks[2])

    @pytest.mark.parametrize("min_words", [0, 1, 2, 3])
    def test_empty_document_and_min_words_boundary(self, tmp_path, min_words):
        spec = ModelSpec(3, 2, 2)
        h = make_prior("1", spec)
        samples = [random_init(spec, h, s) for s in (4, 5, 6)]
        corpus = corpus_from_lists([[0, 1], [], [2], [0, 1, 2], [1, 2]], spec)
        for group in (samples[:1], samples):
            _, records = _assert_matches_reference(tmp_path, group, corpus, min_words)
            assert ([r["evaluated"] for r in records]
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
    return samples, docs, cuts


class TestChunkingProperty:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_stream_and_cuts())
    def test_chunks_continue_one_call(self, case):
        # Scoring consecutive chunks, each from the state the previous one
        # left, gives the log likelihoods, per-token log-liks and final state
        # of one call over the whole stream: the same bytes, since no belief
        # carried between chunks falls below 1e-280 here.
        samples, docs, cuts = case
        spec = samples[0].spec
        state = anomaly.init_state(samples)
        whole, whole_state = anomaly.score(state, corpus_from_lists(docs, spec))
        whole_lls = anomaly.word_log_liks(state, corpus_from_lists(docs, spec))
        chunked, chunked_lls, start = [], [], 0
        for stop in cuts:
            chunk = corpus_from_lists(docs[start:stop], spec)
            chunked_lls.append(anomaly.word_log_liks(state, chunk))
            log_liks, state = anomaly.score(state, chunk)
            chunked.append(log_liks)
            start = stop
        assert whole.shape == (len(docs),)
        np.testing.assert_allclose(np.concatenate(chunked), whole, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(state.behaviour_belief, whole_state.behaviour_belief,
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(np.concatenate(chunked_lls), whole_lls, rtol=1e-12, atol=1e-14)
        assert np.concatenate(chunked).tobytes() == whole.tobytes()
        assert np.concatenate(chunked_lls).tobytes() == whole_lls.tobytes()
        assert state.behaviour_belief.tobytes() == whole_state.behaviour_belief.tobytes()
