import math
from contextlib import nullcontext

import numpy as np
import pytest
import scipy.sparse
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from markovtopics import (
    ModelParams,
    ModelSpec,
    corpus_from_lists,
    make_prior,
    random_init,
)
from markovtopics import em, generate, gibbs, inference, vb
from markovtopics.model import NumericalError, validate_params

import _oracles
from _oracles import enum_expected_counts, enum_marginal_and_posteriors, log_marginal_likelihood
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
    without_kernels,
)


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
        loge = inference.emission_logs(inference.word_mixture_logs(p), corpus)
        assert np.allclose(loge[0], 3 * np.log(1 / X))
        assert np.allclose(loge[1], np.log(1 / X))

    def test_hand_arithmetic_2x2x2(self):
        phi = np.array([[0.7, 0.2], [0.3, 0.8]])
        theta = np.array([[0.6, 0.1], [0.4, 0.9]])
        p = ModelParams(phi=phi, theta=theta, xi=np.full((2, 2), 0.5),
                        pi=np.array([0.5, 0.5]))
        corpus = corpus_from_lists([[0, 1]], ModelSpec(2, 2, 2))
        mix = phi @ theta
        expected = np.log(mix[0]) + np.log(mix[1])
        assert np.allclose(inference.emission_logs(inference.word_mixture_logs(p), corpus)[0],
                           expected)

    def test_zero_mixture_gives_neg_inf(self):
        phi = np.array([[1.0], [0.0]])
        p = ModelParams(phi=phi, theta=np.ones((1, 1)), xi=np.ones((1, 1)),
                        pi=np.array([1.0]))
        corpus = corpus_from_lists([[1]], ModelSpec(2, 1, 1))
        assert inference.emission_logs(inference.word_mixture_logs(p), corpus)[0, 0] == -np.inf


def _doc_term_case(docs, spec, seed, zero_word):
    """Parameters drawn from the flat prior, with no topic emitting
    ``zero_word`` (unless None), the corpus ``docs`` and behaviour
    posteriors for its documents."""
    rng = np.random.default_rng(seed)
    params = random_init(spec, make_prior("1", spec), rng)
    if zero_word is not None:
        params.phi[zero_word] = 0.0
    gamma = rng.dirichlet(np.ones(spec.num_behaviours), size=len(docs))
    return params, corpus_from_lists(docs, spec), gamma


@st.composite
def _doc_term_cases(draw):
    """Corpora with empty documents, words repeated in a document and
    possibly no document at all, over vocabularies from one word up."""
    spec = ModelSpec(draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    docs = draw(st.lists(st.lists(st.integers(0, spec.num_words - 1), max_size=6), max_size=6))
    return _doc_term_case(docs, spec, draw(st.integers(0, 2**32 - 1)),
                          draw(st.none() | st.integers(0, spec.num_words - 1)))


def _doc_term(corpus):
    """The corpus's (T, num_words) doc-term matrix as scipy's CSR matrix over
    ``offsets`` and ``tokens``, one entry per token."""
    return scipy.sparse.csr_matrix((np.ones(corpus.num_tokens), corpus.tokens, corpus.offsets),
                                   shape=(len(corpus), corpus.spec.num_words))


def _same_bytes(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestTokenSums(Implementations):
    """The two products with a corpus's doc-term matrix B: ``B^T log_mix`` by
    ``doc_sums`` in ``inference.emission_logs`` and ``B gamma`` by
    ``word_sums`` in ``inference._word_sums``."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.differing_executors])
    @given(_doc_term_cases())
    @example(_doc_term_case([[0, 0], [], [0]], ModelSpec(1, 1, 2), 0, None))
    @example(_doc_term_case([[0, 0, 0], [0]], ModelSpec(1, 2, 1), 1, 0))
    @example(_doc_term_case([[1, 2, 1], [], [0, 1]], ModelSpec(3, 2, 2), 2, 1))
    @example(_doc_term_case([], ModelSpec(3, 2, 2), 3, None))
    def test_matches_dense_forms(self, case):
        params, corpus, gamma = case
        X, T, Z = len(params.phi), len(corpus), len(params.pi)
        dense = np.array([np.bincount(doc, minlength=X) for doc in corpus]).reshape(T, X)
        # On identity tables the two sums are the count matrix and its transpose.
        assert np.array_equal(inference.emission_logs(np.eye(X), corpus), dense)
        assert np.array_equal(inference._word_sums(corpus, np.eye(T)), dense.T)

        log_mix = inference.word_mixture_logs(params)
        loge = inference.emission_logs(log_mix, corpus)
        mix = params.phi @ params.theta
        # A word of zero mixture probability makes its document -inf, never NaN.
        impossible = np.array([(mix[doc] == 0).any(axis=0) for doc in corpus]).reshape(T, Z)
        assert np.array_equal(loge == -np.inf, impossible) and not np.isnan(loge).any()
        np.testing.assert_allclose(
            loge, np.array([log_mix[doc].sum(axis=0) for doc in corpus]).reshape(T, Z),
            rtol=1e-12, atol=0)
        # The bytes of scipy's sparse products over one entry per token.
        assert _same_bytes(loge, _doc_term(corpus) @ log_mix)
        assert _same_bytes(inference._word_sums(corpus, gamma), _doc_term(corpus).T @ gamma)

        if T:  # ``_counts`` reads the first document's posterior
            counts = inference._counts(params, corpus, mix, gamma, np.eye(Z))
            c = np.divide(dense.T @ gamma, mix, out=np.zeros((X, Z)), where=mix > 0)
            np.testing.assert_allclose(counts.n_xy, params.phi * (c @ params.theta.T),
                                       rtol=1e-12, atol=0)
            np.testing.assert_allclose(counts.n_yz, params.theta * (params.phi.T @ c),
                                       rtol=1e-12, atol=0)

    def test_strided_output_rows(self):
        # anomaly._filter writes each sample's emission logs into loge[:, s].
        params, corpus, _ = _doc_term_case([[1, 2, 1], [], [0, 1], [2]], ModelSpec(3, 2, 2), 4, 1)
        log_mix = inference.word_mixture_logs(params)
        loge = np.full((4, 3, 2), 7.0)
        for s in range(3):
            assert inference.emission_logs(log_mix, corpus, loge[:, s]).base is loge
        for s in range(3):
            assert _same_bytes(loge[:, s].copy(), inference.emission_logs(log_mix, corpus))

    @pytest.mark.parametrize("change", [
        pytest.param(lambda a: a[:-1].copy(), id="fewer-rows"),
        pytest.param(lambda a: np.vstack([a, a[:1]]), id="more-rows"),
        pytest.param(lambda a: a.astype(np.float32), id="float32"),
        pytest.param(np.asfortranarray, id="fortran"),
        pytest.param(lambda a: np.repeat(a, 2, axis=1)[:, ::2], id="strided"),
        pytest.param(lambda a: a[:, 0].copy(), id="one-dimensional"),
    ])
    @pytest.mark.parametrize("product", ["emission_logs", "word_sums"])
    def test_rejects_a_table_before_any_read(self, product, change):
        # The kernels read the table by address with no bounds checks.
        spec = ModelSpec(3, 2, 2)
        corpus = corpus_from_lists([[1, 2, 1], [0, 2]], spec)
        with pytest.raises(ValueError, match="C-contiguous float64"):
            if product == "emission_logs":
                inference.emission_logs(change(np.full((3, 2), -1.0)), corpus)
            else:
                inference._word_sums(corpus, change(np.full((2, 2), 0.5)))

    @pytest.mark.parametrize("out", [
        pytest.param(np.empty((2, 3)), id="wrong-shape"),
        pytest.param(np.empty((2, 2), np.float32), id="float32"),
        pytest.param(np.empty((2, 4))[:, ::2], id="strided-columns"),
        pytest.param(np.broadcast_to(np.empty(2), (2, 2)), id="read-only"),
        pytest.param(np.empty(4), id="one-dimensional"),
    ])
    def test_rejects_an_output_before_any_write(self, out):
        corpus = corpus_from_lists([[1, 2, 1], [0, 2]], ModelSpec(3, 2, 2))
        with pytest.raises(ValueError, match="out must be"):
            inference.emission_logs(np.full((3, 2), -1.0), corpus, out)


class TestForwardBackward:
    def test_single_state_forward_is_prefix_sum(self):
        p = _uniform_params(3, 2, 1)
        corpus = corpus_from_lists([[0], [1, 2], [2]], ModelSpec(3, 2, 1))
        loge = inference.emission_logs(inference.word_mixture_logs(p), corpus)
        la = _oracles.forward(p, corpus, loge)
        assert np.allclose(la[0], np.cumsum(loge[:, 0]))

    def test_single_state_backward_is_suffix_sum(self):
        p = _uniform_params(3, 2, 1)
        corpus = corpus_from_lists([[0], [1, 2], [2]], ModelSpec(3, 2, 1))
        loge = inference.emission_logs(inference.word_mixture_logs(p), corpus)
        lb = _oracles.backward(p, corpus, loge)
        expected = np.concatenate([np.cumsum(loge[::-1, 0])[::-1][1:], [0.0]])
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


class TestLse:
    @pytest.mark.parametrize("shape, axis", [
        ((1000, 4), 1), ((1000, 4), -1), ((1000, 1), 1), ((5, 3, 4), 2), ((5, 3, 4), 1),
        ((7, 6), 0), ((4,), 0), ((1000, 100), 1), ((100, 1000), 0)])
    def test_bit_equal_to_max_and_sum_form(self, rng, shape, axis):
        # Short axes are reduced column by column, long ones by np.max and
        # np.sum; both give what np.max and np.sum give, all -inf slices
        # included.
        a = rng.normal(scale=50.0, size=shape)
        a[rng.random(shape) < 0.2] = -np.inf
        if a.ndim > 1:
            np.moveaxis(a, axis, -1)[(0,) * (a.ndim - 1)] = -np.inf
        m = np.max(a, axis=axis, keepdims=True)
        m_safe = np.where(np.isfinite(m), m, 0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            want = np.squeeze(m_safe, axis=axis) + np.log(np.sum(np.exp(a - m_safe), axis=axis))
        assert np.array_equal(inference._lse(a, axis), want)


@st.composite
def _chains(draw):
    """Emission logs (T, S, Z), start beliefs, xi and pi of 1-25 chains of
    random tiny parameters with 1-5 behaviours, on one stream of 0-11
    documents that repeat up to 300 times, so that beliefs and emissions can
    pass float range.  Entries of phi, xi, pi and the start beliefs are
    zeroed at a drawn rate, which makes documents impossible under a belief;
    a word every topic of a chain gives probability 0 makes documents
    impossible under all its behaviours."""
    spec = ModelSpec(draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 5)))
    hyper = make_prior(draw(st.sampled_from(["1", "H", "H+1"])), spec)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rate = draw(st.sampled_from([0.0, 0.3, 0.6]))
    chains = []
    for seed in rng.integers(2**31, size=draw(st.integers(1, 25))):
        p = random_init(spec, hyper, int(seed))
        phi, xi, pi = (with_zeros(m, rng.random(m.shape) >= rate) for m in (p.phi, p.xi, p.pi))
        if rng.random() < 0.3:
            phi = with_zeros(phi, np.arange(spec.num_words)[:, None] > 0)
        chains.append(ModelParams(phi=phi, theta=p.theta, xi=xi, pi=pi))
    docs = [rng.integers(0, spec.num_words, size=rng.integers(0, 4)).tolist()
            * int(rng.integers(1, 300)) for _ in range(rng.integers(0, 12))]
    corpus = corpus_from_lists(docs, spec)
    loge = np.stack([inference.emission_logs(inference.word_mixture_logs(p), corpus)
                     for p in chains], axis=1)
    start = rng.dirichlet(np.ones(spec.num_behaviours), size=len(chains))
    start = with_zeros(start.T, rng.random(start.T.shape) >= rate).T
    return (loge, start, np.stack([p.xi for p in chains]), np.stack([p.pi for p in chains]))


def _both_ways(run):
    """``run()`` on the compiled kernels, then on their Python copies."""
    compiled = run()
    with without_kernels():
        return compiled, run()


def _forward_both_ways(loge, start, xi, pi):
    return _both_ways(lambda: inference.forward(loge.copy(), start, xi, pi))


def _assert_same_bytes(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _e_step_arrays(params, corpus):
    log_k, counts = inference.e_step(params, corpus)
    return [np.float64(log_k), counts.n_xy, counts.n_yz, counts.n_zz, counts.n_z1]


def _read_only(a):
    a = a.copy()
    a.setflags(write=False)
    return a


class TestForwardImplementations:
    """The one forward recursion in its two implementations: the compiled
    kernel and its line-for-line Python copy."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_chains())
    def test_kernel_and_python_copy_agree_bit_for_bit(self, kernel, chains):
        # Log messages (NaN after an impossible document), log beliefs, log
        # likelihoods and the final belief.
        _assert_same_bytes(*_forward_both_ways(*chains))

    @pytest.mark.parametrize("instance", [
        block_underflow_instance(), block_underflow_instance(reverse=True), revival_instance(),
        steep_instance(), steep_instance(1e-200), gradual_instance()],
        ids=["block-underflow", "reversed-block-underflow", "revival", "steep",
             "steep-off-1e-200", "gradual"])
    def test_underflow_instances_agree_bit_for_bit(self, kernel, instance):
        # Beliefs and emissions past float range: the forward pass, and the
        # E-step, whose backward pass is the same recursion.
        params, corpus = instance
        loge = inference.emission_logs(inference.word_mixture_logs(params), corpus)[:, None]
        _assert_same_bytes(*_forward_both_ways(loge, params.pi[None], params.xi[None],
                                               params.pi[None]))
        _assert_same_bytes(*_both_ways(lambda: _e_step_arrays(params, corpus)))

    @pytest.mark.parametrize("num_chains", [1, 40])
    def test_empty_stream_needs_no_fallback(self, num_chains):
        # No document: empty messages, beliefs and likelihoods, and the start
        # belief after them, on either implementation.
        start = np.tile([0.3, 0.7], (num_chains, 1))
        out, copied = _forward_both_ways(np.empty((0, num_chains, 2)), start,
                                         np.full((num_chains, 2, 2), 0.5), np.full_like(start, 0.5))
        assert [a.shape for a in out] == [(0, num_chains, 2)] * 2 + [(0, num_chains),
                                                                     (num_chains, 2)]
        assert np.array_equal(out[3], start)
        _assert_same_bytes(out, copied)

    @pytest.mark.parametrize("change", [
        pytest.param(lambda a: a.astype(np.float32), id="float32"),
        pytest.param(np.asfortranarray, id="fortran"),
        pytest.param(lambda a: np.repeat(a, 2, axis=0)[::2], id="strided"),
        pytest.param(lambda a: a[:, :, 0], id="two-dimensional"),
        pytest.param(lambda a: a[:, :1].copy(), id="fewer-chains"),
        pytest.param(lambda a: a[..., :1].copy(), id="fewer-behaviours"),
        pytest.param(_read_only, id="read-only"),
    ])
    @pytest.mark.parametrize("compiled", [True, False])
    def test_rejects_before_any_write(self, change, compiled):
        # Emission logs the kernel cannot write over, or whose shape does not
        # match the other inputs' (S, Z), raise ValueError and are not written.
        start = np.tile([0.3, 0.7], (3, 1))
        loge = np.ascontiguousarray(np.arange(24.0).reshape(4, 3, 2) * -1.0)
        loge = change(loge)
        before = loge.copy()
        with nullcontext() if compiled else without_kernels(), pytest.raises(ValueError):
            inference.forward(loge, start, np.full((3, 2, 2), 0.5), start)
        assert np.array_equal(loge, before)


class TestForwardRules(Implementations):
    """The rule by which ``inference.forward`` takes the log of each next
    belief."""

    @pytest.mark.parametrize("scale, linear", [(2e-280, True), (1e-290, False)],
                             ids=["at-least-1e-280", "below-1e-280"])
    def test_next_belief_below_1e_280_redone_in_log_domain(self, scale, linear):
        # Even weights over two behaviours, after which behaviour 1 comes
        # with probability scale or 3 * scale: its linear belief is 2 * scale.
        # Its log and the log-domain sum from the messages differ in the
        # last bit here; the log is taken where the belief is at least 1e-280.
        a, b = scale, 3.0 * scale
        start = np.array([[0.5, 0.5]])
        xi = np.array([[[1.0 - a, 1.0 - b], [a, b]]])
        _, log_prior, _, _ = inference.forward(np.zeros((2, 1, 2)), start, xi, start)
        by_log = math.log(0.0 + a * 0.5 + b * 0.5)
        by_log_sum = inference._log_sum([a, b], [-math.log(2.0)] * 2)
        assert by_log != by_log_sum
        assert log_prior[1, 0, 1] == (by_log if linear else by_log_sum)


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


@st.composite
def _vb_like_streams(draw):
    """Random small parameters with each array shrunk by its own factor, like
    the VB surrogates, and a stream of 1-130 documents.  xi is mixed with the identity, down to zero
    or near-zero off-diagonal entries as a truncated MAP estimate gives."""
    spec = ModelSpec(draw(st.integers(1, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 4)))
    params = random_init(spec, make_prior(draw(st.sampled_from(["1", "H", "H+1"])), spec),
                         draw(st.integers(0, 2**32 - 1)))
    off = draw(st.sampled_from([1.0, 1e-3, 1e-30, 0.0]))
    xi = (1.0 - off) * np.eye(spec.num_behaviours) + off * params.xi
    shrink = draw(st.lists(st.floats(0.5, 1.0), min_size=4, max_size=4))
    params = ModelParams(phi=params.phi * shrink[0], theta=params.theta * shrink[1],
                         xi=xi * shrink[2], pi=params.pi * shrink[3])
    num_docs = draw(st.integers(1, 130))
    docs = draw(st.lists(st.lists(st.integers(0, spec.num_words - 1), min_size=1, max_size=5),
                         min_size=num_docs, max_size=num_docs))
    return params, corpus_from_lists(docs, spec)


def _assert_same_e_step(got, want):
    """log K within 1e-10 relative, and each count array within 1e-10 of its
    largest entry."""
    (log_k, counts), (ref_k, ref) = got, want
    assert math.isclose(log_k, ref_k, rel_tol=1e-10, abs_tol=1e-12)
    for name in ("n_xy", "n_yz", "n_zz", "n_z1"):
        fast, slow = getattr(counts, name), getattr(ref, name)
        assert np.abs(fast - slow).max() <= 1e-10 * np.abs(slow).max(), name


class TestEStepPastFloatRange:
    @pytest.mark.parametrize("reverse", [False, True])
    def test_block_underflow_falls_back_to_log_domain(self, reverse):
        # Every scale is normal and every message finite, but a product of
        # documents 2 and 3 drops behaviour 1, which the last documents make
        # ~1e171 times likelier than behaviour 0.  Reversed, the same holds of
        # the backward messages.
        params, corpus = block_underflow_instance(reverse)
        log_lik, counts = inference.e_step(params, corpus)
        msgs, _, ref = _oracles.infer(params, corpus)
        assert math.isclose(log_lik, msgs.log_K, rel_tol=1e-12)
        assert np.allclose(counts.n_z1, [0.0, 1.0])
        for name in ("n_xy", "n_yz", "n_zz", "n_z1"):
            assert np.allclose(getattr(counts, name), getattr(ref, name), rtol=1e-12, atol=0)

    def test_revival_matches_token_level_reference(self):
        params, corpus = revival_instance()
        log_lik, counts = inference.e_step(params, corpus)
        msgs, _, ref = _oracles.infer(params, corpus)
        assert math.isclose(log_lik, msgs.log_K, rel_tol=1e-12)
        for name in ("n_xy", "n_yz", "n_zz", "n_z1"):
            assert np.allclose(getattr(counts, name), getattr(ref, name), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("off", [0.0, 1e-200], ids=["xi-identity", "xi-off-1e-200"])
    def test_steep_document_matches_token_level_reference(self, off):
        # Document 2's emissions span e^769, so behaviour 1's shifted emission
        # underflows, though it is only e^-330 of behaviour 0 after document 2
        # and document 3 makes it the likelier: both transitions are 1 -> 1.
        params, corpus = steep_instance(off)
        log_lik, counts = inference.e_step(params, corpus)
        msgs, _, ref = _oracles.infer(params, corpus)
        assert math.isclose(log_lik, msgs.log_K, rel_tol=1e-12)
        assert math.isclose(log_lik, -859.2781875573891, rel_tol=1e-12)
        assert math.isclose(counts.n_zz[1, 1], 2.0, rel_tol=1e-12)
        for name in ("n_xy", "n_yz", "n_zz", "n_z1"):
            assert np.allclose(getattr(counts, name), getattr(ref, name), rtol=1e-12, atol=0)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(steep_streams())
    def test_steep_stream_matches_token_level_reference(self, instance):
        params, corpus = instance
        msgs, _, ref = _oracles.infer(params, corpus)
        _assert_same_e_step(inference.e_step(params, corpus), (msgs.log_K, ref))

    def test_log_domain_keeps_accuracy_on_long_runs(self):
        # 123 runs of one word, 1500-2600 tokens each, give |log K| ~ 2.7e4.
        # Log messages that carry the whole log joint lose about
        # T * eps * |log K| in every posterior; normalised ones do not.
        rng = np.random.default_rng(123)
        odds, off = 9.0, 1e-3
        params = ModelParams(phi=np.array([[odds, 1.0], [1.0, odds]]) / (odds + 1.0),
                             theta=np.eye(2), xi=(1.0 - off) * np.eye(2) + off * (1.0 - np.eye(2)),
                             pi=np.array([0.5, 0.5]))
        docs = [[int(rng.integers(2))] * int(rng.integers(1500, 2601)) for _ in range(123)]
        corpus = corpus_from_lists(docs, ModelSpec(2, 2, 2))
        ref_k, ref = inference.e_step(params, corpus)
        log_k, counts = _oracles.log_e_step(params, corpus)
        assert math.isclose(log_k, ref_k, rel_tol=1e-14)
        for name in ("n_xy", "n_yz", "n_zz", "n_z1"):
            fast, slow = getattr(counts, name), getattr(ref, name)
            assert np.abs(fast - slow).max() <= 1e-12 * np.abs(slow).max(), name

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(swinging_streams())
    def test_swinging_stream_matches_loop_and_log_domain(self, instance):
        # The loop carries every message of these streams, and the recursion
        # must match it, also where a product of documents underflows.
        params, corpus = instance
        got = inference.e_step(params, corpus)
        _assert_same_e_step(got, _oracles.log_e_step(params, corpus))
        _assert_same_e_step(got, _oracles.scaled_e_step(params, corpus))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_vb_like_streams())
    def test_matches_loop_and_log_domain(self, instance):
        params, corpus = instance
        try:
            want = _oracles.log_e_step(params, corpus)
        except NumericalError:
            with pytest.raises(NumericalError):
                inference.e_step(params, corpus)
            return
        got = inference.e_step(params, corpus)
        _assert_same_e_step(got, want)
        loop_k, loop = _oracles.scaled_e_step(params, corpus)
        if np.isfinite(loop_k) and all(np.all(np.isfinite(a)) for a in vars(loop).values()):
            _assert_same_e_step(got, (loop_k, loop))


class TestLogForward:
    @staticmethod
    def _assert_matches_oracle(params, corpus):
        """Each normalised message is the oracle's forward column minus its
        log-sum-exp, and the running sum of the log likelihoods is that
        log-sum-exp, both at 1e-10."""
        loge = inference.emission_logs(inference.word_mixture_logs(params), corpus)
        log_alpha, _, scale = (a[:, 0] for a in inference.forward(
            loge[:, None].copy(), params.pi[None], params.xi[None], params.pi[None])[:3])
        la = _oracles.forward(params, corpus, loge).T
        lse = logsumexp(la, axis=1)
        np.testing.assert_allclose(np.cumsum(scale), lse, rtol=1e-10, atol=1e-10)
        # After a document impossible under every path the oracle stays at
        # -inf, while the recursion restarts.
        possible = np.isfinite(lse)
        np.testing.assert_allclose(log_alpha[possible], la[possible] - lse[possible, None],
                                   rtol=1e-10, atol=1e-10)

    def test_matches_oracle_on_random_instances(self, rng):
        for _ in range(50):
            _, params, corpus = random_instance(rng)
            self._assert_matches_oracle(params, corpus)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_vb_like_streams())
    def test_matches_oracle_on_vb_like_streams(self, instance):
        self._assert_matches_oracle(*instance)


def _fit_all(corpus, hyper):
    """The parameters EM, VB and GS fit to ``corpus``, by learner, and the
    GS count samples."""
    spec = corpus.spec
    em_params, _ = em.em_fit(corpus, hyper, spec, seed=3, max_iters=3)
    _, vb_params, _ = vb.vb_fit(corpus, hyper, spec, seed=3, max_iters=3)
    samples, gs_params = gibbs.gs_fit(corpus, hyper, spec, seed=3, burn_in=2,
                                      num_samples=2, spacing=1)
    return {"em": em_params, "vb": vb_params, "gs": gs_params}, samples


def _prior_estimates(hyper, spec):
    """What each learner estimates from all-zero counts: EM's mode, the
    posterior mean of VB and GS."""
    zero = _oracles.zero_counts(spec)
    return {"em": em.m_step(zero, hyper), "vb": vb.point_estimates(vb.vb_m_step(zero, hyper)),
            "gs": gibbs.point_estimate(zero, hyper)}


class TestCorpusWithoutTokens:
    @pytest.mark.parametrize("prior", ["1", "H", "H+1"])
    def test_e_step_on_no_documents(self, prior):
        spec = ModelSpec(3, 2, 2)
        params = random_init(spec, make_prior(prior, spec), 0)
        log_k, counts = inference.e_step(params, corpus_from_lists([], spec))
        assert log_k == 0.0
        for got, want in zip(vars(counts).values(), vars(_oracles.zero_counts(spec)).values()):
            assert got.shape == want.shape and np.all(got == 0)

    @pytest.mark.parametrize("prior", ["1", "H", "H+1"])
    def test_no_documents_fit_the_prior(self, prior):
        spec = ModelSpec(3, 2, 2)
        hyper = make_prior(prior, spec)
        fitted, samples = _fit_all(corpus_from_lists([], spec), hyper)
        for name, want in _prior_estimates(hyper, spec).items():
            for got, expected in zip(vars(fitted[name]).values(), vars(want).values()):
                assert np.array_equal(got, expected), name
        assert all(np.all(a == 0) for c in samples for a in vars(c).values())

    @pytest.mark.parametrize("prior", ["1", "H", "H+1"])
    def test_empty_documents_fit_the_prior_word_and_topic_columns(self, prior):
        spec = ModelSpec(3, 2, 2)
        hyper = make_prior(prior, spec)
        fitted, samples = _fit_all(corpus_from_lists([[], [], []], spec), hyper)
        for name, want in _prior_estimates(hyper, spec).items():
            assert np.array_equal(fitted[name].phi, want.phi), name
            assert np.array_equal(fitted[name].theta, want.theta), name
            assert validate_params(fitted[name], spec) == [], name
        for c in samples:
            assert c.n_xy.sum() == c.n_yz.sum() == 0
            assert c.n_zz.sum() == 2 and c.n_z1.sum() == 1
