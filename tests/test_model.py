import numpy as np
import pytest

from markovtopics import (
    Corpus,
    Document,
    Hyperparams,
    ModelParams,
    ModelSpec,
    corpus_from_lists,
    make_prior,
    random_init,
    validate_params,
)
from markovtopics.model import DataError


class TestMakePrior:
    def test_type_1_all_ones(self):
        spec = ModelSpec(5, 3, 2)
        h = make_prior("1", spec)
        for vec in (h.alpha, h.beta, h.gamma, h.eta):
            assert np.all(vec == 1.0)

    def test_type_h_values(self):
        h = make_prior("H", ModelSpec(4, 2, 3))
        assert np.all(h.alpha == 8.0)
        assert np.all(h.beta == 0.05)
        assert np.all(h.gamma == 1.0)
        assert np.all(h.eta == 1.0)

    def test_type_h_plus_1_values(self):
        h = make_prior("H+1", ModelSpec(4, 2, 3))
        assert np.all(h.alpha == 9.0)
        assert np.all(h.beta == 1.05)
        assert np.all(h.gamma == 2.0)
        assert np.all(h.eta == 2.0)

    def test_vector_lengths_follow_spec(self):
        spec = ModelSpec(7, 4, 3)
        h = make_prior("1", spec)
        assert h.beta.shape == (7,)
        assert h.alpha.shape == (4,)
        assert h.gamma.shape == (3,) and h.eta.shape == (3,)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_prior("H+2", ModelSpec(2, 2, 2))


class TestValidateParams:
    def _valid(self):
        return ModelParams(
            phi=np.eye(2),
            theta=np.eye(2),
            xi=np.full((2, 2), 0.5),
            pi=np.array([0.5, 0.5]),
        )

    def test_identity_columns_pass(self):
        assert validate_params(self._valid(), ModelSpec(2, 2, 2)) == []

    def test_column_sum_violation(self):
        p = self._valid()
        bad = ModelParams(phi=np.array([[0.5, 0.0], [0.4, 1.0]]),
                          theta=p.theta, xi=p.xi, pi=p.pi)
        report = validate_params(bad)
        assert len(report) == 1
        assert report[0].startswith("column-sum: phi column 0")

    def test_negative_entry_violation(self):
        p = self._valid()
        bad = ModelParams(phi=np.array([[1.2, 0.0], [-0.2, 1.0]]),
                          theta=p.theta, xi=p.xi, pi=p.pi)
        report = validate_params(bad)
        assert any(v.startswith("entry-range: phi") for v in report)

    def test_non_finite_entry_violation(self):
        nan = ModelParams(phi=np.full((2, 2), np.nan), theta=np.full((2, 2), np.nan),
                          xi=np.full((2, 2), np.nan), pi=np.full(2, np.nan))
        report = validate_params(nan, ModelSpec(2, 2, 2))
        assert report == [f"entry-range: {name} has non-finite entries"
                          for name in ("phi", "theta", "xi", "pi")]

    def test_dimension_mismatch_distinct_class(self):
        p = self._valid()
        report = validate_params(p, ModelSpec(3, 2, 2))
        assert any(v.startswith("dimension:") for v in report)


class TestRandomInit:
    def test_single_topic_column_sums_to_one(self):
        spec = ModelSpec(4, 1, 2)
        p = random_init(spec, make_prior("1", spec), 3)
        assert p.phi.shape == (4, 1)
        assert abs(p.phi[:, 0].sum() - 1.0) < 1e-12

    def test_deterministic_in_seed(self):
        spec = ModelSpec(3, 2, 2)
        h = make_prior("H", spec)
        a = random_init(spec, h, 42)
        b = random_init(spec, h, 42)
        for name in ("phi", "theta", "xi", "pi"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_different_seed_differs(self):
        spec = ModelSpec(3, 2, 2)
        h = make_prior("1", spec)
        assert not np.array_equal(random_init(spec, h, 0).phi,
                                  random_init(spec, h, 1).phi)

    def test_always_valid(self):
        spec = ModelSpec(5, 3, 2)
        h = make_prior("H", spec)
        for seed in range(10):
            assert validate_params(random_init(spec, h, seed), spec) == []

    def test_dirichlet_mean_monte_carlo(self):
        # Dirichlet(1, 1) first coordinate has mean 1/2.
        spec = ModelSpec(2, 1, 1)
        h = make_prior("1", spec)
        draws = [random_init(spec, h, seed).phi[0, 0] for seed in range(1000)]
        assert abs(np.mean(draws) - 0.5) < 0.05


class TestCorpus:
    def test_contiguous_timestamps_required(self):
        spec = ModelSpec(3, 1, 1)
        docs = [Document(words=[0], timestamp=1), Document(words=[1], timestamp=3)]
        with pytest.raises(DataError):
            Corpus(documents=docs, spec=spec)

    def test_word_range_enforced(self):
        spec = ModelSpec(2, 1, 1)
        with pytest.raises(DataError):
            corpus_from_lists([[0, 2]], spec)

    def test_word_range_error_names_document(self):
        # The empty second document starts where the third does.
        with pytest.raises(DataError, match="document 3 contains word ids outside"):
            corpus_from_lists([[0, 1], [], [-1, 1], [5]], ModelSpec(2, 1, 1))

    def test_documents_are_views_into_tokens(self):
        c = corpus_from_lists([[0, 2, 0], [], [1]], ModelSpec(4, 1, 1))
        assert all(np.shares_memory(d.words, c.tokens) for d in c.documents if len(d))
        assert [d.words.tolist() for d in c.documents] == [[0, 2, 0], [], [1]]

    def test_token_count(self):
        c = corpus_from_lists([[0, 1], [1]], ModelSpec(2, 1, 1))
        assert c.num_tokens == 3 and len(c) == 2

    def test_doc_term_counts_words_per_document(self):
        c = corpus_from_lists([[0, 2, 0], [1], [2, 2]], ModelSpec(4, 1, 1))
        assert np.array_equal(c.doc_term.toarray(),
                              [[2, 0, 0], [0, 1, 0], [1, 0, 2], [0, 0, 0]])
        assert c.doc_term is c.doc_term

    def test_flat_tokens_and_offsets(self):
        c = corpus_from_lists([[0, 2, 0], [], [1], [2, 2]], ModelSpec(4, 1, 1))
        assert np.array_equal(c.tokens, [0, 2, 0, 1, 2, 2])
        assert np.array_equal(c.offsets, [0, 3, 3, 4, 6])
        assert c.tokens.dtype == np.int64 and c.offsets.dtype == np.int64
        assert c.num_tokens == 6
        empty = corpus_from_lists([], ModelSpec(4, 1, 1))
        assert len(empty.tokens) == 0 and np.array_equal(empty.offsets, [0])
        assert empty.doc_term.shape == (4, 0)


class TestHyperparams:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            Hyperparams(alpha=np.array([1.0, 0.0]), beta=np.ones(2),
                        gamma=np.ones(2), eta=np.ones(2))

    def test_spec_requires_positive_dims(self):
        with pytest.raises(ValueError):
            ModelSpec(0, 1, 1)
