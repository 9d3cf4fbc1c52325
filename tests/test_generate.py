import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracles
from markovtopics import ModelParams, ModelSpec, make_prior
from markovtopics import generate as generate_module
from markovtopics.generate import generate, generate_from


def _uniform_params(X, Y, Z):
    return ModelParams(
        phi=np.full((X, Y), 1.0 / X),
        theta=np.full((Y, Z), 1.0 / Y),
        xi=np.full((Z, Z), 1.0 / Z),
        pi=np.full(Z, 1.0 / Z),
    )


class TestGenerateFrom:
    def test_absorbing_start(self):
        p = ModelParams(phi=np.full((2, 1), 0.5), theta=np.ones((1, 2)),
                        xi=np.eye(2), pi=np.array([1.0, 0.0]))
        ds = generate_from(p, 10, [2] * 10, seed=0)
        assert np.all(ds.true_behaviours == 0)

    def test_cyclic_chain(self):
        # 0 -> 1 -> 2 -> 0 deterministic cycle.
        xi = np.zeros((3, 3))
        xi[1, 0] = xi[2, 1] = xi[0, 2] = 1.0
        p = ModelParams(phi=np.full((2, 1), 0.5), theta=np.ones((1, 3)),
                        xi=xi, pi=np.array([1.0, 0.0, 0.0]))
        ds = generate_from(p, 9, [1] * 9, seed=1)
        assert list(ds.true_behaviours) == [0, 1, 2] * 3

    def test_uniform_word_frequencies(self):
        p = _uniform_params(4, 2, 2)
        ds = generate_from(p, 100, [1000] * 100, seed=3)
        words = ds.corpus.tokens
        freqs = np.bincount(words, minlength=4) / len(words)
        assert np.all(np.abs(freqs - 0.25) < 0.01)

    def test_word_frequency_tracks_phi_given_topic(self):
        # Point-mass theta makes every token use topic 0; word frequencies
        # then converge to phi's first column.
        phi = np.array([[0.6, 0.1], [0.3, 0.4], [0.1, 0.5]])
        p = ModelParams(phi=phi, theta=np.array([[1.0], [0.0]]),
                        xi=np.ones((1, 1)), pi=np.array([1.0]))
        ds = generate_from(p, 100, [1000] * 100, seed=4)
        words = ds.corpus.tokens
        freqs = np.bincount(words, minlength=3) / len(words)
        assert np.all(np.abs(freqs - phi[:, 0]) < 0.02)

    def test_zero_length_rejected(self):
        p = _uniform_params(2, 1, 1)
        with pytest.raises(ValueError):
            generate_from(p, 2, [3, 0], seed=0)

    def test_transition_frequencies_match_xi(self):
        xi = np.array([[0.8, 0.3], [0.2, 0.7]])
        p = ModelParams(phi=np.full((2, 1), 0.5), theta=np.ones((1, 2)),
                        xi=xi, pi=np.array([0.5, 0.5]))
        ds = generate_from(p, 20000, [1] * 20000, seed=5)
        z = ds.true_behaviours
        for z_old in range(2):
            idx = np.nonzero(z[:-1] == z_old)[0]
            emp = np.mean(z[idx + 1] == 0)
            assert abs(emp - xi[0, z_old]) < 0.02


class TestGenerate:
    def test_single_behaviour(self):
        spec = ModelSpec(3, 2, 1)
        ds = generate(spec, make_prior("1", spec), 5, [2] * 5, seed=0)
        assert np.all(ds.true_behaviours == 0)

    def test_deterministic(self):
        spec = ModelSpec(3, 2, 2)
        h = make_prior("1", spec)
        a = generate(spec, h, 4, [3] * 4, seed=9)
        b = generate(spec, h, 4, [3] * 4, seed=9)
        assert np.array_equal(a.corpus.tokens, b.corpus.tokens)
        assert np.array_equal(a.corpus.offsets, b.corpus.offsets)

    def test_replay_from_drawn_params(self):
        # Parameter and token draws use independent sub-streams, so a
        # dataset replays exactly from its own parameters and seed.
        spec = ModelSpec(4, 2, 2)
        h = make_prior("1", spec)
        ds = generate(spec, h, 6, [4] * 6, seed=11)
        replay = generate_from(ds.true_params, 6, [4] * 6, seed=11)
        assert np.array_equal(ds.corpus.tokens, replay.corpus.tokens)
        assert np.array_equal(ds.corpus.offsets, replay.corpus.offsets)
        assert np.array_equal(ds.true_behaviours, replay.true_behaviours)

    def test_assignment_shapes(self):
        spec = ModelSpec(3, 2, 2)
        ds = generate(spec, make_prior("1", spec), 3, [2, 4, 1], seed=2)
        assert [len(y) for y in ds.true_topics] == [2, 4, 1]
        assert ds.true_behaviours.shape == (3,)


def _recording_run(module, fn, params, lengths, seed):
    """``fn``'s dataset and the next uniform of its token stream."""
    streams = []
    stream = generate_module._stream

    def recording(seed, label):
        rng = stream(seed, label)
        streams.append(rng)
        return rng

    with pytest.MonkeyPatch.context() as m:
        m.setattr(module, "_stream", recording)
        ds = fn(params, len(lengths), lengths, seed)
    return ds, streams[-1].random()


def _case(X, Y, Z, prior, lengths, seed):
    """Parameters drawn from ``prior``, document lengths and a seed."""
    spec = ModelSpec(X, Y, Z)
    return generate(spec, make_prior(prior, spec), 1, [1], seed).true_params, lengths, seed


@st.composite
def _generator_cases(draw):
    """Parameters drawn from one of the three priors, uneven document
    lengths (1-token documents and a single document included) and a seed."""
    return _case(draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 3)),
                 draw(st.sampled_from(["1", "H", "H+1"])),
                 draw(st.lists(st.integers(1, 9), min_size=1, max_size=6)),
                 draw(st.integers(0, 2**32 - 1)))


class TestPerTokenReference:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_generator_cases())
    @example(_case(1, 1, 1, "1", [1], 0))
    @example(_case(5, 3, 2, "H", [1, 7, 1, 1, 30, 2], 4))
    @example(_case(1, 3, 2, "H+1", [3, 1, 12, 5], 7))
    @example(_case(6, 1, 2, "H", [3, 1, 12, 5], 7))
    @example(_case(6, 3, 1, "1", [3, 1, 12, 5], 7))
    # Across the blocks of one uniform draw each: a document longer than a
    # block, then short documents over several blocks.
    @example(_case(9, 4, 3, "H", [5, generate_module._BLOCK_TOKENS + 7, 2, 1], 13))
    @example(_case(7, 3, 4, "H+1", [1, 4, 2, 9] * (generate_module._BLOCK_TOKENS // 6), 17))
    def test_equals_per_token_generator(self, case):
        params, lengths, seed = case
        new, new_next = _recording_run(generate_module, generate_from, params, lengths, seed)
        old, old_next = _recording_run(_oracles, _oracles.per_token_generate_from,
                                       params, lengths, seed)
        assert np.array_equal(new.corpus.tokens, old.corpus.tokens)
        assert np.array_equal(new.corpus.offsets, old.corpus.offsets)
        assert len(new.true_topics) == len(old.true_topics) == len(lengths)
        for a, b in zip(new.true_topics, old.true_topics):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert np.array_equal(new.true_behaviours, old.true_behaviours)
        assert new_next == old_next
