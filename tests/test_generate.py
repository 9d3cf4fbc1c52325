import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import _oracles
from conftest import Implementations, without_kernels
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


class TestGenerateFrom(Implementations):
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

    @pytest.mark.parametrize("name,entry", [
        ("phi", np.nan), ("phi", -0.25), ("theta", np.inf), ("xi", -1e-300), ("pi", np.nan),
        ("pi", -np.inf)])
    def test_invalid_entry_rejected_before_any_draw(self, name, entry, monkeypatch):
        # C's < and numpy's searchsorted disagree on NaN and on a cumulative
        # column that falls, so neither may reach a draw.
        p, stream, made = _uniform_params(3, 2, 2), generate_module._stream, []
        getattr(p, name).flat[1] = entry
        monkeypatch.setattr(generate_module, "_stream",
                            lambda *args: made.append(stream(*args)) or made[-1])
        with pytest.raises(ValueError, match=f"{name} holds a negative or non-finite entry"):
            generate_from(p, 2, [2, 3], seed=5)
        assert all(rng.random() == stream(5, "tokens").random() for rng in made)

    @pytest.mark.parametrize("name,shape", [
        pytest.param("theta", (3, 2), id="theta-extra-row"),
        pytest.param("xi", (2, 3), id="xi-extra-column"),
        pytest.param("pi", (2, 1), id="pi-two-dimensional")])
    def test_mismatched_shape_rejected_before_any_draw(self, name, shape):
        p = _uniform_params(3, 2, 2)
        p = ModelParams(**{**vars(p), name: np.full(shape, 0.5)})
        with pytest.raises(ValueError, match=f"the shape of {name} does not match"):
            generate_from(p, 2, [2, 3], seed=5)

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


class TestPerTokenReference(Implementations):
    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.differing_executors])
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


class _Placed:
    """Stands in for the token stream: hands out ``uniforms`` in order, to
    ``random()``, ``random(n)`` and ``random(out=...)`` alike."""

    def __init__(self, uniforms):
        self.uniforms, self.used = list(uniforms), 0

    def random(self, size=None, out=None):
        n = len(out) if out is not None else 1 if size is None else size
        values = self.uniforms[self.used:self.used + n]
        assert len(values) == n, "more uniforms drawn than placed"
        self.used += n
        if out is None:
            return values[0] if size is None else np.array(values)
        out[:] = values
        return out


def _on_edges(cells, *columns):
    """Uniforms in [0, 1) on every entry of ``columns`` and on every cell edge
    k / ``cells``, and one ulp either side of each."""
    at = np.concatenate([*map(np.ravel, columns), np.arange(cells) / cells])
    near = np.concatenate([at, np.nextafter(at, -1.0), np.nextafter(at, 2.0)])
    return np.unique(near[(near >= 0.0) & (near < 1.0)])


def _placed_case(phi, theta, xi, pi):
    """Parameters, document lengths and uniforms: one document per uniform on
    the edges of pi's and xi's cumulative columns, each holding every pair of
    a uniform on the edges of theta's and of phi's, the latter also on the
    guide's cell edges k / X."""
    params = ModelParams(phi=phi, theta=theta, xi=xi, pi=pi)
    on_z = _on_edges(1, np.cumsum(pi), np.cumsum(xi, axis=0))
    on_y = _on_edges(1, np.cumsum(theta, axis=0))
    on_x = _on_edges(len(phi), np.cumsum(phi, axis=0))
    u_y, u_x = np.repeat(on_y, len(on_x)), np.tile(on_x, len(on_y))
    uniforms = np.concatenate([[u, *u_y, *u_x] for u in on_z])
    return params, [len(u_y)] * len(on_z), uniforms


_THIRDS = np.array([[1.0, 0.5], [1.0, 0.0], [1.0, 0.5]]) / [[3.0, 1.0]]
_PLACED_CASES = {
    # Every cumulative phi value is a cell edge k / X.
    "cumsums-on-cell-edges": (np.full((4, 2), 0.25), np.full((2, 2), 0.5),
                              np.full((2, 2), 0.5), np.full(2, 0.5)),
    "thirds": (_THIRDS, _THIRDS[:2, :], np.eye(2), np.array([0.5, 0.5])),
    "zero-probability-words": (
        np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                  [0.5, 0.0, 0.0], [0.0, 0.0, 1.0]]),
        np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([0.0, 1.0])),
    # Many words in the cell of one cumulative value.
    "tiny-words": (np.array([[0.5, 0.2], [1e-300, 0.2], [5e-324, 0.2], [1e-17, 0.2],
                             [0.5 - 1e-17, 0.2]]), np.array([[0.3], [0.7]]), np.ones((1, 1)),
                   np.ones(1)),
    # Columns that sum to less than 1: a uniform past the sum draws the last entry.
    "short-columns": (np.array([[0.2, 0.7], [0.3, 0.1]]), np.array([[0.3, 0.5], [0.4, 0.0]]),
                      np.array([[0.6, 0.1], [0.3, 0.1]]), np.array([0.4, 0.4])),
    "one-word": (np.ones((1, 2)), np.array([[0.25, 1.0], [0.75, 0.0]]), np.full((2, 2), 0.5),
                 np.array([0.5, 0.5])),
}


def _placed_run(module, fn, params, lengths, uniforms):
    """``fn``'s dataset with ``uniforms`` in place of its token stream, each
    of them drawn."""
    placed = _Placed(uniforms)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(module, "_stream", lambda seed, label: placed)
        ds = fn(params, len(lengths), lengths, 0)
    assert placed.used == len(uniforms)
    return ds


@pytest.mark.parametrize("case", list(_PLACED_CASES))
def test_kernel_and_copy_agree_on_placed_uniforms(case, kernel):
    # The kernel's guide table narrows each word search to one cell: a
    # uniform on a cumulative value, on a cell edge or one ulp from either
    # must find the index that bisect_right and searchsorted find.
    case = _placed_case(*_PLACED_CASES[case])
    want = _placed_run(_oracles, _oracles.per_token_generate_from, *case)
    got = _placed_run(generate_module, generate_from, *case)
    with without_kernels():
        copy = _placed_run(generate_module, generate_from, *case)
    for ds in (got, copy):
        assert np.array_equal(ds.true_behaviours, want.true_behaviours)
        assert np.array_equal(np.concatenate(ds.true_topics), np.concatenate(want.true_topics))
        assert np.array_equal(ds.corpus.tokens, want.corpus.tokens)
