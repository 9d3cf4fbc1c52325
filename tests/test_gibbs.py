import ctypes
import dataclasses
import math
import sysconfig
import tempfile
from bisect import bisect_right
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import cython_special

from markovtopics import Hyperparams, ModelSpec, corpus_from_lists, make_prior
from markovtopics import _kernels, generate, gibbs
from markovtopics.cli import main
from markovtopics.model import SufficientCounts, validate_params

from _oracles import (enum_collapsed_posterior, per_document_gibbs_init,
                      vectorised_behaviour_step, vectorised_topic_step)
from conftest import Implementations, without_kernels


def _reference_chain(corpus, hyper, seed, sweeps):
    """The chain with the vectorised references as its behaviour and topic
    steps."""
    state = gibbs.gibbs_init(corpus, corpus.spec, seed)
    for _ in range(sweeps):
        vectorised_behaviour_step(state, corpus, hyper)
        vectorised_topic_step(state, corpus, hyper)
    return state


def _kept_chain(state, corpus, hyper, compiled=True):
    """``gibbs.chain`` on the compiled kernels (the Python copies where they
    do not build), or on the Python copies where ``compiled`` is false."""
    with nullcontext() if compiled else without_kernels():
        return gibbs.chain(state, corpus, hyper)


def _assert_same_chain(a, b):
    assert np.array_equal(a.z_assign, b.z_assign)
    assert np.array_equal(a.y_flat, b.y_flat)
    for name in ("n_xy", "n_yz", "n_zz", "n_z1"):
        assert np.array_equal(getattr(a.counts, name), getattr(b.counts, name))
    assert a.rng.random() == b.rng.random()


def _only(chain, index):
    """Step ``index`` of ``chain`` alone, as a sweep runs it: 0 the
    behaviours, 1 the topics."""
    gibbs.gibbs_sweep(dataclasses.replace(chain, steps=chain.steps[index:index + 1]))


def _audited_sweep(chain, corpus):
    """One sweep, then every tally, and the column sums the chain keeps,
    recounted from the assignments."""
    state = gibbs.gibbs_sweep(chain)
    fresh = gibbs.tally(state.y_flat, state.z_assign, corpus)
    for name in ("n_xy", "n_yz", "n_zz", "n_z1"):
        assert np.array_equal(getattr(fresh, name), getattr(state.counts, name)), name
    assert np.array_equal(chain.totals, fresh.n_xy.sum(axis=0))
    assert np.array_equal(chain.leaving, fresh.n_zz.sum(axis=0))


def _audited_chain(corpus, hyper, seed, sweeps, compiled=True):
    """The state after ``sweeps`` audited sweeps of one kept chain from
    ``gibbs_init``, on the kernels or (``compiled`` false) the Python copies."""
    state = gibbs.gibbs_init(corpus, corpus.spec, seed)
    kept = _kept_chain(state, corpus, hyper, compiled)
    for _ in range(sweeps):
        _audited_sweep(kept, corpus)
    return state


class TestTally:
    def test_hand_counts(self):
        spec = ModelSpec(3, 2, 2)
        corpus = corpus_from_lists([[0, 1], [2]], spec)
        y_flat = np.array([0, 1, 1])
        z_assign = np.array([0, 1])
        c = gibbs.tally(y_flat, z_assign, corpus)
        assert c.n_xy[0, 0] == 1 and c.n_xy[1, 1] == 1 and c.n_xy[2, 1] == 1
        assert c.n_yz[0, 0] == 1 and c.n_yz[1, 0] == 1 and c.n_yz[1, 1] == 1
        assert c.n_zz[1, 0] == 1 and c.n_zz.sum() == 1
        assert c.n_z1[0] == 1 and c.n_z1.sum() == 1

    def test_totals(self):
        spec = ModelSpec(4, 3, 2)
        ds = generate.generate(spec, make_prior("1", spec), 6, [3] * 6, seed=0)
        state = gibbs.gibbs_init(ds.corpus, spec, seed=1)
        c = state.counts
        assert c.n_xy.sum() == ds.corpus.num_tokens
        assert c.n_yz.sum() == ds.corpus.num_tokens
        assert c.n_zz.sum() == len(ds.corpus) - 1
        assert c.n_z1.sum() == 1


@st.composite
def _init_cases(draw):
    """Uneven document lengths (empty documents and an empty corpus
    included), 1 to 8 topics and a seed."""
    spec = ModelSpec(draw(st.integers(1, 4)), draw(st.sampled_from([1, 2, 3, 5, 8])),
                     draw(st.integers(1, 3)))
    lengths = draw(st.lists(st.integers(0, 9), max_size=8))
    docs = [[t % spec.num_words] * n for t, n in enumerate(lengths)]
    return corpus_from_lists(docs, spec), draw(st.integers(0, 2**32 - 1))


class TestInit:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_init_cases())
    @example((corpus_from_lists([], ModelSpec(2, 3, 2)), 0))
    @example((corpus_from_lists([[], [], []], ModelSpec(2, 5, 2)), 1))
    @example((corpus_from_lists([[0] * 3, [], [1] * 7, [0]], ModelSpec(2, 7, 3)), 2))
    @example((corpus_from_lists([[0] * 41, [1] * 2, [0] * 13], ModelSpec(2, 8, 4)), 3))
    def test_one_draw_equals_per_document_draws(self, case):
        # numpy draws these topics as 32-bit halves of PCG64's 64-bit outputs
        # and keeps an unused half in the generator: the draws after the
        # topics show whether the state matches too.
        corpus, seed = case
        new = gibbs.gibbs_init(corpus, corpus.spec, seed)
        old = per_document_gibbs_init(corpus, corpus.spec, seed)
        assert new.y_flat.dtype == old.y_flat.dtype and np.array_equal(new.y_flat, old.y_flat)
        assert np.array_equal(new.z_assign, old.z_assign)
        for name in ("n_xy", "n_yz", "n_zz", "n_z1"):
            assert np.array_equal(getattr(new.counts, name), getattr(old.counts, name)), name
        assert new.rng.integers(0, 7, size=3).tolist() == old.rng.integers(0, 7, size=3).tolist()
        assert new.rng.random() == old.rng.random()
        assert new.rng.integers(0, 2**40) == old.rng.integers(0, 2**40)


class TestSweep:
    def test_audit_passes_over_many_sweeps(self):
        spec = ModelSpec(4, 3, 3)
        ds = generate.generate(spec, make_prior("1", spec), 8, [4] * 8, seed=2)
        h = make_prior("1", spec)
        compiled, copy = (_audited_chain(ds.corpus, h, 0, 25, on_kernels)
                          for on_kernels in (True, False))
        _assert_same_chain(compiled, copy)

    def test_deterministic_in_seed(self):
        spec = ModelSpec(3, 2, 2)
        ds = generate.generate(spec, make_prior("1", spec), 6, [3] * 6, seed=3)
        h = make_prior("1", spec)
        a = gibbs.gibbs_init(ds.corpus, spec, seed=7)
        b = gibbs.gibbs_init(ds.corpus, spec, seed=7)
        chains = gibbs.chain(a, ds.corpus, h), gibbs.chain(b, ds.corpus, h)
        for _ in range(10):
            for kept in chains:
                gibbs.gibbs_sweep(kept)
        assert np.array_equal(a.z_assign, b.z_assign)
        assert np.array_equal(a.y_flat, b.y_flat)

    def test_degenerate_single_state_no_op(self):
        spec = ModelSpec(3, 1, 1)
        corpus = corpus_from_lists([[0, 1], [2]], spec)
        h = make_prior("1", spec)
        state = gibbs.gibbs_init(corpus, spec, seed=0)
        before = state.counts.copy()
        _audited_sweep(gibbs.chain(state, corpus, h), corpus)
        assert np.array_equal(before.n_xy, state.counts.n_xy)
        assert np.all(state.z_assign == 0)


class TestTopicStep:
    def test_matches_vectorised_reference_bit_for_bit(self):
        # Uneven lengths, an empty document and uneven priors; both chains
        # start from one seeded state.
        spec = ModelSpec(7, 3, 2)
        corpus = corpus_from_lists([[0, 1, 2, 3, 4, 5, 6, 0], [], [3], [6, 6, 5, 1],
                                    [2, 4, 0, 0, 1, 3, 5, 6, 2, 2, 4], [1, 0]], spec)
        h = Hyperparams(alpha=np.array([0.3, 2.0, 1.1]),
                        beta=np.array([0.05, 0.5, 1.5, 0.1, 0.7, 0.05, 3.0]),
                        gamma=np.array([1.2, 0.8]), eta=np.array([3.0, 1.0]))
        new = _audited_chain(corpus, h, seed=12, sweeps=5)
        _assert_same_chain(_reference_chain(corpus, h, seed=12, sweeps=5), new)


@st.composite
def _chain_cases(draw, topics=(1, 2, 3, 8), max_behaviours=3):
    """Uneven document lengths (empty documents and corpora included), one
    of ``topics`` topics, 1 to ``max_behaviours`` behaviours, uneven priors
    and a seed."""
    num_topics = draw(st.sampled_from(topics))
    spec = ModelSpec(draw(st.integers(1, 6)), num_topics, draw(st.integers(1, max_behaviours)))
    docs = draw(st.lists(st.lists(st.integers(0, spec.num_words - 1), max_size=12), max_size=8))
    priors = [np.array(draw(st.lists(st.floats(0.05, 5.0), min_size=n, max_size=n)))
              for n in (num_topics, spec.num_words, spec.num_behaviours, spec.num_behaviours)]
    return corpus_from_lists(docs, spec), Hyperparams(*priors), draw(st.integers(0, 2**32 - 1))


_UNEVEN_PRIOR_8 = Hyperparams(alpha=np.linspace(0.1, 4.0, 8), beta=np.array([0.05, 2.5, 0.7]),
                              gamma=np.array([1.2, 0.8]), eta=np.array([3.0, 1.0]))


class _FixedUniforms:
    """Stands in for a chain's generator: every uniform is ``u``, or a draw
    of ``len(u)`` uniforms is the array ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None, out=None):
        if out is not None:
            out[...] = self.u
            return out
        return self.u if size is None else np.full(size, self.u)


class TestCompiledTopicStep:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_chain_cases())
    @example((corpus_from_lists([], ModelSpec(2, 3, 2)), make_prior("H", ModelSpec(2, 3, 2)), 0))
    @example((corpus_from_lists([[], [], []], ModelSpec(2, 2, 2)),
              make_prior("1", ModelSpec(2, 2, 2)), 1))
    @example((corpus_from_lists([[0, 1, 2, 2, 0, 1, 1], [], [2] * 11, [1]], ModelSpec(3, 8, 2)),
              _UNEVEN_PRIOR_8, 2))
    def test_kernel_python_loop_and_reference_agree(self, kernel, case):
        corpus, h, seed = case
        compiled, loop = (_audited_chain(corpus, h, seed, 4, on_kernels)
                          for on_kernels in (True, False))
        reference = _reference_chain(corpus, h, seed, sweeps=4)
        for other in (loop, reference):
            assert compiled.y_flat.dtype == other.y_flat.dtype
            assert np.array_equal(compiled.y_flat, other.y_flat)
            assert np.array_equal(compiled.z_assign, other.z_assign)
            for name in ("n_xy", "n_yz", "n_zz", "n_z1"):
                a, b = getattr(compiled.counts, name), getattr(other.counts, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name
            assert np.array_equal(compiled.counts.n_xy.sum(axis=0), other.counts.n_xy.sum(axis=0))
        assert np.array_equal(compiled.counts.n_xy.sum(axis=0), compiled.counts.n_yz.sum(axis=1))
        assert compiled.rng.random() == loop.rng.random() == reference.rng.random()

    def test_draws_on_exact_boundaries_agree(self, kernel):
        # One token in a random count state, and a uniform that puts
        # u * s exactly on the running sum cw[j]: bisect_right draws topic
        # j + 1.  A weight that differs in its last bit (another operation
        # order, a fused multiply-add) or another comparison moves such
        # draws, which random uniforms almost never hit.
        rng = np.random.default_rng(2)
        boundaries = 0
        for _ in range(150):
            spec = ModelSpec(3, int(rng.choice([2, 3, 8])), 2)
            Y = spec.num_topics
            x, y_old, z = int(rng.integers(3)), int(rng.integers(Y)), int(rng.integers(2))
            n_xy, n_yz = rng.integers(0, 40, size=(3, Y)), rng.integers(0, 40, size=(Y, 2))
            n_xy[x, y_old] += 1
            n_yz[y_old, z] += 1
            h = Hyperparams(alpha=rng.uniform(0.05, 5.0, Y), beta=rng.uniform(0.05, 5.0, 3),
                            gamma=np.ones(2), eta=np.ones(2))
            less = np.eye(Y, dtype=np.int64)[y_old]
            cw = np.cumsum((n_xy[x] - less + h.beta[x]) / (n_xy.sum(axis=0) - less + h.beta.sum())
                           * (n_yz[:, z] - less + h.alpha))
            for j in range(Y - 1):
                u = next((u for u in (cw[j] / cw[-1], np.nextafter(cw[j] / cw[-1], 0),
                                      np.nextafter(cw[j] / cw[-1], 1)) if u * cw[-1] == cw[j]), None)
                if u is None:
                    continue
                boundaries += 1
                corpus = corpus_from_lists([[x]], spec)
                for compiled in (True, False, None):
                    counts = SufficientCounts(n_xy.copy(), n_yz.copy(), np.zeros((2, 2), np.int64),
                                              np.eye(2, dtype=np.int64)[z])
                    state = gibbs.GibbsState(np.array([y_old]), np.array([z]), counts,
                                             _FixedUniforms(u))
                    if compiled is None:
                        vectorised_topic_step(state, corpus, h)
                    else:
                        _only(_kept_chain(state, corpus, h, compiled), 1)
                    assert state.y_flat[0] == j + 1, (compiled, j)
                    assert counts.n_xy[x, j + 1] == n_xy[x, j + 1] + (j + 1 != y_old)
        assert boundaries > 300


def _set(index, v):
    def value(a):
        a = a.copy()
        a[index] = v
        return a
    return value


def _read_only(a):
    a = a.copy()
    a.setflags(write=False)
    return a


def _valid_inputs():
    """A chain's state, corpus and prior that the guard accepts."""
    spec = ModelSpec(4, 3, 2)
    corpus = corpus_from_lists([[0, 1, 2], [3], [], [1, 1]], spec)
    return gibbs.gibbs_init(corpus, spec, seed=0), corpus, make_prior("1", spec)


def _replaced(name, value):
    """:func:`_valid_inputs` with ``name`` replaced by ``value(old)``."""
    state, corpus, h = _valid_inputs()
    if name in ("alpha", "beta", "gamma", "eta"):
        h = dataclasses.replace(h, **{name: value(getattr(h, name))})
    else:
        owner = state.counts if name.startswith("n_") else state
        setattr(owner, name, value(getattr(owner, name)))
    return state, corpus, h


def _assert_chain_rejects(state, corpus, hyper, name):
    """``gibbs.chain`` raises ``ValueError`` naming ``name``, with no array
    written and no uniform drawn."""
    before = (state.counts.copy(), state.z_assign.copy(), state.y_flat.copy(),
              state.rng.bit_generator.state)
    with pytest.raises(ValueError, match=name):
        gibbs.chain(state, corpus, hyper)
    for tally in ("n_xy", "n_yz", "n_zz", "n_z1"):
        assert np.array_equal(getattr(state.counts, tally), getattr(before[0], tally))
    assert np.array_equal(state.z_assign, before[1])
    assert np.array_equal(state.y_flat, before[2])
    assert state.rng.bit_generator.state == before[3]


class TestTopicStepGuard(Implementations):
    """The chain guard on the topic step's arrays; the same cases run on the
    Python loop, which runs where no kernel builds."""

    copies = "InPythonLoop"

    @pytest.mark.parametrize("name,value", [
        pytest.param("n_xy", lambda a: a.astype(np.int32), id="n_xy-int32"),
        pytest.param("n_xy", np.asfortranarray, id="n_xy-fortran"),
        pytest.param("n_xy", lambda a: a[:-1].copy(), id="n_xy-shape"),
        pytest.param("n_xy", _read_only, id="n_xy-read-only"),
        pytest.param("n_yz", lambda a: a.astype(np.int32), id="n_yz-int32"),
        pytest.param("n_yz", np.asfortranarray, id="n_yz-fortran"),
        pytest.param("n_yz", _read_only, id="n_yz-read-only"),
        pytest.param("y_flat", lambda a: a.astype(np.int32), id="y_flat-int32"),
        pytest.param("y_flat", lambda a: a[:-1].copy(), id="y_flat-length"),
        pytest.param("y_flat", lambda a: np.repeat(a, 2)[::2], id="y_flat-strided"),
        pytest.param("y_flat", _read_only, id="y_flat-read-only"),
        pytest.param("y_flat", _set(2, 3), id="y_flat-topic-too-large"),
        pytest.param("y_flat", _set(0, -1), id="y_flat-negative"),
        pytest.param("z_assign", _set(3, 2), id="z_assign-too-large"),
        pytest.param("z_assign", _set(0, -1), id="z_assign-negative"),
        pytest.param("z_assign", lambda a: a.astype(np.int32), id="z_assign-int32"),
        pytest.param("alpha", lambda a: a[:-1], id="alpha-length"),
        pytest.param("beta", lambda a: a[:-1], id="beta-length"),
    ])
    def test_rejects_before_any_draw(self, name, value):
        _assert_chain_rejects(*_replaced(name, value), name)


#: A capsule keeps a pointer to its name, so the name must outlive it.
_OTHER_SIGNATURE = b"double (double)"
_new_capsule = ctypes.PYFUNCTYPE(ctypes.py_object, ctypes.c_void_p, ctypes.c_char_p,
                                 ctypes.c_void_p)(("PyCapsule_New", ctypes.pythonapi))


class TestWithoutCompiler:
    def test_train_gs_falls_back_with_the_same_bytes(self, tmp_path, monkeypatch, capsys):
        corpus = tmp_path / "corpus.txt"
        assert main(["generate", "--num-words", "6", "--num-topics", "3", "--num-behaviours", "2",
                     "--docs", "10", "--doc-length", "12", "--seed", "4",
                     "--out-corpus", str(corpus)]) == 0
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))

        def train(out):
            _kernels.load.cache_clear()
            try:
                status = main(["train", "--corpus", str(corpus), "--num-words", "6",
                               "--num-topics", "3", "--num-behaviours", "2", "--algo", "gs",
                               "--burn-in", "15", "--spacing", "3", "--samples", "2",
                               "--seed", "5", "--out", str(out)])
                return status, _kernels.load()
            finally:
                _kernels.load.cache_clear()

        status, _ = train(tmp_path / "compiled.json")
        assert status == 0 and list(scratch.iterdir()) == []
        # The kernels build, but scipy's gammaln capsule is missing or names
        # another signature: the behaviour step runs the Python copy.
        capi = cython_special.__pyx_capi__
        renamed = _new_capsule(_kernels._gammaln_address(capi["gammaln"]), _OTHER_SIGNATURE, None)
        for case, capsule in (("missing", None), ("renamed", renamed)):
            with monkeypatch.context() as m:
                if capsule is None:
                    m.delitem(capi, "gammaln")
                else:
                    m.setitem(capi, "gammaln", capsule)
                assert _kernels._gammaln_address(capi.get("gammaln")) is None
                status, built = train(tmp_path / f"{case}.json")
            assert status == 0 and built is not None
            assert (tmp_path / f"{case}.json").read_bytes() == (
                tmp_path / "compiled.json").read_bytes()
        cc = sysconfig.get_config_var
        monkeypatch.setattr(sysconfig, "get_config_var",
                            lambda name: str(tmp_path / "no-such-cc") if name == "CC" else cc(name))
        status, built = train(tmp_path / "fallback.json")
        assert status == 0 and built is None and list(scratch.iterdir()) == []
        assert (tmp_path / "fallback.json").read_bytes() == (tmp_path / "compiled.json").read_bytes()
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err


#: Uneven documents with empty ones; more than eight topics, so that a
#: column total summed pairwise would differ from the row-by-row sum.
_UNEVEN_DOCS = [[0, 1, 2, 3, 4, 5, 0], [], [3], [5, 5, 4, 1], [], [2, 4, 0, 0, 1, 3, 5, 2],
                [1, 0], [4], [0, 0, 0, 0, 0, 0, 0, 0, 0], [5, 2], []]


def _searched_sums(state, corpus, hyper):
    """The running sums each document's draw searches in the Python copy of
    the behaviour step, run on a copy of ``state``."""
    seen = []

    def recording(cw, target):
        seen.append(list(cw))
        return bisect_right(cw, target)

    copy = gibbs.GibbsState(state.y_flat.copy(), state.z_assign.copy(), state.counts.copy(),
                            state.rng)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(gibbs, "bisect_right", recording)
        _only(_kept_chain(copy, corpus, hyper, compiled=False), 0)
    return seen


def _exponentiated(module, run):
    """The bytes of every argument ``module.exp`` receives while ``run()``
    runs a chain, one after another: each document's shifted log
    conditional."""
    seen = []
    exp = module.exp

    def recording(x, *args, **kwargs):
        seen.extend(np.ravel(x).tolist())
        return exp(x, *args, **kwargs)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(module, "exp", recording)
        run()
    return np.array(seen, dtype=float).tobytes()


class TestBehaviourStep:
    @pytest.mark.parametrize("docs,num_topics,num_behaviours", [
        (_UNEVEN_DOCS, 10, 3),
        (_UNEVEN_DOCS, 3, 1),
        ([[0, 4, 4, 2, 1]], 4, 3),
        ([[]], 4, 3),
        ([[0, 4, 4, 2, 1], [3, 3]], 4, 3),
        ([[], [3, 3, 1]], 4, 2),
    ], ids=["uneven", "Z=1", "T=1", "T=1-empty", "T=2", "T=2-empty"])
    def test_matches_vectorised_reference_bit_for_bit(self, docs, num_topics, num_behaviours):
        # Uneven, non-integer gamma: the self-transition +1 correction and
        # every transition table are exercised.
        spec = ModelSpec(6, num_topics, num_behaviours)
        corpus = corpus_from_lists(docs, spec)
        h = Hyperparams(alpha=np.linspace(0.3, 2.6, num_topics),
                        beta=np.array([0.05, 0.5, 1.5, 0.1, 0.7, 3.0]),
                        gamma=np.array([0.3, 1.7, 2.5])[:num_behaviours],
                        eta=np.array([3.0, 1.0, 0.4])[:num_behaviours])
        new = _audited_chain(corpus, h, seed=21, sweeps=8)
        _assert_same_chain(_reference_chain(corpus, h, seed=21, sweeps=8), new)
        # The conditionals themselves, not only the draws they lead to: the
        # Python copy's math.exp arguments are the reference's np.exp ones.
        # The kernel's libm exp, like math.exp, may differ from np.exp in the
        # last bit, which moves a draw only where a uniform falls within it.
        copy_logs = _exponentiated(math, lambda: _audited_chain(corpus, h, 21, 8, compiled=False))
        assert len(copy_logs) == 8 * len(docs) * num_behaviours * 8
        assert copy_logs == _exponentiated(np, lambda: _reference_chain(corpus, h, 21, 8))


def _uneven_prior(spec):
    """Uneven, non-integer priors of every length ``spec`` needs."""
    return Hyperparams(alpha=np.linspace(0.3, 2.6, spec.num_topics),
                       beta=np.linspace(0.05, 3.0, spec.num_words),
                       gamma=np.linspace(0.3, 2.5, spec.num_behaviours),
                       eta=np.linspace(3.0, 0.4, spec.num_behaviours))


class TestCompiledBehaviourStep:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_chain_cases(topics=(1, 2, 3, 8, 11), max_behaviours=4))
    @example((corpus_from_lists([], ModelSpec(2, 3, 2)), _uneven_prior(ModelSpec(2, 3, 2)), 0))
    @example((corpus_from_lists([[1, 1, 0]], ModelSpec(2, 3, 3)),
              _uneven_prior(ModelSpec(2, 3, 3)), 1))
    @example((corpus_from_lists([[], [0, 1]], ModelSpec(2, 3, 3)),
              _uneven_prior(ModelSpec(2, 3, 3)), 2))
    @example((corpus_from_lists(_UNEVEN_DOCS, ModelSpec(6, 3, 1)),
              _uneven_prior(ModelSpec(6, 3, 1)), 3))
    @example((corpus_from_lists(_UNEVEN_DOCS, ModelSpec(6, 11, 3)),
              _uneven_prior(ModelSpec(6, 11, 3)), 4))
    def test_kernel_python_copy_and_reference_agree(self, kernel, case):
        # Empty documents, 0, 1 and 2 documents, one behaviour and more than
        # eight topics, where a column total summed pairwise would differ.
        corpus, h, seed = case
        compiled, copy = (_audited_chain(corpus, h, seed, 4, on_kernels)
                          for on_kernels in (True, False))
        reference = _reference_chain(corpus, h, seed, sweeps=4)
        for other in (copy, reference):
            assert np.array_equal(compiled.z_assign, other.z_assign)
            assert np.array_equal(compiled.y_flat, other.y_flat)
            for name in ("n_xy", "n_yz", "n_zz", "n_z1"):
                a, b = getattr(compiled.counts, name), getattr(other.counts, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert compiled.rng.random() == copy.rng.random() == reference.rng.random()

    def test_draws_on_exact_boundaries_agree(self, kernel):
        # A random state, random uniforms, and document t's uniform put so
        # that u * s is exactly the running sum cw[j] its draw searches:
        # bisect_right draws behaviour j + 1.  A weight that differs in its
        # last bit between kernel and copy, or another comparison, moves
        # such draws, which random uniforms almost never hit.
        rng = np.random.default_rng(3)
        boundaries = 0
        for _ in range(100):
            spec = ModelSpec(4, int(rng.choice([1, 3, 9])), int(rng.choice([2, 3, 5])))
            docs = [rng.integers(0, 4, size=rng.integers(0, 6)) for _ in range(rng.integers(1, 6))]
            corpus = corpus_from_lists(docs, spec)
            h = Hyperparams(alpha=rng.uniform(0.05, 5.0, spec.num_topics), beta=np.ones(4),
                            gamma=rng.uniform(0.05, 5.0, spec.num_behaviours),
                            eta=rng.uniform(0.05, 5.0, spec.num_behaviours))
            start = gibbs.gibbs_init(corpus, spec, int(rng.integers(2**32)))
            t, uniforms = int(rng.integers(len(docs))), rng.random(len(docs))
            start.rng = _FixedUniforms(uniforms)
            cw = _searched_sums(start, corpus, h)[t]
            for j in range(spec.num_behaviours - 1):
                u = next((u for u in (cw[j] / cw[-1], np.nextafter(cw[j] / cw[-1], 0),
                                      np.nextafter(cw[j] / cw[-1], 1)) if u * cw[-1] == cw[j]), None)
                if u is None:
                    continue
                boundaries += 1
                uniforms[t] = u
                drawn = bisect_right(cw, cw[j])
                assert drawn > j
                compiled, copy = (
                    gibbs.GibbsState(start.y_flat.copy(), start.z_assign.copy(),
                                     start.counts.copy(), _FixedUniforms(uniforms.copy()))
                    for _ in range(2))
                _only(_kept_chain(compiled, corpus, h), 0)
                _only(_kept_chain(copy, corpus, h, compiled=False), 0)
                assert compiled.z_assign[t] == copy.z_assign[t] == drawn, j
                assert np.array_equal(compiled.z_assign, copy.z_assign)
                for name in ("n_yz", "n_zz", "n_z1"):
                    assert np.array_equal(getattr(compiled.counts, name),
                                          getattr(copy.counts, name)), name
        assert boundaries > 150


class TestBehaviourStepGuard(Implementations):
    """The chain guard on the behaviour step's arrays; the same cases run on
    the Python copy, which runs where no kernel builds."""

    copies = "InPythonLoop"

    @pytest.mark.parametrize("name,value", [
        pytest.param("z_assign", lambda a: a.astype(np.int32), id="z_assign-int32"),
        pytest.param("z_assign", lambda a: a[:-1].copy(), id="z_assign-length"),
        pytest.param("z_assign", lambda a: np.repeat(a, 2)[::2], id="z_assign-strided"),
        pytest.param("z_assign", _read_only, id="z_assign-read-only"),
        pytest.param("z_assign", _set(3, 2), id="z_assign-too-large"),
        pytest.param("z_assign", _set(0, -1), id="z_assign-negative"),
        pytest.param("n_yz", lambda a: a.astype(np.int32), id="n_yz-int32"),
        pytest.param("n_yz", np.asfortranarray, id="n_yz-fortran"),
        pytest.param("n_yz", lambda a: a[:-1].copy(), id="n_yz-shape"),
        pytest.param("n_yz", _read_only, id="n_yz-read-only"),
        pytest.param("n_zz", lambda a: a.astype(np.int32), id="n_zz-int32"),
        pytest.param("n_zz", np.asfortranarray, id="n_zz-fortran"),
        pytest.param("n_zz", lambda a: a[:, :1].copy(), id="n_zz-shape"),
        pytest.param("n_zz", _read_only, id="n_zz-read-only"),
        pytest.param("n_zz", lambda a: a + 1, id="n_zz-miscounted"),
        pytest.param("n_z1", lambda a: a.astype(np.int32), id="n_z1-int32"),
        pytest.param("n_z1", lambda a: np.repeat(a, 2)[::2], id="n_z1-strided"),
        pytest.param("n_z1", _read_only, id="n_z1-read-only"),
        pytest.param("n_z1", lambda a: a + 1, id="n_z1-miscounted"),
        pytest.param("y_flat", lambda a: a.astype(np.int32), id="y_flat-int32"),
        pytest.param("y_flat", lambda a: a[:-1].copy(), id="y_flat-length"),
        pytest.param("y_flat", _set(2, 3), id="y_flat-topic-too-large"),
        pytest.param("y_flat", _set(0, -1), id="y_flat-negative"),
        pytest.param("alpha", lambda a: a[:-1], id="alpha-length"),
        pytest.param("gamma", lambda a: a[:-1], id="gamma-length"),
        pytest.param("eta", lambda a: np.append(a, 1.0), id="eta-length"),
    ])
    def test_rejects_before_any_draw(self, name, value):
        _assert_chain_rejects(*_replaced(name, value), name)


class TestChainAfterOutsideChange(Implementations):
    """A chain owns its state's arrays.  A state changed other than by a
    sweep needs a new chain, whose guard checks it again."""

    @pytest.mark.parametrize("name,index,by", [("n_zz", (0, 0), 1), ("n_z1", 0, 1),
                                               ("z_assign", -1, 2), ("y_flat", 0, 3)],
                             ids=["n_zz-miscounted", "n_z1-miscounted", "z_assign-too-large",
                                  "y_flat-topic-too-large"])
    def test_next_chain_rejects_before_any_draw(self, name, index, by):
        # A kept chain's state with one entry changed in place, outside it.
        state, corpus, h = _valid_inputs()
        kept = gibbs.chain(state, corpus, h)
        for _ in range(3):
            _audited_sweep(kept, corpus)
        getattr(state.counts if name.startswith("n_") else state, name)[index] += by
        _assert_chain_rejects(state, corpus, h, name)

    def test_next_chain_takes_new_arrays(self):
        # Tallies replaced by equal copies: the new chain writes the copies
        # and keeps its own column sums; the old arrays stay as they were.
        state, corpus, h = _valid_inputs()
        kept = gibbs.chain(state, corpus, h)
        _audited_sweep(kept, corpus)
        old = state.counts
        state.counts = old.copy()
        frozen = old.copy()
        renewed = gibbs.chain(state, corpus, h)
        for _ in range(4):
            _audited_sweep(renewed, corpus)
        for tally in ("n_xy", "n_yz", "n_zz", "n_z1"):
            assert np.array_equal(getattr(old, tally), getattr(frozen, tally))
        # One chain over the same five sweeps gives the same state.
        again = gibbs.gibbs_init(corpus, corpus.spec, seed=0)
        one = gibbs.chain(again, corpus, h)
        for _ in range(5):
            gibbs.gibbs_sweep(one)
        _assert_same_chain(again, state)


@st.composite
def _tiny_chains(draw):
    """A random tiny corpus (empty documents allowed), prior and seed."""
    spec = ModelSpec(draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    docs = draw(st.lists(st.lists(st.integers(0, spec.num_words - 1), max_size=5),
                         min_size=1, max_size=6))
    prior = make_prior(draw(st.sampled_from(["1", "H", "H+1"])), spec)
    return corpus_from_lists(docs, spec), prior, draw(st.integers(0, 2**32 - 1))


class TestSweepProperties:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_tiny_chains())
    @example((corpus_from_lists([[]], ModelSpec(1, 1, 1)), make_prior("1", ModelSpec(1, 1, 1)), 0))
    @example((corpus_from_lists([[0, 0], [], [0]], ModelSpec(1, 1, 1)),
              make_prior("H", ModelSpec(1, 1, 1)), 5))
    @example((corpus_from_lists([[2, 0, 1]], ModelSpec(3, 2, 3)),
              make_prior("H+1", ModelSpec(3, 2, 3)), 8))
    @example((corpus_from_lists([[1], [0, 0, 2, 2]], ModelSpec(3, 3, 2)),
              make_prior("H", ModelSpec(3, 3, 2)), 9))
    def test_mass_conserved_and_equal_to_reference(self, chain):
        corpus, h, seed = chain
        state = _audited_chain(corpus, h, seed, sweeps=3)
        c = state.counts
        assert c.n_xy.sum() == corpus.num_tokens and c.n_yz.sum() == corpus.num_tokens
        assert c.n_zz.sum() == len(corpus) - 1 and c.n_z1.sum() == 1
        _assert_same_chain(_reference_chain(corpus, h, seed, sweeps=3), state)


class TestPointEstimate:
    def test_hand_arithmetic(self):
        spec = ModelSpec(2, 1, 1)
        corpus = corpus_from_lists([[0, 0, 1]], spec)
        c = gibbs.tally(np.array([0, 0, 0]), np.array([0]), corpus)
        p = gibbs.point_estimate(c, make_prior("1", spec))
        assert np.allclose(p.phi[:, 0], [3 / 5, 2 / 5])
        assert np.allclose(p.pi, [1.0])

    def test_valid_distributions(self):
        spec = ModelSpec(4, 2, 2)
        ds = generate.generate(spec, make_prior("1", spec), 6, [4] * 6, seed=1)
        state = gibbs.gibbs_init(ds.corpus, spec, seed=0)
        p = gibbs.point_estimate(state.counts, make_prior("H", spec))
        assert validate_params(p, spec) == []


class TestStationaryDistribution:
    def _empirical(self, corpus, spec, hyper, seed, burn, keep):
        state = gibbs.gibbs_init(corpus, spec, seed)
        kept = gibbs.chain(state, corpus, hyper)
        for _ in range(burn):
            gibbs.gibbs_sweep(kept)
        freq = {}
        for _ in range(keep):
            gibbs.gibbs_sweep(kept)
            key = (tuple(int(v) for v in state.z_assign),
                   tuple(state.y_flat.tolist()))
            freq[key] = freq.get(key, 0) + 1
        return {k: v / keep for k, v in freq.items()}

    def test_matches_enumerated_posterior_flat_prior(self):
        # Tiny instance: the chain's long-run state frequencies must match
        # the exactly enumerated collapsed posterior in total variation.
        spec = ModelSpec(2, 2, 2)
        corpus = corpus_from_lists([[0], [1, 0]], spec)
        h = make_prior("1", spec)
        exact = enum_collapsed_posterior(corpus, h)
        emp = self._empirical(corpus, spec, h, seed=11, burn=500, keep=40_000)
        tv = 0.5 * sum(abs(emp.get(k, 0.0) - p) for k, p in exact.items())
        tv += 0.5 * sum(v for k, v in emp.items() if k not in exact)
        assert tv < 0.02

    def test_matches_enumerated_posterior_uneven_prior(self):
        # Asymmetric hyperparameters exercise every prior term in the
        # conditionals, including the initial-behaviour factor.
        spec = ModelSpec(2, 2, 2)
        corpus = corpus_from_lists([[1], [0]], spec)
        h = Hyperparams(alpha=np.array([2.0, 0.7]), beta=np.array([0.5, 1.5]),
                        gamma=np.array([1.2, 0.8]), eta=np.array([3.0, 1.0]))
        exact = enum_collapsed_posterior(corpus, h)
        emp = self._empirical(corpus, spec, h, seed=3, burn=500, keep=40_000)
        tv = 0.5 * sum(abs(emp.get(k, 0.0) - p) for k, p in exact.items())
        tv += 0.5 * sum(v for k, v in emp.items() if k not in exact)
        assert tv < 0.02

    def test_three_document_chain_marginals(self):
        # Longer chain: compare the marginal distribution of the behaviour
        # path only, which keeps the enumeration cheap.
        spec = ModelSpec(2, 1, 2)
        corpus = corpus_from_lists([[0], [1], [0]], spec)
        h = make_prior("1", spec)
        exact = enum_collapsed_posterior(corpus, h)
        z_exact = {}
        for (zs, _), p in exact.items():
            z_exact[zs] = z_exact.get(zs, 0.0) + p
        state = gibbs.gibbs_init(corpus, spec, seed=5)
        kept = gibbs.chain(state, corpus, h)
        for _ in range(500):
            gibbs.gibbs_sweep(kept)
        freq = {}
        keep = 40_000
        for _ in range(keep):
            gibbs.gibbs_sweep(kept)
            key = tuple(int(v) for v in state.z_assign)
            freq[key] = freq.get(key, 0) + 1
        tv = 0.5 * sum(abs(freq.get(k, 0) / keep - p) for k, p in z_exact.items())
        assert tv < 0.02


class TestGsFit:
    def test_sample_count_and_shapes(self):
        spec = ModelSpec(3, 2, 2)
        ds = generate.generate(spec, make_prior("1", spec), 6, [3] * 6, seed=0)
        h = make_prior("1", spec)
        samples, pooled = gibbs.gs_fit(ds.corpus, h, spec, seed=0,
                                       burn_in=20, num_samples=3, spacing=5)
        assert len(samples) == 3
        assert validate_params(pooled, spec) == []
        # The pooled estimate averages the samples' point estimates.
        per_sample = [gibbs.point_estimate(c, h) for c in samples]
        assert np.allclose(pooled.phi, np.mean([p.phi for p in per_sample], axis=0))
        for c in samples:
            assert c.n_xy.sum() == ds.corpus.num_tokens

    def test_deterministic(self):
        spec = ModelSpec(3, 2, 2)
        ds = generate.generate(spec, make_prior("1", spec), 5, [3] * 5, seed=4)
        h = make_prior("1", spec)
        _, a = gibbs.gs_fit(ds.corpus, h, spec, seed=2, burn_in=10,
                            num_samples=2, spacing=3)
        _, b = gibbs.gs_fit(ds.corpus, h, spec, seed=2, burn_in=10,
                            num_samples=2, spacing=3)
        assert np.array_equal(a.phi, b.phi)
