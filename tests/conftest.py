import math
import os
import re
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import markovtopics
from markovtopics import ModelParams, ModelSpec, corpus_from_lists, make_prior, random_init
from markovtopics import _kernels


def random_instance(rng, max_dim=3, max_docs=4, max_len=3):
    """A random tiny model + corpus pair for oracle comparisons."""
    spec = ModelSpec(
        num_words=int(rng.integers(1, max_dim + 1)),
        num_topics=int(rng.integers(1, max_dim + 1)),
        num_behaviours=int(rng.integers(1, max_dim + 1)),
    )
    hyper = make_prior("1", spec)
    params = random_init(spec, hyper, int(rng.integers(0, 2**31)))
    T = int(rng.integers(1, max_docs + 1))
    docs = [rng.integers(0, spec.num_words, size=int(rng.integers(1, max_len + 1)))
            for _ in range(T)]
    corpus = corpus_from_lists(docs, spec)
    return spec, params, corpus


def block_underflow_instance(reverse=False):
    """phi = [[.9, .1], [.1, .9]], theta = xi = I, pi = (.5, .5) and a stream
    whose forward messages a one-step recursion carries but a product of
    documents 2 and 3 cannot: it is diag(1, 9^-420), and 9^-420 underflows.
    Behaviour 1 is ~1e-114 after document 3 and ~1e171 times behaviour 0
    after document 6.  Reversed, the same holds of the backward messages."""
    spec = ModelSpec(2, 2, 2)
    params = ModelParams(phi=np.array([[0.9, 0.1], [0.1, 0.9]]), theta=np.eye(2),
                         xi=np.eye(2), pi=np.array([0.5, 0.5]))
    docs = [[1] * 300, [0, 1], [0] * 210, [0] * 210, [1] * 100, [1] * 100, [1] * 100]
    return params, corpus_from_lists(docs[::-1] if reverse else docs, spec)


def revival_instance():
    """phi = [[.9, .1], [.1, .9]], theta = xi = I, pi = (.5, .5) and the
    documents [1] * 400, [0] * 500.  Document 1 leaves behaviour 0 at 9^-400
    ~ e^-879 of behaviour 1, below what a float carries beside it, and
    document 2 revives it: the filtered posterior after it is (1, 3.8e-96)."""
    spec = ModelSpec(2, 2, 2)
    params = ModelParams(phi=np.array([[0.9, 0.1], [0.1, 0.9]]), theta=np.eye(2),
                         xi=np.eye(2), pi=np.array([0.5, 0.5]))
    return params, corpus_from_lists([[1] * 400, [0] * 500], spec)


def steep_instance(off=0.0):
    """phi = [[.9, .1], [.1, .9]], theta = I, xi off-diagonal ``off``,
    pi = (.5, .5) and the documents [1] * 200, [0] * 350, [1] * 300.  Document
    2 favours behaviour 0 by 9^350 ~ e^769, so behaviour 1's emission,
    shifted by behaviour 0's, underflows; but behaviour 1 started it at
    e^439 to 1, so it is e^-330 of behaviour 0 after it, and document 3 makes
    it the likelier: the filtered posterior is (7.3e-144, 1)."""
    spec = ModelSpec(2, 2, 2)
    params = ModelParams(phi=np.array([[0.9, 0.1], [0.1, 0.9]]), theta=np.eye(2),
                         xi=(1.0 - off) * np.eye(2) + off * (1.0 - np.eye(2)),
                         pi=np.array([0.5, 0.5]))
    return params, corpus_from_lists([[1] * 200, [0] * 350, [1] * 300], spec)


def gradual_instance():
    """The parameters of :func:`steep_instance` with xi = I and the documents
    [1] * 400, then four [0] * 137.  No document's emissions span more than
    e^879, but document 1 leaves behaviour 0 at e^-879 of behaviour 1, below
    what a float carries beside it; each later document gives it back e^301,
    so the filtered posterior is (1, 5.9e-142)."""
    params, _ = steep_instance()
    return params, corpus_from_lists([[1] * 400] + [[0] * 137] * 4, params.spec)


@st.composite
def steep_streams(draw):
    """The two behaviours of :func:`swinging_streams` at odds 4-20, xi the
    identity or off by 1e-300 or 1e-200, and 2-8 documents, each a run of one
    word worth a uniform draw of up to e^1100 of evidence, at least one of
    them more than e^745: its emissions span more than a shifted ``exp``
    carries.  Runs and words come from a seeded numpy generator."""
    odds = draw(st.floats(4.0, 20.0))
    off = draw(st.sampled_from([0.0, 1e-300, 1e-200]))
    params = ModelParams(phi=np.array([[odds, 1.0], [1.0, odds]]) / (odds + 1.0),
                         theta=np.eye(2), xi=(1.0 - off) * np.eye(2) + off * (1.0 - np.eye(2)),
                         pi=np.array([0.5, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    evidence = rng.uniform(0.0, 1100.0, rng.integers(2, 9))
    evidence[rng.integers(len(evidence))] = rng.uniform(746.0, 1100.0)
    docs = [[int(w)] * max(1, math.ceil(e / math.log(odds)))
            for w, e in zip(rng.integers(0, 2, len(evidence)), evidence)]
    return params, corpus_from_lists(docs, ModelSpec(2, 2, 2))


@st.composite
def swinging_streams(draw):
    """Two behaviours that favour one of two words each by the same odds,
    4-20, xi the identity or off by 1e-30 or 1e-3, and 1-32 documents, each
    a run of one word worth a uniform draw of up to e^650 of evidence.  A run
    goes back towards even odds whenever it would take the evidence beyond
    e^650, so a one-step recursion carries every message (floats reach
    ~e^709), while two runs that push the same way can span e^1300.  The
    runs come from a seeded numpy generator, whose uniform draws reach such
    pairs more often than hypothesis's own floats."""
    odds = draw(st.floats(4.0, 20.0))
    off = draw(st.sampled_from([0.0, 1e-30, 1e-3]))
    params = ModelParams(phi=np.array([[odds, 1.0], [1.0, odds]]) / (odds + 1.0),
                         theta=np.eye(2), xi=(1.0 - off) * np.eye(2) + off * (1.0 - np.eye(2)),
                         pi=np.array([0.5, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    evidence, docs = 0.0, []
    for step in rng.uniform(-650.0, 650.0, rng.integers(1, 33)):
        if abs(evidence + step) > 650.0:
            step = -math.copysign(abs(step), evidence)
        evidence += step
        docs.append([int(step < 0)] * max(1, round(abs(step) / math.log(odds))))
    return params, corpus_from_lists(docs, ModelSpec(2, 2, 2))


def with_zeros(m, keep):
    """Column-stochastic ``m`` with the entries outside ``keep`` zeroed; a
    column left empty is kept whole."""
    out = np.where(keep, m, 0.0)
    empty = ~out.any(axis=0)
    out[..., empty] = m[..., empty]
    return out / out.sum(axis=0)


class Implementations:
    """Base of test classes whose every test runs twice: under the class's
    own name on the compiled kernels, skipped where they do not build, and
    under its name with ``copies`` appended on their Python copies.
    :func:`pytest_pycollect_makeitem` collects the second run from a subclass
    it makes, so a hypothesis test here runs on instances of two classes and
    suppresses hypothesis's ``differing_executors`` health check; it is
    derandomized and keeps no example database, so nothing is replayed from
    one run in the other."""

    copies = "InPython"
    on_copies = False

    @pytest.fixture(autouse=True, scope="class")
    def _implementation(self, request):
        if request.cls.on_copies:
            with without_kernels():
                yield
        else:
            request.getfixturevalue("kernel")
            yield


def pytest_pycollect_makeitem(collector, name, obj):
    """An :class:`Implementations` class, collected as itself and as the
    subclass, set beside it, that runs its tests on the Python copies."""
    if isinstance(obj, type) and issubclass(obj, Implementations) \
            and collector.istestclass(obj, name):
        twin = type(name + obj.copies, (obj,), {"on_copies": True, "__module__": obj.__module__})
        setattr(collector.obj, twin.__name__, twin)
        return [pytest.Class.from_parent(collector, name=n) for n in (name, twin.__name__)]


@contextmanager
def without_kernels():
    """The Python copies in place of the compiled kernels, as where no
    compiler or loader works: ``_kernels.load`` gives None."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernels, "load", lambda: None)
        yield


def c_parameters(function):
    """The parameter names of ``function`` in ``_kernels.c``, in order,
    whatever its return type; a function pointer ``double (*f)(double,
    int)`` is named ``f``."""
    source = Path(_kernels.__file__).with_name("_kernels.c").read_text()
    params = re.search(rf"\w+ {function}\((.*?)\)\s*{{", source, re.S).group(1)
    params = re.sub(r"\(\*(\w+)\)\([^)]*\)", r"\1", params)
    return [re.search(r"(\w+)\s*$", p).group(1) for p in params.split(",")]


@pytest.fixture(autouse=True, scope="session")
def _kernel_cache(tmp_path_factory):
    """The kernels built into a cache in a temporary directory, by this
    process and by every process a test starts, never into the user's."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        _kernels.load.cache_clear()
        yield
    _kernels.load.cache_clear()


def run_python(args, **env):
    """Python on ``args`` in a subprocess with this source tree first on its
    path and ``env`` added to the environment."""
    src = str(Path(markovtopics.__file__).parents[1])
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, **env, "PYTHONPATH": path}, timeout=120)


@pytest.fixture
def compiler_runs(monkeypatch):
    """A list that gets one entry for each compiler run that builds the
    kernels in this process from now on."""
    run, runs = subprocess.run, []

    def counted(args, **kwargs):
        runs.extend(["-o"] if "-o" in args else [])
        return run(args, **kwargs)

    monkeypatch.setattr(subprocess, "run", counted)
    return runs


@pytest.fixture(scope="module")
def kernel():
    """The compiled kernels; skips a test that needs them where they do not build."""
    lib = _kernels.load()
    if lib is None:
        pytest.skip("no C compiler builds the compiled kernels on this host")
    return lib


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
