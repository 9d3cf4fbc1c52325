import json
import re
import tempfile
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from markovtopics import ModelSpec, corpus_from_lists, make_prior, random_init
from markovtopics import generate, serialize, vb
from markovtopics.gibbs import gibbs_init
from markovtopics.ingest import DIRECTIONS
from markovtopics.model import DataError, ModelParams, NumericalError

from _oracles import read_corpus_per_token, read_events_per_line, score_record, zero_counts
from conftest import Implementations, without_kernels


@pytest.fixture
def spec():
    return ModelSpec(4, 2, 2)


_NAN = float("nan")
#: Corruptions of a saved (4, 2, 2) model: the path to a value and its
#: replacement (None deletes it).
_CORRUPTIONS = {
    "params-negative": (("params", "pi", "data"), [-0.5, 1.5]),
    "params-nan": (("params", "phi", "data"), [_NAN] * 8),
    "params-shape": (("params", "theta"), {"shape": [2, 1], "data": [0.5, 0.5]}),
    "params-missing": (("params", "xi"), None),
    "hyperparams-list": (("hyperparams",), []),
    "hyperparams-length": (("hyperparams", "beta"), [1.0, 1.0, 1.0]),
    "posterior-shape": (("posterior", "beta_t"), {"shape": [3, 2], "data": [1.0] * 6}),
    "posterior-nan": (("posterior", "gamma_t", "data"), [_NAN, 1.0, 1.0, 1.0]),
    "posterior-zero": (("posterior", "eta_t", "data"), [0.0, 1.0]),
    "samples-empty": (("samples",), []),
    "samples-shape": (("samples", 0, "n_zz"), {"shape": [4], "data": [0, 0, 0, 0]}),
    "samples-nan": (("samples", 0, "n_z1", "data"), [_NAN, 1.0]),
    "samples-negative": (("samples", 0, "n_z1", "data"), [-1.0, 2.0]),
    "samples-fractional": (("samples", 0, "n_z1", "data"), [0.5, 0.5]),
}

#: A version-1 EM model written by the stdlib encoder: the probe corpus
#: ``0 1 0 1 / 1 0 1 0 / 0 0 1 1 / 2 3 2 3`` fitted under ``--prior H``, whose
#: final objective it spells ``Infinity``.
_V1_FIXTURE = Path(__file__).parent / "data" / "model_v1_em_prior_h.json"


def _reject_constant(token):
    raise ValueError(f"non-finite number {token}")


def _strict_json(text):
    """Parse JSON, refusing NaN and infinities."""
    return json.loads(text, parse_constant=_reject_constant)


class TestModelFiles:
    def test_round_trip_em(self, tmp_path, spec):
        h = make_prior("H", spec)
        p = random_init(spec, h, 0)
        path = tmp_path / "m.json"
        metadata = {"seed": 0, "final_objective": -12.345678901234567, "converged": True}
        serialize.save_model(path, spec, h, p, algorithm="em", metadata=metadata)
        loaded = serialize.load_model(path)
        assert loaded.algorithm == "em"
        assert loaded.spec == spec
        for name in ("phi", "theta", "xi", "pi"):
            assert np.array_equal(getattr(loaded.params, name), getattr(p, name))
        for name in ("alpha", "beta", "gamma", "eta"):
            assert np.array_equal(getattr(loaded.hyper, name), getattr(h, name))
        assert loaded.metadata == metadata
        assert loaded.posterior is None and loaded.count_samples is None

    def test_round_trip_vb_posterior(self, tmp_path, spec):
        h = make_prior("1", spec)
        post = vb.vb_m_step(zero_counts(spec), h)
        p = vb.point_estimates(post)
        path = tmp_path / "m.json"
        serialize.save_model(path, spec, h, p, algorithm="vb", posterior=post,
                             metadata={"iterations": 3})
        loaded = serialize.load_model(path)
        for name in ("beta_t", "alpha_t", "eta_t", "gamma_t"):
            assert np.array_equal(getattr(loaded.posterior, name), getattr(post, name))
        assert np.array_equal(loaded.params.phi, p.phi)
        assert loaded.metadata == {"iterations": 3}

    def test_round_trip_gs_samples(self, tmp_path, spec):
        h = make_prior("1", spec)
        ds = generate.generate(spec, h, 5, [3] * 5, seed=0)
        state = gibbs_init(ds.corpus, spec, seed=1)
        from markovtopics.gibbs import point_estimate
        p = point_estimate(state.counts, h)
        path = tmp_path / "m.json"
        serialize.save_model(path, spec, h, p, algorithm="gs",
                             samples=[state.counts, state.counts], metadata={"seed_used": 1})
        loaded = serialize.load_model(path)
        assert len(loaded.count_samples) == 2
        for name in ("n_xy", "n_yz", "n_zz", "n_z1"):
            back = getattr(loaded.count_samples[0], name)
            assert back.dtype == np.int64
            assert np.array_equal(back, getattr(state.counts, name))
        assert loaded.metadata == {"seed_used": 1}
        derived = [point_estimate(c, loaded.hyper) for c in loaded.count_samples]
        assert len(derived) == 2
        assert np.array_equal(derived[0].phi, p.phi)
        # Counts load as integers, so a re-save writes the same bytes.
        again = tmp_path / "again.json"
        serialize.save_model(again, loaded.spec, loaded.hyper, loaded.params, algorithm="gs",
                             samples=loaded.count_samples, metadata=loaded.metadata)
        assert again.read_bytes() == path.read_bytes()

    def test_v1_file_with_infinity_loads_to_identical_arrays(self):
        doc = json.loads(_V1_FIXTURE.read_text())
        loaded = serialize.load_model(_V1_FIXTURE)
        for name in ("phi", "theta", "xi", "pi"):
            stored = np.reshape(doc["params"][name]["data"], doc["params"][name]["shape"])
            assert np.array_equal(getattr(loaded.params, name), stored)
        for name in ("alpha", "beta", "gamma", "eta"):
            assert np.array_equal(getattr(loaded.hyper, name), doc["hyperparams"][name])
        assert loaded.metadata == doc["metadata"]
        assert loaded.metadata["final_objective"] == float("inf")

    def test_bool_dimension_rejected(self, tmp_path):
        # True == 1, so with 1-topic matrices only the type tells it apart.
        doc = json.loads(_V1_FIXTURE.read_text())
        doc["spec"]["num_topics"] = True
        doc["hyperparams"]["alpha"] = [8.0]
        doc["params"]["phi"] = {"shape": [4, 1], "data": [0.25] * 4}
        doc["params"]["theta"] = {"shape": [1, 2], "data": [1.0, 1.0]}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="num_topics must be a positive integer"):
            serialize.load_model(path)

    def test_output_is_compact_strict_json(self, tmp_path, spec):
        h = make_prior("H", spec)
        path = tmp_path / "m.json"
        serialize.save_model(path, spec, h, random_init(spec, h, 0), algorithm="em",
                             metadata={"final_objective": float("inf"), "small": 1e-6})
        text = path.read_text()
        assert ", " not in text and ": " not in text and "1e-6" in text
        assert _strict_json(text)["metadata"] == {"final_objective": None, "small": 1e-6}

    @pytest.mark.parametrize("section", ["params", "posterior", "samples"])
    def test_non_finite_matrix_is_numerical_error_and_nothing_written(self, tmp_path, spec,
                                                                      section):
        h = make_prior("1", spec)
        post = vb.vb_m_step(zero_counts(spec), h)
        p = vb.point_estimates(post)
        counts = zero_counts(spec)
        if section == "params":
            p = ModelParams(phi=p.phi, theta=p.theta, xi=p.xi, pi=np.array([np.nan, 1.0]))
        elif section == "posterior":
            post.gamma_t[0, 0] = np.inf
        else:
            counts.n_xy[0, 0] = np.nan
        path = tmp_path / "m.json"
        with pytest.raises(NumericalError, match="non-finite"):
            serialize.save_model(path, spec, h, p, algorithm="vb", posterior=post,
                                 samples=[counts])
        assert not path.exists()

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"format_version": 99}')
        with pytest.raises(DataError):
            serialize.load_model(path)

    @pytest.mark.parametrize("key,value", [("orientation", "row-conditional"),
                                           ("algorithm", "nonsense")])
    def test_unknown_orientation_or_algorithm_rejected(self, tmp_path, key, value):
        doc = json.loads(_V1_FIXTURE.read_text())
        doc[key] = value
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=repr(value)):
            serialize.load_model(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        with pytest.raises(DataError):
            serialize.load_model(path)

    @pytest.mark.parametrize("text", ["[]", "5", "null", '"model"'])
    def test_non_object_json_rejected(self, tmp_path, text):
        path = tmp_path / "m.json"
        path.write_text(text)
        with pytest.raises(DataError, match="malformed"):
            serialize.load_model(path)

    @pytest.mark.parametrize("keys,value", list(_CORRUPTIONS.values()),
                             ids=list(_CORRUPTIONS))
    def test_corrupt_model_rejected(self, tmp_path, spec, keys, value):
        h = make_prior("1", spec)
        post = vb.vb_m_step(zero_counts(spec), h)
        ds = generate.generate(spec, h, 5, [3] * 5, seed=0)
        counts = gibbs_init(ds.corpus, spec, seed=1).counts
        path = tmp_path / "m.json"
        serialize.save_model(path, spec, h, vb.point_estimates(post), algorithm="vb",
                             posterior=post, samples=[counts])
        serialize.load_model(path)  # the uncorrupted file loads
        doc = json.loads(path.read_text())
        target = doc
        for key in keys[:-1]:
            target = target[key]
        if value is None:
            del target[keys[-1]]
        else:
            target[keys[-1]] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError):
            serialize.load_model(path)


class TestCorpusFiles:
    def test_round_trip(self, tmp_path, spec):
        corpus = corpus_from_lists([[0, 1, 3], [2], [3, 3]], spec)
        path = tmp_path / "c.txt"
        serialize.write_corpus(path, corpus)
        back = serialize.read_corpus(path, spec)
        assert [w.tolist() for w in back] == [[0, 1, 3], [2], [3, 3]]

    def test_blank_line_rejected(self, tmp_path, spec):
        path = tmp_path / "c.txt"
        path.write_text("0 1\n\n2\n")
        with pytest.raises(DataError):
            serialize.read_corpus(path, spec)

    def test_non_integer_rejected(self, tmp_path, spec):
        path = tmp_path / "c.txt"
        path.write_text("0 x\n")
        with pytest.raises(DataError):
            serialize.read_corpus(path, spec)

    def test_out_of_range_word_rejected(self, tmp_path, spec):
        path = tmp_path / "c.txt"
        path.write_text("0 99\n")
        with pytest.raises(DataError):
            serialize.read_corpus(path, spec)

    def test_empty_document_refused_on_write(self, tmp_path, spec):
        # Its line would be blank, which read_corpus rejects.
        path = tmp_path / "c.txt"
        with pytest.raises(DataError, match="document 2 is empty"):
            serialize.write_corpus(path, corpus_from_lists([[0, 1], [], [2]], spec))
        assert not path.exists()

    @pytest.mark.parametrize("text", ["0 1 3\r\n2\r\n3 3\r\n", "0 1 3\n2\n3 3",
                                      "0\t1 3\n\t2 \n 3  3\n", "000 01 3\n2\n3 0003\n"],
                             ids=["crlf", "no-last-newline", "tabs-and-spaces", "leading-zeros"])
    def test_accepted_spellings(self, tmp_path, spec, text):
        path = tmp_path / "c.txt"
        path.write_bytes(text.encode())
        assert [w.tolist() for w in serialize.read_corpus(path, spec)] == [[0, 1, 3], [2], [3, 3]]

    @pytest.mark.parametrize("text", ["+1", "1_0", "-1", "1.0", "0" * 18 + "1", "\u0663",
                                      "1\r2", "\x0c1", "", " "],
                             ids=["sign", "underscore", "minus", "decimal", "19-digits",
                                  "non-ascii-digit", "lone-cr", "form-feed", "blank", "spaces"])
    def test_error_names_first_bad_line(self, tmp_path, spec, text):
        path = tmp_path / "c.txt"
        path.write_bytes(("0 1\n" + text + "\n3 x\n").encode())
        with pytest.raises(DataError, match="line 2 of .*: expected word ids of 1 to 18 ASCII"):
            serialize.read_corpus(path, spec)

    def test_empty_corpus_refused_on_write(self, tmp_path, spec):
        # Its file would be empty, which read_corpus rejects.
        path = tmp_path / "c.txt"
        with pytest.raises(DataError, match="holds no documents"):
            serialize.write_corpus(path, corpus_from_lists([], spec))
        assert not path.exists()
        path.write_bytes(b"")
        with pytest.raises(DataError, match="holds no documents"):
            serialize.read_corpus(path, spec)


_SPEC = ModelSpec(12, 1, 1)
#: Unusual corpus-file text: ids out of the vocabulary, signs, underscores,
#: non-digits, an Arabic-Indic digit, 18- and 19-digit ids (in and out of
#: the vocabulary and of int64), whitespace that str.split() or text
#: mode treats specially, and blank lines.
_ODD_IDS = st.one_of(st.integers(-3, 30).map(str), st.sampled_from(
    ["+3", "0_1", "007", "x", "1.0", str(2**63), str(-2**63), "99999999999999999999",
     "\u0663", "0" * 17 + "7", "9" * 18, "0" * 18 + "5", "1" + "0" * 18, "9" * 19]))
_ODD_SEPARATORS = st.sampled_from(["  ", "\t", "\x0c", "\u3000"])
_ODD_PADS = st.sampled_from([" ", "   "])
_ODD_BREAKS = st.sampled_from(["\r\n", "\r", "\n\n", "\n \n"])


def _perturbed(draw, slots):
    """Join ``slots``, pairs of a usual text and a strategy for unusual ones;
    in about half the files one or two slots take an unusual draw instead,
    so files fall on both sides of the readers' grammar and close to it."""
    texts = [usual for usual, _ in slots]
    if slots and draw(st.booleans()):
        for k in draw(st.lists(st.integers(0, len(slots) - 1), min_size=1, max_size=2)):
            texts[k] = draw(slots[k][1])
    return "".join(texts)


@st.composite
def _corpus_text(draw):
    """Lines of ids with single spaces between them, each line ended by a
    newline, the last one possibly not, before :func:`_perturbed`."""
    slots, n = [], draw(st.integers(0, 5))
    for k in range(n):
        slots.append(("", _ODD_PADS))
        for i in range(draw(st.integers(1, 5))):
            if i:
                slots.append((" ", _ODD_SEPARATORS))
            slots.append((str(draw(st.integers(0, 11))), _ODD_IDS))
        slots.append(("", _ODD_PADS))
        slots.append(("\n" if k < n - 1 or draw(st.booleans()) else "", _ODD_BREAKS))
    return _perturbed(draw, slots)


class TestCorpusFileProperties(Implementations):
    """On the compiled reader and on its numpy copy."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.differing_executors])
    @given(st.lists(st.lists(st.integers(0, _SPEC.num_words - 1), min_size=1, max_size=8),
                    min_size=1, max_size=8))
    def test_write_then_read_gives_the_corpus_back(self, tmp_path_factory, docs):
        path = tmp_path_factory.mktemp("corpus") / "c.txt"
        corpus = corpus_from_lists(docs, _SPEC)
        serialize.write_corpus(path, corpus)
        back = serialize.read_corpus(path, _SPEC)
        assert [w.tolist() for w in back] == docs
        assert np.array_equal(back.tokens, corpus.tokens)
        assert np.array_equal(back.offsets, corpus.offsets)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.differing_executors])
    @given(_corpus_text())
    def test_read_matches_per_token_reference(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("corpus") / "c.txt"
        path.write_bytes(text.encode("utf-8"))
        try:
            expected = read_corpus_per_token(path, _SPEC)
        except DataError as exc:
            with pytest.raises(DataError) as err:
                serialize.read_corpus(path, _SPEC)
            assert str(err.value) == str(exc)
            return
        back = serialize.read_corpus(path, _SPEC)
        assert np.array_equal(back.tokens, expected.tokens)
        assert np.array_equal(back.offsets, expected.offsets)

    def test_paper_scale_corpus_round_trip(self, tmp_path):
        spec = ModelSpec(6480, 1, 1)
        rng = np.random.default_rng(3)
        corpus = corpus_from_lists([rng.integers(0, 6480, size=n) for n in (200, 1, 37)], spec)
        path = tmp_path / "c.txt"
        serialize.write_corpus(path, corpus)
        back = serialize.read_corpus(path, spec)
        assert np.array_equal(back.tokens, corpus.tokens)
        assert np.array_equal(back.offsets, corpus.offsets)


#: Files at the edges of the corpus grammar, with what both readers give:
#: the documents, a DataError naming a line, or None for no documents.
_CORPUS_EDGES = {
    "empty-file": (b"", None),
    "one-digit-lines": (b"1\n2\n3", [[1], [2], [3]]),  # as many documents as the bound allows
    "lone-newline": (b"\n", 1),
    "whitespace-last-line": (b"1 2\n \t", 2),
    "cr-cr-lf": (b"1\n2\r\r\n", 2),
    "lone-cr": (b"1\r", 1),
    "nul": (b"1\n2 \x003\n", 2),
    "non-ascii-digit": ("4\n5\n\u0663\n".encode(), 3),
    "18-digits": (b"9" * 18 + b" 0" * 17 + b"1", [[10**18 - 1] + [0] * 16 + [1]]),
    "19-digits": (b"1\n" + b"1" + b"0" * 18 + b"\n", 2),
    "tabs": (b"\t3\t\t4 \t\n\t5\t", [[3, 4], [5]]),
    "long-line": (" ".join(map(str, range(10**5))).encode() + b"\r\n7", [list(range(10**5)), [7]]),
    # Past the first 64 kB of lines that the copy matches its grammar over at once.
    "lines-past-first-chunk": (b"1 2\n" * 17500 + b"3\t4", [[1, 2]] * 17500 + [[3, 4]]),
    "bad-line-past-first-chunk": (b"1 2\n" * 17500 + b"3 x\n4\n", 17501),
}


def _read_outcome(path, spec):
    """What ``read_corpus`` gives: tokens and offsets, or its DataError text."""
    try:
        corpus = serialize.read_corpus(path, spec)
    except DataError as exc:
        return str(exc)
    return corpus.tokens.tolist(), corpus.offsets.tolist()


class TestCorpusReaders:
    """The compiled reader and its Python copy."""

    @pytest.mark.parametrize("raw,expected", _CORPUS_EDGES.values(), ids=_CORPUS_EDGES.keys())
    def test_agree_at_the_edges_of_the_grammar(self, tmp_path, kernel, raw, expected):
        path, spec = tmp_path / "c.txt", ModelSpec(10**18, 1, 1)
        path.write_bytes(raw)
        compiled = _read_outcome(path, spec)
        with without_kernels():
            assert _read_outcome(path, spec) == compiled
        if expected is None:
            assert compiled == f"corpus file {path} holds no documents"
        elif isinstance(expected, int):
            assert compiled == (f"line {expected} of {path}: expected word ids of 1 to 18 ASCII "
                                "digits separated by spaces or tabs")
        else:
            corpus = corpus_from_lists(expected, spec)
            assert compiled == (corpus.tokens.tolist(), corpus.offsets.tolist())


#: Vocabularies whose largest id has 1 to 18 digits, at and beside the sizes
#: where a digit is added.
_VOCABULARIES = st.one_of(st.sampled_from([1, 2, 10, 11, 100, 101, 6480, 10**18]),
                          st.integers(1, 10**18))


@st.composite
def _corpora(draw):
    """A vocabulary and 1-6 documents of 1-6 of its word ids."""
    num_words = draw(_VOCABULARIES)
    words = st.integers(0, num_words - 1)
    docs = draw(st.lists(st.lists(words, min_size=1, max_size=6), min_size=1, max_size=6))
    return ModelSpec(num_words, 1, 1), docs


class TestCorpusWriters:
    """The compiled writer and its Python copy, each file read back by the
    compiled reader and by its copy."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_corpora())
    def test_round_trip_on_every_pairing(self, tmp_path_factory, kernel, case):
        spec, docs = case
        corpus = corpus_from_lists(docs, spec)
        text = "".join(" ".join(map(str, d)) + "\n" for d in docs).encode()
        out = tmp_path_factory.mktemp("corpus")
        for writer in (nullcontext, without_kernels):
            path = out / f"{writer.__name__}.txt"
            with writer():
                serialize.write_corpus(path, corpus)
            assert path.read_bytes() == text
            for reader in (nullcontext, without_kernels):
                with reader():
                    back = serialize.read_corpus(path, spec)
                assert np.array_equal(back.tokens, corpus.tokens)
                assert np.array_equal(back.offsets, corpus.offsets)


class TestGroundTruthFiles:
    def test_round_trip(self, tmp_path, spec):
        ds = generate.generate(spec, make_prior("1", spec), 4, [2, 3, 1, 2],
                               seed=5)
        path = tmp_path / "gt.json"
        serialize.write_ground_truth(path, ds)
        back = serialize.from_json(path.read_bytes())
        xi = back["true_params"]["xi"]
        assert np.allclose(np.reshape(xi["data"], xi["shape"]), ds.true_params.xi)
        assert np.array_equal(back["true_behaviours"], ds.true_behaviours)
        for a, b in zip(back["true_topics"], ds.true_topics):
            assert np.array_equal(a, b)


class TestScoreFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "s.jsonl"
        serialize.write_scores(path, np.array([-30.0, -4.0]), np.array([25, 5]), min_words=20)
        back = serialize.read_scores(path)
        assert back[0]["score"] == -30.0 - np.log(25)
        assert back[1]["evaluated"] is False and back[1]["score"] is None
        assert [_strict_json(line) for line in path.read_text().splitlines()] == back

    def test_golden_bytes(self, tmp_path):
        # An impossible document keeps its evaluated flag; 19 words fall
        # short of min_words 20, and 20 reach it.
        path = tmp_path / "s.jsonl"
        serialize.write_scores(path, np.array([-30.0, -np.inf, -19.5, -20.25]),
                               np.array([25, 25, 19, 20]), min_words=20)
        assert path.read_bytes() == (
            b'{"index":1,"length":25,"log_lik":-30.0,"score":-33.2188758248682,"evaluated":true}\n'
            b'{"index":2,"length":25,"log_lik":null,"score":null,"evaluated":true}\n'
            b'{"index":3,"length":19,"log_lik":-19.5,"score":null,"evaluated":false}\n'
            b'{"index":4,"length":20,"log_lik":-20.25,"score":-23.24573227355399,'
            b'"evaluated":true}\n')

    def test_golden_bytes_min_words_zero(self, tmp_path):
        # With min_words 0 every document of at least one word is evaluated;
        # an empty one (log likelihood 0) still has no score.
        path = tmp_path / "s.jsonl"
        serialize.write_scores(path, np.array([-2.5, 0.0, -np.inf, -7.0]),
                               np.array([1, 0, 1, 3]), min_words=0)
        assert path.read_bytes() == (
            b'{"index":1,"length":1,"log_lik":-2.5,"score":-2.5,"evaluated":true}\n'
            b'{"index":2,"length":0,"log_lik":0.0,"score":null,"evaluated":false}\n'
            b'{"index":3,"length":1,"log_lik":null,"score":null,"evaluated":true}\n'
            b'{"index":4,"length":3,"log_lik":-7.0,"score":-8.09861228866811,"evaluated":true}\n')

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.integers(0, 40),
                              st.sampled_from([-np.inf, -0.0, -1e-300, -3.5, -1234.5678])),
                    max_size=8),
           st.integers(0, 25))
    def test_matches_per_record_reference(self, docs, min_words):
        lengths = np.array([n for n, _ in docs], dtype=np.int64)
        log_liks = np.array([ll for _, ll in docs], dtype=float)
        expected = b"".join(serialize.to_json(score_record(t, n, ll, min_words)) + b"\n"
                            for t, (n, ll) in enumerate(docs, start=1)) or b"\n"
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.jsonl"
            serialize.write_scores(path, log_liks, lengths, min_words)
            assert path.read_bytes() == expected

    @pytest.mark.parametrize("min_words", [0, 20])
    def test_many_records_match_per_record_writer(self, tmp_path, min_words):
        # write_scores dumps the whole record list at once and splits it
        # between records: 4000 of them give the bytes of one dumps each.
        rng = np.random.default_rng(min_words)
        lengths = rng.integers(0, 41, 4000)
        log_liks = np.choose(rng.integers(0, 4, 4000), [
            -np.inf, -0.0, -rng.random(4000) * 1e3, -rng.random(4000) * 1e-300])
        path = tmp_path / "s.jsonl"
        serialize.write_scores(path, log_liks, lengths, min_words)
        assert path.read_bytes() == b"".join(
            serialize.to_json(score_record(t, n, ll, min_words)) + b"\n"
            for t, (n, ll) in enumerate(zip(lengths.tolist(), log_liks.tolist()), start=1))

    @pytest.mark.parametrize("log_lik", [np.nan, np.inf])
    def test_non_finite_score_is_numerical_error_and_nothing_written(self, tmp_path, log_lik):
        path = tmp_path / "s.jsonl"
        with pytest.raises(NumericalError, match="document 2"):
            serialize.write_scores(path, np.array([-3.0, log_lik]), np.array([3, 3]), 0)
        assert not path.exists()

    def test_blank_line_rejected(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"index": 1}\n\n')
        with pytest.raises(DataError):
            serialize.read_scores(path)

    @pytest.mark.parametrize("record", [
        "5", "[1]", "null", '{"score": "x"}', '{"score": true}', '{"score": NaN}',
        '{"score": -Infinity}', '{"score": 1e400}', '{"score": ' + "9" * 400 + "}",
        '{"score": [1.0]}', '{"log_lik": NaN, "score": null}'], ids=lambda r: r[:20])
    def test_malformed_record_rejected_with_its_line(self, tmp_path, record):
        path = tmp_path / "s.jsonl"
        path.write_text('{"score": -1.5}\n' + record + "\n")
        with pytest.raises(DataError, match="line 2"):
            serialize.read_scores(path)

    def test_null_missing_and_integer_scores_accepted(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"score": null}\n{"index": 2}\n{"score": -3}\n')
        assert [r.get("score") for r in serialize.read_scores(path)] == [None, None, -3]


class TestLabelFiles:
    def test_read(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("0\n1\n1\n0\n")
        assert serialize.read_labels(path).tolist() == [False, True, True, False]

    def test_bad_token_rejected(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("0\n2\n")
        with pytest.raises(DataError):
            serialize.read_labels(path)


class TestCurveFiles:
    def test_csv_layout(self, tmp_path):
        path = tmp_path / "pr.csv"
        serialize.write_pr_curve(path, np.array([(0.5, 1.0), (1.0, 0.75)]))
        lines = path.read_text().splitlines()
        assert lines[0] == "recall,precision"
        assert lines[1] == "0.5,1.0" and lines[2] == "1.0,0.75"


_EVENT_GRAMMAR = re.escape("expected digits,digits,digits,direction (1 to 18 ASCII digits each; "
                           "up, left, down or right)")


class TestEventFiles(Implementations):
    """On the compiled reader and on its numpy copy."""

    def test_round_trip(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("frame,cell_x,cell_y,dir\n0,1,2,up\n3,0,0,right\n")
        frame, cell_x, cell_y, direction = serialize.read_events(path)
        assert len(frame) == 2
        assert frame[0] == 0 and DIRECTIONS[direction[0]] == "up"
        assert cell_x[1] == 0 and DIRECTIONS[direction[1]] == "right"

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("0,1,2,up\n")
        with pytest.raises(DataError):
            serialize.read_events(path)

    def test_bad_direction_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("frame,cell_x,cell_y,dir\n0,1,2,north\n")
        with pytest.raises(DataError):
            serialize.read_events(path)

    def test_header_only_gives_no_events(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("frame,cell_x,cell_y,dir\n")
        events = serialize.read_events(path)
        assert events.shape == (4, 0) and events.dtype == np.int64

    def test_whitespace_around_fields_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("frame,cell_x,cell_y,dir\n 7 ,+1, 2,  down \n")
        with pytest.raises(DataError, match=f"line 2 of .*: {_EVENT_GRAMMAR}"):
            serialize.read_events(path)

    @pytest.mark.parametrize("text", ["frame,cell_x,cell_y,dir\r\n0,1,2,up\r\n3,0,0,right\r\n",
                                      "frame,cell_x,cell_y,dir\n0,1,2,up\n3,0,0,right",
                                      "frame,cell_x,cell_y,dir\n000,01,2,up\n3,0,00,right\n"],
                             ids=["crlf", "no-last-newline", "leading-zeros"])
    def test_accepted_spellings(self, tmp_path, text):
        path = tmp_path / "e.csv"
        path.write_bytes(text.encode())
        assert serialize.read_events(path).tolist() == [[0, 3], [1, 0], [2, 0], [0, 3]]

    @pytest.mark.parametrize("body,line", [
        ("0,1,2,up\n0,1\n", 3),
        ("0,1,2,up\n0,1,2,up,\n", 3),
        ("0,1,2,up\n\n0,1,2,up\n", 3),
        ("0,1,2,up\n0,x,2,up\n", 3),
        ("0,1,2,up\n0,1,2.0,up\n", 3),
        ("0,1,2,up\n99999999999999999999,0,0,up\n", 3),
        ("0,1,2,Up\n", 2),
        # The first bad line in file order is named, whatever its fault.
        ("0,1,2,north\n0,x,2,up\n0,1\n", 2),
        ("0,1,2,up\n0,x,2,up\n0,1\n", 3),
        ("0,x,2,north\n", 2),
        ("0,1,2,up\n+1,0,0,up\n", 3),
        ("0,1,2,up\n1_0,0,0,up\n", 3),
        ("0,1,2,up\n 7 ,0,0,up\n", 3),
        ("0,1,2,up\n" + "1" * 19 + ",0,0,up\n", 3),
        ("0,1,2,up\n-5,0,0,up\n", 3),
        ("0,1,2,up\n7,0,\t0,up\n", 3),
        ("0,1,2,up\n7,0,0,up\n7,0,0,u\u0440\n", 4),
        ("0,1,2,up\n0,1", 3),
        ("0,1,2,up\r", 2),
        # Past the first 64 kB of lines that the grammar is matched over at once.
        ("0,1,2,up\n" * 69999 + "0,1\n0,1,2,up\n", 70001),
    ], ids=["short-line", "long-line", "blank-line", "non-integer", "decimal", "overflow",
            "direction-case", "first-direction", "first-non-integer", "integers-first",
            "plus-sign", "underscore", "spaced-field", "19-digit-frame", "negative-frame",
            "tab", "non-ascii", "unended-last-line", "lone-cr-last", "past-first-chunk"])
    def test_error_names_first_bad_line(self, tmp_path, body, line):
        path = tmp_path / "e.csv"
        path.write_bytes(("frame,cell_x,cell_y,dir\n" + body).encode())
        with pytest.raises(DataError, match=f"line {line} of .*: {_EVENT_GRAMMAR}"):
            serialize.read_events(path)

    @pytest.mark.parametrize("header", ["Frame,cell_x,cell_y,dir", "frame,cell_x,cell_y,dir ",
                                        "frame,cell_x,cell_y", ""])
    def test_header_must_be_exact(self, tmp_path, header):
        path = tmp_path / "e.csv"
        path.write_text(header + "\n0,1,2,up\n")
        with pytest.raises(DataError, match="line 1 of .*: expected the header"):
            serialize.read_events(path)


#: Unusual event-file text: fields that int() or the direction lookup
#: treats specially (whitespace, signs, underscores, decimals, 19- and
#: 20-digit frames in and beyond int64, an Arabic-Indic digit; unknown and
#: miscased words, some with a direction's first letter and length), bad
#: commas and headers, line breaks that text mode or splitlines() adds,
#: and blank lines.
_ODD_INTEGERS = st.sampled_from([" 7", "7 ", "+3", "-2", "-12", "0_1", "1.0", "x", "x7", "",
                                 "007", "9" * 18, "1" + "0" * 18, "9" * 19, "9" * 20, "\u0663"])
_ODD_DIRECTIONS = st.sampled_from([" up", "left ", "Up", "uP", "lefT", "dowN", "rigHt", "DOWN",
                                   "north", "", "rightt", "u", "lef"])
_ODD_COMMAS = st.sampled_from(["", ",,", ";", ", ", "\n", ",up\n0,"])
_ODD_EVENT_BREAKS = st.sampled_from(["\r\n", "\r", "\x0c", "\n\n"])
_ODD_HEADERS = st.sampled_from(["Frame,Cell_X,cell_y,DIR\n", " frame,cell_x,cell_y,dir \r\n",
                                "frame,cell_x,cell_y,dir", "frame,cell_x,dir\n", ""])


@st.composite
def _event_text(draw):
    """A header, then event lines each ended by a newline, the last one
    possibly not, before :func:`_perturbed`."""
    slots, n = [("frame,cell_x,cell_y,dir\n", _ODD_HEADERS)], draw(st.integers(0, 6))
    for k in range(n):
        for hi in (10**6, 44, 35):
            slots += [(str(draw(st.integers(0, hi))), _ODD_INTEGERS), (",", _ODD_COMMAS)]
        slots.append((draw(st.sampled_from(DIRECTIONS)), _ODD_DIRECTIONS))
        slots.append(("\n" if k < n - 1 or draw(st.booleans()) else "", _ODD_EVENT_BREAKS))
    return _perturbed(draw, slots)


class TestEventFileProperties(Implementations):
    """On the compiled reader and on its numpy copy."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.differing_executors])
    @given(_event_text())
    def test_read_matches_per_line_reference(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("events") / "e.csv"
        path.write_bytes(text.encode("utf-8"))
        try:
            expected = read_events_per_line(path)
        except DataError as exc:
            with pytest.raises(DataError) as err:
                serialize.read_events(path)
            assert str(err.value) == str(exc)
            return
        events = serialize.read_events(path)
        assert events.dtype == np.int64 and events.shape == expected.shape
        assert np.array_equal(events, expected)

    def test_paper_scale_events_match_per_line_reference(self, tmp_path):
        # Laid out like a motion-event stream: one clip of 100 events per
        # 25 frames on a 45 x 36 grid.
        rng = np.random.default_rng(5)
        frames = np.repeat(np.arange(0, 1000 * 25, 25), 100)
        lines = [f"{f},{x},{y},{DIRECTIONS[d]}" for f, x, y, d in
                 zip(frames, rng.integers(0, 45, frames.size), rng.integers(0, 36, frames.size),
                     rng.integers(0, 4, frames.size))]
        path = tmp_path / "e.csv"
        path.write_bytes(("frame,cell_x,cell_y,dir\n" + "\n".join(lines) + "\n").encode())
        expected = read_events_per_line(path)
        assert expected.shape == (4, frames.size)
        assert np.array_equal(serialize.read_events(path), expected)
