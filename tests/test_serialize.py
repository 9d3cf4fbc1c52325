import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovtopics import ModelSpec, corpus_from_lists, make_prior, random_init
from markovtopics import generate, serialize, vb
from markovtopics.anomaly import ScoredDocument
from markovtopics.gibbs import gibbs_init
from markovtopics.ingest import DIRECTIONS
from markovtopics.model import DataError, zero_counts

from _oracles import read_corpus_per_token


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
    "posterior-shape": (("posterior", "beta_t"), {"shape": [3, 2], "data": [1.0] * 6}),
    "posterior-nan": (("posterior", "gamma_t", "data"), [_NAN, 1.0, 1.0, 1.0]),
    "posterior-zero": (("posterior", "eta_t", "data"), [0.0, 1.0]),
    "samples-shape": (("samples", 0, "n_zz"), {"shape": [4], "data": [0, 0, 0, 0]}),
    "samples-nan": (("samples", 0, "n_z1", "data"), [_NAN, 1.0]),
    "samples-negative": (("samples", 0, "n_z1", "data"), [-1.0, 2.0]),
}


class TestModelFiles:
    def test_round_trip_em(self, tmp_path, spec):
        h = make_prior("H", spec)
        p = random_init(spec, h, 0)
        path = tmp_path / "m.json"
        serialize.save_model(path, spec, h, p, algorithm="em",
                             metadata={"seed": 0})
        loaded = serialize.load_model(path)
        assert loaded.algorithm == "em"
        assert loaded.spec == spec
        assert np.allclose(loaded.params.phi, p.phi)
        assert np.allclose(loaded.hyper.beta, h.beta)
        assert loaded.metadata == {"seed": 0}
        assert loaded.posterior is None and loaded.count_samples is None

    def test_round_trip_vb_posterior(self, tmp_path, spec):
        h = make_prior("1", spec)
        post = vb.vb_m_step(zero_counts(spec), h)
        p = vb.point_estimates(post)
        path = tmp_path / "m.json"
        serialize.save_model(path, spec, h, p, algorithm="vb", posterior=post)
        loaded = serialize.load_model(path)
        assert np.allclose(loaded.posterior.beta_t, post.beta_t)
        assert np.allclose(loaded.posterior.eta_t, post.eta_t)

    def test_round_trip_gs_samples(self, tmp_path, spec):
        h = make_prior("1", spec)
        ds = generate.generate(spec, h, 5, [3] * 5, seed=0)
        state = gibbs_init(ds.corpus, spec, seed=1)
        from markovtopics.gibbs import point_estimate
        p = point_estimate(state.counts, h)
        path = tmp_path / "m.json"
        serialize.save_model(path, spec, h, p, algorithm="gs",
                             samples=[state.counts, state.counts])
        loaded = serialize.load_model(path)
        assert len(loaded.count_samples) == 2
        assert np.allclose(loaded.count_samples[0].n_xy, state.counts.n_xy)
        derived = loaded.sample_params()
        assert len(derived) == 2
        assert np.allclose(derived[0].phi, p.phi)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"format_version": 99}')
        with pytest.raises(DataError):
            serialize.load_model(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        with pytest.raises(DataError):
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
        assert len(back) == 3
        for a, b in zip(corpus.documents, back.documents):
            assert np.array_equal(a.words, b.words)
            assert a.timestamp == b.timestamp

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

    def test_empty_corpus_written_as_empty_file(self, tmp_path, spec):
        path = tmp_path / "c.txt"
        serialize.write_corpus(path, corpus_from_lists([], spec))
        assert path.read_text() == ""
        with pytest.raises(DataError, match="holds no documents"):
            serialize.read_corpus(path, spec)


_SPEC = ModelSpec(12, 1, 1)
#: Corpus-file text: ids in and out of the vocabulary, signs, underscores,
#: non-digits, ids beyond int64 and blank lines.
_TOKENS = st.one_of(st.integers(0, 11).map(str), st.integers(-3, 30).map(str),
                    st.sampled_from(["+3", "0_1", "007", "x", "1.0", str(2**63),
                                     str(-2**63), "99999999999999999999"]))
_LINES = st.lists(st.lists(_TOKENS, max_size=5).map(" ".join), max_size=5)


class TestCorpusFileProperties:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.lists(st.integers(0, _SPEC.num_words - 1), min_size=1, max_size=8),
                    min_size=1, max_size=8))
    def test_write_then_read_gives_the_corpus_back(self, tmp_path_factory, docs):
        path = tmp_path_factory.mktemp("corpus") / "c.txt"
        corpus = corpus_from_lists(docs, _SPEC)
        serialize.write_corpus(path, corpus)
        back = serialize.read_corpus(path, _SPEC)
        assert [d.words.tolist() for d in back.documents] == docs
        assert [d.timestamp for d in back.documents] == list(range(1, len(docs) + 1))
        assert np.array_equal(back.tokens, corpus.tokens)
        assert np.array_equal(back.offsets, corpus.offsets)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_LINES, st.booleans())
    def test_read_matches_per_token_reference(self, tmp_path_factory, lines, final_newline):
        path = tmp_path_factory.mktemp("corpus") / "c.txt"
        path.write_text("\n".join(lines) + ("\n" if final_newline else ""))
        try:
            expected = read_corpus_per_token(path, _SPEC)
        except DataError as exc:
            with pytest.raises(DataError) as err:
                serialize.read_corpus(path, _SPEC)
            assert str(err.value) == str(exc)
            return
        back = serialize.read_corpus(path, _SPEC)
        assert len(back) == len(expected)
        for a, b in zip(back.documents, expected.documents):
            assert np.array_equal(a.words, b.words) and a.timestamp == b.timestamp


class TestGroundTruthFiles:
    def test_round_trip(self, tmp_path, spec):
        ds = generate.generate(spec, make_prior("1", spec), 4, [2, 3, 1, 2],
                               seed=5)
        path = tmp_path / "gt.json"
        serialize.write_ground_truth(path, ds)
        back = serialize.read_ground_truth(path)
        assert np.allclose(back["true_params"].xi, ds.true_params.xi)
        assert np.array_equal(back["true_behaviours"], ds.true_behaviours)
        for a, b in zip(back["true_topics"], ds.true_topics):
            assert np.array_equal(a, b)


class TestScoreFiles:
    def test_round_trip_with_localisation(self, tmp_path):
        scored = [
            ScoredDocument(index=1, length=25, log_lik=-30.0, score=-33.2),
            ScoredDocument(index=2, length=5, log_lik=-4.0, score=None,
                           evaluated=False),
        ]
        loc = {1: [[0, 3, 2, "up"]]}
        path = tmp_path / "s.jsonl"
        serialize.write_scores(path, scored, localisations=loc)
        back = serialize.read_scores(path)
        assert back[0]["score"] == -33.2
        assert back[0]["localisation"] == [[0, 3, 2, "up"]]
        assert back[1]["evaluated"] is False and back[1]["score"] is None

    def test_blank_line_rejected(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"index": 1}\n\n')
        with pytest.raises(DataError):
            serialize.read_scores(path)


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


class TestEventFiles:
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

    def test_whitespace_around_fields_accepted(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("frame,cell_x,cell_y,dir\n 7 ,+1, 2,  down \n")
        assert serialize.read_events(path).tolist() == [[7], [1], [2], [2]]

    @pytest.mark.parametrize("body,message", [
        ("0,1,2,up\n0,1\n", "line 3 of .*: expected 4 comma-separated fields"),
        ("0,1,2,up\n0,1,2,up,\n", "line 3 of .*: expected 4 comma-separated fields"),
        ("0,1,2,up\n\n0,1,2,up\n", "line 3 of .*: expected 4 comma-separated fields"),
        ("0,1,2,up\n0,x,2,up\n", "line 3 of .*: field is not a 64-bit integer"),
        ("0,1,2,up\n0,1,2.0,up\n", "line 3 of .*: field is not a 64-bit integer"),
        ("0,1,2,up\n99999999999999999999,0,0,up\n", "line 3 of .*: field is not a 64-bit"),
        ("0,1,2,Up\n", "line 2 of .*: unknown direction 'Up'"),
        # The first bad line in file order is named, whatever its fault.
        ("0,1,2,north\n0,x,2,up\n0,1\n", "line 2 of .*: unknown direction 'north'"),
        ("0,1,2,up\n0,x,2,up\n0,1\n", "line 3 of .*: field is not a 64-bit integer"),
        # Within a line, integer fields are checked before the direction.
        ("0,x,2,north\n", "line 2 of .*: field is not a 64-bit integer"),
    ], ids=["short-line", "long-line", "blank-line", "non-integer", "decimal", "overflow",
            "direction-case", "first-direction", "first-non-integer", "integers-first"])
    def test_error_names_first_bad_line(self, tmp_path, body, message):
        path = tmp_path / "e.csv"
        path.write_text("frame,cell_x,cell_y,dir\n" + body)
        with pytest.raises(DataError, match=message):
            serialize.read_events(path)
