import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovtopics.ingest import DIRECTIONS, FrameLayout, build_corpus, decode_words, word_ids
from markovtopics.model import Corpus, DataError, ModelSpec

from _oracles import build_corpus_per_event


def events_from(rows):
    """Event columns, as ``serialize.read_events`` returns them, from
    (frame, cell_x, cell_y, direction) rows."""
    return np.array([(f, x, y, DIRECTIONS.index(d)) for f, x, y, d in rows],
                    dtype=np.int64).reshape(-1, 4).T


class TestLayout:
    def test_reference_geometry(self):
        # 360 x 288 frame with 8-pixel cells: 45 x 36 grid, 4 directions.
        layout = FrameLayout(frame_w=360, frame_h=288)
        assert layout.cols == 45 and layout.rows == 36
        assert layout.vocabulary_size == 45 * 36 * 4 == 6480

    def test_partial_cells_dropped(self):
        layout = FrameLayout(frame_w=20, frame_h=17, cell=8)
        assert layout.cols == 2 and layout.rows == 2

    def test_direction_count_is_not_a_parameter(self):
        # The event grammar knows the four DIRECTIONS only; a layout with any
        # other count would size a vocabulary decode_words cannot read.
        with pytest.raises(TypeError):
            FrameLayout(frame_w=16, frame_h=16, num_directions=8)
        assert FrameLayout(frame_w=16, frame_h=16).vocabulary_size == 2 * 2 * len(DIRECTIONS)


class TestWordIds:
    def test_round_trip_bijection(self):
        layout = FrameLayout(frame_w=24, frame_h=16)
        cy, cx, d = np.meshgrid(np.arange(layout.rows), np.arange(layout.cols),
                                np.arange(len(DIRECTIONS)), indexing="ij")
        words = word_ids(layout, cx.ravel(), cy.ravel(), d.ravel())
        assert sorted(words.tolist()) == list(range(layout.vocabulary_size))
        back = decode_words(layout, words)
        assert [a.tolist() for a in back] == [cx.ravel().tolist(), cy.ravel().tolist(),
                                              d.ravel().tolist()]

    def test_hand_value(self):
        layout = FrameLayout(frame_w=360, frame_h=288)
        # Cell (3, 2), "down" (index 2): ((2*45)+3)*4 + 2 = 374.
        down = DIRECTIONS.index("down")
        assert word_ids(layout, np.array([3]), np.array([2]), np.array([down])).tolist() == [374]
        assert [a.tolist() for a in decode_words(layout, np.array([374]))] == [[3], [2], [down]]

    def test_out_of_grid_rejected(self):
        # The array codec does not range-check: an off-grid event is refused
        # when the corpus is built, and a word id beyond the vocabulary when
        # a corpus holds it.
        layout = FrameLayout(frame_w=16, frame_h=16)
        with pytest.raises(DataError, match="outside 2x2 grid"):
            build_corpus(events_from([(0, 2, 0, "up")]), layout, fps=25.0, min_words=1)
        with pytest.raises(DataError, match="outside"):
            Corpus(np.array([layout.vocabulary_size]), np.array([0, 1]),
                   ModelSpec(layout.vocabulary_size, 1, 1))


class TestBuildCorpus:
    def _events(self, frames, layout):
        return events_from((f, 0, 0, "up") for f in frames)

    def test_window_size_ceil(self):
        layout = FrameLayout(frame_w=16, frame_h=16)
        # fps 25, 1 s clips -> 25-frame windows; frame 25 starts window 1.
        events = self._events([0] * 20 + [25] * 20, layout)
        corpus, index_map = build_corpus(events, layout, fps=25.0, min_words=1)
        assert len(corpus) == 2
        assert index_map == {1: 0, 2: 1}

    def test_fractional_fps_rounds_up(self):
        layout = FrameLayout(frame_w=16, frame_h=16)
        # fps 12.5 -> ceil(12.5) = 13-frame windows.
        events = self._events([12, 13], layout)
        corpus, _ = build_corpus(events, layout, fps=12.5, min_words=1)
        assert len(corpus) == 2

    def test_short_documents_dropped_with_index_gap(self):
        layout = FrameLayout(frame_w=16, frame_h=16)
        events = self._events([0] * 20 + [30] * 19 + [60] * 25, layout)
        corpus, index_map = build_corpus(events, layout, fps=25.0)
        # Window 1 has only 19 words and is dropped; the documents stay
        # contiguous while the map records the gap.
        assert index_map == {1: 0, 2: 2}
        assert [len(words) for words in corpus] == [20, 25]

    def test_out_of_order_frames_rejected(self):
        layout = FrameLayout(frame_w=16, frame_h=16)
        events = events_from([(5, 0, 0, "up"), (4, 0, 0, "up")])
        with pytest.raises(DataError):
            build_corpus(events, layout, fps=25.0)

    def test_words_encode_position_and_direction(self):
        layout = FrameLayout(frame_w=16, frame_h=16)
        events = events_from([(0, 1, 1, "left")] * 20)
        corpus, _ = build_corpus(events, layout, fps=25.0)
        x, y, d = decode_words(layout, corpus[0][:1])
        assert (x[0], y[0], DIRECTIONS[d[0]]) == (1, 1, "left")
        assert corpus.spec.num_words == layout.vocabulary_size

    def test_empty_event_stream(self):
        layout = FrameLayout(frame_w=16, frame_h=16)
        corpus, index_map = build_corpus(events_from([]), layout, fps=25.0)
        assert len(corpus) == 0 and index_map == {}


@st.composite
def _event_streams(draw):
    """A small grid and a frame-ordered event stream with gaps (empty
    windows) and runs of any length, sometimes with one out-of-order or
    off-grid event."""
    cols, rows = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n = draw(st.integers(0, 60))
    steps = draw(st.lists(st.sampled_from([0, 0, 0, 1, 2, 5, 13]), min_size=n, max_size=n))
    frame = draw(st.integers(-20, 20)) + np.cumsum(steps, dtype=np.int64)
    cx = np.array(draw(st.lists(st.integers(0, cols - 1), min_size=n, max_size=n)), dtype=np.int64)
    cy = np.array(draw(st.lists(st.integers(0, rows - 1), min_size=n, max_size=n)), dtype=np.int64)
    d = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=np.int64)
    fault = draw(st.sampled_from([None, None, "order", "cell_x", "cell_y"]))
    if fault and n > 1:
        k = draw(st.integers(1, n - 1))
        if fault == "order":
            frame[k:] -= draw(st.integers(1, 3)) + frame[k] - frame[k - 1]
        else:
            grid = cx if fault == "cell_x" else cy
            grid[k] = draw(st.sampled_from([-1, cols if fault == "cell_x" else rows]))
    return FrameLayout(frame_w=8 * cols, frame_h=8 * rows), np.array([frame, cx, cy, d])


class TestMatchesPerEventReference:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_event_streams(), st.sampled_from([1.0, 2.5, 4.0, 12.5, 29.97]),
           st.sampled_from([0.25, 1.0, 1.5]), st.integers(0, 6))
    def test_same_corpus_and_index_map(self, stream, fps, clip_seconds, min_words):
        layout, events = stream
        try:
            expected, expected_map = build_corpus_per_event(events, layout, fps,
                                                            clip_seconds, min_words)
        except DataError as exc:
            with pytest.raises(DataError) as err:
                build_corpus(events, layout, fps, clip_seconds, min_words)
            assert str(err.value) == str(exc)
            return
        corpus, index_map = build_corpus(events, layout, fps, clip_seconds, min_words)
        assert index_map == expected_map
        assert corpus.spec == expected.spec
        assert np.array_equal(corpus.tokens, expected.tokens)
        assert np.array_equal(corpus.offsets, expected.offsets)

    def test_window_beyond_int64_range(self):
        # Every non-negative frame falls in window 0, every negative one in -1.
        layout = FrameLayout(frame_w=16, frame_h=16)
        events = events_from([(-5, 0, 0, "up"), (0, 1, 0, "up"), (2**62, 0, 1, "down")])
        corpus, index_map = build_corpus(events, layout, fps=1e300, min_words=1)
        expected, expected_map = build_corpus_per_event(events, layout, 1e300, min_words=1)
        assert index_map == expected_map == {1: -1, 2: 0}
        assert [w.tolist() for w in corpus] == [w.tolist() for w in expected]
