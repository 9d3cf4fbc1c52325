import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovtopics.ingest import (
    DIRECTIONS,
    FrameLayout,
    build_corpus,
    decode_word,
    quantise_direction,
    word_id,
)
from markovtopics.model import DataError

from _oracles import build_corpus_per_event


def events_from(rows):
    """Event columns, as ``serialize.read_events`` returns them, from
    (frame, cell_x, cell_y, direction) rows."""
    return np.array([(f, x, y, DIRECTIONS.index(d)) for f, x, y, d in rows],
                    dtype=np.int64).reshape(-1, 4).T


class TestQuantiseDirection:
    def test_axis_vectors(self):
        assert quantise_direction(1.0, 0.0) == "right"
        assert quantise_direction(-1.0, 0.0) == "left"
        assert quantise_direction(0.0, 1.0) == "down"   # image y grows down
        assert quantise_direction(0.0, -1.0) == "up"

    def test_diagonal_breaks_horizontal(self):
        assert quantise_direction(1.0, 1.0) == "right"
        assert quantise_direction(-1.0, 1.0) == "left"
        assert quantise_direction(-1.0, -1.0) == "left"

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            quantise_direction(0.0, 0.0)

    def test_matches_angle_oracle(self, rng):
        # Oracle: nearest axis unit vector by dot product, preferring the
        # horizontal axis on ties.
        axes = {"right": (1, 0), "left": (-1, 0), "down": (0, 1), "up": (0, -1)}
        for _ in range(500):
            dx, dy = rng.normal(size=2)
            norm = math.hypot(dx, dy)
            best = max(axes.items(),
                       key=lambda kv: ((kv[1][0] * dx + kv[1][1] * dy) / norm,
                                       kv[1][1] == 0))
            assert quantise_direction(dx, dy) == best[0]


class TestLayout:
    def test_reference_geometry(self):
        # 360 x 288 frame with 8-pixel cells: 45 x 36 grid, 4 directions.
        layout = FrameLayout(frame_w=360, frame_h=288)
        assert layout.cols == 45 and layout.rows == 36
        assert layout.vocabulary_size == 45 * 36 * 4 == 6480

    def test_partial_cells_dropped(self):
        layout = FrameLayout(frame_w=20, frame_h=17, cell=8)
        assert layout.cols == 2 and layout.rows == 2


class TestWordIds:
    def test_round_trip_bijection(self):
        layout = FrameLayout(frame_w=24, frame_h=16)
        seen = set()
        for cy in range(layout.rows):
            for cx in range(layout.cols):
                for d in DIRECTIONS:
                    w = word_id(layout, cx, cy, d)
                    assert decode_word(layout, w) == (cx, cy, d)
                    seen.add(w)
        assert seen == set(range(layout.vocabulary_size))

    def test_hand_value(self):
        layout = FrameLayout(frame_w=360, frame_h=288)
        # Cell (3, 2), "down" (index 2): ((2*45)+3)*4 + 2 = 374.
        assert word_id(layout, 3, 2, "down") == 374

    def test_out_of_grid_rejected(self):
        layout = FrameLayout(frame_w=16, frame_h=16)
        with pytest.raises(ValueError):
            word_id(layout, 2, 0, "up")
        with pytest.raises(ValueError):
            decode_word(layout, layout.vocabulary_size)


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
        # Window 1 has only 19 words and is dropped; timestamps stay
        # contiguous while the map records the gap.
        assert [d.timestamp for d in corpus.documents] == [1, 2]
        assert index_map == {1: 0, 2: 2}
        assert [len(d) for d in corpus.documents] == [20, 25]

    def test_out_of_order_frames_rejected(self):
        layout = FrameLayout(frame_w=16, frame_h=16)
        events = events_from([(5, 0, 0, "up"), (4, 0, 0, "up")])
        with pytest.raises(DataError):
            build_corpus(events, layout, fps=25.0)

    def test_words_encode_position_and_direction(self):
        layout = FrameLayout(frame_w=16, frame_h=16)
        events = events_from([(0, 1, 1, "left")] * 20)
        corpus, _ = build_corpus(events, layout, fps=25.0)
        w = int(corpus.documents[0].words[0])
        assert decode_word(layout, w) == (1, 1, "left")
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
        assert [d.words.tolist() for d in corpus.documents] == \
            [d.words.tolist() for d in expected.documents]
        assert [d.timestamp for d in corpus.documents] == list(range(1, len(corpus) + 1))

    def test_window_beyond_int64_range(self):
        # Every non-negative frame falls in window 0, every negative one in -1.
        layout = FrameLayout(frame_w=16, frame_h=16)
        events = events_from([(-5, 0, 0, "up"), (0, 1, 0, "up"), (2**62, 0, 1, "down")])
        corpus, index_map = build_corpus(events, layout, fps=1e300, min_words=1)
        expected, expected_map = build_corpus_per_event(events, layout, 1e300, min_words=1)
        assert index_map == expected_map == {1: -1, 2: 0}
        assert [d.words.tolist() for d in corpus.documents] == \
            [d.words.tolist() for d in expected.documents]
