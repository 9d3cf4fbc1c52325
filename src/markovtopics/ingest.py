"""Building visual words and documents from pre-extracted motion-grid events.

Input is a stream of (frame, cell_x, cell_y, direction) events; decoding
video and computing motion is out of scope.  Image coordinates are used:
y grows downward, so "up" is negative dy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Corpus, DataError, Document, ModelSpec

DIRECTIONS = ("up", "left", "down", "right")
_DIR_INDEX = {d: i for i, d in enumerate(DIRECTIONS)}


@dataclass(frozen=True)
class FrameLayout:
    """Frame geometry: pixel size and the cell grid derived from it.

    Trailing partial cells (when the frame is not divisible by the cell
    size) are dropped.
    """

    frame_w: int
    frame_h: int
    cell: int = 8
    num_directions: int = 4

    @property
    def cols(self) -> int:
        return self.frame_w // self.cell

    @property
    def rows(self) -> int:
        return self.frame_h // self.cell

    @property
    def vocabulary_size(self) -> int:
        return self.cols * self.rows * self.num_directions


@dataclass(frozen=True)
class MotionEvent:
    """One moving cell in one frame with its quantised direction."""

    frame: int
    cell_x: int
    cell_y: int
    direction: str


def quantise_direction(dx: float, dy: float) -> str:
    """Nearest of the four axis directions by angle.

    Exact diagonals break toward the horizontal axis.  Zero motion is
    rejected: no motion means no word.
    """
    if dx == 0 and dy == 0:
        raise ValueError("zero motion vector has no direction")
    if abs(dx) >= abs(dy):
        return "right" if dx > 0 else "left"
    return "down" if dy > 0 else "up"


def word_id(layout: FrameLayout, cell_x: int, cell_y: int, direction: str) -> int:
    """Bijective encoding of (cell position, direction) onto [0, |vocab|)."""
    if not (0 <= cell_x < layout.cols and 0 <= cell_y < layout.rows):
        raise ValueError(f"cell ({cell_x}, {cell_y}) outside {layout.cols}x{layout.rows} grid")
    return (cell_y * layout.cols + cell_x) * layout.num_directions + _DIR_INDEX[direction]


def decode_word(layout: FrameLayout, word: int) -> tuple[int, int, str]:
    """Inverse of :func:`word_id`."""
    if not (0 <= word < layout.vocabulary_size):
        raise ValueError(f"word id {word} outside vocabulary of {layout.vocabulary_size}")
    direction = DIRECTIONS[word % layout.num_directions]
    cell = word // layout.num_directions
    return cell % layout.cols, cell // layout.cols, direction


def build_corpus(events: list[MotionEvent], layout: FrameLayout, fps: float,
                 clip_seconds: float = 1.0, min_words: int = 20,
                 ) -> tuple[Corpus, dict[int, int]]:
    """Group frame-ordered events into fixed-length clip documents.

    Windows without events and documents shorter than ``min_words`` are
    dropped; the returned map sends each kept document's 1-based timestamp
    to its original window index so ground-truth labels stay aligned.
    """
    window = math.ceil(fps * clip_seconds)
    if window < 1:
        raise ValueError("fps * clip_seconds must be at least one frame")
    last_frame = None
    buckets: dict[int, list[int]] = {}
    for ev in events:
        if last_frame is not None and ev.frame < last_frame:
            raise DataError(f"events out of frame order at frame {ev.frame}")
        last_frame = ev.frame
        try:
            word = word_id(layout, ev.cell_x, ev.cell_y, ev.direction)
        except ValueError as exc:
            raise DataError(f"event at frame {ev.frame}: {exc}") from exc
        buckets.setdefault(ev.frame // window, []).append(word)

    spec = ModelSpec(num_words=layout.vocabulary_size, num_topics=1, num_behaviours=1)
    docs = []
    index_map = {}
    # Events are in frame order, so the windows that hold any come in order.
    for w, words in buckets.items():
        if len(words) < min_words:
            continue
        timestamp = len(docs) + 1
        docs.append(Document(words=np.asarray(words, dtype=np.int64), timestamp=timestamp))
        index_map[timestamp] = w
    return Corpus(documents=docs, spec=spec), index_map
