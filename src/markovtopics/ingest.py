"""Building visual words and documents from pre-extracted motion-grid events.

Input is a stream of (frame, cell_x, cell_y, direction) events; decoding
video and computing motion is out of scope.  Image coordinates are used:
y grows downward, so "up" is negative dy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Corpus, DataError, ModelSpec

DIRECTIONS = ("up", "left", "down", "right")


@dataclass(frozen=True)
class FrameLayout:
    """Frame geometry: pixel size and the cell grid derived from it.

    Trailing partial cells (when the frame is not divisible by the cell
    size) are dropped.
    """

    frame_w: int
    frame_h: int
    cell: int = 8

    @property
    def cols(self) -> int:
        return self.frame_w // self.cell

    @property
    def rows(self) -> int:
        return self.frame_h // self.cell

    @property
    def vocabulary_size(self) -> int:
        return self.cols * self.rows * len(DIRECTIONS)


def word_ids(layout: FrameLayout, cell_x, cell_y, direction) -> np.ndarray:
    """Bijective encoding of cell positions and direction indices (arrays,
    checked to lie on the grid by the caller) onto [0, |vocab|)."""
    return (cell_y * layout.cols + cell_x) * len(DIRECTIONS) + direction


def decode_words(layout: FrameLayout, words) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of :func:`word_ids`: the cell x, cell y and direction index of
    each word."""
    cell, direction = np.divmod(words, len(DIRECTIONS))
    return cell % layout.cols, cell // layout.cols, direction


def build_corpus(events: np.ndarray, layout: FrameLayout, fps: float,
                 clip_seconds: float = 1.0, min_words: int = 20,
                 ) -> tuple[Corpus, dict[int, int]]:
    """Group frame-ordered events, the (4, N) int64 columns frame, cell_x,
    cell_y and direction index, into fixed-length clip documents.

    Windows without events and documents shorter than ``min_words`` are
    dropped; the returned map sends each kept document's 1-based timestamp
    to its original window index so ground-truth labels stay aligned.
    """
    window = math.ceil(fps * clip_seconds)
    if window < 1:
        raise ValueError("fps * clip_seconds must be at least one frame")
    frame, cx, cy, d = events
    backward = np.zeros(len(frame), dtype=bool)
    backward[1:] = frame[1:] < frame[:-1]
    off_grid = (cx < 0) | (cx >= layout.cols) | (cy < 0) | (cy >= layout.rows)
    bad = np.flatnonzero(backward | off_grid)
    if bad.size:
        k = bad[0]
        if backward[k]:
            raise DataError(f"events out of frame order at frame {frame[k]}")
        raise DataError(f"event at frame {frame[k]}: cell ({cx[k]}, {cy[k]}) outside "
                        f"{layout.cols}x{layout.rows} grid")
    words = word_ids(layout, cx, cy, d)
    # A window past the int64 range holds all frames >= 0 in window 0, the rest in -1.
    win = frame // window if window < 2**63 else frame >> 63
    # Events are in frame order, so each window's events are one run.
    windows, counts = np.unique(win, return_counts=True)
    kept = counts >= min_words
    offsets = np.append(0, np.cumsum(counts[kept]))
    spec = ModelSpec(num_words=layout.vocabulary_size, num_topics=1, num_behaviours=1)
    index_map = dict(enumerate(windows[kept].tolist(), start=1))
    return Corpus(words[np.repeat(kept, counts)], offsets, spec), index_map
