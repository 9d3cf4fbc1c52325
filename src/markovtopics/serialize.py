"""File formats: model files, corpora, ground truth, scores and labels.

JSON goes through :func:`to_json` and :func:`from_json` (orjson): compact,
with shortest round-trip numbers, never ``NaN`` or ``Infinity``.  A
non-finite matrix entry or score raises NumericalError and nothing is
written; a non-finite metadata number (EM's final objective under a prior
exponent below 1, VB's after one iteration) is written as ``null``.  Model files are self-describing:
dimensions, hyperparameters, matrices in row-major order with explicit
shapes, a format-version field and the matrix orientation ("column =
conditioning variable") spelled out; Gibbs count samples are whole numbers.
Corpus files are plain text, one document per line of word ids separated by
spaces or tabs; blank lines are forbidden.  Corpus files are read and
written, and event CSVs read, by kernels of ``_kernels.c`` in one pass over
their bytes, or by the kernels' Python copies here, which take the same
arguments and give the same bytes where the kernels do not build.
"""
from __future__ import annotations

import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import orjson

from . import _kernels
from .ingest import DIRECTIONS
from .model import (
    Corpus,
    DataError,
    Hyperparams,
    ModelParams,
    ModelSpec,
    NumericalError,
    SufficientCounts,
    _columns,
    _from_columns,
    _priors,
    _shapes,
    validate_params,
)
from .vb import PosteriorHyperparams

FORMAT_VERSION = 1
ORIENTATION = "column-conditional"
_PARAMS = ("phi", "theta", "xi", "pi")
_POSTERIOR = ("beta_t", "alpha_t", "eta_t", "gamma_t")
_COUNTS = ("n_xy", "n_yz", "n_zz", "n_z1")


def to_json(obj) -> bytes:
    """Compact JSON; numpy arrays (C-ordered) and scalars become lists and
    numbers, and a non-finite float becomes ``null``."""
    return orjson.dumps(obj, option=orjson.OPT_SERIALIZE_NUMPY)


def from_json(text: str | bytes, constants: bool = False):
    """Parse JSON.  ``NaN``, ``Infinity`` and numbers beyond the float range
    raise ValueError, unless ``constants`` lets them parse as floats."""
    try:
        return orjson.loads(text)
    except orjson.JSONDecodeError:
        if not constants:
            raise
        # orjson refuses the constants.  Version-1 model files written by the
        # stdlib encoder spell a non-finite metadata number Infinity, and a
        # --config value NaN is a usage error naming its flag.
        return json.loads(text)


def _matrices_to_json(obj, names: tuple[str, ...]) -> dict:
    """The named matrices of ``obj`` as shape and row-major data; to_json
    would write a non-finite entry as null, so one raises NumericalError."""
    out = {}
    for name in names:
        mat = np.ascontiguousarray(getattr(obj, name))
        if not np.isfinite(mat).all():
            raise NumericalError(f"{name} holds a non-finite value; it is not written")
        out[name] = {"shape": list(mat.shape), "data": mat.ravel()}
    return out


def _matrices_from_json(obj: dict, names: tuple[str, ...]) -> dict:
    """The named matrices of ``obj`` as float arrays of their stored shapes."""
    return {n: np.asarray(obj[n]["data"], dtype=float).reshape(obj[n]["shape"]) for n in names}


def save_model(path, spec: ModelSpec, hyper: Hyperparams, params: ModelParams,
               algorithm: str, posterior: PosteriorHyperparams | None = None,
               samples: list[SufficientCounts] | None = None,
               metadata: dict | None = None) -> None:
    """Write a model file; the posterior section (VB) or count samples (GS)
    enable Monte Carlo scoring without refitting."""
    doc = {
        "format_version": FORMAT_VERSION,
        "orientation": ORIENTATION,
        "algorithm": algorithm,
        "spec": vars(spec),
        "hyperparams": {name: getattr(hyper, name).tolist()
                        for name in ("alpha", "beta", "gamma", "eta")},
        "params": _matrices_to_json(params, _PARAMS),
        "metadata": metadata or {},  # a non-finite number is written as null
    }
    if posterior is not None:
        doc["posterior"] = _matrices_to_json(posterior, _POSTERIOR)
    if samples is not None:
        doc["samples"] = [_matrices_to_json(c, _COUNTS) for c in samples]
    Path(path).write_bytes(to_json(doc))


def _checked_matrices(cls, obj: dict, spec: ModelSpec):
    """The posterior or a count sample stored in ``obj``, as a ``cls``, its
    arrays checked for their shapes under ``spec`` (:func:`model._shapes`),
    finiteness and sign: a posterior is > 0, counts are whole numbers >= 0
    and load as int64."""
    counts = cls is SufficientCounts
    section = "count sample" if counts else "posterior"
    names = tuple(f.name for f in fields(cls))
    cols = _columns(cls(**_matrices_from_json(obj, names)))
    for name, mat, shape in zip(names, cols, _shapes(spec)):
        if mat.shape != shape:
            raise DataError(f"model {section} {name} has shape {mat.shape}, expected {shape}")
        if not np.all(np.isfinite(mat)) or np.any(mat < 0 if counts else mat <= 0):
            raise DataError(f"model {section} {name} must be finite and "
                            f"{'>= 0' if counts else '> 0'}")
        if counts and np.any((mat != np.floor(mat)) | (mat >= 2.0**63)):
            raise DataError(f"model {section} {name} must hold whole numbers")
    return _from_columns(cls, [mat.astype(np.int64) for mat in cols] if counts else cols)


class LoadedModel:
    """A parsed and validated model file; a corrupt one raises DataError."""

    def __init__(self, doc: dict):
        if doc.get("format_version") != FORMAT_VERSION:
            raise DataError(f"unsupported model format version {doc.get('format_version')!r}")
        if doc["orientation"] != ORIENTATION:
            raise DataError(f"unsupported model orientation {doc['orientation']!r}")
        if doc["algorithm"] not in ("em", "vb", "gs"):
            raise DataError(f"unknown model algorithm {doc['algorithm']!r}")
        self.algorithm = doc["algorithm"]
        self.spec = ModelSpec(**doc["spec"])
        h = doc["hyperparams"]
        self.hyper = Hyperparams(**{k: np.asarray(v, dtype=float) for k, v in h.items()})
        for f, prior, (size, _) in zip(fields(ModelParams), _priors(self.hyper),
                                       _shapes(self.spec)):
            if len(prior) != size:
                raise DataError(f"model prior of {f.name} has {len(prior)} entries, not {size}")
        self.params = ModelParams(**_matrices_from_json(doc["params"], _PARAMS))
        violations = validate_params(self.params, self.spec)
        if violations:
            raise DataError(f"invalid model parameters: {'; '.join(violations[:3])}")
        self.metadata = doc.get("metadata", {})
        self.posterior = None
        if "posterior" in doc:
            self.posterior = _checked_matrices(PosteriorHyperparams, doc["posterior"], self.spec)
        self.count_samples = [_checked_matrices(SufficientCounts, c, self.spec)
                              for c in doc["samples"]] if "samples" in doc else None
        if self.count_samples == []:
            raise DataError("model samples list is empty")


def load_model(path) -> LoadedModel:
    try:
        doc = from_json(Path(path).read_bytes(), constants=True)
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise DataError(f"model file {path} is not valid JSON: {exc}") from exc
    try:
        return LoadedModel(doc)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"model file {path} is malformed: {exc!r}") from exc


def write_corpus(path, corpus: Corpus) -> None:
    """One document per line, its word ids in decimal separated by spaces,
    written by ``format_corpus`` of ``_kernels.c``, or by its copy
    :func:`_corpus_text_in_python` where that does not build.  A corpus with
    no documents, or with an empty one, is a DataError and nothing is
    written: :func:`read_corpus` would refuse its file."""
    lengths = np.diff(corpus.offsets)
    if not lengths.size:
        raise DataError("the corpus holds no documents; a corpus file must hold at least one")
    if not lengths.all():  # its line would be blank
        raise DataError(f"document {np.argmin(lengths) + 1} is empty; a corpus file cannot hold it")
    # Each id has at most the digits of num_words - 1, and a space or a newline.
    out = np.empty(corpus.num_tokens * (len(str(corpus.spec.num_words - 1)) + 1), dtype=np.uint8)
    size = _kernels.bind("format_corpus", _corpus_text_in_python, len(lengths), corpus.offsets,
                         corpus.tokens, out)()
    Path(path).write_bytes(out[:size])


def _corpus_text_in_python(num_docs: int, offsets: np.ndarray, tokens: np.ndarray,
                           out: np.ndarray) -> int:
    """The copy of ``format_corpus`` in ``_kernels.c``: writes the text of the
    ``num_docs`` documents that ``offsets`` cuts ``tokens`` into at the start
    of ``out`` and returns its length in bytes."""
    tokens, bounds = tokens.tolist(), offsets[:num_docs + 1].tolist()
    text = {w: str(w) for w in set(tokens)}  # one str per distinct id
    words = list(map(text.__getitem__, tokens))
    joined = "".join([" ".join(words[a:b]) + "\n" for a, b in zip(bounds, bounds[1:])]).encode()
    out[:len(joined)] = np.frombuffer(joined, dtype=np.uint8)
    return len(joined)


#: Byte to byte table of :func:`_values`: it keeps the ASCII digits, makes the
#: first letter of each direction word (``u l d r``, which no other direction
#: word holds) the digit of its index into :data:`ingest.DIRECTIONS` and every
#: other byte a space.
_FIELDS = np.full(256, 32, dtype=np.uint8)
_FIELDS[48:58] = np.arange(48, 58)
_FIELDS[[ord(d[0]) for d in DIRECTIONS]] = np.arange(48, 48 + len(DIRECTIONS))
#: The grammar of a corpus file and of an event file after its header, each
#: line ended by ``\n``: the readers accept a file that it matches to its end.
_CORPUS_LINES = re.compile(rb"(?:[ \t]*[0-9]{1,18}(?:[ \t]+[0-9]{1,18})*[ \t]*\n)*")
_EVENT_LINES = re.compile(rb"(?:[0-9]{1,18},[0-9]{1,18},[0-9]{1,18},(?:up|left|down|right)\n)*")
#: About how many bytes of whole lines :func:`_first_bad_line` matches at
#: once: ``re`` keeps a few hundred bytes of state for each line a match spans.
_CHUNK = 1 << 16


def _lines_of(raw: bytes) -> bytes:
    """``raw`` with each ``\\r\\n`` made ``\\n`` and its last line, if any,
    ended by ``\\n``: every line ends in ``\\n``."""
    raw = raw.replace(b"\r\n", b"\n")
    return raw + b"\n" if raw and raw[-1] != 10 else raw


def _first_bad_line(lines: re.Pattern, raw: bytes) -> int:
    """The 0-based number of the first line of ``raw`` (:func:`_lines_of`)
    that ``lines`` refuses, or -1 where it accepts every line."""
    start = 0
    while start < len(raw):
        stop = raw.find(b"\n", start + _CHUNK) + 1 or len(raw)
        end = lines.match(raw, start, stop).end()
        if end < stop:
            return raw.count(b"\n", 0, end)
        start = stop
    return -1


def _values(raw: bytes) -> np.ndarray:
    """The numbers of ``raw``, a file its reader's grammar accepts, through
    :data:`_FIELDS`: each run of at most 18 digits is an int64, and
    ``np.fromstring`` sees only digit runs and spaces, so it can neither stop
    early nor clamp."""
    return np.fromstring(raw.translate(_FIELDS), dtype=np.int64, sep=" ")


def _corpus_in_python(raw: bytes, size: int, tokens: np.ndarray, offsets: np.ndarray) -> int:
    """The copy of ``parse_corpus`` in ``_kernels.c``: checks the ``size``
    bytes of ``raw`` by :data:`_CORPUS_LINES`, writes its T documents' tokens
    and T + 1 offsets into the first entries of ``tokens`` and ``offsets`` and
    returns T, or -1 - (the 0-based number of its first bad line), writing
    nothing."""
    raw = _lines_of(raw[:size])
    bad = _first_bad_line(_CORPUS_LINES, raw)
    if bad >= 0:
        return -1 - bad
    buf = np.frombuffer(raw, np.uint8)
    starts = buf - np.uint8(48) < 10
    starts[1:] &= ~starts[:-1]  # the first digit of each word id
    # The word ids before each line's end.
    counts = np.searchsorted(np.flatnonzero(starts), np.flatnonzero(buf == 10))
    values = _values(raw)
    tokens[:len(values)] = values
    offsets[0], offsets[1:len(counts) + 1] = 0, counts
    return len(counts)


def read_corpus(path, spec: ModelSpec) -> Corpus:
    """One document per line: word ids of 1 to 18 ASCII digits, separated by
    spaces or tabs, lines ended by ``\\n`` or ``\\r\\n`` (the last one
    optionally), read in one pass over the file's bytes by ``parse_corpus`` of
    ``_kernels.c``, or by its copy :func:`_corpus_in_python` where that does not
    build.  Any other file is a DataError naming its first bad line."""
    raw = Path(path).read_bytes()
    # Every token and every document but the last takes at least a digit and
    # a separator, so neither count exceeds len(raw) // 2 + 1.  The parser
    # never touches an array's tail, and realloc gives it back in place: both
    # arrays end up their exact size, filled in one pass.
    bound = len(raw) // 2 + 2
    tokens, offsets = np.empty(bound, dtype=np.int64), np.empty(bound, dtype=np.int64)
    t = _kernels.bind("parse_corpus", _corpus_in_python, raw, len(raw), tokens, offsets)()
    if t < 0:
        raise DataError(f"line {-t} of {path}: expected word ids of 1 to 18 ASCII digits "
                        "separated by spaces or tabs")
    if t == 0:
        raise DataError(f"corpus file {path} holds no documents")
    tokens.resize(offsets[t], refcheck=False)
    offsets.resize(t + 1, refcheck=False)
    return Corpus(tokens, offsets, spec)


def write_ground_truth(path, dataset) -> None:
    """Sidecar file with the generator's parameters and hidden assignments."""
    doc = {
        "format_version": FORMAT_VERSION,
        "true_params": _matrices_to_json(dataset.true_params, _PARAMS),
        "true_behaviours": np.ascontiguousarray(dataset.true_behaviours),
        "true_topics": [np.ascontiguousarray(y) for y in dataset.true_topics],
    }
    Path(path).write_bytes(to_json(doc))


def write_scores(path, log_liks: np.ndarray, lengths: np.ndarray, min_words: int) -> None:
    """Line-delimited score records: one JSON object per document, numbered
    from 1, from each document's log likelihood and length.

    A document with at least ``max(min_words, 1)`` words is evaluated, and
    its score is the log of its length-normalised likelihood; a shorter one
    has ``"score": null`` (normal by default).  A document impossible under
    the model (log likelihood -inf) gets ``"log_lik": null`` and ``"score":
    null``; any other non-finite log likelihood raises NumericalError and
    nothing is written.
    """
    log_liks, lengths = np.asarray(log_liks, dtype=float), np.asarray(lengths)
    bad = np.flatnonzero(np.isnan(log_liks) | (log_liks == np.inf))
    if bad.size:
        raise NumericalError(f"document {bad[0] + 1} has a non-finite log likelihood")
    evaluated = lengths >= max(min_words, 1)
    # to_json writes -inf (an impossible document) and NaN (no score) as null.
    scores = np.where(evaluated, log_liks - np.log(np.maximum(lengths, 1)), np.nan)
    records = [{"index": i, "length": n, "log_lik": ll, "score": sc, "evaluated": e}
               for i, (n, ll, sc, e) in enumerate(zip(lengths.tolist(), log_liks.tolist(),
                                                      scores.tolist(), evaluated.tolist()), 1)]
    # One dumps of the list; no record holds a string, so "},{" only ever
    # separates two records.
    Path(path).write_bytes(to_json(records)[1:-1].replace(b"},{", b"}\n{") + b"\n")


def _text_lines(path) -> list[str]:
    """The lines of a UTF-8 file (:func:`_lines_of`), the last newline optional."""
    return _lines_of(Path(path).read_bytes()).decode("utf-8").split("\n")[:-1]


def read_scores(path) -> list[dict]:
    """Score records: each line one JSON object whose ``score`` is null or a
    finite number.  ``NaN`` and ``Infinity`` are refused anywhere."""
    records = []
    for i, line in enumerate(_text_lines(path), start=1):
        if line.strip() == "":
            raise DataError(f"blank line {i} in score file {path}")
        try:
            rec = from_json(line)
        except ValueError as exc:
            raise DataError(f"bad score record on line {i} of {path}: {exc}") from exc
        # A bool is an int but not a score.
        if not isinstance(rec, dict) or type(rec.get("score")) not in (int, float, type(None)):
            raise DataError(f"score record on line {i} of {path} must be a JSON object "
                            "whose score is null or a finite number")
        records.append(rec)
    return records


def read_labels(path) -> np.ndarray:
    """One 0 or 1 per line, optionally between spaces or tabs, as booleans."""
    labels = [line.strip(" \t") for line in _text_lines(path)]
    for i, tok in enumerate(labels, start=1):
        if tok not in ("0", "1"):
            raise DataError(f"label line {i} in {path} must be 0 or 1, got {tok!r}")
    return np.array(labels, dtype=str) == "1"


def write_pr_curve(path, curve: np.ndarray) -> None:
    lines = ["recall,precision"]
    lines += [f"{r},{p}" for r, p in np.asarray(curve)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


_EVENT_HEADER = b"frame,cell_x,cell_y,dir"


def read_events(path) -> np.ndarray:
    """Event CSV with the header row ``frame,cell_x,cell_y,dir``, as a (4, N)
    int64 array: each event's frame, cell_x, cell_y and direction index (into
    :data:`ingest.DIRECTIONS`), in file order.

    Every line after the header is ``digits,digits,digits,direction``: three
    runs of 1 to 18 ASCII digits and one of ``up``, ``left``, ``down``,
    ``right``; lines end in ``\\n`` or ``\\r\\n`` (the last one optionally).
    The lines are read in one pass over their bytes by ``parse_events`` of
    ``_kernels.c``, or by its copy :func:`_events_in_python` where that does
    not build.  Any other file is a DataError naming its first bad line.
    """
    header, newline, raw = Path(path).read_bytes().partition(b"\n")
    if (header.removesuffix(b"\r") if newline else header) != _EVENT_HEADER:
        raise DataError(f"line 1 of {path}: expected the header 'frame,cell_x,cell_y,dir'")
    # A line the parser starts follows lines of at least 9 bytes each
    # ("0,0,0,up\n"), so it starts at most len(raw) // 9 + 1 events.  The
    # entries past the last event are never written.
    events = np.empty((4, len(raw) // 9 + 1), dtype=np.int64)
    n = _kernels.bind("parse_events", _events_in_python, raw, len(raw), *events)()
    if n < 0:
        raise DataError(f"line {1 - n} of {path}: expected digits,digits,digits,direction "
                        "(1 to 18 ASCII digits each; up, left, down or right)")
    return events[:, :n]


def _events_in_python(raw: bytes, size: int, frame: np.ndarray, cell_x: np.ndarray,
                      cell_y: np.ndarray, direction: np.ndarray) -> int:
    """The copy of ``parse_events`` in ``_kernels.c``: checks the ``size``
    bytes of ``raw``, an event file's lines after its header, by
    :data:`_EVENT_LINES`, writes each event's fields into the first entries of
    ``frame``, ``cell_x``, ``cell_y`` and ``direction`` and returns the number
    of events, or -1 - (the 0-based number of its first bad line), writing
    nothing."""
    raw = _lines_of(raw[:size])
    bad = _first_bad_line(_EVENT_LINES, raw)
    if bad >= 0:
        return -1 - bad
    columns = _values(raw).reshape(-1, 4).T
    for out, column in zip((frame, cell_x, cell_y, direction), columns):
        out[:len(column)] = column
    return columns.shape[1]
