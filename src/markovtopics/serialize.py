"""File formats: model files, corpora, ground truth, scores and labels.

Model files are self-describing JSON: dimensions, hyperparameters, matrices
in row-major order with explicit shapes, a format-version field and the
matrix orientation ("column = conditioning variable") spelled out.  Corpus
files are plain text, one document per line of whitespace-separated integer
word ids; blank lines are forbidden.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .gibbs import point_estimate
from .ingest import DIRECTION_INDEX
from .model import (
    Corpus,
    DataError,
    Hyperparams,
    ModelParams,
    ModelSpec,
    SufficientCounts,
    corpus_from_lists,
    validate_params,
)
from .vb import PosteriorHyperparams

FORMAT_VERSION = 1
ORIENTATION = "column-conditional"


def _matrix_to_json(mat: np.ndarray) -> dict:
    mat = np.asarray(mat)
    return {"shape": list(mat.shape), "data": mat.ravel(order="C").tolist()}


def _matrix_from_json(obj: dict) -> np.ndarray:
    return np.asarray(obj["data"], dtype=float).reshape(obj["shape"])


def _params_to_json(params: ModelParams) -> dict:
    return {name: _matrix_to_json(getattr(params, name))
            for name in ("phi", "theta", "xi", "pi")}


def _params_from_json(obj: dict) -> ModelParams:
    return ModelParams(**{name: _matrix_from_json(obj[name])
                          for name in ("phi", "theta", "xi", "pi")})


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
        "spec": {
            "num_words": spec.num_words,
            "num_topics": spec.num_topics,
            "num_behaviours": spec.num_behaviours,
        },
        "hyperparams": {name: np.asarray(getattr(hyper, name)).tolist()
                        for name in ("alpha", "beta", "gamma", "eta")},
        "params": _params_to_json(params),
        "metadata": metadata or {},
    }
    if posterior is not None:
        doc["posterior"] = {name: _matrix_to_json(getattr(posterior, name))
                            for name in ("beta_t", "alpha_t", "eta_t", "gamma_t")}
    if samples is not None:
        doc["samples"] = [
            {name: _matrix_to_json(getattr(c, name))
             for name in ("n_xy", "n_yz", "n_zz", "n_z1")}
            for c in samples
        ]
    Path(path).write_text(json.dumps(doc))


def _checked_matrix(section: str, name: str, obj: dict, spec: ModelSpec,
                    positive: bool) -> np.ndarray:
    """A posterior or count-sample matrix, checked for its shape under
    ``spec``, finiteness and sign (> 0 when ``positive``, else >= 0)."""
    X, Y, Z = spec.num_words, spec.num_topics, spec.num_behaviours
    shape = {"beta_t": (X, Y), "alpha_t": (Y, Z), "eta_t": (Z,), "gamma_t": (Z, Z),
             "n_xy": (X, Y), "n_yz": (Y, Z), "n_zz": (Z, Z), "n_z1": (Z,)}[name]
    mat = _matrix_from_json(obj)
    if mat.shape != shape:
        raise DataError(f"model {section} {name} has shape {mat.shape}, expected {shape}")
    if not np.all(np.isfinite(mat)) or np.any(mat <= 0 if positive else mat < 0):
        raise DataError(f"model {section} {name} must be finite and "
                        f"{'> 0' if positive else '>= 0'}")
    return mat


class LoadedModel:
    """A parsed and validated model file; a corrupt one raises DataError."""

    def __init__(self, doc: dict):
        if doc.get("format_version") != FORMAT_VERSION:
            raise DataError(f"unsupported model format version {doc.get('format_version')!r}")
        self.algorithm = doc["algorithm"]
        s = doc["spec"]
        self.spec = ModelSpec(s["num_words"], s["num_topics"], s["num_behaviours"])
        h = doc["hyperparams"]
        self.hyper = Hyperparams(**{k: np.asarray(v, dtype=float) for k, v in h.items()})
        self.params = _params_from_json(doc["params"])
        violations = validate_params(self.params, self.spec)
        if violations:
            raise DataError(f"invalid model parameters: {'; '.join(violations[:3])}")
        self.metadata = doc.get("metadata", {})
        self.posterior = None
        if "posterior" in doc:
            p = doc["posterior"]
            self.posterior = PosteriorHyperparams(
                **{name: _checked_matrix("posterior", name, p[name], self.spec, positive=True)
                   for name in ("beta_t", "alpha_t", "eta_t", "gamma_t")})
        self.count_samples = None
        if "samples" in doc:
            self.count_samples = [
                SufficientCounts(
                    **{name: _checked_matrix("count sample", name, c[name], self.spec,
                                             positive=False)
                       for name in ("n_xy", "n_yz", "n_zz", "n_z1")},
                    mode="integer",
                )
                for c in doc["samples"]
            ]

    def sample_params(self) -> list[ModelParams] | None:
        """Per-sample point estimates from stored GS count samples."""
        if self.count_samples is None:
            return None
        return [point_estimate(c, self.hyper) for c in self.count_samples]


def load_model(path) -> LoadedModel:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"model file {path} is not valid JSON: {exc}") from exc
    try:
        return LoadedModel(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"model file {path} is malformed: {exc!r}") from exc


def write_corpus(path, corpus: Corpus) -> None:
    lengths = np.diff(corpus.offsets)
    if not lengths.all():  # its line would be blank, which read_corpus rejects
        raise DataError(f"document {np.argmin(lengths) + 1} is empty; a corpus file cannot hold it")
    tokens, bounds = corpus.tokens.tolist(), corpus.offsets.tolist()
    text = list(map(str, range(corpus.spec.num_words)))
    Path(path).write_text("".join([" ".join([text[w] for w in tokens[a:b]]) + "\n"
                                   for a, b in zip(bounds, bounds[1:])]))


def read_corpus(path, spec: ModelSpec) -> Corpus:
    lines = Path(path).read_text().split("\n")
    if lines and lines[-1] == "":
        lines = lines[:-1]
    docs = []
    for t, line in enumerate(lines, start=1):
        try:  # int() on each token, refusing values beyond int64
            words = np.array(line.split(), dtype=np.int64)
        except (ValueError, OverflowError) as exc:
            raise DataError(f"word id at document {t} in {path} is not a 64-bit "
                            "integer") from exc
        if not words.size:
            raise DataError(f"blank line at document position {t} in {path}")
        docs.append(words)
    if not docs:
        raise DataError(f"corpus file {path} holds no documents")
    return corpus_from_lists(docs, spec)


def write_ground_truth(path, dataset) -> None:
    """Sidecar file with the generator's parameters and hidden assignments."""
    doc = {
        "format_version": FORMAT_VERSION,
        "true_params": _params_to_json(dataset.true_params),
        "true_behaviours": np.asarray(dataset.true_behaviours).tolist(),
        "true_topics": [np.asarray(y).tolist() for y in dataset.true_topics],
    }
    Path(path).write_text(json.dumps(doc))


def read_ground_truth(path) -> dict:
    doc = json.loads(Path(path).read_text())
    return {
        "true_params": _params_from_json(doc["true_params"]),
        "true_behaviours": np.asarray(doc["true_behaviours"], dtype=np.int64),
        "true_topics": [np.asarray(y, dtype=np.int64) for y in doc["true_topics"]],
    }


def write_scores(path, scored, localisations=None) -> None:
    """Line-delimited score records: one JSON object per document.

    A document impossible under the model (log likelihood -inf) gets
    ``"log_lik": null`` and ``"score": null``; no non-finite number is
    written.
    """
    lines = []
    for rec in scored:
        possible = rec.log_lik != -np.inf
        obj = {
            "index": rec.index,
            "length": rec.length,
            "log_lik": rec.log_lik if possible else None,
            "score": rec.score if possible else None,
            "evaluated": rec.evaluated,
        }
        if localisations is not None and rec.index in localisations:
            obj["localisation"] = localisations[rec.index]
        lines.append(json.dumps(obj, allow_nan=False))
    Path(path).write_text("\n".join(lines) + "\n")


def read_scores(path) -> list[dict]:
    records = []
    for i, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if line.strip() == "":
            raise DataError(f"blank line {i} in score file {path}")
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise DataError(f"bad score record on line {i} of {path}") from exc
    return records


def read_labels(path) -> np.ndarray:
    """One boolean (0/1) per line."""
    values = []
    for i, line in enumerate(Path(path).read_text().splitlines(), start=1):
        tok = line.strip()
        if tok not in ("0", "1"):
            raise DataError(f"label line {i} in {path} must be 0 or 1, got {tok!r}")
        values.append(tok == "1")
    return np.asarray(values, dtype=bool)


def write_pr_curve(path, curve: np.ndarray) -> None:
    lines = ["recall,precision"]
    lines += [f"{r},{p}" for r, p in np.asarray(curve)]
    Path(path).write_text("\n".join(lines) + "\n")


def read_events(path) -> np.ndarray:
    """Event CSV with the header row ``frame,cell_x,cell_y,dir``, as a (4, N)
    int64 array: each event's frame, cell_x, cell_y and direction index (into
    :data:`ingest.DIRECTIONS`), in file order."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0].strip().lower() != "frame,cell_x,cell_y,dir":
        raise DataError(f"event file {path} must start with header 'frame,cell_x,cell_y,dir'")
    try:
        return _event_columns(lines[1:])
    except ValueError:  # name the first bad line
        for i, line in enumerate(lines[1:], start=2):
            try:
                _event_columns([line])
            except ValueError as exc:
                raise DataError(f"line {i} of {path}: {exc}") from None
        raise


def _event_columns(lines: list[str]) -> np.ndarray:
    """Parse event lines in one pass; ValueError says what is wrong."""
    if any(line.count(",") != 3 for line in lines):
        raise ValueError("expected 4 comma-separated fields")
    fields = ",".join(lines).split(",") if lines else []
    try:
        numbers = np.array([fields[0::4], fields[1::4], fields[2::4]], dtype=np.int64)
    except (ValueError, OverflowError):
        raise ValueError("field is not a 64-bit integer") from None
    try:
        directions = [DIRECTION_INDEX[d.strip()] for d in fields[3::4]]
    except KeyError as exc:
        raise ValueError(f"unknown direction {exc.args[0]!r}") from None
    return np.vstack((numbers, np.array(directions, dtype=np.int64)))
