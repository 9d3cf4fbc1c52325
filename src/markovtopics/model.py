"""Core model types: dimensions, priors, parameters, corpora and validation.

Matrix orientation is fixed as "column = conditioning variable": an entry
``phi[x, y]`` is the probability of word ``x`` given topic ``y``, so every
column of ``phi``, ``theta`` and ``xi`` is a probability distribution.
Serialized model files record this orientation explicitly.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

# Tolerance for probability vectors after normalization.  Double-precision
# accumulation over <= 1e4 terms stays well inside this.
PROB_TOL = 1e-9


class DataError(Exception):
    """Malformed input data or file contents."""


class NumericalError(Exception):
    """Numerical failure, e.g. a corpus impossible under the model."""


@dataclass(frozen=True)
class ModelSpec:
    """Dimensions of the model: vocabulary, topic and behaviour counts."""

    num_words: int
    num_topics: int
    num_behaviours: int

    def __post_init__(self):
        for name in ("num_words", "num_topics", "num_behaviours"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")


@dataclass(frozen=True)
class Hyperparams:
    """Dirichlet prior vectors for the four parameter groups.

    ``alpha`` (length num_topics) is the prior over topic distributions,
    ``beta`` (length num_words) over word distributions, ``gamma`` and
    ``eta`` (length num_behaviours) over transition columns and the
    initial behaviour distribution.
    """

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "eta"):
            v = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, v)
            if v.ndim != 1 or not np.all((v > 0) & (v < np.inf)):
                raise ValueError(f"{name} must be a 1-d vector of positive reals")


#: The three symmetric prior settings: (alpha, beta, gamma, eta) scalars.
PRIOR_TYPES = {
    "1": (1.0, 1.0, 1.0, 1.0),
    "H": (8.0, 0.05, 1.0, 1.0),
    "H+1": (9.0, 1.05, 2.0, 2.0),
}


def make_prior(kind: str, spec: ModelSpec) -> Hyperparams:
    """Build the symmetric hyperparameter vectors for one of the named
    settings ``"1"``, ``"H"`` or ``"H+1"``."""
    if kind not in PRIOR_TYPES:
        raise ValueError(f"unknown prior type {kind!r}; expected one of {sorted(PRIOR_TYPES)}")
    a, b, g, e = PRIOR_TYPES[kind]
    return Hyperparams(
        alpha=np.full(spec.num_topics, a),
        beta=np.full(spec.num_words, b),
        gamma=np.full(spec.num_behaviours, g),
        eta=np.full(spec.num_behaviours, e),
    )


@dataclass(frozen=True)
class ModelParams:
    """The parameter set: word/topic/transition matrices and the initial
    behaviour vector.  Columns are distributions (see module docstring).

    The container itself does not enforce stochasticity so that it can also
    carry the sub-stochastic "tilde" surrogates used by variational
    inference; use :func:`validate_params` for the strict check.
    """

    phi: np.ndarray  # (num_words, num_topics)
    theta: np.ndarray  # (num_topics, num_behaviours)
    xi: np.ndarray  # (num_behaviours, num_behaviours); xi[z_new, z_old]
    pi: np.ndarray  # (num_behaviours,)

    def __post_init__(self):
        for name in ("phi", "theta", "xi", "pi"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))

    @property
    def spec(self) -> ModelSpec:
        return ModelSpec(self.phi.shape[0], self.phi.shape[1], self.pi.shape[0])


def _columns(x) -> list[np.ndarray]:
    """The four arrays of a ModelParams, SufficientCounts or
    vb.PosteriorHyperparams in the order phi, theta, xi, pi, with pi's
    vector as one (Z, 1) column: every group is then a matrix whose columns
    are its distributions, and one expression serves all four."""
    *mats, vec = (getattr(x, f.name) for f in fields(x))
    return [*mats, vec[..., None]]


def _from_columns(cls, cols):
    """The container ``cls`` of the four arrays ``cols``, in the order of
    :func:`_columns`; pi's column becomes a vector again."""
    *mats, col = cols
    return cls(*mats, col[..., 0])


def _priors(hyper: Hyperparams) -> tuple[np.ndarray, ...]:
    """The prior vector of each group in the order of :func:`_columns`: one
    entry per row of every column it is the prior of."""
    return hyper.beta, hyper.alpha, hyper.gamma, hyper.eta


def _shapes(spec: ModelSpec) -> tuple[tuple[int, int], ...]:
    """The shape of each group's array in the order of :func:`_columns`."""
    X, Y, Z = spec.num_words, spec.num_topics, spec.num_behaviours
    return (X, Y), (Y, Z), (Z, Z), (Z, 1)


def validate_params(params: ModelParams, spec: ModelSpec | None = None) -> list[str]:
    """Return a list of violated invariants (empty when valid).

    Violation classes: ``dimension:``, ``column-sum:``, ``entry-range:``.
    Each group is checked as a matrix of columns, pi as one (Z, 1) column.
    """
    names = [f.name for f in fields(ModelParams)]
    cols = _columns(params)
    violations = []
    if spec is not None:
        violations = [f"dimension: {name} has shape {col.shape}, expected {shape}"
                      for name, col, shape in zip(names, cols, _shapes(spec)) if col.shape != shape]
    if any(col.ndim != 2 for col in cols):
        violations.append("dimension: matrices must be 2-d and pi 1-d")
        return violations
    phi, theta, xi, pi = cols
    if phi.shape[1] != theta.shape[0]:
        violations.append("dimension: phi columns do not match theta rows")
    if theta.shape[1] != xi.shape[0] or xi.shape[0] != xi.shape[1] or pi.shape[0] != xi.shape[0]:
        violations.append("dimension: behaviour dimensions inconsistent")
    if violations:
        return violations

    # Every comparison with NaN is false, so the range checks alone would
    # pass NaN entries.
    for name, mat in zip(names, cols):
        if not np.all(np.isfinite(mat)):
            violations.append(f"entry-range: {name} has non-finite entries")
        elif np.any(mat < 0) or np.any(mat > 1):
            violations.append(f"entry-range: {name} has entries outside [0, 1]")
        sums = mat.sum(axis=0)
        bad = np.flatnonzero(np.abs(sums - 1.0) > PROB_TOL)
        for j in bad:
            violations.append(f"column-sum: {name} column {j} sums to {sums[j]!r}")
    return violations


def random_init(spec: ModelSpec, hyper: Hyperparams,
                seed: int | np.random.Generator) -> ModelParams:
    """Draw every parameter column from its Dirichlet prior.

    Pure function of (spec, hyper, seed); a Generator as ``seed`` is drawn
    from in place.
    """
    rng = np.random.default_rng(seed)
    return _from_columns(ModelParams, [rng.dirichlet(prior, size=shape[1]).T
                                       for prior, shape in zip(_priors(hyper), _shapes(spec))])


@dataclass(frozen=True, eq=False)
class Corpus:
    """A time-ordered stream of documents, built against ``spec``: every
    document's word ids in one flat array.  ``corpus[t]`` is document ``t``
    (0-based; messages number it ``t + 1``), the view
    ``tokens[offsets[t]:offsets[t + 1]]``."""

    tokens: np.ndarray  # (N,) int64 word ids in corpus order
    offsets: np.ndarray  # (T + 1,) int64 start of each document, then N
    spec: ModelSpec

    def __post_init__(self):
        # C-contiguous, copied where given a strided view: the kernels read
        # them by address.  (np.ascontiguousarray would make a scalar 1-d.)
        tokens = np.asarray(self.tokens, dtype=np.int64, order="C")
        offsets = np.asarray(self.offsets, dtype=np.int64, order="C")
        if (offsets.ndim != 1 or not offsets.size or offsets[0] != 0
                or offsets[-1] != len(tokens) or np.any(np.diff(offsets) < 0)):
            raise ValueError("offsets must rise from 0 to the number of tokens")
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "offsets", offsets)
        outside = np.flatnonzero((tokens < 0) | (tokens >= self.spec.num_words))
        if outside.size:
            t = np.searchsorted(offsets, outside[0], side="right")
            raise DataError(f"document {t} contains word ids outside [0, {self.spec.num_words})")

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, t: int) -> np.ndarray:
        t = range(len(self))[t]
        return self.tokens[self.offsets[t]:self.offsets[t + 1]]

    @property
    def num_tokens(self) -> int:
        return int(self.offsets[-1])


def corpus_from_lists(word_lists, spec: ModelSpec) -> Corpus:
    """Build a corpus from one list of word ids per document."""
    words = [np.asarray(w, dtype=np.int64) for w in word_lists]
    offsets = np.cumsum([0] + [len(w) for w in words], dtype=np.int64)
    return Corpus(np.concatenate([offsets[:0]] + words), offsets, spec)


@dataclass
class SufficientCounts:
    """The four count aggregates shared by all learners: real-valued
    expected counts for EM/VB, int64 tallies for Gibbs."""

    n_xy: np.ndarray  # (num_words, num_topics)
    n_yz: np.ndarray  # (num_topics, num_behaviours)
    n_zz: np.ndarray  # (num_behaviours, num_behaviours); [z_new, z_old]
    n_z1: np.ndarray  # (num_behaviours,)

    def copy(self) -> "SufficientCounts":
        return _from_columns(SufficientCounts, [c.copy() for c in _columns(self)])
