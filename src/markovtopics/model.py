"""Core model types: dimensions, priors, parameters, corpora and validation.

Matrix orientation is fixed as "column = conditioning variable": an entry
``phi[x, y]`` is the probability of word ``x`` given topic ``y``, so every
column of ``phi``, ``theta`` and ``xi`` is a probability distribution.
Serialized model files record this orientation explicitly.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse

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
            if not isinstance(v, (int, np.integer)) or v < 1:
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
            if v.ndim != 1 or not np.all(v > 0):
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


def validate_params(params: ModelParams, spec: ModelSpec | None = None) -> list[str]:
    """Return a list of violated invariants (empty when valid).

    Violation classes: ``dimension:``, ``column-sum:``, ``entry-range:``.
    """
    violations = []
    phi, theta, xi, pi = params.phi, params.theta, params.xi, params.pi

    if spec is not None:
        expected = {
            "phi": (spec.num_words, spec.num_topics),
            "theta": (spec.num_topics, spec.num_behaviours),
            "xi": (spec.num_behaviours, spec.num_behaviours),
            "pi": (spec.num_behaviours,),
        }
        for name, shape in expected.items():
            actual = getattr(params, name).shape
            if actual != shape:
                violations.append(f"dimension: {name} has shape {actual}, expected {shape}")
    if phi.ndim != 2 or theta.ndim != 2 or xi.ndim != 2 or pi.ndim != 1:
        violations.append("dimension: matrices must be 2-d and pi 1-d")
        return violations
    if phi.shape[1] != theta.shape[0]:
        violations.append("dimension: phi columns do not match theta rows")
    if theta.shape[1] != xi.shape[0] or xi.shape[0] != xi.shape[1] or pi.shape[0] != xi.shape[0]:
        violations.append("dimension: behaviour dimensions inconsistent")
    if violations:
        return violations

    # Every comparison with NaN is false, so the range checks alone would
    # pass NaN entries.
    for name, mat in (("phi", phi), ("theta", theta), ("xi", xi)):
        if not np.all(np.isfinite(mat)):
            violations.append(f"entry-range: {name} has non-finite entries")
        elif np.any(mat < 0) or np.any(mat > 1):
            violations.append(f"entry-range: {name} has entries outside [0, 1]")
        sums = mat.sum(axis=0)
        bad = np.flatnonzero(np.abs(sums - 1.0) > PROB_TOL)
        for j in bad:
            violations.append(f"column-sum: {name} column {j} sums to {sums[j]!r}")
    if not np.all(np.isfinite(pi)):
        violations.append("entry-range: pi has non-finite entries")
    elif np.any(pi < 0) or np.any(pi > 1):
        violations.append("entry-range: pi has entries outside [0, 1]")
    if abs(pi.sum() - 1.0) > PROB_TOL:
        violations.append(f"column-sum: pi sums to {pi.sum()!r}")
    return violations


def random_init(spec: ModelSpec, hyper: Hyperparams, seed: int) -> ModelParams:
    """Draw every parameter column from its Dirichlet prior.

    Pure function of (spec, hyper, seed).
    """
    rng = np.random.default_rng(seed)
    phi = rng.dirichlet(hyper.beta, size=spec.num_topics).T
    theta = rng.dirichlet(hyper.alpha, size=spec.num_behaviours).T
    xi = rng.dirichlet(hyper.gamma, size=spec.num_behaviours).T
    pi = rng.dirichlet(hyper.eta)
    return ModelParams(phi=phi, theta=theta, xi=xi, pi=pi)


@dataclass(frozen=True)
class Document:
    """One visual document: an ordered run of word identifiers plus its
    1-based position in the time-ordered stream."""

    words: np.ndarray
    timestamp: int

    def __post_init__(self):
        object.__setattr__(self, "words", np.asarray(self.words, dtype=np.int64))

    def __len__(self) -> int:
        return len(self.words)


@dataclass(frozen=True)
class Corpus:
    """Time-ordered documents with the spec they were built against."""

    documents: list[Document]
    spec: ModelSpec

    def __post_init__(self):
        stamps = [doc.timestamp for doc in self.documents]
        if stamps != list(range(1, len(stamps) + 1)):
            t = next(t for t, s in enumerate(stamps, start=1) if s != t)
            raise DataError(f"document timestamps must be contiguous from 1; "
                            f"position {t} has timestamp {stamps[t - 1]}")
        outside = np.flatnonzero((self.tokens < 0) | (self.tokens >= self.spec.num_words))
        if outside.size:
            t = np.searchsorted(self.offsets, outside[0], side="right")
            raise DataError(f"document {t} contains word ids outside [0, {self.spec.num_words})")

    def __len__(self) -> int:
        return len(self.documents)

    @property
    def num_tokens(self) -> int:
        return int(self.offsets[-1])

    @cached_property
    def tokens(self) -> np.ndarray:
        """Every document's words in one flat int64 array, in corpus order;
        document ``t`` is ``tokens[offsets[t]:offsets[t + 1]]``."""
        return np.concatenate([np.zeros(0, dtype=np.int64)] + [d.words for d in self.documents])

    @cached_property
    def offsets(self) -> np.ndarray:
        """(T + 1,) start of each document in :attr:`tokens`, then the total."""
        return np.cumsum([0] + [len(d) for d in self.documents], dtype=np.int64)

    @cached_property
    def doc_term(self) -> scipy.sparse.csr_matrix:
        """Sparse (num_words, T) matrix of word counts per document, built
        once.  Tokens are exchangeable within a document, so the emission and
        the expected counts of a fit depend on the corpus only through it."""
        docs = np.repeat(np.arange(len(self.documents)), np.diff(self.offsets))
        return scipy.sparse.csr_matrix((np.ones(len(self.tokens)), (self.tokens, docs)),
                                       shape=(self.spec.num_words, len(self.documents)))


def corpus_from_lists(word_lists, spec: ModelSpec) -> Corpus:
    """Build a corpus from lists of word ids, assigning timestamps.  The
    documents are views into one flat copy, :attr:`Corpus.tokens`."""
    words = [np.asarray(w, dtype=np.int64) for w in word_lists]
    offsets = np.cumsum([0] + [len(w) for w in words], dtype=np.int64)
    tokens = np.concatenate([offsets[:0]] + words)
    bounds = offsets.tolist()
    corpus = object.__new__(Corpus)
    # Seeded, the cached flat arrays are not rebuilt from the views.
    vars(corpus).update(tokens=tokens, offsets=offsets)
    corpus.__init__([Document(words=tokens[a:b], timestamp=t)
                     for t, (a, b) in enumerate(zip(bounds, bounds[1:]), start=1)], spec)
    return corpus


@dataclass
class SufficientCounts:
    """The four count aggregates shared by all learners.

    ``mode`` is ``"expected"`` for the real-valued EM/VB counts and
    ``"integer"`` for Gibbs tallies.
    """

    n_xy: np.ndarray  # (num_words, num_topics)
    n_yz: np.ndarray  # (num_topics, num_behaviours)
    n_zz: np.ndarray  # (num_behaviours, num_behaviours); [z_new, z_old]
    n_z1: np.ndarray  # (num_behaviours,)
    mode: str = "expected"

    def copy(self) -> "SufficientCounts":
        return SufficientCounts(
            n_xy=self.n_xy.copy(), n_yz=self.n_yz.copy(),
            n_zz=self.n_zz.copy(), n_z1=self.n_z1.copy(), mode=self.mode,
        )


def zero_counts(spec: ModelSpec, mode: str = "expected") -> SufficientCounts:
    dtype = np.int64 if mode == "integer" else float
    return SufficientCounts(
        n_xy=np.zeros((spec.num_words, spec.num_topics), dtype=dtype),
        n_yz=np.zeros((spec.num_topics, spec.num_behaviours), dtype=dtype),
        n_zz=np.zeros((spec.num_behaviours, spec.num_behaviours), dtype=dtype),
        n_z1=np.zeros(spec.num_behaviours, dtype=dtype),
        mode=mode,
    )
