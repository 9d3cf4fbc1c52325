"""Dynamic topic model with Markov-chained behaviours.

Topics are distributions over discrete visual words; behaviours are
distributions over topics chained through a transition matrix.  The package
provides three learners (EM for MAP estimates, variational Bayes, collapsed
Gibbs sampling), online anomaly scoring by predictive likelihood with
word-level localisation, and precision-recall evaluation utilities.
"""

from .model import (
    Corpus,
    Hyperparams,
    ModelParams,
    ModelSpec,
    SufficientCounts,
    corpus_from_lists,
    make_prior,
    random_init,
    validate_params,
)

__all__ = [
    "Corpus",
    "Hyperparams",
    "ModelParams",
    "ModelSpec",
    "SufficientCounts",
    "corpus_from_lists",
    "make_prior",
    "random_init",
    "validate_params",
]
