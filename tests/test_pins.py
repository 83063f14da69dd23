"""Golden pins: SHA-256 digests of exact outputs over a fixed corpus slice.

Each helper hashes one output, in corpus order, over the first ``n``
models of the acceptance corpus (seed 20240913, alternating ternary and
interval outcomes).  A change that claims the same outputs must leave
every pin here unchanged; cite this module instead of a one-off script.
Over the whole 1000-model corpus, :func:`serialize_digest` gives the
``serialize`` hashes recorded for the flattenings in CHANGES.md.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest

from conftest import corpus_models
from lhvlab import (
    ContextualModel,
    OutcomeTable,
    Pmf,
    Setting,
    bell_average,
    product_flatten,
    serialize,
    uniform_reduce,
    validate_model,
)

CORPUS_SEED = 20240913
PIN_MODELS = 100
FLATTENINGS = {"product": product_flatten, "uniform": uniform_reduce, "average": bell_average}


def serialize_digest(method: str, n: int = PIN_MODELS) -> str:
    """``serialize`` of one flattening of each model."""
    digest = hashlib.sha256()
    for model in corpus_models(n, seed=CORPUS_SEED):
        digest.update(serialize(FLATTENINGS[method](model)).encode())
    return digest.hexdigest()


def quad_digest(method: str, n: int = PIN_MODELS) -> str:
    """The ``quad()`` items of one flattening of each model, with their value types."""
    digest = hashlib.sha256()
    for model in corpus_models(n, seed=CORPUS_SEED):
        values = FLATTENINGS[method](model).quad().values
        digest.update(repr([(ctx, type(v).__name__, str(v)) for ctx, v in values.items()]).encode())
    return digest.hexdigest()


def broken(model: ContextualModel) -> ContextualModel:
    """The model with every invariant ``validate_model`` checks broken somewhere.

    The source masses are halved, Alice's first instrument is negated, and
    Bob's first table has a value outside [-1, 1], a non-integer value, a
    missing entry and one entry outside its domain.
    """
    source = Pmf({pair: m / 2 for pair, m in model.source.items()})
    a0, a1 = model.alice
    a0 = Setting(a0.name, Pmf({lab: -m for lab, m in a0.instrument.items()}), a0.outcomes)
    b0, b1 = model.bob
    entries = dict(b0.outcomes.entries)
    keys = list(entries)
    entries[keys[0]] = Fraction(3, 2)
    if len(keys) > 1:
        entries[keys[1]] = Fraction(1, 2)
        del entries[keys[-1]]
    entries[("nowhere", "nothing")] = Fraction(0)
    b0 = Setting(b0.name, b0.instrument, OutcomeTable(entries, ternary=b0.outcomes.ternary))
    return ContextualModel(source, (a0, a1), (b0, b1))


def validate_digest(n: int = PIN_MODELS) -> str:
    """``validate_model`` violations of each model and of its :func:`broken` copy."""
    digest = hashlib.sha256()
    for model in corpus_models(n, seed=CORPUS_SEED):
        for m in (model, broken(model)):
            digest.update(repr(validate_model(m).violations).encode())
    return digest.hexdigest()


# recorded with the Fraction-valued Pmf, before masses were stored as integer weights
SERIALIZE_PINS = {
    "product": "55369b02b6e06ac6de6b3792e933d322b49e1fd9d9e3cb4b3231266448c0301b",
    "uniform": "084b349b92cb036cbe52606e9b8424cb018e23c79ab93e8163741d46492b7237",
    "average": "b0c099b5553cfb75d1ec3b52390c45ebe102f052de5bbd393acd56dfe01642f6",
}
# the three flattenings keep the quad, so they share one pin
QUAD_PIN = "9303202202a4fae23ad369d72e6b7a3254feec24e86c080bac939ff17b0e8220"
VALIDATE_PIN = "9e3905179b5a8466a2959bdece22617997b31cd42648fffbb7e264d05ebcbb83"


@pytest.mark.parametrize("method", sorted(FLATTENINGS))
def test_flattening_text_is_pinned(method):
    assert serialize_digest(method) == SERIALIZE_PINS[method]


@pytest.mark.parametrize("method", sorted(FLATTENINGS))
def test_flattening_quad_is_pinned(method):
    assert quad_digest(method) == QUAD_PIN


def test_validation_reports_are_pinned():
    assert validate_digest() == VALIDATE_PIN
