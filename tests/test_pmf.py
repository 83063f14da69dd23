"""The integer-weighted Pmf: both constructors agree, and the oracles never use its integer form.

The scale check and the equality that every exact type shares are tested here too.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    brute_bars,
    brute_behavior,
    brute_detection_rates,
    brute_flat_quad,
    brute_postselect,
    brute_quad,
    brute_serialize,
    brute_side_expectation,
    corpus_models,
    fraction_find_feasible,
)
from lhvlab import (
    BehaviorTable,
    JointDistribution16,
    OutcomeTable,
    Pmf,
    behavior_from_model,
    bell_average,
    exact_expectation,
    product_flatten,
    uniform_reduce,
    zero_to_coin,
)

MASSES = st.fractions(min_value=-2, max_value=2, max_denominator=60)


@st.composite
def masses_and_multiple(draw):
    """Masses (zero, negative, unequal denominators) and a factor for a non-minimal common scale."""
    masses = draw(st.lists(st.one_of(st.just(Fraction(0)), MASSES), max_size=8))
    return masses, draw(st.integers(1, 12))


@settings(max_examples=100, deadline=None)
@given(masses_and_multiple())
def test_integer_and_fraction_builds_agree(case):
    masses, factor = case
    labels = [f"l{k}" for k in range(len(masses))]
    atoms = list(zip(labels, masses))
    support = [(lab, m) for lab, m in atoms if m > 0]
    # integer_weights() is over the lcm of the support's denominators only
    lcm = math.lcm(*(m.denominator for _lab, m in support))
    from_fractions = Pmf(dict(atoms))
    scale = math.lcm(*(m.denominator for m in masses)) * factor
    from_integers = Pmf.from_integers(scale, [(lab, int(m * scale)) for lab, m in atoms])
    for pmf in (from_fractions, from_integers):
        assert list(pmf.items()) == atoms
        assert all(type(m) is Fraction for _lab, m in pmf.items())
        scale, weights = pmf.integer_atoms()
        assert [Fraction(weights[lab], scale) for lab in labels] == masses
        assert "absent" not in weights and "absent" not in dict(pmf.items())
        assert list(pmf.support()) == support
        assert pmf.total() == sum(masses, Fraction(0)) and type(pmf.total()) is Fraction
        assert pmf.is_normalized() == (all(m >= 0 for m in masses) and sum(masses) == 1)
        assert pmf.labels() == tuple(labels) and len(pmf) == len(masses)
        assert repr(pmf) == f"Pmf({dict(atoms)!r})"
        assert pmf.integer_weights() == (lcm, [(lab, int(m * lcm)) for lab, m in support])
    assert from_fractions == from_integers
    assert from_fractions != Pmf(dict(atoms + [("extra", Fraction(1))]))


def test_from_integers_keeps_the_duplicate_check():
    with pytest.raises(ValueError, match="duplicate pmf label 'a'"):
        Pmf.from_integers(4, [("a", 1), ("b", 2), ("a", 1)])
    with pytest.raises(ValueError, match="duplicate pmf label 'a'"):
        Pmf([("a", 1), ("a", Fraction(0))])


def test_uniform_refuses_a_repeated_label():
    with pytest.raises(ValueError, match="duplicate pmf label 'a'"):
        Pmf.uniform(["a", "a", "b"])
    assert list(Pmf.uniform(["a", "b"]).items()) == [("a", Fraction(1, 2)), ("b", Fraction(1, 2))]


SETTINGS = (("x", "x'"), ("y", "y'"))
CONTEXTS = [(a, b) for a in SETTINGS[0] for b in SETTINGS[1]]

# each exact type built from integers over ``scale``; ``changed`` alters one stored value
INTEGER_BUILDS = {
    "Pmf": lambda scale, changed=False: Pmf.from_integers(scale, {"a": 1, "b": 2 + changed}),
    "OutcomeTable": lambda scale, changed=False: OutcomeTable.from_integers(
        scale, {("a", "u"): 1, ("a", "v"): -1 - changed}
    ),
    "BehaviorTable": lambda scale, changed=False: BehaviorTable.from_integers(
        *SETTINGS, (-1, 1), scale, {ctx: {(1, 1): 1 + (changed and k == 0), (-1, -1): 2}
                                    for k, ctx in enumerate(CONTEXTS)}
    ),
    # at scale 0 this is 16 zero weights
    "JointDistribution16": lambda scale, changed=False: JointDistribution16._from_integers(
        *SETTINGS, scale, [0] * changed + [scale] + [0] * (15 - changed)
    ),
}


def test_from_integers_needs_a_positive_scale():
    for build in INTEGER_BUILDS.values():
        for scale in (0, -3):
            with pytest.raises(ValueError, match="scale must be positive"):
                build(scale)


@pytest.mark.parametrize("kind", INTEGER_BUILDS)
def test_equality_compares_the_stored_integers(kind):
    """Equal to a rebuild, unequal once one value changes or to another exact type, and unhashable."""
    build = INTEGER_BUILDS[kind]
    assert build(6) == build(6)
    assert build(6) != build(6, changed=True)
    for other_kind, other_build in INTEGER_BUILDS.items():
        if other_kind != kind:
            assert build(6) != other_build(6) and other_build(6) != build(6)
    with pytest.raises(TypeError, match="unhashable"):
        hash(build(6))


def test_from_weights_reduces_over_the_total():
    pmf = Pmf.from_weights({"a": 2, "b": 0, "c": 4})
    assert list(pmf.items()) == [("a", Fraction(1, 3)), ("b", 0), ("c", Fraction(2, 3))]
    assert pmf.integer_weights() == (3, [("a", 1), ("c", 2)])


def test_oracles_never_touch_the_integer_form(monkeypatch):
    """The reference oracles read masses only through items() and support()."""
    # even positions are ternary models, which have behaviors
    models = list(corpus_models(8, seed=515, max_source_side=3, max_instrument=3))
    flats = [f(m) for m in models for f in (product_flatten, uniform_reduce)]
    behaviors = [behavior_from_model(m) for m in models[::2]]
    averaged = [bell_average(m) for m in models]
    coin = [behavior_from_model(zero_to_coin(m)) for m in models[::2]]
    # Fine-style equality systems: the four cells of a context as variables, plus normalization
    lp = [
        ([[Fraction(i == j) for j in range(4)] for i in range(4)] + [[Fraction(1)] * 4],
         [b.prob(ctx, x, y) for x in (-1, 1) for y in (-1, 1)] + [Fraction(1)])
        for b in coin
        for ctx in b.contexts()
    ]

    def run_oracles():
        out = []
        for m in models:
            out.append([exact_expectation(m, ctx) for ctx in m.contexts()])
            out.append(brute_quad(m).values)
            out.append([brute_side_expectation(m, "alice", s) for s in m.alice])
            out.append([brute_side_expectation(m, "bob", s) for s in m.bob])
            out.append(brute_detection_rates(m))
            out.append(brute_bars(m))
            out.append(brute_serialize(m))
        out.extend(brute_behavior(m) for m in models[::2])
        out.extend(brute_flat_quad(f).values for f in flats)
        out.extend(brute_serialize(doc) for doc in flats + averaged + behaviors)
        out.extend(brute_postselect(b) for b in behaviors)
        out.extend(fraction_find_feasible(a, b) for a, b in lp)
        return out

    want = run_oracles()

    def forbidden(*_args, **_kwargs):
        raise AssertionError("an oracle used the integer form of a Pmf")

    for name in ("integer_weights", "integer_atoms", "from_integers"):
        monkeypatch.setattr(Pmf, name, forbidden)
    assert run_oracles() == want
