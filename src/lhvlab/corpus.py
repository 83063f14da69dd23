"""Seeded random models and behaviors for property testing and demos."""

from __future__ import annotations

import random

from .model import BehaviorTable, ContextualModel, OutcomeTable, Pmf, Setting

OutcomeKind = str  # "binary" | "ternary" | "interval"

# each outcome kind's scale, and the numerators over it that an outcome is drawn from
OUTCOME_KINDS = {"binary": (1, (-1, 1)), "ternary": (1, (-1, 0, 1)), "interval": (8, range(-8, 9))}


def _random_weights(rng: random.Random, n: int, max_weight: int = 12) -> list[int]:
    """Nonnegative integer weights with at least one strictly positive."""
    while True:
        w = [rng.randint(0, max_weight) for _ in range(n)]
        if any(w):
            return w


def _random_pmf(rng: random.Random, labels) -> Pmf:
    weights = _random_weights(rng, len(labels))
    return Pmf.from_weights(dict(zip(labels, weights)))


def random_contextual_model(
    rng: random.Random,
    max_source_side: int = 6,
    max_instrument: int = 4,
    outcome_kind: OutcomeKind = "ternary",
) -> ContextualModel:
    """A random well-formed model with canonical string labels.

    Source pairs range over a full grid of up to max_source_side x
    max_source_side labels (some with zero mass); each setting gets its
    own instrument space of up to max_instrument atoms.  ``outcome_kind``
    picks the outcome alphabet: strict +/-1, ternary with zeros, or
    rational values in [-1, 1] with denominator 8.
    """
    if outcome_kind not in OUTCOME_KINDS:
        raise ValueError(f"unknown outcome kind {outcome_kind!r}")
    scale, values = OUTCOME_KINDS[outcome_kind]
    n1 = rng.randint(1, max_source_side)
    n2 = rng.randint(1, max_source_side)
    first = [f"a{i}" for i in range(n1)]
    second = [f"b{i}" for i in range(n2)]
    pairs = [(f, s) for f in first for s in second]
    source = _random_pmf(rng, pairs)

    def make_setting(name: str, source_labels) -> Setting:
        atoms = [f"u{i}" for i in range(rng.randint(1, max_instrument))]
        instrument = _random_pmf(rng, atoms)
        entries = {(sl, il): rng.choice(values) for sl in source_labels for il in atoms}
        return Setting(name, instrument, OutcomeTable.from_integers(scale, entries, ternary=outcome_kind == "ternary"))

    alice = (make_setting("x", first), make_setting("x'", first))
    bob = (make_setting("y", second), make_setting("y'", second))
    return ContextualModel(source, alice, bob)


def random_nosignalling_behavior(
    rng: random.Random,
    mode: str = "generic",
    denominator: int = 16,
) -> BehaviorTable:
    """A random binary behavior with exactly setting-independent marginals.

    Parameterized as P(x, y | a, b) = (1 + x m_a + y m_b + x y c_ab) / 4
    with rational singles m and correlations c; no-signalling then holds
    by construction.  ``mode="generic"`` draws everything at random
    (rejecting parameter sets with negative cells); ``mode="near_quantum"``
    keeps the singles at zero and interpolates the correlations toward a
    CHSH-violating corner, so the output population straddles the local
    polytope boundary.  Every parameter is an integer over one unit
    ``u``, so each cell is an integer weight over ``4 u``.
    """
    settings_a = ("x", "x'")
    settings_b = ("y", "y'")
    contexts = [(a, b) for a in settings_a for b in settings_b]
    if mode == "near_quantum":
        # c = t * corner + (1 - t) * noise, with t = k / denominator, corner
        # entries +/-7/10 and noise j / 4: integers over u = 20 * denominator
        corner = dict(zip(contexts, (-7, 7, -7, -7)))
        k = rng.randint(0, denominator)
        unit = 20 * denominator
        m_a = dict.fromkeys(settings_a, 0)
        m_b = dict.fromkeys(settings_b, 0)
        noise = {ctx: rng.randint(-4, 4) for ctx in contexts}
        c = {ctx: 2 * k * corner[ctx] + 5 * (denominator - k) * noise[ctx] for ctx in contexts}
    elif mode == "generic":
        unit = denominator
        while True:
            m_a = {a: rng.randint(-unit, unit) for a in settings_a}
            m_b = {b: rng.randint(-unit, unit) for b in settings_b}
            c = {ctx: rng.randint(-unit, unit) for ctx in contexts}
            ok = all(
                unit + x * m_a[a] + y * m_b[b] + x * y * c[(a, b)] >= 0
                for a, b in contexts
                for x in (-1, 1)
                for y in (-1, 1)
            )
            if ok:
                break
    else:
        raise ValueError(f"unknown mode {mode!r}")

    cells = {
        (a, b): {
            (x, y): unit + x * m_a[a] + y * m_b[b] + x * y * c[(a, b)]
            for x in (-1, 1)
            for y in (-1, 1)
        }
        for a, b in contexts
    }
    return BehaviorTable.from_integers(settings_a, settings_b, (-1, 1), 4 * unit, cells)
