"""The integer-weighted BehaviorTable: both constructors agree, and Fine's checks match Fraction oracles."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from conftest import brute_no_signalling, brute_postselect, corpus_models, fraction_find_feasible
from lhvlab import (
    BehaviorTable,
    CorrelationQuad,
    JointDistribution16,
    NoSignallingReport,
    behavior_from_model,
    check_no_signalling,
    chsh_values,
    fine_criterion,
    serialize,
    zero_to_coin,
)
from lhvlab import simplex
from lhvlab.corpus import random_nosignalling_behavior

SETTINGS = (("x", "x'"), ("y", "y'"))
CONTEXTS = [(a, b) for a in SETTINGS[0] for b in SETTINGS[1]]
MASSES = st.fractions(min_value=-1, max_value=2, max_denominator=40)


@st.composite
def behavior_cases(draw):
    """``(table, (scale, cells), probs)``: a table built from the Fractions ``probs``, and the same cells as integers over a non-minimal scale.

    Each context lists a subset of its cells in a drawn order, with explicit
    zeros; the masses are either arbitrary (negative, non-normalized) or
    normalized integer counts, so ``is_normalized`` is seen both ways.
    """
    outcomes = draw(st.sampled_from([(-1, 1), (-1, 0, 1)]))
    alphabet = list(itertools.product(outcomes, outcomes))
    normalized = draw(st.booleans())
    order = draw(st.permutations(CONTEXTS))
    probs = {}
    for ctx in order:
        cells = draw(st.lists(st.sampled_from(alphabet), unique=True, min_size=1, max_size=len(alphabet)))
        if normalized:
            counts = draw(st.lists(st.integers(0, 9), min_size=len(cells), max_size=len(cells)))
            counts[0] += sum(counts) == 0
            masses = [Fraction(c, sum(counts)) for c in counts]
        else:
            masses = draw(st.lists(st.one_of(st.just(Fraction(0)), MASSES), min_size=len(cells), max_size=len(cells)))
        probs[ctx] = dict(zip(cells, masses))
    scale = math.lcm(*(p.denominator for pmf in probs.values() for p in pmf.values())) * draw(st.integers(1, 6))
    cells = {ctx: {cell: int(p * scale) for cell, p in pmf.items()} for ctx, pmf in probs.items()}
    return BehaviorTable(*SETTINGS, outcomes, probs), (scale, cells), probs


@settings(max_examples=150, deadline=None)
@given(behavior_cases())
def test_fraction_and_integer_constructors_agree(case):
    table, (scale, cells), probs = case
    built = BehaviorTable.from_integers(*SETTINGS, table.outcomes, scale, cells)
    assert built == table
    assert built.probs == table.probs == probs
    for ctx in CONTEXTS:
        # cell order and explicit zeros survive both constructors
        assert list(built.context_pmf(ctx).items()) == list(table.context_pmf(ctx).items()) == list(probs[ctx].items())
        assert all(type(p) is Fraction for p in built.context_pmf(ctx).values())
        for x, y in itertools.product(table.outcomes, repeat=2):
            assert built.prob(ctx, x, y) == table.prob(ctx, x, y) == probs[ctx].get((x, y), 0)
            assert type(built.prob(ctx, x, y)) is Fraction
        for coord in (0, 1):
            want = {v: sum((p for cell, p in probs[ctx].items() if cell[coord] == v), Fraction(0)) for v in table.outcomes}
            assert built.marginal(ctx, coord) == table.marginal(ctx, coord) == want
    want_quad = {ctx: sum((x * y * p for (x, y), p in probs[ctx].items()), Fraction(0)) for ctx in CONTEXTS}
    assert built.quad() == table.quad() == CorrelationQuad(*SETTINGS, want_quad)
    normalized = all(min(pmf.values()) >= 0 and sum(pmf.values()) == 1 for pmf in probs.values())
    assert built.is_normalized() == table.is_normalized() == normalized
    assert serialize(built) == serialize(table)
    # the stored form is reduced by the gcd, so equal tables store equal integers
    assert built.integer_cells() == table.integer_cells()
    stored_scale, stored = table.integer_cells()
    assert math.gcd(stored_scale, *(w for pmf in stored.values() for w in pmf.values())) == 1


def test_tables_that_differ_are_unequal():
    base = {ctx: {(1, 1): Fraction(1, 2), (-1, -1): Fraction(1, 2)} for ctx in CONTEXTS}
    table = BehaviorTable(*SETTINGS, (-1, 1), base)
    with_zero = {**base, CONTEXTS[0]: {**base[CONTEXTS[0]], (1, -1): Fraction(0)}}
    moved = {**base, CONTEXTS[3]: {(1, 1): Fraction(1, 4), (-1, -1): Fraction(3, 4)}}
    assert table == BehaviorTable(*SETTINGS, (-1, 1), {ctx: dict(pmf) for ctx, pmf in base.items()})
    assert table != BehaviorTable(*SETTINGS, (-1, 1), with_zero)
    assert table != BehaviorTable(*SETTINGS, (-1, 1), moved)
    assert table != BehaviorTable(*SETTINGS, (-1, 0, 1), base)
    assert table == BehaviorTable.from_integers(*SETTINGS, (-1, 1), 6, {ctx: {(1, 1): 3, (-1, -1): 3} for ctx in CONTEXTS})


def _signalling_tables(n: int, seed: int):
    """Binary tables with random cells: most signal, and some break normalization."""
    rng = random.Random(seed)
    for _ in range(n):
        probs = {}
        for ctx in CONTEXTS:
            counts = [rng.randint(0, 4) for _ in range(4)]
            total = max(sum(counts), 1) + rng.choice((0, 0, 0, 1))
            probs[ctx] = {cell: Fraction(c, total) for cell, c in zip(itertools.product((-1, 1), repeat=2), counts)}
        yield BehaviorTable(*SETTINGS, (-1, 1), probs)


def _one_side_signalling_tables(seed: int):
    """No-signalling tables with one context's mass moved so only one side's marginal changes.

    Moving mass from (1, 1) to (1, -1) keeps Alice's marginal and changes
    Bob's; moving it to (-1, 1) does the mirror.
    """
    rng = random.Random(seed)
    for i in range(40):
        table = random_nosignalling_behavior(rng)
        scale, cells = table.integer_cells()
        ctx = CONTEXTS[i % 4]
        target = (1, -1) if i % 2 == 0 else (-1, 1)
        moved = min(cells[ctx][1, 1], 1)
        cells[ctx][1, 1] -= moved
        cells[ctx][target] += moved
        yield BehaviorTable.from_integers(*SETTINGS, (-1, 1), scale, cells)


def _nonsignalling_tables(seed: int):
    rng = random.Random(seed)
    for i in range(40):
        yield random_nosignalling_behavior(rng, mode="generic" if i % 2 == 0 else "near_quantum")
    for i, model in enumerate(corpus_models(40, seed=seed)):
        if i % 2 == 0:
            yield behavior_from_model(zero_to_coin(model))


def test_no_signalling_report_matches_the_fraction_oracle():
    holds = signals = 0
    tables = (_signalling_tables(60, seed=3), _one_side_signalling_tables(seed=5), _nonsignalling_tables(seed=4))
    for table in itertools.chain(*tables):
        report = check_no_signalling(table)
        assert report == NoSignallingReport(*brute_no_signalling(table))
        assert all(type(p) is Fraction for side in (report.alice, report.bob)
                   for by_other in side.values() for m in by_other.values() for p in m.values())
        # Fine's closed form: no-signalling and all eight CHSH inequalities
        assert fine_criterion(table) == (report.holds and chsh_values(table.quad()).satisfied)
        holds += report.holds
        signals += not report.holds
    assert holds >= 60 and signals >= 80


def test_oracles_never_touch_the_integer_cells(monkeypatch):
    """brute_postselect, brute_no_signalling and fraction_find_feasible read a table only as Fractions."""
    models = list(corpus_models(8, seed=515, max_source_side=3, max_instrument=3))
    ternary = [behavior_from_model(m) for m in models[::2]]
    binary = [behavior_from_model(zero_to_coin(m)) for m in models[::2]]
    patterns = list(itertools.product((-1, 1), repeat=4))
    incidence = [[Fraction(1)] * 16] + [
        [Fraction(t[ai] == x and t[2 + bi] == y) for t in patterns]
        for ai in range(2) for bi in range(2) for x in (-1, 1) for y in (-1, 1)
    ]

    def run_oracles():
        out = [brute_postselect(b) for b in ternary]
        out.extend(brute_no_signalling(b) for b in binary)
        for b in binary:
            rhs = [Fraction(1)] + [b.prob((a, bb), x, y) for a in b.alice_settings for bb in b.bob_settings
                                   for x in (-1, 1) for y in (-1, 1)]
            out.append(fraction_find_feasible(incidence, rhs))
        return out

    want = run_oracles()
    assert any(x is not None for x in want[-len(binary):])

    def forbidden(*_args, **_kwargs):
        raise AssertionError("an oracle used the integer form of a behavior")

    for name in ("integer_cells", "integer_marginal", "is_normalized", "quad", "marginal", "from_integers"):
        monkeypatch.setattr(BehaviorTable, name, forbidden)
    monkeypatch.setattr(BehaviorTable, "scale", property(forbidden))
    monkeypatch.setattr(JointDistribution16, "_from_integers", forbidden)
    monkeypatch.setattr(simplex, "find_feasible", forbidden)
    assert run_oracles() == want
