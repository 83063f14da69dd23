import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lhvlab import (
    BehaviorTable,
    CorrelationQuad,
    behavior_from_model,
    chsh_values,
    correlation_quad,
    counterexample_model,
    fine_criterion,
    postselected_correlations,
    product_flatten,
    validate_model,
    zero_to_coin,
)
from conftest import brute_chsh, brute_postselect
from lhvlab.corpus import random_contextual_model, random_nosignalling_behavior


CONTEXTS = [("x", "y"), ("x", "y'"), ("x'", "y"), ("x'", "y'")]


def quad_of(values):
    return CorrelationQuad(("x", "x'"), ("y", "y'"), dict(zip(CONTEXTS, map(Fraction, values))))


class TestChshValues:
    def test_counterexample_combination_zero_and_satisfied(self):
        report = chsh_values(correlation_quad(counterexample_model()))
        assert report.satisfied
        assert report.max_abs == 2
        combo = next(
            c for c in report.combinations if c.flipped == ("-1", "+1") and c.sign == 1
        )
        assert combo.value == 0

    def test_all_equal_quad_sits_on_the_boundary(self):
        report = chsh_values(quad_of([1, 1, 1, 1]))
        assert report.max_abs == 2
        assert report.satisfied

    def test_quantum_quad_breaks_the_bound(self):
        s = math.sqrt(2) / 2
        quad = CorrelationQuad(
            ("x", "x'"),
            ("y", "y'"),
            {("x", "y"): -s, ("x", "y'"): -s, ("x'", "y"): -s, ("x'", "y'"): s},
        )
        report = chsh_values(quad)
        assert not report.satisfied
        assert abs(report.max_abs - 2 * math.sqrt(2)) < 1e-12

    def test_exactly_eight_combinations(self):
        report = chsh_values(quad_of([0, 0, 0, 0]))
        assert len(report.combinations) == 8
        assert report.max_abs == 0

    def test_out_of_range_entry_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            chsh_values(quad_of([Fraction(3, 2), 0, 0, 0]))

    def test_describe_names_four_terms(self):
        report = chsh_values(quad_of([1, 0, 0, -1]))
        text = report.combinations[0].describe()
        assert text.count("E") == 4


rational = st.integers(min_value=-8, max_value=8).map(lambda k: Fraction(k, 8))


@settings(max_examples=100, deadline=None)
@given(rational, rational, rational, rational)
def test_value_multiset_closed_under_outcome_sign_flips(e1, e2, e3, e4):
    # negating one setting's outcomes negates a whole row or column of the quad
    base = sorted(c.value for c in chsh_values(quad_of([e1, e2, e3, e4])).combinations)
    row_flips = [
        [-e1, -e2, e3, e4],  # Alice's first setting
        [e1, e2, -e3, -e4],  # Alice's second
        [-e1, e2, -e3, e4],  # Bob's first
        [e1, -e2, e3, -e4],  # Bob's second
    ]
    for vals in row_flips:
        flipped = sorted(c.value for c in chsh_values(quad_of(vals)).combinations)
        assert flipped == base


@settings(max_examples=100, deadline=None)
@given(rational, rational, rational, rational)
def test_value_multiset_closed_under_setting_relabel(e1, e2, e3, e4):
    base = sorted(c.value for c in chsh_values(quad_of([e1, e2, e3, e4])).combinations)
    swapped_alice = sorted(c.value for c in chsh_values(quad_of([e3, e4, e1, e2])).combinations)
    swapped_bob = sorted(c.value for c in chsh_values(quad_of([e2, e1, e4, e3])).combinations)
    assert swapped_alice == base
    assert swapped_bob == base


@settings(max_examples=200, deadline=None)
@given(rational, rational, rational, rational)
def test_combinations_match_the_longhand_oracle(e1, e2, e3, e4):
    combos = chsh_values(quad_of([e1, e2, e3, e4])).combinations
    assert [(c.flipped, c.sign) for c in combos] == [(ctx, s) for ctx in CONTEXTS for s in (1, -1)]
    assert [c.value for c in combos] == brute_chsh(e1, e2, e3, e4)
    assert all(type(c.value) is Fraction for c in combos)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1, 1), min_size=4, max_size=4))
def test_float_quads_give_float_combinations(values):
    combos = chsh_values(CorrelationQuad(("x", "x'"), ("y", "y'"), dict(zip(CONTEXTS, values)))).combinations
    assert all(type(c.value) is float for c in combos)
    assert [c.value for c in combos] == pytest.approx(brute_chsh(*values), abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(("generic", "near_quantum")))
def test_fine_criterion_matches_the_longhand_oracle(seed, mode):
    # no-signalling by construction, so the criterion is the eight CHSH inequalities alone
    table = random_nosignalling_behavior(random.Random(seed), mode=mode)
    values = [sum(x * y * table.prob(ctx, x, y) for x in (-1, 1) for y in (-1, 1)) for ctx in table.contexts()]
    assert fine_criterion(table) == all(abs(v) <= 2 for v in brute_chsh(*values))


def test_per_atom_combinations_are_plus_minus_two():
    rng = random.Random(13)
    for _ in range(10):
        m = random_contextual_model(rng, max_source_side=3, max_instrument=2, outcome_kind="binary")
        flat = product_flatten(m)
        for lam, mass in flat.lambda_pmf.support():
            x1 = flat.alice[0].evaluate(lam)
            x2 = flat.alice[1].evaluate(lam)
            y1 = flat.bob[0].evaluate(lam)
            y2 = flat.bob[1].evaluate(lam)
            terms = [x1 * y1, x1 * y2, x2 * y1, x2 * y2]
            total = sum(terms)
            for t in terms:  # all 8 one-sided combinations, atom by atom
                assert total - 2 * t in (-2, 2)
                assert -(total - 2 * t) in (-2, 2)


class TestPostSelection:
    def test_binary_like_ternary_behavior_conditions_trivially(self):
        rng = random.Random(40)
        m = random_contextual_model(rng, max_source_side=3, max_instrument=2, outcome_kind="binary")
        # widen the alphabet to ternary without introducing zeros
        b = behavior_from_model(m)
        ternary = BehaviorTable(b.alice_settings, b.bob_settings, (-1, 0, 1), b.probs)
        ps = postselected_correlations(ternary)
        for ctx in ternary.contexts():
            assert ps.coincidence_rate[ctx] == 1
            assert ps.conditional[ctx] == ps.raw_quad.values[ctx]

    def test_all_zero_context_is_undefined_not_fabricated(self):
        probs = {}
        for i, ctx in enumerate([("x", "y"), ("x", "y'"), ("x'", "y"), ("x'", "y'")]):
            if i == 0:
                probs[ctx] = {(0, 0): Fraction(1)}
            else:
                probs[ctx] = {(1, 1): Fraction(1)}
        b = BehaviorTable(("x", "x'"), ("y", "y'"), (-1, 0, 1), probs)
        ps = postselected_correlations(b)
        assert ps.conditional[("x", "y")] is None
        assert ps.coincidence_rate[("x", "y")] == 0
        with pytest.raises(ValueError, match="undefined"):
            ps.conditional_quad()

    def test_binary_behavior_rejected(self):
        b = behavior_from_model(counterexample_model())
        with pytest.raises(ValueError, match="ternary"):
            postselected_correlations(b)


CONTEXTS = [("x", "y"), ("x", "y'"), ("x'", "y"), ("x'", "y'")]
TERNARY_CELLS = [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)]


def ternary_table(probs) -> BehaviorTable:
    return BehaviorTable(("x", "x'"), ("y", "y'"), (-1, 0, 1), dict(zip(CONTEXTS, probs)))


@st.composite
def ternary_tables(draw):
    """Normalized ternary tables: integer weights over a random total, so
    the reduced cell masses have unequal denominators; a context whose
    weight all sits on zero outcomes has no coincidences."""
    probs = []
    for _ctx in CONTEXTS:
        cells = draw(st.lists(st.sampled_from(TERNARY_CELLS), min_size=1, max_size=9, unique=True))
        weights = draw(st.lists(st.integers(0, 12), min_size=len(cells), max_size=len(cells)))
        if sum(weights) == 0:
            weights[0] = 1
        total = sum(weights)
        probs.append({cell: Fraction(w, total) for cell, w in zip(cells, weights)})
    return ternary_table(probs)


def assert_same_report(got, want):
    """Field by field, item order and value types included."""
    assert got.raw_quad.alice_settings == want.raw_quad.alice_settings
    assert got.raw_quad.bob_settings == want.raw_quad.bob_settings
    fields = ("conditional", "coincidence_rate", "alice_detect", "bob_detect")
    for g, w in [(got.raw_quad.values, want.raw_quad.values)] + [
        (getattr(got, f), getattr(want, f)) for f in fields
    ]:
        assert list(g.items()) == list(w.items())
        assert [type(v) for v in g.values()] == [type(v) for v in w.values()]
    assert got == want


def assert_same_error(behavior):
    with pytest.raises(ValueError) as want:
        brute_postselect(behavior)
    with pytest.raises(ValueError) as got:
        postselected_correlations(behavior)
    assert str(got.value) == str(want.value)


class TestPostSelectionOracle:
    def test_corpus_behaviors_match_the_oracle(self):
        rng = random.Random(41)
        for _ in range(60):
            m = random_contextual_model(rng, max_source_side=4, max_instrument=3, outcome_kind="ternary")
            b = behavior_from_model(m)
            assert_same_report(postselected_correlations(b), brute_postselect(b))

    @given(ternary_tables())
    @settings(max_examples=150, deadline=None)
    def test_tables_match_the_oracle(self, table):
        assert_same_report(postselected_correlations(table), brute_postselect(table))

    def test_zero_coincidence_and_unequal_denominators(self):
        table = ternary_table(
            [
                {(0, 1): Fraction(1, 2), (-1, 0): Fraction(1, 3), (0, 0): Fraction(1, 6)},
                {(1, 1): Fraction(1, 4), (-1, 1): Fraction(2, 3), (0, -1): Fraction(1, 12)},
                {(1, -1): Fraction(1)},
                {(1, 1): Fraction(1, 5), (1, 0): Fraction(0), (-1, -1): Fraction(4, 5)},
            ]
        )
        got = postselected_correlations(table)
        assert got.conditional[("x", "y")] is None
        assert got.conditional[("x", "y'")] == Fraction(-5, 11)
        assert_same_report(got, brute_postselect(table))

    def test_bad_tables_raise_the_oracle_error(self):
        good = {(1, 1): Fraction(1, 2), (0, -1): Fraction(1, 2)}
        short = {(1, 1): Fraction(1, 2), (0, -1): Fraction(1, 3)}
        negative = {(1, 1): Fraction(3, 2), (0, -1): Fraction(-1, 2)}
        for bad in (short, negative, {}):
            for slot in range(4):
                probs = [good] * 4
                probs[slot] = bad
                assert_same_error(ternary_table(probs))
        probs = dict.fromkeys(CONTEXTS, {(1, 1): Fraction(1)})
        binary = BehaviorTable(("x", "x'"), ("y", "y'"), (-1, 1), probs)
        assert_same_error(binary)


class TestZeroToCoin:
    def test_no_zeros_means_no_change(self):
        m = counterexample_model()
        out = zero_to_coin(m)
        assert correlation_quad(out).ordered() == (1, 0, 0, -1)
        assert out.alice[0].instrument == m.alice[0].instrument

    def test_random_ternary_models_keep_their_quads(self):
        rng = random.Random(17)
        for _ in range(30):
            m = random_contextual_model(rng, max_source_side=3, max_instrument=2, outcome_kind="ternary")
            out = zero_to_coin(m)
            assert validate_model(out).ok
            assert correlation_quad(out).values == correlation_quad(m).values
            assert not out.is_ternary()
            for s in out.alice + out.bob:
                assert set(s.outcomes.entries.values()) <= {Fraction(-1), Fraction(1)}

    def test_behavior_of_reduced_model_has_no_zeros(self):
        rng = random.Random(18)
        m = random_contextual_model(rng, max_source_side=2, max_instrument=2, outcome_kind="ternary")
        b = behavior_from_model(zero_to_coin(m))
        assert b.outcomes == (-1, 1)

    def test_fractional_model_rejected(self):
        rng = random.Random(19)
        m = random_contextual_model(rng, max_source_side=2, max_instrument=2, outcome_kind="interval")
        if all(
            set(s.outcomes.entries.values()) <= {Fraction(-1), Fraction(0), Fraction(1)}
            for s in m.alice + m.bob
        ):
            pytest.skip("random draw produced a ternary-valued model")
        with pytest.raises(ValueError, match="non-ternary"):
            zero_to_coin(m)
