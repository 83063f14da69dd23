import random
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    brute_bars,
    brute_behavior,
    brute_detection_rates,
    brute_flat_quad,
    brute_quad,
    brute_side_expectation,
    corpus_models,
)
from lhvlab import (
    ContextualModel,
    DomainMismatchError,
    FlatModel,
    FlatSetting,
    OutcomeTable,
    Pmf,
    Setting,
    behavior_from_model,
    bell_average,
    correlation_quad,
    counterexample_model,
    detection_rates,
    exact_side_expectation,
    product_flatten,
    uniform_reduce,
    validate_model,
    zero_to_coin,
)
from lhvlab.corpus import random_contextual_model
from lhvlab.flatten import _quantile_cells, _quantile_model, _quantile_size, product_size


def cell_bounds(first, second):
    """The cells of :func:`_quantile_cells` as ``(lo, hi)`` Fractions."""
    scale, grid, _atoms = _quantile_cells(first, second)
    points = [Fraction(p, scale) for p in grid]
    return list(zip(points, points[1:]))


class TestProductFlatten:
    def test_counterexample_quad_preserved(self):
        fm = product_flatten(counterexample_model())
        assert fm.quad().ordered() == (1, 0, 0, -1)

    def test_single_pmf_serves_all_contexts(self):
        fm = product_flatten(counterexample_model())
        for setting in fm.alice + fm.bob:
            assert setting.coords[0] in (0, 1)
        # one shared distribution object, no per-context copies
        assert len({id(fm.lambda_pmf)}) == 1

    def test_singleton_instruments_keep_source_size(self):
        m = counterexample_model()
        fm = product_flatten(m)
        assert len(fm.lambda_pmf) == len(m.source)

    def test_random_models_reproduce_quads_exactly(self):
        for m in corpus_models(60, seed=31, max_source_side=4, max_instrument=3):
            assert product_flatten(m).quad().values == brute_quad(m).values

    def test_product_size_counts_the_atoms_built(self):
        for m in [counterexample_model(), *corpus_models(60, seed=32, max_source_side=4, max_instrument=3)]:
            assert product_size(m) == len(product_flatten(m).lambda_pmf)


def brute_tuple_product(model, spaces):
    """``(tuple, mass)`` of every atom of the source pairs times ``spaces``, in Fractions from ``support()``,
    source-major and then each space in turn."""
    atoms = list(model.source.support())
    for pmf in spaces:
        atoms = [(lam + (lab,), m * p) for lam, m in atoms for lab, p in pmf.support()]
    return atoms


class TestTupleProduct:
    """Both flat models against an atom-by-atom Fraction product of the supports they are built on."""

    @staticmethod
    def models():
        rng = random.Random(30)
        drawn = [
            random_contextual_model(rng, max_source_side=3, max_instrument=3, outcome_kind=kind)
            for kind in ("binary", "ternary", "interval") for _ in range(15)
        ]
        # some drawn pmfs list atoms of zero mass, which no tuple may carry
        pmfs = [pmf for m in drawn for pmf in [m.source] + [s.instrument for s in m.alice + m.bob]]
        assert any(0 in pmf.integer_atoms()[1].values() for pmf in pmfs)
        # the counterexample's four settings share one point instrument object
        counter = counterexample_model()
        assert len({id(s.instrument) for s in counter.alice + counter.bob}) == 1
        return [counter] + drawn

    @staticmethod
    def assert_built_on(flat, model, spaces, coords):
        assert list(flat.lambda_pmf.items()) == brute_tuple_product(model, spaces)
        for k, (setting, s) in enumerate(zip(flat.alice + flat.bob, model.alice + model.bob)):
            assert (setting.name, setting.coords, setting.outcomes) == (s.name, (k // 2, coords[k]), s.outcomes)

    def test_product_flatten(self):
        for m in self.models():
            instruments = [s.instrument for s in m.alice + m.bob]
            self.assert_built_on(product_flatten(m), m, instruments, (2, 3, 4, 5))

    def test_uniform_reduce(self):
        for m in self.models():
            quantile = _quantile_model(m)
            spaces = [quantile.alice[0].instrument, quantile.bob[0].instrument]
            self.assert_built_on(uniform_reduce(m), quantile, spaces, (2, 2, 3, 3))


class TestRefineBreakpoints:
    """The common refinement of two pmfs' cumulative breakpoints: :func:`_quantile_cells`."""

    def test_merge_of_half_and_thirds(self):
        two = Pmf.uniform(["a", "b"])
        three = Pmf.uniform(["p", "q", "r"])
        cells = cell_bounds(two, three)
        bounds = [c[0] for c in cells] + [cells[-1][1]]
        assert bounds == [0, Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), 1]
        assert len(cells) == 4
        assert _quantile_cells(two, three)[2] == [["a", "a", "b", "b"], ["p", "q", "q", "r"]]

    def test_identical_pmfs_give_quantile_partition(self):
        p = Pmf({"a": Fraction(1, 4), "b": Fraction(3, 4)})
        cells = cell_bounds(p, p)
        assert cells == [(0, Fraction(1, 4)), (Fraction(1, 4), 1)]

    def test_lengths_sum_to_one(self):
        rng = random.Random(77)
        for _ in range(50):
            p = Pmf.from_weights({f"a{i}": rng.randint(0, 9) + (1 if i == 0 else 0) for i in range(4)})
            q = Pmf.from_weights({f"b{i}": rng.randint(0, 9) + (1 if i == 0 else 0) for i in range(3)})
            cells = cell_bounds(p, q)
            assert sum(hi - lo for lo, hi in cells) == 1
            assert all(hi > lo for lo, hi in cells)
            for pmf, atoms in zip((p, q), _quantile_cells(p, q)[2]):
                # the atom named for a cell is the one whose inverse-CDF interval holds the cell
                support = list(pmf.support())
                starts = dict(zip([lab for lab, _m in support], accumulate([0] + [m for _lab, m in support])))
                for (lo, hi), atom in zip(cells, atoms):
                    assert starts[atom] <= lo and hi <= starts[atom] + dict(support)[atom]


class TestUniformReduce:
    def test_counterexample_quad_preserved(self):
        fm = uniform_reduce(counterexample_model())
        assert fm.quad().ordered() == (1, 0, 0, -1)

    def test_uniform_size_counts_the_atoms_built(self):
        for m in [counterexample_model(), *corpus_models(60, seed=35, max_source_side=4, max_instrument=4)]:
            assert _quantile_size(_quantile_model(m)) == len(uniform_reduce(m).lambda_pmf)

    def test_tuple_arity_is_four(self):
        fm = uniform_reduce(counterexample_model())
        lam = next(iter(fm.lambda_pmf.labels()))
        assert len(lam) == 4

    def test_matches_product_flatten_on_random_models(self):
        for m in corpus_models(60, seed=32, max_source_side=4, max_instrument=3):
            expected = brute_quad(m).values
            assert uniform_reduce(m).quad().values == expected
            assert product_flatten(m).quad().values == expected

    def test_cell_lengths_recoverable_and_sum_to_one(self):
        rng = random.Random(4)
        m = random_contextual_model(rng, max_source_side=3, max_instrument=4)
        cells_a = cell_bounds(m.alice[0].instrument, m.alice[1].instrument)
        fm = uniform_reduce(m)
        u1_labels = {lam[2] for lam in fm.lambda_pmf.labels()}
        assert len(u1_labels) == len(cells_a)
        assert sum(hi - lo for lo, hi in cells_a) == 1

    def test_quantile_model_is_well_formed_and_keeps_the_quad(self):
        for m in [counterexample_model(), *corpus_models(40, seed=36, max_source_side=4, max_instrument=4)]:
            quantile = _quantile_model(m)
            assert validate_model(quantile).ok
            assert correlation_quad(quantile).values == brute_quad(m).values
            # one shared cell pmf per side
            assert quantile.alice[0].instrument is quantile.alice[1].instrument
            assert quantile.bob[0].instrument is quantile.bob[1].instrument

    @pytest.mark.parametrize(
        "masses", [{"*": "1/2"}, {"*": "3/2"}, {"*": "3/2", "q": "-1/2"}], ids=["short", "over", "negative"]
    )
    def test_instrument_not_summing_to_one_is_a_value_error(self, masses):
        m = counterexample_model()
        x, x2 = m.alice
        y, y2 = m.bob
        alice_broken = ContextualModel(m.source, (Setting(x.name, Pmf(masses), x.outcomes), x2), m.bob)
        bob_broken = ContextualModel(m.source, m.alice, (y, Setting(y2.name, Pmf(masses), y2.outcomes)))
        # every builder, and the quantile model the CLI counts the uniform atoms on
        for build in (product_flatten, uniform_reduce, bell_average, _quantile_model):
            with pytest.raises(ValueError, match=r"^settings '\+1' and '-1': the instrument of '\+1' does not sum to 1"):
                build(alice_broken)
            with pytest.raises(ValueError, match=r"^settings '\+1' and '-1': the instrument of '-1' does not sum to 1"):
                build(bob_broken)


class TestBellAverage:
    def test_counterexample_bars(self):
        am = bell_average(counterexample_model())
        assert all(v == 1 for v in am.alice_bar["+1"].values())
        assert am.quad().ordered() == (1, 0, 0, -1)

    def test_instrument_independent_table_averages_to_itself(self):
        rng = random.Random(8)
        m = random_contextual_model(rng, max_source_side=3, max_instrument=1, outcome_kind="interval")
        am = bell_average(m)
        for setting in m.alice:
            atom = setting.instrument.labels()[0]
            for lab, bar in am.alice_bar[setting.name].items():
                assert bar == setting.outcomes.value(lab, atom)

    def test_random_models_reproduce_quads_and_bounds(self):
        for m in corpus_models(60, seed=33, max_source_side=4, max_instrument=3):
            am = bell_average(m)
            assert am.quad().values == brute_quad(m).values
            for bars in (am.alice_bar, am.bob_bar):
                for per_setting in bars.values():
                    for v in per_setting.values():
                        assert abs(v) <= 1


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from(["ternary", "interval", "binary"]))
def test_flatten_equivalence_property(seed, kind):
    rng = random.Random(seed)
    m = random_contextual_model(rng, max_source_side=3, max_instrument=3, outcome_kind=kind)
    expected = brute_quad(m).values
    assert correlation_quad(m).values == expected
    assert product_flatten(m).quad().values == expected
    assert uniform_reduce(m).quad().values == expected
    averaged = bell_average(m)
    assert averaged.quad().values == expected
    assert (averaged.alice_bar, averaged.bob_bar) == brute_bars(m)
    rates = detection_rates(m)
    assert (rates.alice, rates.bob) == brute_detection_rates(m)
    for side, side_settings in (("alice", m.alice), ("bob", m.bob)):
        for s in side_settings:
            assert exact_side_expectation(m, side, s.name) == brute_side_expectation(m, side, s)
    for pm in () if kind == "interval" else (m, zero_to_coin(m)):
        behavior = behavior_from_model(pm)
        want = brute_behavior(pm)
        # compared as item lists, so the cell order (and the serialized form) is pinned
        assert [list(behavior.probs[ctx].items()) for ctx in behavior.contexts()] == [
            list(want[ctx].items()) for ctx in pm.contexts()
        ]


@st.composite
def flat_models(draw):
    """Hand-built flat models: any tuple length, zero-mass atoms, shared coordinates."""
    arity = draw(st.integers(min_value=1, max_value=9))
    alphabet = st.sampled_from(["p", "q", "r"])
    tuples = draw(
        st.lists(st.tuples(*[alphabet] * arity), min_size=1, max_size=10, unique=True)
    )
    mass = st.fractions(min_value=0, max_value=1, max_denominator=12)
    pmf = Pmf([(lam, draw(mass)) for lam in tuples])
    coord = st.integers(min_value=0, max_value=arity - 1)
    coords = [(draw(coord), draw(coord)) for _ in range(4)]
    if draw(st.booleans()):
        coords[draw(st.integers(1, 3))] = coords[0]
    interval = st.fractions(min_value=-1, max_value=1, max_denominator=10)
    settings_ = []
    for k, (i, j) in enumerate(coords):
        ternary = draw(st.booleans())
        value = st.sampled_from([Fraction(-1), Fraction(0), Fraction(1)]) if ternary else interval
        keys = dict.fromkeys((lam[i], lam[j]) for lam in tuples)
        table = OutcomeTable({key: draw(value) for key in keys}, ternary=ternary)
        settings_.append(FlatSetting(f"s{k}", (i, j), table))
    return FlatModel(pmf, tuple(settings_[:2]), tuple(settings_[2:]))


def assert_flat_quad_matches_oracle(flat):
    quad = flat.quad()
    want = brute_flat_quad(flat)
    assert list(quad.values.items()) == list(want.values.items())
    assert all(type(v) is Fraction for v in quad.values.values())


@settings(max_examples=200, deadline=None)
@given(flat_models())
def test_flat_quad_matches_atom_oracle(flat):
    assert_flat_quad_matches_oracle(flat)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from(["ternary", "interval", "binary"]))
def test_flattened_corpus_quads_match_atom_oracle(seed, kind):
    m = random_contextual_model(
        random.Random(seed), max_source_side=3, max_instrument=3, outcome_kind=kind
    )
    for flat in (product_flatten(m), uniform_reduce(m)):
        assert_flat_quad_matches_oracle(flat)


def test_flat_quad_with_no_support_is_zero():
    table = OutcomeTable({("p", "p"): Fraction(1, 2)})
    pmf = Pmf([(("p",), Fraction(0))])
    flat = FlatModel(
        pmf,
        (FlatSetting("x", (0, 0), table), FlatSetting("x'", (0, 0), table)),
        (FlatSetting("y", (0, 0), table), FlatSetting("y'", (0, 0), table)),
    )
    assert_flat_quad_matches_oracle(flat)
    assert flat.quad().ordered() == (0, 0, 0, 0)


def test_flat_quad_is_independent_of_contextual_kernel(monkeypatch):
    """The flat quads check the kernel, so they must not be computed by it."""
    import lhvlab.loophole
    import lhvlab.model

    models = list(corpus_models(6, seed=34, max_source_side=3, max_instrument=3))
    flats = [f(m) for m in models for f in (product_flatten, uniform_reduce)]

    def forbidden(*_args, **_kwargs):
        raise AssertionError("flat evaluation called the contextual kernel")

    for module in (lhvlab.model, lhvlab.loophole):
        monkeypatch.setattr(module, "setting_rows", forbidden)
    for flat in flats:
        assert flat.quad().values == brute_flat_quad(flat).values


@st.composite
def flat_models_with_spare_entries(draw):
    """Flat models whose tables list what the support reads, plus entries nothing reads.

    The unread entries have denominators near 10**30, so they set each
    table's integer scale; the zero-mass atoms carry a label "z" that no
    table lists, so some of their keys are missing.
    """
    arity = draw(st.integers(min_value=1, max_value=6))
    support = draw(st.lists(st.tuples(*[st.sampled_from("pqr")] * arity), min_size=1, max_size=8, unique=True))
    marked = st.tuples(st.tuples(*[st.sampled_from("pqr")] * arity), st.integers(0, arity - 1))
    idle = list(dict.fromkeys(lam[:k] + ("z",) + lam[k + 1 :] for lam, k in draw(st.lists(marked, max_size=4))))
    mass = st.builds(Fraction, st.integers(1, 12), st.integers(1, 12))
    atoms = [(lam, draw(mass)) for lam in support] + [(lam, Fraction(0)) for lam in idle]
    pmf = Pmf(draw(st.permutations(atoms)))
    coord = st.integers(min_value=0, max_value=arity - 1)
    read = st.fractions(min_value=-1, max_value=1, max_denominator=10)
    spare = st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(10**30, 10**30 + 10**6))
    settings_ = []
    for k in range(4):
        i, j = draw(coord), draw(coord)
        entries = {(lam[i], lam[j]): draw(read) for lam in support}
        for key in draw(st.lists(st.tuples(st.sampled_from("stu"), st.sampled_from("stu")), max_size=4)):
            entries[key] = draw(spare)
        settings_.append(FlatSetting(f"s{k}", (i, j), OutcomeTable(entries)))
    return FlatModel(pmf, tuple(settings_[:2]), tuple(settings_[2:]))


@settings(max_examples=100, deadline=None)
@given(flat_models_with_spare_entries())
def test_flat_quad_ignores_unread_entries_and_idle_atoms(flat):
    assert_flat_quad_matches_oracle(flat)


def test_flat_quad_names_the_first_missing_key_of_the_support():
    """The message is the one recorded before the columns were read off the table entries."""
    pmf = Pmf([(("a", "x"), 0), (("p", "q"), Fraction(1, 2)), (("r", "s"), Fraction(1, 4)), (("t", "u"), Fraction(1, 4))])
    full = OutcomeTable({("p", "q"): 1, ("r", "s"): -1, ("t", "u"): 0})
    holey = OutcomeTable({("p", "q"): 1})
    alice = (FlatSetting("x", (0, 1), full), FlatSetting("x'", (0, 1), full))
    bob = (FlatSetting("y", (0, 1), full), FlatSetting("y'", (0, 1), full))
    # the zero-mass atom's key ("a", "x") is in no table, and is not an error
    assert FlatModel(pmf, alice, bob).quad().ordered() == (Fraction(3, 4),) * 4
    flat = FlatModel(pmf, alice, (bob[0], FlatSetting("y'", (0, 1), holey)))
    with pytest.raises(DomainMismatchError) as info:
        flat.quad()
    assert str(info.value) == "no outcome for (source='r', instrument='s')"
