import importlib
import inspect
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lhvlab.loophole
import lhvlab.model
from conftest import (
    brute_bars,
    brute_behavior,
    brute_detection_rates,
    brute_quad,
    brute_setting_rows,
    brute_side_expectation,
    corpus_models,
)
from lhvlab import (
    ContextualModel,
    DomainMismatchError,
    OutcomeTable,
    Pmf,
    SearchConfig,
    Setting,
    behavior_from_model,
    bell_average,
    correlation_quad,
    counterexample_model,
    detection_rates,
    exact_expectation,
    exact_side_expectation,
    search_postselection_violation,
    validate_model,
)
from lhvlab.corpus import random_contextual_model
from lhvlab.model import as_fraction, setting_rows


def constant_model(value=1):
    source = Pmf.uniform([("a", "b")])
    unit = Pmf.point("*")
    table_a = OutcomeTable({("a", "*"): Fraction(value)})
    table_b = OutcomeTable({("b", "*"): Fraction(value)})
    return ContextualModel(
        source,
        (Setting("x", unit, table_a), Setting("x'", unit, table_a)),
        (Setting("y", unit, table_b), Setting("y'", unit, table_b)),
    )


class TestValidate:
    def test_well_formed_model_gives_empty_report(self):
        assert validate_model(counterexample_model()).ok

    def test_non_normalized_instrument_pmf_is_named(self):
        m = constant_model()
        bad = Setting("x", Pmf({"*": Fraction(9, 10)}), m.alice[0].outcomes)
        report = validate_model(ContextualModel(m.source, (bad, m.alice[1]), m.bob))
        assert not report.ok
        assert any("alice setting 'x' instrument pmf" in v and "9/10" in v for v in report.violations)

    def test_out_of_range_outcome_is_named(self):
        m = constant_model()
        bad_table = OutcomeTable({("a", "*"): Fraction(3, 2)})
        bad = Setting("x", Pmf.point("*"), bad_table)
        report = validate_model(ContextualModel(m.source, (bad, m.alice[1]), m.bob))
        assert any("3/2" in v and "outside [-1, 1]" in v for v in report.violations)

    def test_domain_mismatch_reported(self):
        m = constant_model()
        sparse = Setting("x", Pmf.point("*"), OutcomeTable({}))
        report = validate_model(ContextualModel(m.source, (sparse, m.alice[1]), m.bob))
        assert any("missing entries" in v for v in report.violations)

    def test_ternary_flag_enforced(self):
        m = constant_model()
        t = Setting("x", Pmf.point("*"), OutcomeTable({("a", "*"): Fraction(1, 2)}, ternary=True))
        report = validate_model(ContextualModel(m.source, (t, m.alice[1]), m.bob))
        assert any("non-ternary value" in v for v in report.violations)


class TestCounterexample:
    def test_quad_is_1_0_0_minus1(self):
        quad = correlation_quad(counterexample_model())
        assert quad.ordered() == (1, 0, 0, -1)

    def test_signature_combination_is_zero(self):
        # E(++) - E(-+) + E(+-) + E(--) == 0
        q = correlation_quad(counterexample_model())
        v = q.value("+1", "+1") - q.value("-1", "+1") + q.value("+1", "-1") + q.value("-1", "-1")
        assert v == 0

    def test_alice_single_expectations(self):
        m = counterexample_model()
        assert exact_side_expectation(m, "alice", "+1") == 1
        assert exact_side_expectation(m, "alice", "-1") == 0

    def test_validates(self):
        assert validate_model(counterexample_model()).ok


class TestExactExpectation:
    def test_constant_plus_one_model(self):
        m = constant_model(1)
        for ctx in m.contexts():
            assert exact_expectation(m, ctx) == 1

    def test_matches_brute_force_on_random_models(self):
        rng = random.Random(11)
        for _ in range(40):
            m = random_contextual_model(
                rng, max_source_side=2, max_instrument=2, outcome_kind="interval"
            )
            assert correlation_quad(m).values == brute_quad(m).values

    def test_reference_oracles_never_call_the_kernel(self, monkeypatch):
        """``exact_expectation`` and the ``brute_*`` oracles check the kernel, so they must not use it."""
        models = list(corpus_models(6, seed=34, max_source_side=3, max_instrument=3))
        quads = [correlation_quad(m).values for m in models]

        def forbidden(*_args, **_kwargs):
            raise AssertionError("a reference oracle called the contextual kernel")

        for module in (lhvlab.model, lhvlab.loophole):
            monkeypatch.setattr(module, "setting_rows", forbidden)
        monkeypatch.setattr(lhvlab.model, "_factorized_quad", forbidden)
        for m, quad in zip(models, quads):
            assert {ctx: exact_expectation(m, ctx) for ctx in m.contexts()} == quad == brute_quad(m).values
            brute_behavior(m)
            brute_detection_rates(m)
            brute_bars(m)
            for side in ("alice", "bob"):
                for s in getattr(m, side):
                    brute_side_expectation(m, side, s)

    def test_expectations_in_unit_interval(self):
        for m in corpus_models(40, seed=5):
            for ctx in m.contexts():
                v = exact_expectation(m, ctx)
                assert -1 <= v <= 1

    def test_domain_mismatch_raises(self):
        m = constant_model()
        sparse = Setting("x", Pmf.point("*"), OutcomeTable({}))
        broken = ContextualModel(m.source, (sparse, m.alice[1]), m.bob)
        with pytest.raises(DomainMismatchError):
            exact_expectation(broken, ("x", "y"))

    def test_relabel_invariance(self):
        rng = random.Random(3)
        m = random_contextual_model(rng, max_source_side=3, max_instrument=3)
        relabeled = ContextualModel(
            Pmf({(f"A{p[0]}", f"B{p[1]}"): mass for p, mass in m.source.items()}),
            tuple(
                Setting(
                    s.name,
                    Pmf({f"I{lab}": mass for lab, mass in s.instrument.items()}),
                    OutcomeTable(
                        {(f"A{k[0]}", f"I{k[1]}"): s.outcomes.value(*k) for k in s.outcomes.numerators},
                        ternary=s.outcomes.ternary,
                    ),
                )
                for s in m.alice
            ),
            tuple(
                Setting(
                    s.name,
                    Pmf({f"I{lab}": mass for lab, mass in s.instrument.items()}),
                    OutcomeTable(
                        {(f"B{k[1 - 1]}", f"I{k[1]}"): s.outcomes.value(*k) for k in s.outcomes.numerators},
                        ternary=s.outcomes.ternary,
                    ),
                )
                for s in m.bob
            ),
        )
        assert correlation_quad(relabeled).ordered() == correlation_quad(m).ordered()

    def test_merging_identical_atoms_preserves_expectations(self):
        # two source atoms with identical outcome rows merge into one
        source = Pmf({("a", "b"): Fraction(1, 3), ("a2", "b2"): Fraction(2, 3)})
        unit = Pmf.point("*")

        def table(labels):
            return OutcomeTable({(lab, "*"): Fraction(1, 2) for lab in labels})

        m = ContextualModel(
            source,
            (Setting("x", unit, table(["a", "a2"])), Setting("x'", unit, table(["a", "a2"]))),
            (Setting("y", unit, table(["b", "b2"])), Setting("y'", unit, table(["b", "b2"]))),
        )
        merged = ContextualModel(
            Pmf({("a", "b"): Fraction(1)}),
            (Setting("x", unit, table(["a"])), Setting("x'", unit, table(["a"]))),
            (Setting("y", unit, table(["b"])), Setting("y'", unit, table(["b"]))),
        )
        assert correlation_quad(m).ordered() == correlation_quad(merged).ordered()

    def test_scaling_one_side_scales_quad(self):
        rng = random.Random(9)
        m = random_contextual_model(rng, max_source_side=3, max_instrument=2, outcome_kind="interval")
        c = Fraction(3, 4)
        scaled_alice = tuple(
            Setting(
                s.name,
                s.instrument,
                OutcomeTable({k: c * s.outcomes.value(*k) for k in s.outcomes.numerators}),
            )
            for s in m.alice
        )
        scaled = ContextualModel(m.source, scaled_alice, m.bob)
        base = correlation_quad(m)
        got = correlation_quad(scaled)
        for ctx in m.contexts():
            assert got.values[ctx] == c * base.values[ctx]


class TestBehavior:
    def test_counterexample_context_pp_is_point_mass(self):
        b = behavior_from_model(counterexample_model())
        assert b.prob(("+1", "+1"), 1, 1) == 1
        assert sum(b.context_pmf(("+1", "+1")).values()) == 1

    def test_deterministic_all_plus_one(self):
        b = behavior_from_model(constant_model(1))
        for ctx in b.contexts():
            assert b.prob(ctx, 1, 1) == 1

    def test_rows_normalized_and_quad_matches_exact(self):
        rng = random.Random(21)
        for _ in range(25):
            m = random_contextual_model(rng, max_source_side=3, max_instrument=3, outcome_kind="ternary")
            b = behavior_from_model(m)
            assert b.is_normalized()
            assert b.quad().values == correlation_quad(m).values

    def test_fractional_outcomes_rejected(self):
        m = constant_model()
        frac = Setting("x", Pmf.point("*"), OutcomeTable({("a", "*"): Fraction(1, 2)}))
        bad = ContextualModel(m.source, (frac, m.alice[1]), m.bob)
        with pytest.raises(ValueError, match="fractional"):
            behavior_from_model(bad)

    def test_zero_in_unflagged_table_rejected(self):
        m = constant_model()
        z = Setting("x", Pmf.point("*"), OutcomeTable({("a", "*"): Fraction(0)}))
        bad = ContextualModel(m.source, (z, m.alice[1]), m.bob)
        with pytest.raises(ValueError, match="fractional"):
            behavior_from_model(bad)


@st.composite
def rows_cases(draw):
    """A setting over 1-4 source labels and 1-4 atoms, and a caller's ``(atom, weight)`` pairs over a scale.

    Values are ternary or in [-1, 1] with denominators up to 12; weights
    may be zero or negative.  The kernel reads the caller's pairs, not the
    setting's own instrument.
    """
    labels = [f"l{i}" for i in range(draw(st.integers(1, 4)))]
    atoms = [f"u{i}" for i in range(draw(st.integers(1, 4)))]
    value = st.one_of(
        st.sampled_from([Fraction(-1), Fraction(0), Fraction(1)]),
        st.fractions(min_value=-1, max_value=1, max_denominator=12),
    )
    table = OutcomeTable({(lab, atom): draw(value) for lab in labels for atom in atoms})
    weights = draw(st.lists(st.integers(-6, 6), min_size=len(atoms), max_size=len(atoms)))
    return Setting("x", Pmf.point(atoms[0]), table), labels, list(zip(atoms, weights)), draw(st.integers(1, 64))


class TestSettingRows:
    @settings(max_examples=300, deadline=None)
    @given(rows_cases(), st.integers(1, 8))
    def test_rows_equal_the_fraction_sums(self, case, grid):
        """Each label's (detected, first) over the caller's scale equals the term-by-term
        Fraction sums, and weights over a grid scale G, a multiple of the caller's, scale the
        rows by G over that scale and keep vscale."""
        setting, labels, atoms, scale = case
        vscale, rows = setting_rows(setting, labels, atoms)
        assert list(rows) == labels
        assert (vscale, {lab: (Fraction(d, scale), Fraction(f, scale * vscale)) for lab, (d, f) in rows.items()}) == (
            brute_setting_rows(setting, labels, atoms, scale)
        )
        scaled = setting_rows(setting, labels, [(atom, w * grid) for atom, w in atoms])
        assert scaled == (vscale, {lab: (d * grid, f * grid) for lab, (d, f) in rows.items()})

    def test_zero_weight_atoms_are_not_read(self):
        table = OutcomeTable({("l", "u"): Fraction(1, 2)})
        assert setting_rows(Setting("x", Pmf.point("u"), table), ["l"], [("u", 3), ("v", 0)]) == (2, {"l": (3, 3)})

    def test_every_reader_routes_through_the_kernel(self, monkeypatch):
        """With the kernel stubbed out, each of its readers fails; ``behavior_from_model`` keeps its own count."""
        class Routed(Exception):
            pass

        def stub(*_args):
            raise Routed

        for module in (lhvlab.model, lhvlab.loophole):
            monkeypatch.setattr(module, "setting_rows", stub)
        m = counterexample_model()
        readers = {
            "correlation_quad": lambda: correlation_quad(m),
            "bell_average": lambda: bell_average(m),
            "exact_side_expectation": lambda: exact_side_expectation(m, "alice", "+1"),
            "detection_rates": lambda: detection_rates(m),
            "search restart": lambda: search_postselection_violation(SearchConfig(seed=0, budget=1)),
        }
        for name, reader in readers.items():
            with pytest.raises(Routed):
                reader()
                pytest.fail(f"{name} did not read setting_rows")
        behavior_from_model(m)

    def test_readers_use_the_stored_integers(self, monkeypatch):
        """With ``OutcomeTable.value`` stubbed out, every package reader of a table still runs;
        ``exact_expectation``, the Fraction oracle, does not."""
        from lhvlab.chsh import zero_to_coin
        from lhvlab.flatten import product_flatten, uniform_reduce
        from lhvlab.modelio import serialize
        from lhvlab.montecarlo import from_contextual

        rng = random.Random(29)
        models = [
            counterexample_model(),
            random_contextual_model(rng, max_source_side=3, max_instrument=3, outcome_kind="ternary"),
            random_contextual_model(rng, max_source_side=3, max_instrument=3, outcome_kind="interval"),
        ]
        # two point models, the second with zeros, and one with fractional values
        assert [all(s.outcomes.values_are_point() for s in m.alice + m.bob) for m in models] == [True, True, False]
        assert models[1].is_ternary() and any(s.outcomes.has_zero() for s in models[1].alice + models[1].bob)

        def stub(*_args):
            raise AssertionError("OutcomeTable.value read")

        monkeypatch.setattr(OutcomeTable, "value", stub)
        for m in models:
            correlation_quad(m)
            bell_average(m).quad()
            product_flatten(m).quad()
            uniform_reduce(m).quad()
            detection_rates(m)
            from_contextual(m)
            serialize(m)
            serialize(product_flatten(m))
            with pytest.raises(AssertionError, match="OutcomeTable.value read"):
                exact_expectation(m, m.contexts()[0])
        for m in models[:2]:
            behavior_from_model(m)
            serialize(zero_to_coin(m))
        assert search_postselection_violation(SearchConfig(seed=0, budget=50, instrument_atoms=2, max_detection=None)).history


TRUTH_VALUES = ["-1", "0", "1", "1/2", "-1/3", "2", "-2"]


@pytest.mark.parametrize("ternary", [False, True])
@pytest.mark.parametrize("value", TRUTH_VALUES)
def test_values_are_point_truth_table(ternary, value):
    """The integer test agrees with set membership in {-1, 1}, plus 0 when ternary."""
    allowed = {Fraction(-1), Fraction(1)} | ({Fraction(0)} if ternary else set())
    alone = OutcomeTable({("a", "*"): value}, ternary=ternary)
    assert alone.values_are_point() == (Fraction(value) in allowed)
    mixed = OutcomeTable({("a", "*"): 1, ("b", "*"): value, ("c", "*"): -1}, ternary=ternary)
    assert mixed.values_are_point() == (Fraction(value) in allowed)


@pytest.mark.parametrize("ternary", [False, True])
def test_values_are_point_on_whole_tables(ternary):
    allowed = {Fraction(-1), Fraction(1)} | ({Fraction(0)} if ternary else set())
    rng = random.Random(43)
    for _ in range(200):
        entries = {(str(k), "*"): rng.choice(TRUTH_VALUES) for k in range(rng.randrange(1, 5))}
        table = OutcomeTable(entries, ternary=ternary)
        assert table.values_are_point() == all(Fraction(v) in allowed for v in entries.values())


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(st.sampled_from(TRUTH_VALUES), st.sampled_from([-1, 0, 1, 0.5, -0.25]),
                  st.fractions(min_value=-2, max_value=2, max_denominator=12)),
        min_size=1,
        max_size=6,
    ),
    st.fractions(min_value=-1, max_value=1, max_denominator=12).filter(lambda v: v.denominator > 1),
    st.booleans(),
    st.integers(1, 12),
    st.data(),
)
def test_tables_store_integers_over_one_scale(values, spare, ternary, c, data):
    """A table built from any number-like values reads them back exactly, is the same table as its
    integers over any multiple of its scale, and keeps its repr; ``values_are_point`` at a subset of
    keys is right although a spare fractional entry keeps the table's scale above 1."""
    entries = {(f"l{i}", "*"): v for i, v in enumerate(values)}
    table = OutcomeTable({**entries, ("spare", "*"): spare}, ternary=ternary)
    assert table.scale > 1
    assert all(table.value(*key) == as_fraction(v) for key, v in entries.items())
    scaled = OutcomeTable.from_integers(c * table.scale, {k: c * n for k, n in table.numerators.items()}, ternary)
    assert scaled == OutcomeTable.from_integers(table.scale, table.numerators, ternary) == table
    assert (scaled.scale, scaled.numerators) == (table.scale, table.numerators)
    assert list(scaled.numerators) == [*entries, ("spare", "*")]
    shown = {key: as_fraction(v) for key, v in entries.items()} | {("spare", "*"): spare}
    assert repr(table) == f"OutcomeTable({shown!r}, ternary={ternary})"
    keys = data.draw(st.lists(st.sampled_from(list(entries)), unique=True))
    allowed = {Fraction(-1), Fraction(1)} | ({Fraction(0)} if ternary else set())
    assert table.values_are_point(keys) == all(as_fraction(entries[k]) in allowed for k in keys)


EXACT_MODULES = ("model", "chsh", "fine", "flatten", "loophole", "modelio", "simplex")
TOLERANCE_NAMES = {"tolerance", "tol", "eps", "atol", "rtol"}


def test_exact_api_takes_no_tolerance():
    """No public callable, constructor or method of an exact module takes a tolerance.

    ``montecarlo`` is left out: it holds floats by design.
    """
    walked, knobs = set(), []
    for module_name in EXACT_MODULES:
        module = importlib.import_module(f"lhvlab.{module_name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj) and issubclass(obj, Exception):
                continue
            members = {name: obj}
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_"):
                        member = getattr(member, "__func__", getattr(member, "fget", member))
                        members[f"{name}.{attr}"] = member
            for qualname, member in members.items():
                if not callable(member):
                    continue
                walked.add(f"{module_name}.{qualname}")
                params = inspect.signature(member).parameters
                knobs += [f"{module_name}.{qualname}({p})" for p in params if p in TOLERANCE_NAMES]
    assert {"fine.check_no_signalling", "fine.NoSignallingReport", "model.Pmf.items"} <= walked
    assert knobs == []
