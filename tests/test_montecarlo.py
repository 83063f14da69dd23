import csv
import io
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import CORPUS_SEED, CORPUS_SIZE, corpus_models
from lhvlab import (
    ContextualModel,
    OutcomeTable,
    Pmf,
    Setting,
    Spreadsheet,
    TrialRecord,
    correlation_quad,
    counterexample_model,
    estimate_correlations,
    from_contextual,
    independence_diagnostic,
    sample_coupling,
    simulate_given_settings,
    simulate_spreadsheet,
    zero_to_coin,
)
from lhvlab.corpus import random_contextual_model
from lhvlab.montecarlo import ROWS_PER_BLOCK, IndependenceReport, _chi2_sf, _chi2_stat


def records(sheet):
    """One ``[t, a, b, x, y]`` row per trial, built trial by trial from ``Spreadsheet.record``."""
    return [[t, *sheet.record(t)] for t in range(len(sheet))]


def constant_sheet(n, x=1, y=1):
    """A hand-built spreadsheet of ``n`` trials, all in context (x, y), with constant outcomes."""
    column = lambda v: np.full(n, v, dtype=np.int8)
    return Spreadsheet(("x", "x'"), ("y", "y'"), column(0), column(0), column(x), column(y))


def random_sheet(n, seed, alice=("x", "x'"), bob=("y", "y'"), hidden=None):
    """A hand-built spreadsheet of ``n`` trials with seeded columns."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    index = lambda: gen.integers(0, 2, n).astype(np.int8)
    outcome = lambda: (2 * gen.integers(0, 2, n) - 1).astype(np.int8)
    return Spreadsheet(alice, bob, index(), index(), outcome(), outcome(), hidden=hidden)


def add_at_diagnostic(data):
    """The independence report with every table filled by ``np.add.at``, one trial at a time."""
    xi = ((data.x + 1) // 2).astype(np.intp)
    yi = ((data.y + 1) // 2).astype(np.intp)
    cross_stat, cross_dof = 0.0, 0
    sides = ((data.a_index, xi, data.b_index), (data.b_index, yi, data.a_index))
    for s in (0, 1):
        for own, outcome, other in sides:
            m = own == s
            if m.any():
                table = np.zeros((2, 2))
                np.add.at(table, (outcome[m], other[m].astype(np.intp)), 1)
                st, df = _chi2_stat(table)
                cross_stat += st
                cross_dof += df
    ctx = data.a_index.astype(np.intp) * 2 + data.b_index
    lag_stat, lag_dof = 0.0, 0
    if len(data) >= 2:
        table = np.zeros((4, 4))
        np.add.at(table, (ctx[1:], xi[:-1] * 2 + yi[:-1]), 1)
        lag_stat, lag_dof = _chi2_stat(table)
    stat, dof = cross_stat + lag_stat, cross_dof + lag_dof
    report = IndependenceReport(
        False, stat, dof, _chi2_sf(stat, dof) if dof > 0 else 1.0, cross_stat, cross_dof, lag_stat, lag_dof
    )
    if data.hidden is not None:
        trace = np.asarray(data.hidden).astype(np.intp)
        values = np.unique(trace)
        table = np.zeros((4, len(values)))
        np.add.at(table, (ctx, np.searchsorted(values, trace)), 1)
        h_stat, h_dof = _chi2_stat(table)
        report.hidden_statistic, report.hidden_dof = h_stat, h_dof
        report.hidden_p = _chi2_sf(h_stat, h_dof) if h_dof > 0 else 1.0
    return report


def all_plus_model():
    source = Pmf.uniform([("a", "b")])
    unit = Pmf.point("*")
    ta = OutcomeTable({("a", "*"): Fraction(1)})
    tb = OutcomeTable({("b", "*"): Fraction(1)})
    return ContextualModel(
        source,
        (Setting("x", unit, ta), Setting("x'", unit, ta)),
        (Setting("y", unit, tb), Setting("y'", unit, tb)),
    )


class TestDeterminism:
    def test_identical_seeds_identical_spreadsheets(self):
        dag = from_contextual(counterexample_model())
        s1 = simulate_spreadsheet(dag, 5000, seed=99)
        s2 = simulate_spreadsheet(dag, 5000, seed=99)
        assert s1.tobytes() == s2.tobytes()

    def test_different_seeds_differ(self):
        dag = from_contextual(counterexample_model())
        s1 = simulate_spreadsheet(dag, 5000, seed=99)
        s2 = simulate_spreadsheet(dag, 5000, seed=100)
        assert s1.tobytes() != s2.tobytes()

    def test_zero_trials_rejected(self):
        dag = from_contextual(counterexample_model())
        with pytest.raises(ValueError, match=">= 1"):
            simulate_spreadsheet(dag, 0, seed=1)


class TestOutcomes:
    def test_counterexample_perfect_correlation_context(self):
        dag = from_contextual(counterexample_model())
        sheet = simulate_spreadsheet(dag, 20000, seed=7)
        sel = (sheet.a_index == 0) & (sheet.b_index == 0)  # context (+1, +1)
        assert sel.any()
        assert np.all(sheet.x[sel] * sheet.y[sel] == 1)

    def test_all_plus_model_every_record_is_plus(self):
        dag = from_contextual(all_plus_model())
        sheet = simulate_spreadsheet(dag, 1000, seed=3)
        assert np.all(sheet.x == 1)
        assert np.all(sheet.y == 1)

    def test_records_view(self):
        dag = from_contextual(counterexample_model())
        sheet = simulate_spreadsheet(dag, 10, seed=5)
        records = [sheet.record(t) for t in range(len(sheet))]
        assert len(records) == 10
        assert isinstance(records[0], TrialRecord)
        assert records[0].a in ("+1", "-1")
        assert records[0].x in (-1, 1)

    def test_rows_are_the_per_trial_records(self):
        dag = from_contextual(counterexample_model())
        sheet = simulate_spreadsheet(dag, 300, seed=9)
        expected = records(sheet)
        buf = io.StringIO()
        sheet.write_csv(buf)
        lines = list(csv.reader(io.StringIO(buf.getvalue())))
        assert lines[0] == ["trial", "a", "b", "x", "y"]
        assert lines[1:] == [[str(v) for v in row] for row in expected]

    def test_rows_cover_a_block_boundary(self):
        dag = from_contextual(counterexample_model())
        sheet = simulate_spreadsheet(dag, ROWS_PER_BLOCK + 1, seed=9)
        expected = [
            [t, sheet.alice_settings[a], sheet.bob_settings[b], int(x), int(y)]
            for t, (a, b, x, y) in enumerate(zip(sheet.a_index, sheet.b_index, sheet.x, sheet.y))
        ]
        assert len(expected) == ROWS_PER_BLOCK + 1
        assert records(sheet) == expected
        want = io.StringIO()
        csv.writer(want).writerows([["trial", "a", "b", "x", "y"], *expected])
        buf = io.StringIO()
        sheet.write_csv(buf)
        assert buf.getvalue() == want.getvalue()

    @pytest.mark.parametrize("n", [1, ROWS_PER_BLOCK, ROWS_PER_BLOCK + 1])
    def test_csv_equals_csv_writer_on_names_that_need_quoting(self, n):
        sheet = random_sheet(n, seed=n, alice=("a,b", 'say "x"'), bob=("two\r\nlines", " é λ/🎲"))
        want = io.StringIO()
        csv.writer(want).writerows([["trial", "a", "b", "x", "y"], *records(sheet)])
        buf = io.StringIO()
        sheet.write_csv(buf)
        assert buf.getvalue() == want.getvalue()

    def test_empty_sheet_csv_is_the_header(self):
        buf = io.StringIO()
        constant_sheet(0).write_csv(buf)
        assert buf.getvalue() == "trial,a,b,x,y\r\n"



class TestEstimates:
    def test_constant_records_estimate_one_stderr_zero(self):
        est = estimate_correlations(constant_sheet(50))
        assert set(est) == {("x", "y")}
        assert est[("x", "y")].estimate == 1.0
        assert est[("x", "y")].stderr == 0.0
        assert est[("x", "y")].count == 50

    def test_empty_context_absent_not_zero(self):
        dag = from_contextual(
            counterexample_model(),
            setting_bias=Pmf(
                {
                    ("+1", "+1"): Fraction(1, 2),
                    ("+1", "-1"): Fraction(1, 2),
                    ("-1", "+1"): Fraction(0),
                    ("-1", "-1"): Fraction(0),
                }
            ),
        )
        sheet = simulate_spreadsheet(dag, 2000, seed=11)
        est = estimate_correlations(sheet)
        assert ("-1", "+1") not in est
        assert ("-1", "-1") not in est
        assert set(est) == {("+1", "+1"), ("+1", "-1")}

    def test_empty_input_gives_empty_dict(self):
        assert estimate_correlations(constant_sheet(0)) == {}

    def test_large_run_matches_exact_within_4_sigma(self):
        rng = random.Random(2718)
        model = random_contextual_model(rng, max_source_side=4, max_instrument=3, outcome_kind="ternary")
        dag = from_contextual(model)
        sheet = simulate_spreadsheet(dag, 100_000, seed=31415)
        est = estimate_correlations(sheet)
        for ctx in dag.contexts():
            exact = float(dag.exact_quad.values[ctx])
            e = est[ctx]
            assert e.stderr is not None
            margin = 4 * max(e.stderr, 1e-9)
            assert abs(e.estimate - exact) <= margin


class TestFromContextual:
    def test_exact_quad_equals_model_quad(self):
        # the exact quad is the quantile model's, the law that is sampled; the acceptance
        # corpus alternates ternary (coin-reduced where it holds a 0) and interval models
        rng = random.Random(6)
        binary = [random_contextual_model(rng, max_source_side=3, max_instrument=3, outcome_kind="binary")
                  for _ in range(20)]
        coin_reduced = 0
        for m in [*corpus_models(CORPUS_SIZE, seed=CORPUS_SEED), *binary]:
            dag = from_contextual(m)
            coin_reduced += dag.model != m
            assert dag.exact_quad.values == correlation_quad(m).values
        assert coin_reduced > 0

    def test_fractional_model_simulates_consistently(self):
        rng = random.Random(62)
        m = random_contextual_model(rng, max_source_side=3, max_instrument=2, outcome_kind="interval")
        dag = from_contextual(m)
        sheet = simulate_spreadsheet(dag, 100_000, seed=8)
        est = estimate_correlations(sheet)
        for ctx, e in est.items():
            exact = float(dag.exact_quad.values[ctx])
            assert abs(e.estimate - exact) <= 4 * max(e.stderr, 1e-9)

    def test_invalid_model_rejected(self):
        m = all_plus_model()
        broken = ContextualModel(
            Pmf({("a", "b"): Fraction(1, 2)}), m.alice, m.bob
        )
        with pytest.raises(ValueError, match="not well-formed"):
            from_contextual(broken)

    @staticmethod
    def alice_model(vx, vx2):
        """:func:`all_plus_model` with Alice's two unflagged table values set to ``vx`` and ``vx2``."""
        m = all_plus_model()
        unit = m.alice[0].instrument
        x, x2 = (Setting(s.name, unit, OutcomeTable({("a", "*"): Fraction(v)})) for s, v in zip(m.alice, (vx, vx2)))
        return ContextualModel(m.source, (x, x2), m.bob)

    @pytest.mark.parametrize(
        "vx, vx2, coin, thresholds",
        [
            ("0", "1", True, [[[1.0, 0.0]], [[1.0, 1.0]]]),  # an unflagged 0 with +/-1: the coin reduction
            ("1/2", "1", False, [[[0.75]], [[1.0]]]),  # a fractional table: the auxiliary uniform
            ("0", "1/2", False, [[[0.5]], [[0.75]]]),  # a 0 beside a fraction reads as an expectation
            ("-1", "1", False, [[[0.0]], [[1.0]]]),  # no 0: nothing to reduce
        ],
    )
    def test_point_tables_are_coin_reduced(self, vx, vx2, coin, thresholds):
        m = self.alice_model(vx, vx2)
        dag = from_contextual(m)
        assert dag.model == (zero_to_coin(m) if coin else m)
        assert dag._sides[0][1].tolist() == thresholds
        assert dag.exact_quad.values == correlation_quad(m).values

    def test_bad_bias_rejected(self):
        with pytest.raises(ValueError, match="contexts"):
            from_contextual(all_plus_model(), setting_bias=Pmf({("x", "y"): Fraction(1)}))


class TestStructuralLocality:
    def test_changing_bob_settings_leaves_alice_column_unchanged(self):
        rng = random.Random(63)
        model = random_contextual_model(rng, max_source_side=4, max_instrument=2, outcome_kind="ternary")
        dag = from_contextual(model)
        n = 4096
        gen = np.random.Generator(np.random.Philox(key=5))
        a_idx = gen.integers(0, 2, n).astype(np.int8)
        b_idx = gen.integers(0, 2, n).astype(np.int8)
        base = simulate_given_settings(dag, a_idx, b_idx, seed=77)
        flipped = simulate_given_settings(dag, a_idx, 1 - b_idx, seed=77)
        assert base.x.tobytes() == flipped.x.tobytes()
        assert base.y.tobytes() != flipped.y.tobytes()
        swapped = simulate_given_settings(dag, 1 - a_idx, b_idx, seed=77)
        assert base.y.tobytes() == swapped.y.tobytes()


class TestCoupling:
    def test_combination_always_plus_minus_two(self):
        rng = random.Random(64)
        model = random_contextual_model(rng, max_source_side=4, max_instrument=2, outcome_kind="ternary")
        dag = from_contextual(model)
        samples = sample_coupling(dag, 50_000, seed=21)
        combo = samples.combination()
        assert set(np.unique(combo).tolist()) <= {-2, 2}
        running = np.cumsum(combo) / np.arange(1, len(combo) + 1)
        assert running.min() >= -2 and running.max() <= 2

    def test_deterministic_model_repeats_one_sample(self):
        dag = from_contextual(all_plus_model())
        samples = sample_coupling(dag, 1000, seed=2)
        assert len(samples) == 1000
        for column in (samples.x1, samples.x2, samples.y1, samples.y2):
            assert column.tolist() == [1] * 1000

    def test_pair_means_converge_to_exact_quad(self):
        dag = from_contextual(counterexample_model())
        samples = sample_coupling(dag, 100_000, seed=12)
        for i, a in enumerate(dag.alice_settings):
            for j, b in enumerate(dag.bob_settings):
                exact = float(dag.exact_quad.values[(a, b)])
                xa = (samples.x1, samples.x2)[i].astype(np.float64)
                yb = (samples.y1, samples.y2)[j].astype(np.float64)
                assert abs(float((xa * yb).mean()) - exact) <= 4 / math.sqrt(len(samples))


class TestIndependenceDiagnostic:
    def test_zero_trials_empty_report(self):
        report = independence_diagnostic(constant_sheet(0))
        assert report.empty

    def test_clean_run_consistent_with_independence(self):
        rng = random.Random(65)
        model = random_contextual_model(rng, max_source_side=4, max_instrument=2, outcome_kind="ternary")
        dag = from_contextual(model)
        sheet = simulate_spreadsheet(dag, 20_000, seed=1001, keep_hidden=True)
        report = independence_diagnostic(sheet)
        assert not report.empty
        assert report.p_value > 1e-4
        assert report.hidden_p is not None and report.hidden_p > 1e-4

    def test_clean_p_values_spread_uniformly(self):
        dag = from_contextual(counterexample_model())
        ps = []
        for seed in range(40):
            sheet = simulate_spreadsheet(dag, 4000, seed=seed)
            ps.append(independence_diagnostic(sheet).p_value)
        below_half = sum(p < 0.5 for p in ps) / len(ps)
        assert 0.2 <= below_half <= 0.8
        assert min(ps) > 1e-6

    @pytest.mark.parametrize("n", [1, 2, 3, 50, 4096])
    def test_tables_equal_the_add_at_oracle(self, n):
        gen = np.random.Generator(np.random.Philox(key=n))
        # pair indices that are neither contiguous nor starting at 0
        hidden = gen.choice(np.array([3, 17, 1000, 5]), n)
        sheets = [
            random_sheet(n, seed=n),
            random_sheet(n, seed=n + 1, hidden=hidden),
            constant_sheet(n),  # every trial in context (0, 0): the strata of own setting 1 never occur
            constant_sheet(n, x=-1, y=1),
        ]
        for sheet in sheets:
            assert vars(independence_diagnostic(sheet)) == vars(add_at_diagnostic(sheet))

    def test_simulated_tables_equal_the_add_at_oracle(self):
        dag = from_contextual(counterexample_model())
        for confound in (False, True):
            sheet = simulate_spreadsheet(dag, 20_000, seed=3, confound=confound, keep_hidden=True)
            assert vars(independence_diagnostic(sheet)) == vars(add_at_diagnostic(sheet))

    def test_confounded_run_statistic_grows_with_n(self):
        dag = from_contextual(counterexample_model())
        small = independence_diagnostic(
            simulate_spreadsheet(dag, 2000, seed=5, confound=True, keep_hidden=True)
        )
        large = independence_diagnostic(
            simulate_spreadsheet(dag, 20_000, seed=5, confound=True, keep_hidden=True)
        )
        assert large.statistic > small.statistic > 0
        assert large.p_value < 1e-12
        assert large.hidden_statistic > small.hidden_statistic


class TestChi2Tail:
    GRID_DOFS = list(range(1, 61)) + [105, 400, 1600]

    @staticmethod
    def grid_stats(dof):
        fixed = [0.001, 0.01, 0.1, 0.5, 1, 2, 3.5, 7, 15, 30, 60, 120, 250, 500, 800, 1100, 1400]
        return fixed + [dof / 2, dof, 3 * dof / 2, 2 * dof]

    def test_matches_scipy_on_the_grid(self):
        stats = pytest.importorskip("scipy.stats")
        checked = 0
        for dof in self.GRID_DOFS:
            for stat in self.grid_stats(dof):
                want = float(stats.chi2.sf(stat, dof))
                if want < 1e-300:
                    continue
                assert _chi2_sf(stat, dof) == pytest.approx(want, rel=1e-10), (stat, dof)
                checked += 1
        assert checked > 1000

    def test_zero_statistic_is_exactly_one(self):
        for dof in (1, 2, 3, 400, 1601):
            assert _chi2_sf(0.0, dof) == 1.0

    def test_large_dof_tail_does_not_underflow(self):
        # a running product of terms reads 0.0 here
        assert _chi2_sf(1600.0, 1600) == pytest.approx(0.4953, abs=1e-4)

    def test_small_dof_closed_forms(self):
        for x in (0.3, 2.0, 9.0):
            assert _chi2_sf(x, 1) == pytest.approx(math.erfc(math.sqrt(x / 2)), rel=1e-15)
            assert _chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-15)

    def test_tail_is_a_probability_and_decreasing(self):
        for dof in (1, 2, 7, 60, 1600):
            tails = [_chi2_sf(dof * f, dof) for f in (0.01, 0.5, 1, 1.5, 2, 4)]
            assert all(0 <= t <= 1 for t in tails)
            assert tails == sorted(tails, reverse=True)
