"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
timings.  Every exact claim is asserted with rational equality; the only
tolerances are the ones stated by the criteria themselves.
"""

import io
import json
import math
import time
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np

from conftest import CORPUS_SEED, CORPUS_SIZE, corpus_models
from lhvlab import (
    AngleSet,
    behavior_from_model,
    bell_average,
    chsh_values,
    correlation_quad,
    exact_expectation,
    fine_criterion,
    find_joint,
    from_contextual,
    marginalize_context,
    product_flatten,
    quantum_singlet_behavior,
    sample_coupling,
    search_postselection_violation,
    simulate_given_settings,
    simulate_spreadsheet,
    uniform_reduce,
    validate_model,
    zero_to_coin,
    SearchConfig,
    detection_rates,
    estimate_correlations,
    postselected_correlations,
)
from lhvlab.cli import main as cli_main
from lhvlab.corpus import random_contextual_model, random_nosignalling_behavior
from lhvlab.modelio import parse_path, serialize

FIXTURES = Path(__file__).parents[1] / "fixtures"


@contextmanager
def criterion(number: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}", flush=True)
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.1f}s)", flush=True)


def test_criterion_1_counterexample_reproduction():
    with criterion(1, "demo-counterexample quad (1,0,0,-1) and signature combination 0, < 1 s"):
        start = time.perf_counter()
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            status = cli_main(["demo-counterexample"])
        elapsed = time.perf_counter() - start
        assert status == 0
        assert elapsed < 1.0
        payload = json.loads(buffer.getvalue())
        values = {(q["alice"], q["bob"]): Fraction(q["value"]) for q in payload["quad"]}
        assert values == {
            ("+1", "+1"): Fraction(1),
            ("+1", "-1"): Fraction(0),
            ("-1", "+1"): Fraction(0),
            ("-1", "-1"): Fraction(-1),
        }
        combo = next(
            c
            for c in payload["chsh"]["combinations"]
            if (c["flippedAlice"], c["flippedBob"]) == ("-1", "+1") and c["sign"] == 1
        )
        assert Fraction(combo["value"]) == 0
        assert payload["chsh"]["satisfied"] is True
        assert payload["fineFeasible"] is True


def test_criterion_2_flagship_chsh_theorem():
    with criterion(2, f"{CORPUS_SIZE} random models: exact quads satisfy all 8 CHSH, < 60 s"):
        start = time.perf_counter()
        checked = 0
        for model in corpus_models(CORPUS_SIZE, seed=CORPUS_SEED):
            assert validate_model(model).ok
            report = chsh_values(correlation_quad(model))
            assert report.satisfied, "an exact LHV quad broke CHSH: solver bug"
            assert isinstance(report.max_abs, Fraction)
            checked += 1
        assert checked == CORPUS_SIZE
        assert time.perf_counter() - start < 60


def test_criterion_3_flatten_averaging_equivalence():
    with criterion(3, f"{CORPUS_SIZE} random models: all three constructions match exactly, < 60 s"):
        start = time.perf_counter()
        for model in corpus_models(CORPUS_SIZE, seed=CORPUS_SEED):
            expected = {ctx: exact_expectation(model, ctx) for ctx in model.contexts()}
            assert correlation_quad(model).values == expected
            assert product_flatten(model).quad().values == expected
            assert uniform_reduce(model).quad().values == expected
            averaged = bell_average(model)
            assert averaged.quad().values == expected
            for bars in (averaged.alice_bar, averaged.bob_bar):
                for per_setting in bars.values():
                    assert all(abs(v) <= 1 for v in per_setting.values())
        assert time.perf_counter() - start < 60


def test_criterion_4_fine_equivalence():
    with criterion(4, "corpus behaviors + 500 no-signalling tables: LP verdict == criterion, < 120 s"):
        start = time.perf_counter()
        behaviors = []
        for i, model in enumerate(corpus_models(CORPUS_SIZE, seed=CORPUS_SEED)):
            if i % 2 == 0:  # the ternary half of the corpus has point outcomes
                behaviors.append(behavior_from_model(zero_to_coin(model)))
        import random as _random

        rng = _random.Random(CORPUS_SEED + 1)
        for i in range(500):
            mode = "generic" if i % 2 == 0 else "near_quantum"
            behaviors.append(random_nosignalling_behavior(rng, mode=mode))
        assert len(behaviors) >= 1000
        feasible_count = 0
        infeasible_count = 0
        for behavior in behaviors:
            expected = fine_criterion(behavior)
            result = find_joint(behavior)
            assert result.feasible == expected
            if result.feasible:
                feasible_count += 1
                for ctx in behavior.contexts():
                    got = marginalize_context(result.joint, ctx)
                    want = {
                        (x, y): behavior.prob(ctx, x, y) for x in (-1, 1) for y in (-1, 1)
                    }
                    assert got == want
            else:
                infeasible_count += 1
                assert abs(result.certificate.value) > 2
        assert feasible_count > 0 and infeasible_count > 0
        assert time.perf_counter() - start < 120


def test_criterion_5_quantum_fixture():
    with criterion(5, "optimal-angle singlet: max |S| = 2*sqrt(2) within 1e-12, LP infeasible"):
        behavior = quantum_singlet_behavior(AngleSet.chsh_optimal())
        report = chsh_values(behavior.quad())
        assert abs(float(report.max_abs) - 2 * math.sqrt(2)) <= 1e-12
        result = find_joint(behavior)
        assert not result.feasible
        assert result.certificate is not None
        assert abs(result.certificate.value) > 2


def test_criterion_6_detection_loophole_witness():
    with criterion(6, "committed winner: post-selected |S| >= 2.2, raw CHSH holds, rates < 2/3, reproducible"):
        # exact re-verification of the committed model, < 1 s
        start = time.perf_counter()
        model = parse_path(FIXTURES / "loophole_winner.model.json")
        assert validate_model(model).ok
        ps = postselected_correlations(behavior_from_model(model))
        post_score = chsh_values(ps.conditional_quad()).max_abs
        assert post_score >= Fraction(22, 10)
        raw_quad = correlation_quad(zero_to_coin(model))
        assert chsh_values(raw_quad).satisfied
        rates = detection_rates(model)
        assert all(r < Fraction(2, 3) for r in rates.alice.values())
        assert all(r < Fraction(2, 3) for r in rates.bob.values())
        assert time.perf_counter() - start < 1.0

        # reproduce the search from its recorded config, < 60 s
        start = time.perf_counter()
        recorded = json.load(open(FIXTURES / "loophole_winner.search.json"))
        cfg = recorded["config"]
        outcome = search_postselection_violation(
            SearchConfig(
                seed=cfg["seed"],
                budget=cfg["budget"],
                source_atoms=cfg["sourceAtoms"],
                instrument_atoms=cfg["instrumentAtoms"],
                min_coincidence=Fraction(cfg["minCoincidence"]),
                max_detection=Fraction(cfg["maxDetection"]) if cfg["maxDetection"] else None,
                mass_denominator=cfg["denominator"],
            )
        )
        assert serialize(outcome.model) == open(FIXTURES / "loophole_winner.model.json").read()
        assert outcome.score == Fraction(recorded["score"])
        assert time.perf_counter() - start < 60


def test_criterion_7_monte_carlo_consistency():
    with criterion(7, "200 seeds at N=1e5: within 4 sigma in >= 99% of runs; byte-identical; locality"):
        import random as _random

        model = random_contextual_model(
            _random.Random(CORPUS_SEED + 2), max_source_side=4, max_instrument=3, outcome_kind="ternary"
        )
        dag = from_contextual(model)
        n = 100_000
        good_runs = 0
        total_runs = 200
        for seed in range(total_runs):
            sheet = simulate_spreadsheet(dag, n, seed=seed)
            estimates = estimate_correlations(sheet)
            ok = True
            for ctx in dag.contexts():
                exact = float(dag.exact_quad.values[ctx])
                est = estimates[ctx]
                if abs(est.estimate - exact) > 4 * max(est.stderr, 1e-12):
                    ok = False
            good_runs += ok
        assert good_runs >= 0.99 * total_runs

        # identical seeds give byte-identical spreadsheets
        s1 = simulate_spreadsheet(dag, n, seed=7)
        s2 = simulate_spreadsheet(dag, n, seed=7)
        assert s1.tobytes() == s2.tobytes()

        # structural locality, bit for bit
        gen = np.random.Generator(np.random.Philox(key=1))
        a_idx = gen.integers(0, 2, 10_000).astype(np.int8)
        b_idx = gen.integers(0, 2, 10_000).astype(np.int8)
        base = simulate_given_settings(dag, a_idx, b_idx, seed=13)
        moved = simulate_given_settings(dag, a_idx, 1 - b_idx, seed=13)
        assert base.x.tobytes() == moved.x.tobytes()


def test_criterion_8_coupling_range():
    with criterion(8, "1e6 coupling samples: every combination value is -2 or +2"):
        import random as _random

        model = random_contextual_model(
            _random.Random(CORPUS_SEED + 3), max_source_side=4, max_instrument=2, outcome_kind="binary"
        )
        for m in (model, zero_to_coin(parse_path(FIXTURES / "loophole_winner.model.json"))):
            dag = from_contextual(m)
            samples = sample_coupling(dag, 1_000_000, seed=99)
            values = np.unique(samples.combination())
            assert set(values.tolist()) <= {-2, 2}
            running = np.cumsum(samples.combination()) / np.arange(1, len(samples) + 1)
            assert running.min() >= -2 and running.max() <= 2
