import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from lhvlab import (
    AngleSet,
    ContextualModel,
    OutcomeTable,
    Pmf,
    SearchConfig,
    Setting,
    behavior_from_model,
    check_no_signalling,
    chsh_values,
    correlation_quad,
    counterexample_model,
    detection_rates,
    postselected_correlations,
    quantum_singlet_behavior,
    search_postselection_violation,
    validate_model,
    zero_to_coin,
)
from lhvlab.cli import main as cli_main
from lhvlab.corpus import random_contextual_model
from lhvlab.loophole import _mutate, _postselected_detection, _random_search_model
from lhvlab.modelio import parse_path, serialize

FIXTURES = Path(__file__).parents[1] / "fixtures"


class TestQuantumFixture:
    def test_equal_angles_give_perfect_anticorrelation(self):
        b = quantum_singlet_behavior(AngleSet(0.3, 1.0, 0.3, 2.0))
        ctx = ("x", "y")
        assert b.prob(ctx, 1, -1) == Fraction(1, 2)
        assert b.prob(ctx, -1, 1) == Fraction(1, 2)
        assert b.quad().values[ctx] == -1

    def test_orthogonal_angles_give_uniform_table(self):
        b = quantum_singlet_behavior(AngleSet(0.0, 1.0, math.pi / 2, 2.0))
        ctx = ("x", "y")
        for cell, p in b.context_pmf(ctx).items():
            assert abs(float(p) - 0.25) < 1e-12

    def test_optimal_angles_hit_tsirelson(self):
        b = quantum_singlet_behavior(AngleSet.chsh_optimal())
        report = chsh_values(b.quad())
        assert abs(float(report.max_abs) - 2 * math.sqrt(2)) < 1e-12
        assert not report.satisfied

    def test_always_normalized_and_nosignalling(self):
        rng = random.Random(81)
        for _ in range(25):
            angles = AngleSet(*(rng.uniform(0, 2 * math.pi) for _ in range(4)))
            b = quantum_singlet_behavior(angles)
            assert b.is_normalized()
            assert check_no_signalling(b).holds
            assert b.quad().in_range()


class TestDetectionRates:
    def test_binary_model_rates_are_one(self):
        det = detection_rates(counterexample_model())
        assert all(r == 1 for r in det.alice.values())
        assert all(r == 1 for r in det.bob.values())
        assert not det.all_below
        assert det.relations()[("alice", "+1")] == "above"

    def test_constructed_half_rate(self):
        source = Pmf.uniform([("a1", "b"), ("a2", "b")])
        unit = Pmf.point("*")
        alice_table = OutcomeTable(
            {("a1", "*"): Fraction(1), ("a2", "*"): Fraction(0)}, ternary=True
        )
        bob_table = OutcomeTable({("b", "*"): Fraction(1)})
        m = ContextualModel(
            source,
            (Setting("x", unit, alice_table), Setting("x'", unit, alice_table)),
            (Setting("y", unit, bob_table), Setting("y'", unit, bob_table)),
        )
        det = detection_rates(m)
        assert det.alice == {"x": Fraction(1, 2), "x'": Fraction(1, 2)}
        assert det.relation(Fraction(1, 2)) == "below"
        assert det.relation(Fraction(2, 3)) == "at"


class TestSearch:
    def test_deterministic_given_config(self):
        cfg = SearchConfig(seed=17, budget=500)
        out1 = search_postselection_violation(cfg)
        out2 = search_postselection_violation(SearchConfig(seed=17, budget=500))
        assert serialize(out1.model) == serialize(out2.model)
        assert out1.score == out2.score
        assert out1.history == out2.history

    def test_full_coincidence_constraint_caps_the_score(self):
        # rate 1 in every context leaves nothing to discard, so CHSH binds;
        # the detection cap must come off (full coincidence means full detection)
        out = search_postselection_violation(
            SearchConfig(seed=5, budget=1500, min_coincidence=Fraction(1), max_detection=None)
        )
        assert out.score <= 2
        assert not out.violating
        for rate in out.report.coincidence_rate.values():
            assert rate == 1

    def test_history_is_monotone(self):
        out = search_postselection_violation(SearchConfig(seed=23, budget=800))
        scores = [s for _it, s in out.history]
        assert scores == sorted(scores)
        iterations = [it for it, _s in out.history]
        assert iterations == sorted(iterations)

    def test_winner_is_valid_and_raw_chsh_holds(self):
        out = search_postselection_violation(SearchConfig(seed=29, budget=900))
        assert validate_model(out.model).ok
        assert out.raw_chsh.satisfied
        assert out.violating == (out.score > 2)
        # constraints honored
        for rate in out.report.coincidence_rate.values():
            assert rate >= Fraction(3, 10)
        det = out.detection
        for rate in list(det.alice.values()) + list(det.bob.values()):
            assert rate < Fraction(2, 3)

    def test_target_stops_early(self):
        out = search_postselection_violation(
            SearchConfig(seed=4, budget=4000, target_stat=Fraction(22, 10))
        )
        assert out.score >= Fraction(22, 10)
        assert out.evaluations <= 4000

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SearchConfig(seed=1, budget=0).validate()
        with pytest.raises(ValueError):
            SearchConfig(seed=1, min_coincidence=Fraction(0)).validate()
        with pytest.raises(ValueError):
            SearchConfig(seed=1, mass_denominator=128).validate()


class TestDetectionFromPostSelection:
    @pytest.mark.parametrize("instrument_atoms", [1, 2])
    def test_marginals_equal_detection_rates_along_a_walk(self, instrument_atoms):
        """The search reads detection rates off the post-selection marginals;
        on every candidate of a seeded walk they equal detection_rates."""
        cfg = SearchConfig(seed=0, source_atoms=6, instrument_atoms=instrument_atoms, mass_denominator=8)
        rng = random.Random(61 + instrument_atoms)
        instrument_moves = 0
        for _restart in range(5):
            model = _random_search_model(rng, cfg)
            for _step in range(80):
                ps = postselected_correlations(behavior_from_model(model))
                det = detection_rates(model)
                for ctx in model.contexts():
                    assert ps.alice_detect[ctx] == det.alice[ctx[0]]
                    assert ps.bob_detect[ctx] == det.bob[ctx[1]]
                assert _postselected_detection(model, ps) == det
                child = _mutate(rng, model, cfg)
                instruments = [s.instrument for s in model.alice + model.bob]
                if instruments != [s.instrument for s in child.alice + child.bob]:
                    instrument_moves += 1
                model = child
        assert (instrument_moves > 0) == (instrument_atoms > 1)


class TestCommittedWinner:
    def test_cli_search_regenerates_both_fixtures(self, capsys, tmp_path):
        """The whole walk, not just the winner: history and report byte for byte."""
        out_json = tmp_path / "search.json"
        out_model = tmp_path / "model.json"
        status = cli_main(["search", "--seed", "4", "--out", str(out_json), "--out-model", str(out_model)])
        capsys.readouterr()
        assert status == 0
        assert out_json.read_bytes() == (FIXTURES / "loophole_winner.search.json").read_bytes()
        assert out_model.read_bytes() == (FIXTURES / "loophole_winner.model.json").read_bytes()

    def test_fixture_reverifies_exactly(self):
        model = parse_path(FIXTURES / "loophole_winner.model.json")
        assert validate_model(model).ok
        behavior = behavior_from_model(model)
        ps = postselected_correlations(behavior)
        score = chsh_values(ps.conditional_quad()).max_abs
        assert score >= Fraction(22, 10)
        raw = correlation_quad(zero_to_coin(model))
        assert chsh_values(raw).satisfied
        det = detection_rates(model)
        assert det.all_below
        for rate in ps.coincidence_rate.values():
            assert rate >= Fraction(3, 10)
