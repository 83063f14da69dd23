import gc
import hashlib
import math
import random
import weakref
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
from lhvlab import loophole, modelio
from lhvlab.cli import main as cli_main
from lhvlab.loophole import _mutate, _random_search_model, _score
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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position, name", [(0, "theta_x"), (3, "theta_yp")])
    def test_non_finite_angle_is_named(self, position, name, value):
        radians = [0.0, 0.5, 1.0, 1.5]
        radians[position] = value
        with pytest.raises(ValueError, match=f"angle {name} must be finite, got {value!r}"):
            quantum_singlet_behavior(AngleSet(*radians))


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


# rate constraints for the score cross-check; on a grid of eighths the
# "on_grid" floor and cap are reached exactly by some candidates
SCORE_LIMITS = {
    "default": {},
    "uncapped": {"max_detection": None},
    "on_grid": {"min_coincidence": Fraction(1, 4), "max_detection": Fraction(3, 4)},
}


def fraction_score(ps, det, cfg: SearchConfig):
    """Feasibility, rank and coincidence total by the search's rule, in Fractions.

    The penalty adds min_coincidence - rate below the floor, 1 for an
    undefined conditional, and rate - cap + 1/256 at or above the cap.
    """
    penalty = Fraction(0)
    for ctx, rate in ps.coincidence_rate.items():
        if ps.conditional[ctx] is None:
            penalty += 1
        if rate < cfg.min_coincidence:
            penalty += cfg.min_coincidence - rate
    if cfg.max_detection is not None:
        for rate in [*det.alice.values(), *det.bob.values()]:
            if rate >= cfg.max_detection:
                penalty += rate - cfg.max_detection + Fraction(1, 256)
    feasible = penalty == 0
    rank = chsh_values(ps.conditional_quad()).max_abs if feasible else -penalty
    return feasible, rank, sum(ps.coincidence_rate.values(), Fraction(0))


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
                child = _mutate(rng, model, cfg)
                instruments = [s.instrument for s in model.alice + model.bob]
                if instruments != [s.instrument for s in child.alice + child.bob]:
                    instrument_moves += 1
                model = child
        assert (instrument_moves > 0) == (instrument_atoms > 1)

    @pytest.mark.parametrize("instrument_atoms", [1, 2])
    @pytest.mark.parametrize("limits", sorted(SCORE_LIMITS))
    def test_integer_score_matches_the_fraction_report(self, instrument_atoms, limits):
        """On every candidate of a seeded greedy walk, _score's feasibility, rank
        and coincidence total equal those derived from the Fraction report."""
        cfg = SearchConfig(seed=0, source_atoms=6, instrument_atoms=instrument_atoms, mass_denominator=8,
                           **SCORE_LIMITS[limits])
        rng = random.Random(71 + instrument_atoms)
        floor_hits = cap_hits = feasible_seen = 0
        for _restart in range(4):
            model, parent, parent_rank = _random_search_model(rng, cfg), None, None
            for _step in range(60):
                feasible, key = _score(model, parent, cfg)
                ps = postselected_correlations(behavior_from_model(model))
                det = detection_rates(model)
                expected = fraction_score(ps, det, cfg)
                assert (feasible, key.rank, key.coincidence) == expected
                floor_hits += cfg.min_coincidence in ps.coincidence_rate.values()
                cap_hits += cfg.max_detection in [*det.alice.values(), *det.bob.values()]
                feasible_seen += feasible
                # climb like the search, so the walk reaches the feasible region
                if parent is None or expected[1] >= parent_rank:
                    parent, parent_rank = key, expected[1]
                model = _mutate(rng, parent.model, cfg)
        assert feasible_seen > 0
        if limits == "on_grid":
            assert floor_hits > 0 and cap_hits > 0

    def test_unnormalized_candidate_is_rejected(self):
        model = _random_search_model(random.Random(5), SearchConfig(seed=0, instrument_atoms=2))
        halved = Pmf({pair: m / 2 for pair, m in model.source.items()})
        a0, a1 = model.alice
        heavy = Setting(a0.name, Pmf({lab: 2 * m for lab, m in a0.instrument.items()}), a0.outcomes)
        for bad in (
            ContextualModel(halved, model.alice, model.bob),
            ContextualModel(model.source, (heavy, a1), model.bob),
        ):
            with pytest.raises(ValueError, match="behavior table is not normalized"):
                _score(bad, None, SearchConfig(seed=0))


# SHA-256 of five seeded budget-400 searches per instrument-atom count, as
# walk_digest hashes them, recorded before candidates reused their parent's
# channels and part texts; the reuse must leave every walk as it was.
WALK_SHA256 = {
    1: "0a28c06b96223251fa1606242db8b4a2e9c2741903977db58d8a62fe05a4bc29",
    2: "df3e8f75fa5c61c0395583528e835105376eda3d85152e7fdf00daf99481d510",
}


def walk_digest(instrument_atoms: int) -> str:
    """Winner text, score, history, raw quad and detection rates of five seeded searches."""
    digest = hashlib.sha256()
    for seed in range(5):
        out = search_postselection_violation(
            SearchConfig(seed=seed, budget=400, instrument_atoms=instrument_atoms)
        )
        for part in (serialize(out.model), out.score, out.history, out.raw_quad.values,
                     out.detection.alice, out.detection.bob):
            digest.update(repr(part).encode() + b"\n")
    return digest.hexdigest()


def _mutation_kind(parent: ContextualModel, child: ContextualModel) -> str:
    if child.source is not parent.source:
        return "source"
    (old, new), = [
        (a, b) for a, b in zip(parent.alice + parent.bob, child.alice + child.bob) if a is not b
    ]
    return "flip" if new.instrument is old.instrument else "instrument"


class TestIncrementalCandidates:
    @pytest.mark.parametrize("instrument_atoms", [1, 2])
    def test_walk_is_pinned(self, instrument_atoms):
        assert walk_digest(instrument_atoms) == WALK_SHA256[instrument_atoms]

    def test_mutation_rebuilds_only_what_it_changed(self, monkeypatch):
        """A source move builds no channel moments, a setting change exactly
        one, a restart four; no part's text is built twice."""
        channels = []
        points = []
        texts = []
        events = []
        for module, name, log, logged_arg in (
            (loophole, "channel_moments", channels, 1),
            (loophole, "require_point_outcomes", points, 1),
            (modelio, "setting_text", texts, 0),
            (modelio, "source_text", texts, 0),
        ):
            def counted(*args, _real=getattr(module, name), _log=log, _arg=logged_arg):
                _log.append(args[_arg])
                return _real(*args)

            monkeypatch.setattr(module, name, counted)
        assembled = []
        real_assemble = modelio.contextual_text
        monkeypatch.setattr(modelio, "contextual_text", lambda *a: assembled.append(a) or real_assemble(*a))
        real_mutate, real_restart = loophole._mutate, loophole._random_search_model

        def mutate(rng, model, cfg):
            child = real_mutate(rng, model, cfg)
            events.append((_mutation_kind(model, child), len(channels)))
            return child

        def restart(rng, cfg):
            events.append(("restart", len(channels)))
            return real_restart(rng, cfg)

        # the winner's report closes the walk; its detection rates read the moments again
        walk_end = []
        real_behavior = loophole.behavior_from_model

        def behavior(model):
            walk_end.append(len(channels))
            return real_behavior(model)

        monkeypatch.setattr(loophole, "_mutate", mutate)
        monkeypatch.setattr(loophole, "_random_search_model", restart)
        monkeypatch.setattr(loophole, "behavior_from_model", behavior)
        out = search_postselection_violation(SearchConfig(seed=3, budget=400, instrument_atoms=2))
        assert out.evaluations == len(events) == 400
        assert len(walk_end) == 1

        marks = [count for _kind, count in events] + walk_end
        built = {"restart": set(), "source": set(), "flip": set(), "instrument": set()}
        for (kind, start), end in zip(events, marks[1:]):
            built[kind].add(end - start)
        assert built == {"restart": {4}, "source": {0}, "flip": {1}, "instrument": {1}}
        # the point-outcome check runs once for each new setting
        assert [id(s) for s in points] == [id(s) for s in channels[:walk_end[0]]]
        # each part's text is built once, shared by every candidate that keeps it
        assert assembled
        assert len({id(obj) for obj in texts}) == len(texts) < 5 * len(assembled)

    def test_only_the_winner_outlives_the_search(self, monkeypatch):
        refs = []
        real_mutate, real_restart = loophole._mutate, loophole._random_search_model

        def mutate(*args):
            child = real_mutate(*args)
            refs.append(weakref.ref(child))
            return child

        def restart(*args):
            model = real_restart(*args)
            refs.append(weakref.ref(model))
            return model

        monkeypatch.setattr(loophole, "_mutate", mutate)
        monkeypatch.setattr(loophole, "_random_search_model", restart)
        out = search_postselection_violation(SearchConfig(seed=3, budget=400, instrument_atoms=2))
        gc.collect()
        alive = [model for model in (ref() for ref in refs) if model is not None]
        assert len(refs) == 400
        assert len(alive) == 1 and alive[0] is out.model


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
