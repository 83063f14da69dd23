import gc
import hashlib
import itertools
import math
import random
import weakref
from collections import defaultdict
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
from lhvlab.loophole import _better, _mutate, _random_search_model, _score
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
            assert all(-1 <= v <= 1 for v in b.quad().values.values())

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
                child, _change = _mutate(rng, model, cfg)
                instruments = [s.instrument for s in model.alice + model.bob]
                if instruments != [s.instrument for s in child.alice + child.bob]:
                    instrument_moves += 1
                model = child
        assert (instrument_moves > 0) == (instrument_atoms > 1)

    @pytest.mark.parametrize("instrument_atoms", [1, 2])
    @pytest.mark.parametrize("limits", sorted(SCORE_LIMITS))
    def test_integer_score_matches_the_fraction_report(self, instrument_atoms, limits):
        """On every candidate of a seeded greedy walk, _score's feasibility, rank
        and coincidence total equal those derived from the Fraction report; a
        flip's candidate is scored through its parent's flipped part."""
        cfg = SearchConfig(seed=0, source_atoms=6, instrument_atoms=instrument_atoms, mass_denominator=8,
                           **SCORE_LIMITS[limits])
        rng = random.Random(71 + instrument_atoms)
        floor_hits = cap_hits = feasible_seen = flips = 0
        for _restart in range(4):
            model, parent, parent_rank, change = _random_search_model(rng, cfg), None, None, None
            for _step in range(60):
                feasible, key = _score(model, parent, cfg, change)
                flips += change is not None
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
                model, change = _mutate(rng, parent.model, cfg)
        assert feasible_seen > 0 and flips > 100
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
        """A source move builds no channel moments, an instrument move one, a
        restart four; a flip builds none and recomputes one label row, after
        the point-outcome test of its one new entry.  No whole document is
        assembled, and no part's text is rendered twice."""
        channels, points, rows, texts, events = [], [], [], [], []
        for module, name, log in (
            (loophole, "channel_moments", channels),
            (loophole, "require_point_outcomes", points),
            (modelio, "setting_text", texts),
            (modelio, "source_text", texts),
        ):
            def counted(*args, _real=getattr(module, name), _log=log):
                _log.append(args)
                return _real(*args)

            monkeypatch.setattr(module, name, counted)
        real_flipped = loophole._Part.flipped

        def flipped(part, setting, key, side):
            rows.append(key)
            return real_flipped(part, setting, key, side)

        def assembled(*_args):
            raise AssertionError("the tie-break assembled a whole document")

        monkeypatch.setattr(loophole._Part, "flipped", flipped)
        monkeypatch.setattr(modelio, "contextual_text", assembled)
        real_mutate, real_restart = loophole._mutate, loophole._random_search_model

        def mutate(rng, model, cfg):
            child, change = real_mutate(rng, model, cfg)
            kind = _mutation_kind(model, child)
            assert (kind == "flip") == (change is not None)
            events.append((kind, len(channels), len(rows)))
            return child, change

        def restart(rng, cfg):
            events.append(("restart", len(channels), len(rows)))
            return real_restart(rng, cfg)

        # the winner's report closes the walk; its detection rates read the moments again
        walk_end = []
        real_behavior = loophole.behavior_from_model

        def behavior(model):
            walk_end.append((len(channels), len(rows)))
            return real_behavior(model)

        monkeypatch.setattr(loophole, "_mutate", mutate)
        monkeypatch.setattr(loophole, "_random_search_model", restart)
        monkeypatch.setattr(loophole, "behavior_from_model", behavior)
        out = search_postselection_violation(SearchConfig(seed=3, budget=400, instrument_atoms=2))
        assert out.evaluations == len(events) == 400
        assert len(walk_end) == 1

        marks = [(c, r) for _kind, c, r in events] + walk_end
        built = {"restart": set(), "source": set(), "flip": set(), "instrument": set()}
        for (kind, c0, r0), (c1, r1) in zip(events, marks[1:]):
            built[kind].add((c1 - c0, r1 - r0))
        assert built == {"restart": {(4, 0)}, "source": {(0, 0)}, "flip": {(0, 1)}, "instrument": {(1, 0)}}
        # the point-outcome check runs on each built setting, and on each flip's new entry only
        assert [id(args[1]) for args in points if len(args) == 2] == [id(args[1]) for args in channels[:walk_end[0][0]]]
        assert [args[2] for args in points if len(args) == 3] == [(key,) for key in rows]
        # each part's text is rendered once, shared by every candidate that keeps it
        assert texts
        assert len({id(args[0]) for args in texts}) == len(texts)

    @pytest.mark.parametrize("instrument_atoms", [1, 2])
    def test_flipped_parts_equal_fresh_builds(self, instrument_atoms):
        """Along a seeded walk, the part a flip derives from its parent's equals
        one built from scratch, and every other part is the parent's own."""
        cfg = SearchConfig(seed=0, instrument_atoms=instrument_atoms)
        rng = random.Random(83 + instrument_atoms)
        flips = 0
        for _restart in range(3):
            _feasible, parent = _score(_random_search_model(rng, cfg), None, cfg)
            for _step in range(100):
                child, change = _mutate(rng, parent.model, cfg)
                _feasible, key = _score(child, parent, cfg, change)
                if change is not None:
                    flips += 1
                    index = change[0]
                    part = key.parts[index]
                    fresh = loophole._Part(part.obj, part.labels, "alice" if index < 3 else "bob")
                    assert part.weights == fresh.weights
                    assert part.support == fresh.support
                    assert [p is q for p, q in zip(key.parts, parent.parts)] == [i != index for i in range(5)]
                parent = key
        assert flips > 100

    @pytest.mark.parametrize("instrument_atoms", [1, 2])
    def test_part_wise_tie_break_orders_like_the_assembled_text(self, instrument_atoms):
        """On keys of seeded walks that tie in rank and coincidence, _better
        agrees with comparing the whole serialize() texts."""
        cfg = SearchConfig(seed=0, source_atoms=3, instrument_atoms=instrument_atoms, mass_denominator=4)
        rng = random.Random(97 + instrument_atoms)
        keys = []
        for _restart in range(3):
            _feasible, key = _score(_random_search_model(rng, cfg), None, cfg)
            keys.append(key)
            for _step in range(150):
                child, change = _mutate(rng, key.model, cfg)
                _feasible, key = _score(child, key, cfg, change)
                keys.append(key)
        ties = defaultdict(list)
        for key in keys:
            ties[key.rank, key.coincidence].append(key)
        compared = shared = 0
        for group in ties.values():
            for a, b in itertools.combinations(group[:30], 2):
                text_a, text_b = serialize(a.model), serialize(b.model)
                assert _better(a, b) == (text_a < text_b)
                assert _better(b, a) == (text_b < text_a)
                compared += text_a != text_b
                shared += any(p is q for p, q in zip(a.parts, b.parts))
        assert compared > 300 and shared > 300

    def test_only_the_winner_outlives_the_search(self, monkeypatch):
        refs = []
        real_mutate, real_restart = loophole._mutate, loophole._random_search_model

        def mutate(*args):
            child, change = real_mutate(*args)
            refs.append(weakref.ref(child))
            return child, change

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
