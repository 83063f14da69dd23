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


def _halfway(rng: random.Random, pmf: Pmf) -> Pmf:
    """``pmf`` over 1/64 with 1/64 of mass moved from one atom with mass to another atom."""
    scale, weights = pmf.integer_atoms()
    weights = {lab: w * (64 // scale) for lab, w in weights.items()}
    src = rng.choice([lab for lab, w in weights.items() if w > 0])
    dst = rng.choice([lab for lab in weights if lab != src])
    weights[src] -= 1
    weights[dst] += 1
    return Pmf.from_integers(64, weights)


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

    @pytest.mark.parametrize("limits", sorted(SCORE_LIMITS))
    def test_off_grid_model_scores_like_the_fraction_report(self, limits):
        """A normalized model with masses of 1/64 where mass_denominator is 32
        is scored over the finer grid scale 64, and its feasibility, rank and
        coincidence total equal those derived from the Fraction report."""
        cfg = SearchConfig(seed=0, source_atoms=4, instrument_atoms=2, **SCORE_LIMITS[limits])
        rng = random.Random(13)
        winner = parse_path(FIXTURES / "loophole_winner.model.json")
        feasible_seen = 0
        for model in [winner] * 10 + [_random_search_model(rng, cfg) for _ in range(30)]:
            # move 1/64 of the source's mass, and of one setting's instrument mass if it has two atoms
            source = _halfway(rng, model.source)
            settings = [*model.alice, *model.bob]
            k = rng.randrange(4)
            if len(settings[k].instrument) > 1:
                settings[k] = Setting(settings[k].name, _halfway(rng, settings[k].instrument), settings[k].outcomes)
            model = ContextualModel(source, tuple(settings[:2]), tuple(settings[2:]))
            assert model.source.integer_atoms()[0] == 64 and validate_model(model).ok
            feasible, key = _score(model, None, cfg)
            assert key.grid.scale == 64
            ps = postselected_correlations(behavior_from_model(model))
            assert (feasible, key.rank, key.coincidence) == fraction_score(ps, detection_rates(model), cfg)
            feasible_seen += feasible
        assert feasible_seen > 0

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


def _change_kind(change) -> str:
    """The move a :func:`_mutate` change reports: a flip, or a source or instrument mass move."""
    if len(change) == 2:
        return "flip"
    return "source" if change[0] == 0 else "instrument"


def _check_change(parent: ContextualModel, child: ContextualModel, change, cfg: SearchConfig) -> None:
    """The change names exactly what the child changed: the flipped entry, or the two atoms of a mass move."""
    kind = _change_kind(change)
    old_parts, new_parts = [parent.source, *parent.alice, *parent.bob], [child.source, *child.alice, *child.bob]
    assert [p is not q for p, q in zip(old_parts, new_parts)] == [i == change[0] for i in range(5)]
    old, new = old_parts[change[0]], new_parts[change[0]]
    if kind == "flip":
        assert new.instrument is old.instrument
        differ = [k for k, v in new.outcomes.entries.items() if v != old.outcomes.entries[k]]
        assert differ == [change[1]]
        return
    pmf, moved = (old, new) if kind == "source" else (old.instrument, new.instrument)
    if kind == "instrument":
        assert new.outcomes is old.outcomes
    src, dst = change[1:]
    expected = dict(pmf.items())
    expected[src] -= Fraction(1, cfg.mass_denominator)
    expected[dst] += Fraction(1, cfg.mass_denominator)
    assert dict(moved.items()) == expected


class TestIncrementalCandidates:
    @pytest.mark.parametrize("instrument_atoms", [1, 2])
    def test_walk_is_pinned(self, instrument_atoms):
        assert walk_digest(instrument_atoms) == WALK_SHA256[instrument_atoms]

    def test_mutation_updates_only_what_it_moved(self, monkeypatch):
        """A restart builds four settings' rows in full and point-tests four
        settings; after it no row is built over a whole setting: an
        instrument move point-tests its one new setting, a flip its one new
        entry, a source move nothing.  No whole document is assembled, and
        no part's text is rendered twice."""
        builds, points, texts, events = [], [], [], []
        for module, name, log in (
            (loophole, "setting_rows", builds),
            (loophole, "require_point_outcomes", points),
            (modelio, "setting_text", texts),
            (modelio, "source_text", texts),
        ):
            def counted(*args, _real=getattr(module, name), _log=log):
                _log.append(args)
                return _real(*args)

            monkeypatch.setattr(module, name, counted)

        def assembled(*_args):
            raise AssertionError("the tie-break assembled a whole document")

        monkeypatch.setattr(modelio, "contextual_text", assembled)
        real_mutate, real_restart = loophole._mutate, loophole._random_search_model
        cfg = SearchConfig(seed=3, budget=400, instrument_atoms=2)

        def mutate(rng, model, cfg):
            child, change = real_mutate(rng, model, cfg)
            _check_change(model, child, change, cfg)
            events.append((_change_kind(change), change, len(builds), len(points)))
            return child, change

        def restart(rng, cfg):
            events.append(("restart", None, len(builds), len(points)))
            return real_restart(rng, cfg)

        # the winner's report closes the walk; its detection rates build rows again
        walk_end = []
        real_behavior = loophole.behavior_from_model

        def behavior(model):
            walk_end.append((len(builds), len(points)))
            return real_behavior(model)

        monkeypatch.setattr(loophole, "_mutate", mutate)
        monkeypatch.setattr(loophole, "_random_search_model", restart)
        monkeypatch.setattr(loophole, "behavior_from_model", behavior)
        out = search_postselection_violation(cfg)
        assert out.evaluations == len(events) == 400
        assert len(walk_end) == 1 and len(builds) == walk_end[0][0] + 4

        marks = [(b, p) for _kind, _change, b, p in events] + walk_end
        for (kind, change, b0, p0), (b1, p1) in zip(events, marks[1:]):
            # each point test as "all" for a whole table, or the keys it was limited to
            tested = [args[2] if args[2:] not in ((), (None,)) else "all" for args in points[p0:p1]]
            expected = {"restart": ["all"] * 4, "source": [], "instrument": ["all"]}
            expected_tests = [(change[1],)] if kind == "flip" else expected[kind]
            assert (b1 - b0, tested) == (4 if kind == "restart" else 0, expected_tests)
        assert {kind for kind, *_rest in events} == {"restart", "source", "flip", "instrument"}
        # each part's text is rendered once, shared by every candidate that keeps it
        assert texts
        assert len({id(args[0]) for args in texts}) == len(texts)

    @pytest.mark.parametrize("instrument_atoms", [1, 2])
    @pytest.mark.parametrize("limits", ["default", "uncapped"])
    def test_delta_state_equals_a_fresh_build(self, instrument_atoms, limits):
        """Along seeded greedy walks, the state a candidate derives from its
        parent's by the delta of its move equals the state built in full from
        its model, and so do its rank and coincidence total."""
        cfg = SearchConfig(seed=0, instrument_atoms=instrument_atoms, **SCORE_LIMITS[limits])
        rng = random.Random(83 + instrument_atoms)
        kinds = defaultdict(int)
        for _restart in range(4):
            _feasible, parent = _score(_random_search_model(rng, cfg), None, cfg)
            for _step in range(250):
                child, change = _mutate(rng, parent.model, cfg)
                kinds[_change_kind(change)] += 1
                feasible, key = _score(child, parent, cfg, change)
                fresh_feasible, fresh = _score(child, None, cfg)
                assert key.grid.scale == fresh.grid.scale == cfg.mass_denominator
                assert key.state == fresh.state
                assert (feasible, key.rank, key.coincidence) == (fresh_feasible, fresh.rank, fresh.coincidence)
                if _better(key, parent):
                    parent = key
        assert kinds["flip"] > 100 and kinds["source"] > 100
        assert (kinds["instrument"] > 100) if instrument_atoms > 1 else ("instrument" not in kinds)

    @pytest.mark.parametrize("instrument_atoms", [1, 2])
    def test_part_wise_tie_break_orders_like_the_assembled_text(self, instrument_atoms, monkeypatch):
        """On keys of seeded walks that tie in rank and coincidence, _better
        agrees with comparing the whole serialize() texts.  A flip that ties
        with its parent is decided on the flipped entry, rendering nothing."""
        cfg = SearchConfig(seed=0, source_atoms=3, instrument_atoms=instrument_atoms, mass_denominator=4)
        rng = random.Random(97 + instrument_atoms)
        keys, flip_ties = [], []
        for _restart in range(3):
            _feasible, key = _score(_random_search_model(rng, cfg), None, cfg)
            keys.append(key)
            for _step in range(150):
                child, change = _mutate(rng, key.model, cfg)
                parent = key
                _feasible, key = _score(child, parent, cfg, change)
                keys.append(key)
                if len(change) == 2 and (key.rank, key.coincidence) == (parent.rank, parent.coincidence):
                    flip_ties.append((key, parent))
        # before anything renders a part text, so no cached text can answer
        orders = [(serialize(a.model) < serialize(b.model), serialize(b.model) < serialize(a.model))
                  for a, b in flip_ties]

        def unrendered(*_args):
            raise AssertionError("a flip's tie with its parent rendered a setting text")

        with monkeypatch.context() as stubbed:
            stubbed.setattr(modelio, "setting_text", unrendered)
            assert [(_better(a, b), _better(b, a)) for a, b in flip_ties] == orders
        assert len(flip_ties) > 100
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
