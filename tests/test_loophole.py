import gc
import hashlib
import itertools
import math
import random
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from lhvlab.loophole import _Grid, _Part, _better, _build, _improves, _model, _restart, _step
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

    @pytest.mark.parametrize("field, value", [
        ("min_coincidence", 0.3),
        ("min_coincidence", "3/10"),
        ("min_coincidence", None),
        ("max_detection", 0.5),
        ("max_detection", True),
        ("target_stat", 2.5),
        ("mass_denominator", 32.0),
        ("source_atoms", 2.5),
        ("instrument_atoms", "2"),
        ("budget", True),
        ("seed", None),
        ("seed", 1.5),
        ("seed", "7"),
        ("seed", True),
    ])
    def test_inexact_field_is_named(self, field, value):
        """A threshold must be an int or a Fraction, a size or budget a positive non-bool int, the seed a
        non-bool int: ``None`` would seed the walk from the operating system."""
        with pytest.raises(ValueError, match=f"^{field} must be a"):
            SearchConfig(**{"seed": 1, field: value}).validate()

    @pytest.mark.parametrize("floor, cap", [(Fraction(2, 3), Fraction(2, 3)), (Fraction(1), Fraction(1, 2))])
    def test_floor_at_or_above_the_cap_is_rejected(self, floor, cap):
        """A coincidence rate is at most each side's detection rate, so no candidate can meet both."""
        with pytest.raises(ValueError, match=f"min_coincidence {floor} must lie below max_detection {cap}"):
            SearchConfig(seed=1, min_coincidence=floor, max_detection=cap).validate()


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
        for _round in range(5):
            key = _restart(rng, _Grid(cfg))
            for _move in range(80):
                model = _model(key)
                ps = postselected_correlations(behavior_from_model(model))
                det = detection_rates(model)
                for ctx in model.contexts():
                    assert ps.alice_detect[ctx] == det.alice[ctx[0]]
                    assert ps.bob_detect[ctx] == det.bob[ctx[1]]
                child = _apply(rng, key)
                instrument_moves += _change_kind(key, child) == "instrument"
                key = child
        assert (instrument_moves > 0) == (instrument_atoms > 1)

    @pytest.mark.parametrize("instrument_atoms", [1, 2])
    @pytest.mark.parametrize("limits", sorted(SCORE_LIMITS))
    def test_integer_score_matches_the_fraction_report(self, instrument_atoms, limits):
        """On every candidate of a seeded greedy walk, _score's feasibility, rank
        and coincidence total equal those derived from the Fraction report of
        the candidate's model; a child is scored from its parent's sums."""
        cfg = SearchConfig(seed=0, source_atoms=6, instrument_atoms=instrument_atoms, mass_denominator=8,
                           **SCORE_LIMITS[limits])
        rng = random.Random(71 + instrument_atoms)
        floor_hits = cap_hits = feasible_seen = children = 0
        for _round in range(4):
            key, parent, parent_rank = _restart(rng, _Grid(cfg)), None, None
            for _move in range(60):
                children += parent is not None
                model = _model(key)
                ps = postselected_correlations(behavior_from_model(model))
                det = detection_rates(model)
                expected = fraction_score(ps, det, cfg)
                assert (key.feasible, Fraction(*key.rank), Fraction(*key.coincidence)) == expected
                floor_hits += cfg.min_coincidence in ps.coincidence_rate.values()
                cap_hits += cfg.max_detection in [*det.alice.values(), *det.bob.values()]
                feasible_seen += key.feasible
                # climb like the search, so the walk reaches the feasible region
                if parent is None or expected[1] >= parent_rank:
                    parent, parent_rank = key, expected[1]
                key = _apply(rng, parent)
        assert feasible_seen > 0 and children > 100
        if limits == "on_grid":
            assert floor_hits > 0 and cap_hits > 0


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


def _apply(rng, parent, scored=None):
    """A random move from ``parent`` applied in full, whether the walk would keep it or not.

    Each move's kernel scores it before building anything; ``scored``, if
    given, receives the score, whether the child's part text is the
    smaller, and the walk's own verdict.
    """
    def keep(score, wins_tie, parent):
        if scored is not None:
            scored.append((score, wins_tie, _improves(score, wins_tie, parent)))
        return True

    with mock.patch.object(loophole, "_improves", keep):
        return _step(rng, parent)


def _moved_index(parent, child) -> int:
    """The index of the one part (0 the source, 1 to 4 the settings) that ``child``'s move replaced."""
    (index,) = [i for i, (p, q) in enumerate(zip(parent.parts, child.parts)) if p is not q]
    return index


def _change_kind(parent, child) -> str:
    """The move that made ``child`` from ``parent``: a flip, or a source or instrument mass move."""
    index = _moved_index(parent, child)
    if index == 0:
        return "source"
    return "flip" if child.parts[index].origin is parent.parts[index].values else "instrument"


def _integers(key):
    """Everything a key holds in integers: each part's values and weights, the rows and the sums."""
    return [(p.values, p.weights) for p in key.parts], key.rows, key.both, key.product, key.detected


def _check_change(parent, child, cfg: SearchConfig) -> None:
    """The child's model differs from its parent's in the one part its move replaced, by exactly
    that move: the flipped entry, or one grid unit between the two atoms of a mass move."""
    index, kind = _moved_index(parent, child), _change_kind(parent, child)
    moved, grid = child.parts[index].moved, child.grid
    old_model, new_model = _model(parent), _model(child)
    old_parts, new_parts = [old_model.source, *old_model.alice, *old_model.bob], [new_model.source, *new_model.alice,
                                                                                *new_model.bob]
    assert all(p == q for i, (p, q) in enumerate(zip(old_parts, new_parts)) if i != index)
    old, new = old_parts[index], new_parts[index]
    if kind == "flip":
        assert new.instrument == old.instrument
        differ = [k for k in new.outcomes.numerators if new.outcomes.value(*k) != old.outcomes.value(*k)]
        assert differ == [grid.entry_names[moved]]
        return
    pmf, moved_pmf = (old, new) if kind == "source" else (old.instrument, new.instrument)
    if kind == "instrument":
        assert new.outcomes == old.outcomes
    src, dst = ((grid.pair_names if kind == "source" else grid.atom_names)[i] for i in moved)
    expected = dict(pmf.items())
    expected[src] -= Fraction(1, cfg.mass_denominator)
    expected[dst] += Fraction(1, cfg.mass_denominator)
    assert dict(moved_pmf.items()) == expected


def _fresh_build(model: ContextualModel, cfg: SearchConfig):
    """The key built in full from a search model's parts, each read back as integers over ``mass_denominator``."""
    d, grid = cfg.mass_denominator, _Grid(cfg)

    def weights(pmf, names):
        scale, atoms = pmf.integer_atoms()
        assert d % scale == 0 and tuple(atoms) == names
        return [w * (d // scale) for w in atoms.values()]

    settings = [*model.alice, *model.bob]
    assert [s.name for s in settings] == ["x", "x'", "y", "y'"]
    assert all(s.outcomes.ternary and s.outcomes.scale == 1 for s in settings)
    assert all(tuple(s.outcomes.numerators) == grid.entry_names for s in settings)
    parts = [_Part(None, weights(model.source, grid.pair_names))] + [
        _Part(list(s.outcomes.numerators.values()), weights(s.instrument, grid.atom_names)) for s in settings]
    return _build(grid, tuple(parts))


def _value(key):
    """A key's rank and coincidence total as Fractions."""
    return Fraction(*key.rank), Fraction(*key.coincidence)


RATIOS = st.tuples(st.integers(-40, 40), st.integers(1, 30))


class TestIncrementalCandidates:
    @pytest.mark.parametrize("instrument_atoms", [1, 2])
    def test_walk_is_pinned(self, instrument_atoms):
        assert walk_digest(instrument_atoms) == WALK_SHA256[instrument_atoms]

    def test_mutation_updates_only_what_it_moved(self, monkeypatch):
        """A restart builds four settings' rows in full; after it no row is
        built over a whole setting.  No whole document is assembled, and no
        part's text is rendered: every tie the walk meets is with the
        candidate's parent, decided on the moved entry or mass."""
        builds, texts, events = [], [], []

        for module, name, log in (
            (loophole, "setting_rows", builds),
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
        real_step, real_restart = loophole._step, loophole._restart
        cfg = SearchConfig(seed=3, budget=400, instrument_atoms=2)

        def step(rng, parent):
            mark = len(builds)
            child = real_step(rng, parent)
            if child is None:
                events.append(("discarded", mark))
            else:
                events.append((_change_kind(parent, child), mark))
                _check_change(parent, child, cfg)
            return child

        def restart(rng, grid):
            events.append(("restart", len(builds)))
            return real_restart(rng, grid)

        # the winner's report closes the walk; its detection rates build rows again
        walk_end = []
        real_behavior = loophole.behavior_from_model

        def behavior(model):
            walk_end.append(len(builds))
            return real_behavior(model)

        monkeypatch.setattr(loophole, "_step", step)
        monkeypatch.setattr(loophole, "_restart", restart)
        monkeypatch.setattr(loophole, "behavior_from_model", behavior)
        out = search_postselection_violation(cfg)
        assert out.evaluations == len(events) == 400
        assert len(walk_end) == 1 and len(builds) == walk_end[0] + 4

        marks = [mark for _kind, mark in events] + walk_end
        for (kind, b0), b1 in zip(events, marks[1:]):
            assert b1 - b0 == (4 if kind == "restart" else 0)
        assert {kind for kind, _mark in events} == {"restart", "discarded", "source", "flip", "instrument"}
        assert texts == []

    def test_a_discarded_move_builds_nothing(self, monkeypatch):
        """A move is scored on its parent's sums before any child exists: one
        the walk throws away makes no part, no key and no dict, and a kept
        one makes exactly one part and one key."""
        made = defaultdict(int)
        for name in ("_Key", "_Part", "dict"):
            def counted(*args, _real=getattr(loophole, name, dict), _name=name):
                made[_name] += 1
                return _real(*args)

            # the module's own name for dict, shadowing the builtin
            monkeypatch.setattr(loophole, name, counted, raising=False)
        real_step, moves = loophole._step, defaultdict(list)

        def step(rng, parent):
            before = dict.copy(made)
            child = real_step(rng, parent)
            moves["discarded" if child is None else "kept"].append({k: n - before.get(k, 0) for k, n in made.items()})
            return child

        monkeypatch.setattr(loophole, "_step", step)
        search_postselection_violation(SearchConfig(seed=3, budget=400, instrument_atoms=2))
        assert len(moves["discarded"]) > 150 and len(moves["kept"]) > 30
        assert all(not any(counts.values()) for counts in moves["discarded"])
        assert all(counts == {"_Key": 1, "_Part": 1, "dict": 0} for counts in moves["kept"])

    @pytest.mark.parametrize("instrument_atoms", [1, 2, 3])
    @pytest.mark.parametrize("limits", ["default", "uncapped"])
    def test_delta_state_equals_a_fresh_build(self, instrument_atoms, limits):
        """Along seeded greedy walks, every move's score, taken on its parent's
        sums before any child exists, equals the feasibility, rank and
        coincidence of the key built in full from the parts read back from
        the move's child, and so do the integers the child derives from its
        parent's by the move's delta.  That holds for the moves the walk
        throws away too, and its verdict on each is _better's on the child."""
        cfg = SearchConfig(seed=0, instrument_atoms=instrument_atoms, **SCORE_LIMITS[limits])
        rng = random.Random(83 + instrument_atoms)
        kinds, discarded = defaultdict(int), 0
        for _round in range(4):
            parent = _restart(rng, _Grid(cfg))
            for _move in range(250):
                scored = []
                key = _apply(rng, parent, scored)
                ((score, _wins_tie, kept),) = scored
                kinds[_change_kind(parent, key)] += 1
                fresh = _fresh_build(_model(key), cfg)
                assert key.grid.scale == fresh.grid.scale == cfg.mass_denominator
                assert _integers(key) == _integers(fresh)
                assert score == (key.feasible, key.rank, key.coincidence) == (fresh.feasible, fresh.rank,
                                                                             fresh.coincidence)
                assert kept == _better(key, parent)
                discarded += not kept
                if kept:
                    parent = key
        assert kinds["flip"] > 100 and kinds["source"] > 100 and discarded > 300
        assert (kinds["instrument"] > 100) if instrument_atoms > 1 else ("instrument" not in kinds)

    @pytest.mark.parametrize("instrument_atoms", [1, 2])
    def test_part_wise_tie_break_orders_like_the_assembled_text(self, instrument_atoms, monkeypatch):
        """On keys of seeded walks that tie in rank and coincidence, _better
        agrees with comparing the whole serialize() texts.  A flip, a source
        move or an instrument move that ties with its parent is decided on the
        flipped entry or the first moved mass, rendering nothing, both by the
        move's kernel before the child exists and by _better on the child;
        other ties render each differing part's text once."""
        cfg = SearchConfig(seed=0, source_atoms=3, instrument_atoms=instrument_atoms, mass_denominator=4)
        rng = random.Random(97 + instrument_atoms)
        keys, parent_ties, wins = [], defaultdict(list), []
        for _round in range(3):
            key = _restart(rng, _Grid(cfg))
            keys.append(key)
            for _move in range(150):
                scored = []
                parent, key = key, _apply(rng, key, scored)
                keys.append(key)
                if _value(key) == _value(parent):
                    parent_ties[_change_kind(parent, key)].append((key, parent))
                    ((_score, wins_tie, kept),) = scored
                    wins.append((wins_tie, kept))
        ties = [pair for pairs in parent_ties.values() for pair in pairs]
        # before anything renders a part text, so no cached text can answer
        texts = {id(key): serialize(_model(key)) for key in keys}
        orders = [(texts[id(a)] < texts[id(b)], texts[id(b)] < texts[id(a)]) for a, b in ties]
        assert sorted(wins) == sorted((smaller, smaller) for smaller, _larger in orders)

        def unrendered(*_args):
            raise AssertionError("a tie with the parent rendered a part text")

        with monkeypatch.context() as stubbed:
            stubbed.setattr(modelio, "setting_text", unrendered)
            stubbed.setattr(modelio, "source_text", unrendered)
            assert [(_better(a, b), _better(b, a)) for a, b in ties] == orders
        assert len(parent_ties["flip"]) > 100 and len(parent_ties["source"]) > 20
        assert (len(parent_ties["instrument"]) > 20) == (instrument_atoms > 1)

        rendered = []
        real_text = loophole._text

        def text(grid, index, part):
            if part.text is None:
                rendered.append(id(part))
            return real_text(grid, index, part)

        monkeypatch.setattr(loophole, "_text", text)
        ties = defaultdict(list)
        for key in keys:
            ties[_value(key)].append(key)
        compared = shared = 0
        for group in ties.values():
            for a, b in itertools.combinations(group[:30], 2):
                text_a, text_b = texts[id(a)], texts[id(b)]
                assert _better(a, b) == (text_a < text_b)
                assert _better(b, a) == (text_b < text_a)
                compared += text_a != text_b
                shared += any(p is q for p, q in zip(a.parts, b.parts))
        assert compared > 300 and shared > 300
        # each part's text is rendered once, shared by every candidate that keeps it
        assert rendered and len(set(rendered)) == len(rendered)

    @settings(max_examples=150, deadline=None)
    @given(
        ranks=st.tuples(RATIOS, st.none() | RATIOS),
        coincidences=st.tuples(RATIOS, st.none() | RATIOS),
        factors=st.tuples(*[st.integers(1, 6)] * 4),
        denominators=st.lists(st.sampled_from((4, 6, 8, 32)), min_size=2, max_size=2, unique=True),
        seed=st.integers(0, 2**16),
    )
    def test_cross_multiplied_order_is_the_fraction_order(self, ranks, coincidences, factors, denominators, seed):
        """_better orders unreduced rank and coincidence pairs as the Fractions
        they stand for: negative penalties included, equal values written over
        different denominators tying, and keys of walks on different grid
        scales compared; a tie in both falls to the canonical texts."""
        rng = random.Random(seed)
        configs = [SearchConfig(seed=0, source_atoms=3, instrument_atoms=2, mass_denominator=d) for d in denominators]
        keys = [_restart(rng, _Grid(cfg)) for cfg in configs]
        # a missing second value repeats the first, written over another denominator
        values = [(r, r2 or r) for r, r2 in (ranks, coincidences)]
        for k, key in enumerate(keys):
            (n, d), (m, e) = values[0][k], values[1][k]
            key.rank = (n * factors[k], d * factors[k])
            key.coincidence = (abs(m) * factors[2 + k], e * factors[2 + k])
        a, b = keys
        assert a.grid.scale != b.grid.scale

        def expected(x, y) -> bool:
            (rank_x, coin_x), (rank_y, coin_y) = _value(x), _value(y)
            if rank_x != rank_y:
                return rank_x > rank_y
            if coin_x != coin_y:
                return coin_x < coin_y
            return serialize(_model(x)) < serialize(_model(y))

        assert (_better(a, b), _better(b, a)) == (expected(a, b), expected(b, a))

    def test_the_walk_builds_no_model_objects(self, monkeypatch):
        """Between its restarts and the winner, a budget-400 search builds no
        ContextualModel, Setting, OutcomeTable or Fraction, apart from the
        Fraction of each history entry; a restart builds no ContextualModel,
        only the four settings whose rows it reads."""
        phase, built, restarts = ["config"], defaultdict(int), []

        def counted(real, name):
            def make(*args, **kwargs):
                built[phase[0], name] += 1
                return real(*args, **kwargs)

            return make

        def install():
            # after validate, whose isinstance tests read the real Fraction
            for name in ("ContextualModel", "Setting", "Fraction"):
                monkeypatch.setattr(loophole, name, counted(getattr(loophole, name), name))
            # a table is made by its constructor or by from_integers, whichever module calls them
            monkeypatch.setattr(OutcomeTable, "__init__", counted(OutcomeTable.__init__, "OutcomeTable"))
            from_integers = counted(OutcomeTable.from_integers.__func__, "OutcomeTable")
            monkeypatch.setattr(OutcomeTable, "from_integers", classmethod(from_integers))

        real_restart, real_model = loophole._restart, loophole._model

        def restart(rng, grid):
            if phase[0] == "config":
                install()
            phase[0] = "restart"
            restarts.append(rng)
            key = real_restart(rng, grid)
            phase[0] = "walk"
            return key

        def winner(key):
            phase[0] = "winner"
            return real_model(key)

        monkeypatch.setattr(loophole, "_restart", restart)
        monkeypatch.setattr(loophole, "_model", winner)
        out = search_postselection_violation(SearchConfig(seed=3, budget=400, instrument_atoms=2))
        walk = {name: n for (when, name), n in built.items() if when == "walk"}
        assert walk == {"Fraction": len(out.history)}
        assert built["restart", "ContextualModel"] == 0
        assert built["restart", "Setting"] == built["restart", "OutcomeTable"] == 4 * len(restarts)
        assert built["winner", "ContextualModel"] == 1

    def test_only_the_winner_outlives_the_search(self, monkeypatch):
        """No candidate key, part or walk grid outlives the search; the one
        model left is the winner's, built once."""
        def walk_objects() -> int:
            gc.collect()
            return sum(type(obj) in (loophole._Key, loophole._Part, loophole._Grid) for obj in gc.get_objects())

        winners = []
        real_model = loophole._model

        def winner(key):
            winners.append(real_model(key))
            return winners[-1]

        monkeypatch.setattr(loophole, "_model", winner)
        before = walk_objects()
        out = search_postselection_violation(SearchConfig(seed=3, budget=400, instrument_atoms=2))
        assert walk_objects() == before
        assert len(winners) == 1 and winners[0] is out.model


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
