"""Reference singlet behavior and a search for post-selection CHSH violations.

The search looks for small ternary models whose detected-only
correlations break the CHSH bound while their raw (coin-reduced)
correlations necessarily satisfy it.  Every candidate is scored by exact
integer sums over its source and its settings' rows, updated from its
parent's by what its mutation moved, and the winner is re-derived
through the Fraction report, so a reported violation is a theorem about
the returned model, not a numerical artifact.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional

from . import modelio
from .chsh import ChshReport, PostSelectionReport, _flip_sums, chsh_values, postselected_correlations, zero_to_coin
from .model import (
    BehaviorTable,
    ContextualModel,
    CorrelationQuad,
    Label,
    OutcomeTable,
    Pmf,
    Setting,
    behavior_from_model,
    correlation_quad,
    require_point_outcomes,
    setting_rows,
    side_labels,
)

DETECTION_THRESHOLD = Fraction(2, 3)

# non-improving steps in a row after which the search restarts from a fresh random model
STALL_LIMIT = 80


@dataclass(frozen=True)
class AngleSet:
    """Analyzer angles (radians) for the two settings on each side."""

    theta_x: float
    theta_xp: float
    theta_y: float
    theta_yp: float

    @classmethod
    def chsh_optimal(cls) -> "AngleSet":
        return cls(0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)


def quantum_singlet_behavior(angles: AngleSet) -> BehaviorTable:
    """The singlet-state behavior at the given angles, exactly rationalized.

    Correlations follow E(a, b) = -cos(theta_a - theta_b) with unbiased
    singles.  Each cosine is taken as a float and then embedded exactly:
    the equal-outcomes cells get (1 + E)/4 as an exact Fraction of the
    float, the unequal cells get 1/2 minus that, so every context pmf
    sums to exactly 1 and no-signalling holds exactly by construction.
    An angle that is not finite raises ``ValueError`` naming it.
    """
    for name, value in vars(angles).items():
        if not math.isfinite(value):
            raise ValueError(f"angle {name} must be finite, got {value!r}")
    pairs = {
        "x": angles.theta_x,
        "x'": angles.theta_xp,
        "y": angles.theta_y,
        "y'": angles.theta_yp,
    }
    probs = {}
    for a in ("x", "x'"):
        for b in ("y", "y'"):
            e = -math.cos(pairs[a] - pairs[b])
            e = max(-1.0, min(1.0, e))
            agree = (1 + Fraction(e)) / 4
            disagree = Fraction(1, 2) - agree
            probs[(a, b)] = {
                (1, 1): agree,
                (-1, -1): agree,
                (1, -1): disagree,
                (-1, 1): disagree,
            }
    return BehaviorTable(("x", "x'"), ("y", "y'"), (-1, 1), probs)


@dataclass
class DetectionReport:
    """Per-side, per-setting probability of a nonzero outcome."""

    alice: dict[str, Fraction]
    bob: dict[str, Fraction]
    threshold: Fraction = DETECTION_THRESHOLD

    def relation(self, rate: Fraction) -> str:
        if rate < self.threshold:
            return "below"
        if rate == self.threshold:
            return "at"
        return "above"

    def relations(self) -> dict[tuple[str, str], str]:
        return {
            (side, name): self.relation(rate)
            for side in ("alice", "bob")
            for name, rate in getattr(self, side).items()
        }

    @property
    def all_below(self) -> bool:
        rates = list(self.alice.values()) + list(self.bob.values())
        return all(r < self.threshold for r in rates)


def detection_rates(model: ContextualModel) -> DetectionReport:
    """Exact probability that each side's outcome is nonzero, per setting.

    Each rate is the source-weighted sum of the setting's per-label
    detected weights, one integer sum and one Fraction.
    """
    src_scale, src = model.source.integer_weights()

    def side_rates(coord: int, side: str) -> dict[str, Fraction]:
        labels = side_labels(model, side)
        rates = {}
        for s in getattr(model, side):
            scale, atoms = s.instrument.integer_weights()
            _vscale, rows = setting_rows(s, labels, atoms)
            rates[s.name] = Fraction(sum(w * rows[pair[coord]][0] for pair, w in src), src_scale * scale)
        return rates

    return DetectionReport(side_rates(0, "alice"), side_rates(1, "bob"))


@dataclass
class SearchConfig:
    """Search-space sizes, budget, and the rate constraints.

    ``min_coincidence`` bounds every context's both-detected probability
    from below (no cheap wins by discarding almost everything);
    ``max_detection`` keeps each side's per-setting detection rate
    strictly below the given cap, by default the 2/3 critical threshold.
    Set it to None to search unconstrained.
    """

    seed: int
    source_atoms: int = 10
    instrument_atoms: int = 1
    budget: int = 4000
    min_coincidence: Fraction = Fraction(3, 10)
    max_detection: Optional[Fraction] = DETECTION_THRESHOLD
    mass_denominator: int = 32
    target_stat: Optional[Fraction] = None

    def validate(self) -> None:
        if self.budget < 1 or self.source_atoms < 1 or self.instrument_atoms < 1:
            raise ValueError("budgets and space sizes must be positive")
        if not 0 < self.min_coincidence <= 1:
            raise ValueError("min_coincidence must lie in (0, 1]")
        if self.max_detection is not None and not 0 < self.max_detection <= 1:
            raise ValueError("max_detection must lie in (0, 1] or be None")
        if not 1 <= self.mass_denominator <= 64:
            raise ValueError("mass grid denominator must lie in 1..64")


@dataclass
class SearchOutcome:
    """Best model found plus its exact certificates."""

    model: ContextualModel
    report: PostSelectionReport
    score: Fraction
    violating: bool
    evaluations: int
    history: list[tuple[int, Fraction]] = field(default_factory=list)
    raw_quad: Optional[CorrelationQuad] = None
    raw_chsh: Optional[ChshReport] = None
    detection: Optional[DetectionReport] = None


def _composition(rng: random.Random, n: int, total: int) -> list[int]:
    w = [0] * n
    for _ in range(total):
        w[rng.randrange(n)] += 1
    return w


def _random_search_model(rng: random.Random, cfg: SearchConfig) -> ContextualModel:
    n = cfg.source_atoms
    d = cfg.mass_denominator
    pairs = [(f"s{k}", f"s{k}") for k in range(n)]
    source = Pmf.from_integers(d, dict(zip(pairs, _composition(rng, n, d))))

    def make_setting(name: str) -> Setting:
        atoms = [f"u{i}" for i in range(cfg.instrument_atoms)]
        if len(atoms) == 1:
            instrument = Pmf.point(atoms[0])
        else:
            instrument = Pmf.from_integers(d, dict(zip(atoms, _composition(rng, len(atoms), d))))
        entries = {
            (f"s{k}", a): Fraction(rng.choice((-1, 0, 1)))
            for k in range(n)
            for a in atoms
        }
        return Setting(name, instrument, OutcomeTable(entries, ternary=True))

    return ContextualModel(
        source,
        (make_setting("x"), make_setting("x'")),
        (make_setting("y"), make_setting("y'")),
    )


def _move_grid_unit(rng: random.Random, pmf: Pmf, d: int) -> tuple[Pmf, Label, Label]:
    """``pmf`` with one 1/d grid unit moved from a random donor atom to a random atom; and those two atoms."""
    scale, weights = pmf.integer_atoms()
    weights = {lab: w * (d // scale) for lab, w in weights.items()}
    donors = [lab for lab, w in weights.items() if w > 0]
    src = rng.choice(donors)
    dst = rng.choice(list(weights))
    weights[src] -= 1
    weights[dst] += 1
    return Pmf.from_integers(d, weights), src, dst


# What a mutation changed, by the index of the part it replaced (0 the
# source, 1 and 2 Alice's settings, 3 and 4 Bob's): an outcome flip is
# ``(part, key)``, the flipped entry's (source label, instrument atom);
# a mass move is ``(part, src, dst)``, one grid unit taken from atom
# ``src`` and given to atom ``dst`` (source atoms are pairs).
_Change = tuple


def _mutate(rng: random.Random, model: ContextualModel, cfg: SearchConfig) -> tuple[ContextualModel, _Change]:
    """One random move: the child and its :data:`_Change`.

    A move flips one outcome entry, moves one grid unit of instrument
    mass within a setting, or moves one grid unit of source mass between
    atoms.  Every move reports what it changed, so :func:`_score` can
    update the parent's sums by that alone.
    """
    kind = rng.random()
    if kind < 0.6 or (kind >= 0.85 and cfg.instrument_atoms > 1):
        side = rng.choice(("alice", "bob"))
        part = (1 if side == "alice" else 3) + rng.randrange(2)
        setting = (model.alice + model.bob)[part - 1]
        if kind < 0.6:
            # flip one outcome entry
            key = rng.choice(list(setting.outcomes.entries))
            old = setting.outcomes.entries[key]
            new = Fraction(rng.choice([v for v in (-1, 0, 1) if v != old]))
            setting = Setting(setting.name, setting.instrument, setting.outcomes._with_entry(key, new))
            change: _Change = (part, key)
        else:
            # move one grid unit of instrument mass within the setting
            instrument, src, dst = _move_grid_unit(rng, setting.instrument, cfg.mass_denominator)
            setting = Setting(setting.name, instrument, setting.outcomes)
            change = (part, src, dst)
        settings = [*model.alice, *model.bob]
        settings[part - 1] = setting
        return ContextualModel(model.source, (settings[0], settings[1]), (settings[2], settings[3])), change
    # move one grid unit of source mass between atoms
    source, src, dst = _move_grid_unit(rng, model.source, cfg.mass_denominator)
    return ContextualModel(source, model.alice, model.bob), (0, src, dst)


class _Part:
    """One part of a candidate, the source or a setting, and its canonical text.

    Building a setting part runs the point-outcome test: over the whole
    table, or for a flip's part only at the flipped entry, since the rest
    of the table is its parent's.  A flip's part records the parent
    part's setting in ``flipped_from`` and the flipped entry's key in
    ``key``, which is all :func:`_better` needs to order the two; holding
    the setting, not the part, keeps no chain of ancestors alive.  The
    text is rendered on first use.  A mutation's child shares every part
    it kept, so each part's text is rendered at most once for all the
    candidates holding it.
    """

    __slots__ = ("obj", "labels", "flipped_from", "key", "_text")

    def __init__(self, obj, labels=None, side: str = "", flipped_from: Optional[Setting] = None, key=None):
        if labels is not None:
            require_point_outcomes(side, obj, None if key is None else (key,))
        self.obj = obj
        self.labels = labels
        self.flipped_from = flipped_from
        self.key = key
        self._text: Optional[str] = None

    def text(self) -> str:
        if self._text is None:
            if self.labels is None:
                self._text = modelio.source_text(self.obj)
            else:
                self._text = modelio.setting_text(self.obj, self.labels)
        return self._text


# each context's (Alice setting, Bob setting), Alice-major, as indexes of
# the four settings (0 and 1 Alice's, 2 and 3 Bob's) ...
_CONTEXTS = ((0, 2), (0, 3), (1, 2), (1, 3))
# ... and each setting's two (context, other setting)
_PARTNERS = tuple(
    tuple((c, pair[1 - (s >> 1)]) for c, pair in enumerate(_CONTEXTS) if pair[s >> 1] == s) for s in range(4)
)


class _Grid:
    """What a walk shares: the grid scale G, its penalty thresholds, and the source's label index.

    ``index[coord][label]`` lists ``(pair, other label)`` for every source
    pair holding ``label`` at ``coord``, zero-weight pairs included; the
    labels never change within a walk.  The thresholds are integers over
    G**3 * q, the penalty's denominator.
    """

    __slots__ = ("scale", "unit", "labels", "index", "q", "cube", "denom", "floor", "cap", "lift", "margin")

    def __init__(self, scale: int, pairs, cfg: SearchConfig):
        self.scale = scale
        self.unit = scale // cfg.mass_denominator
        self.labels = tuple(tuple(dict.fromkeys(pair[coord] for pair in pairs)) for coord in (0, 1))
        self.index = tuple({lab: [] for lab in labels} for labels in self.labels)
        for pair in pairs:
            self.index[0][pair[0]].append((pair, pair[1]))
            self.index[1][pair[1]].append((pair, pair[0]))
        floor, cap = cfg.min_coincidence, cfg.max_detection
        self.q = q = math.lcm(floor.denominator, 256, 1 if cap is None else cap.denominator)
        self.cube = cube = scale**3
        self.denom = cube * q
        self.floor = floor.numerator * q // floor.denominator * cube
        self.cap = None if cap is None else cap.numerator * q // cap.denominator * cube
        # a detection sum over G**2 lifted to the penalty's denominator
        self.lift = scale * q
        self.margin = q // 256 * cube


class _State(NamedTuple):
    """A candidate's integers over its walk's grid scale G.

    ``source`` is each pair's weight over G, zero weights kept.  ``rows``
    maps each source label of a setting's side to ``(detected, signed)``
    over G, the ``setting_rows`` pair: the instrument weight with a
    nonzero outcome and the sum of outcome x weight.  ``both`` and
    ``product`` are each context's coincidence weight sum w detA detB and
    post-selected product sum w sgnA sgnB over the source pairs, over
    G**3; ``detected`` is each setting's sum w det, over G**2.
    """

    source: dict
    rows: list
    both: list
    product: list
    detected: list


def _normalized_weights(pmf: Pmf, scale: int) -> dict:
    """The pmf's weights over ``scale``, which its own scale divides; ValueError unless it is normalized."""
    if not pmf.is_normalized():
        raise ValueError("behavior table is not normalized")
    own, weights = pmf.integer_atoms()
    return {lab: w * (scale // own) for lab, w in weights.items()}


def _build(model: ContextualModel, cfg: SearchConfig) -> tuple[_Grid, _State, tuple[_Part, ...]]:
    """A restart: the walk's grid, and the candidate's state and parts built in full.

    The grid scale G is the lcm of ``mass_denominator`` and the model's
    mass scales.  A restart model is drawn on the 1/d grid and every move
    shifts one grid unit, so every candidate of the walk stays on it.
    """
    settings = model.alice + model.bob
    scale = math.lcm(cfg.mass_denominator, model.source.integer_atoms()[0],
                     *(s.instrument.integer_atoms()[0] for s in settings))
    source = _normalized_weights(model.source, scale)
    grid = _Grid(scale, tuple(source), cfg)
    parts = [_Part(model.source)]
    rows = []
    for s, setting in enumerate(settings):
        labels = grid.labels[s >> 1]
        parts.append(_Part(setting, labels, ("alice", "bob")[s >> 1]))
        # the part's point test passed, so every value is an integer and vscale is 1
        rows.append(setting_rows(setting, labels, _normalized_weights(setting.instrument, scale).items())[1])
    both, product = [], []
    for a, b in ((rows[i], rows[j]) for i, j in _CONTEXTS):
        both.append(sum(w * a[l1][0] * b[l2][0] for (l1, l2), w in source.items()))
        product.append(sum(w * a[l1][1] * b[l2][1] for (l1, l2), w in source.items()))
    detected = [sum(w * rows[s][pair[s >> 1]][0] for pair, w in source.items()) for s in range(4)]
    return grid, _State(source, rows, both, product, detected), tuple(parts)


def _shift_row(grid: _Grid, state: _State, s: int, label, d_det: int, d_sgn: int) -> None:
    """Add ``(d_det, d_sgn)`` to setting ``s``'s row at ``label``, and each sum the terms that moved.

    Only the pairs holding ``label`` carry the row, in the two contexts
    of setting ``s`` and in its detection sum.  ``state``'s row dict of
    ``s`` and its sum lists must be the caller's own copies.
    """
    det, sgn = state.rows[s][label]
    state.rows[s][label] = (det + d_det, sgn + d_sgn)
    for pair, other in grid.index[s >> 1][label]:
        w = state.source[pair]
        if w:
            for c, o in _PARTNERS[s]:
                o_det, o_sgn = state.rows[o][other]
                state.both[c] += w * d_det * o_det
                state.product[c] += w * d_sgn * o_sgn
            state.detected[s] += w * d_det


def _moved(parent: "_Key", model: ContextualModel, change: _Change) -> tuple[_State, tuple[_Part, ...]]:
    """The child's state and parts from its parent's, by the delta of ``change``.

    A source move moves each sum by two pairs' terms; a flip moves one
    row by the flipped atom's weight; an instrument move moves, by one
    grid unit, the rows whose entries differ at its two atoms.  Everything
    the move kept is the parent's own object.
    """
    grid, old = parent.grid, parent.state
    parts = list(parent.parts)
    part, *moved = change
    sums = list(old.both), list(old.product), list(old.detected)
    if part == 0:
        state = _State(dict(old.source), old.rows, *sums)
        src, dst = moved
        for pair, w in ((src, -grid.unit), (dst, grid.unit)):
            state.source[pair] += w
            at = [old.rows[t][pair[t >> 1]] for t in range(4)]
            for c, (i, j) in enumerate(_CONTEXTS):
                state.both[c] += w * at[i][0] * at[j][0]
                state.product[c] += w * at[i][1] * at[j][1]
            for t in range(4):
                state.detected[t] += w * at[t][0]
        parts[0] = _Part(model.source)
        return state, tuple(parts)
    s = part - 1
    setting = (model.alice + model.bob)[s]
    labels, side = grid.labels[s >> 1], ("alice", "bob")[s >> 1]
    rows = list(old.rows)
    rows[s] = dict(rows[s])
    state = _State(old.source, rows, *sums)
    if len(moved) == 1:
        key = moved[0]
        flipped_from = parent.parts[part].obj
        parts[part] = _Part(setting, labels, side, flipped_from, key)
        before, after = flipped_from.outcomes.entries[key].numerator, setting.outcomes.entries[key].numerator
        scale, weights = setting.instrument.integer_atoms()
        w = weights[key[1]] * (grid.scale // scale)
        _shift_row(grid, state, s, key[0], w * (abs(after) - abs(before)), w * (after - before))
    else:
        src, dst = moved
        parts[part] = _Part(setting, labels, side)
        entries = setting.outcomes.entries
        for label in labels:
            before, after = entries[label, src].numerator, entries[label, dst].numerator
            if before != after:
                _shift_row(grid, state, s, label, grid.unit * (abs(after) - abs(before)), grid.unit * (after - before))
    return state, tuple(parts)


class _Key:
    """A scored candidate: its model, rank, coincidence total, parts, walk grid and state.

    There is no whole canonical text: :func:`_better` breaks a tie on the
    parts that differ.  Keys live only as the walk's candidate, current
    and best, so the derived data is bounded by those three models.
    """

    __slots__ = ("rank", "coincidence", "model", "parts", "grid", "state")

    def __init__(self, rank: Fraction, coincidence: Fraction, model: ContextualModel,
                 parts: tuple[_Part, ...], grid: _Grid, state: _State):
        self.rank = rank
        self.coincidence = coincidence
        self.model = model
        self.parts = parts
        self.grid = grid
        self.state = state


def _score(
    model: ContextualModel, parent: Optional[_Key], cfg: SearchConfig, change: Optional[_Change] = None
) -> tuple[bool, _Key]:
    """Rank a candidate: (feasible, key).

    Feasible candidates rank by post-selected max |S|; candidates outside
    the rate constraints rank by the negated constraint violation, which
    lets the greedy walk climb back into the feasible region but keeps
    every infeasible rank below every feasible one.  The penalty adds
    min_coincidence - rate for each context below the floor, 1 for each
    context with no coincidence, and rate - max_detection + 1/256 for
    each setting rate at or above the cap.

    A restart, with no parent or no change, builds the :class:`_State`
    in full (:func:`_build`); a mutation's child, given its parent and
    ``change`` from :func:`_mutate`, updates the parent's state by what
    the move changed (:func:`_moved`).  The source pair factorizes each context,
    as in ``correlation_quad``, so every sum is bilinear in the rows and
    the source weights, and a move adds only the terms it changed.

    Every sum is an integer over a power of the walk's grid scale G: a
    coincidence weight over G**3, a detection sum over G**2, lifted by G.
    The penalty is an integer over G**3 * q, where q is the lcm of the
    thresholds' denominators and 256, and the rank and coincidence total
    are one Fraction each.  These equal what the Fraction report (built
    only for the winner) and ``chsh_values`` give: every penalty term and
    the coincidence total are homogeneous of degree one in the rates, so
    writing the rates over G**3 rather than over their own denominators
    scales the numerator and denominator alike, and ``Fraction`` reduces
    both to the same value; each correlation product / both is free of
    the scale.  No text is rendered here: :func:`_better` renders part
    texts only when rank and coincidence tie.
    """
    if parent is None or change is None:
        grid, state, parts = _build(model, cfg)
    else:
        grid = parent.grid
        state, parts = _moved(parent, model, change)
    penalty = 0
    for both in state.both:
        if both == 0:
            penalty += grid.denom
        short = grid.floor - both * grid.q
        if short > 0:
            penalty += short
    if grid.cap is not None:
        for detected in state.detected:
            over = detected * grid.lift - grid.cap
            if over >= 0:
                # the cap is exclusive, so sitting exactly on it still counts
                penalty += over + grid.margin
    feasible = penalty == 0
    if feasible:
        # the CHSH rule with every E over the lcm of the coincidences
        lcm = math.lcm(*state.both)
        scaled = [product * (lcm // both) for both, product in zip(state.both, state.product)]
        rank = Fraction(max(abs(s) for s in _flip_sums(scaled)), lcm)
    else:
        rank = Fraction(-penalty, grid.denom)
    coincidence_total = Fraction(sum(state.both), grid.cube)
    return feasible, _Key(rank, coincidence_total, model, parts, grid, state)


def _better(key: _Key, other: _Key) -> bool:
    """Higher score wins; ties prefer lower coincidence, then the smaller canonical text.

    The texts are compared part by part, never assembled.  A candidate's
    canonical text is the five part texts (source, Alice's two settings,
    Bob's two) set into the fixed frame of
    :func:`~lhvlab.modelio.contextual_text`, which is the same for both
    keys.  Take the first part pair whose texts differ: everything before
    it in the two documents is equal, and since each part text is one
    complete JSON value, neither text can be a proper prefix of the
    other, so the two documents first differ inside this pair, where the
    texts do.  Comparing that pair therefore orders the documents.  Parts
    that are one object are equal without rendering, and the walk stops
    at the first pair that differs.

    When one part of the pair is the other's flip, nothing is rendered:
    the two texts differ only at the flipped entry's quoted value, whose
    first character, ``-``, ``0`` or ``1``, orders as the numbers -1, 0
    and 1 do, so the entries' values order the texts.  Otherwise the
    pair's texts are rendered, each once for every key sharing its part.
    """
    if key.rank != other.rank:
        return key.rank > other.rank
    if key.coincidence != other.coincidence:
        return key.coincidence < other.coincidence
    for mine, theirs in zip(key.parts, other.parts):
        if mine is not theirs:
            if mine.flipped_from is theirs.obj or theirs.flipped_from is mine.obj:
                flip = mine.key if mine.flipped_from is theirs.obj else theirs.key
                return mine.obj.outcomes.entries[flip] < theirs.obj.outcomes.entries[flip]
            text, other_text = mine.text(), theirs.text()
            if text != other_text:
                return text < other_text
    return False


def search_postselection_violation(config: SearchConfig) -> SearchOutcome:
    """Seeded random-restart greedy search for a post-selection CHSH violation.

    Candidates are ternary models with grid-rational masses; the score is
    the post-selected max |S| subject to every context's coincidence rate
    meeting the configured minimum.  Ties prefer lower total coincidence,
    then the smaller canonical serialization, so the outcome is a pure
    function of the config.  :func:`_score` ranks each candidate in
    integers over the walk's grid scale, and a candidate costs what its
    mutation moved: a restart builds its state in full, and a child's
    state is its parent's plus the delta of the one flip or grid-unit
    move that made it.  When rank and coincidence tie, :func:`_better`
    orders a flip and its parent on the flipped entry and otherwise
    compares part texts, rendering only the parts that differ, each once.
    Fractions are built for the history and the winner: its report comes
    from ``postselected_correlations`` and must give the integer score,
    and its raw coin-reduced quad is re-verified to satisfy CHSH exactly.
    If the budget never produces a violation the best model is still
    returned, flagged accordingly.
    """
    config.validate()
    rng = random.Random(config.seed)
    best: Optional[_Key] = None
    history: list[tuple[int, Fraction]] = []

    current: Optional[_Key] = None
    stall = 0
    evaluations = 0
    while evaluations < config.budget:
        restarting = current is None or stall >= STALL_LIMIT
        if restarting:
            feasible, key = _score(_random_search_model(rng, config), None, config)
        else:
            child, change = _mutate(rng, current.model, config)
            feasible, key = _score(child, current, config, change)
        evaluations += 1
        if restarting or _better(key, current):
            current = key
            stall = 0
        else:
            stall += 1
        if feasible and (best is None or _better(key, best)):
            best = key
            history.append((evaluations, key.rank))
            if config.target_stat is not None and key.rank >= config.target_stat:
                break

    if best is None:
        raise RuntimeError(
            "no candidate met the coincidence-rate constraint within the budget; "
            "lower min_coincidence or raise the budget"
        )

    report = postselected_correlations(behavior_from_model(best.model))
    if chsh_values(report.conditional_quad()).max_abs != best.rank:
        raise RuntimeError("the winner's post-selection report disagrees with its integer score: a bug")
    raw_quad = correlation_quad(zero_to_coin(best.model))
    raw_chsh = chsh_values(raw_quad)
    if not raw_chsh.satisfied:
        raise RuntimeError(
            "search returned a model whose raw quad violates CHSH; "
            "this cannot happen for a well-formed model and indicates a bug"
        )
    score = best.rank
    return SearchOutcome(
        model=best.model,
        report=report,
        score=score,
        violating=score > 2,
        evaluations=evaluations,
        history=history,
        raw_quad=raw_quad,
        raw_chsh=raw_chsh,
        detection=detection_rates(best.model),
    )
