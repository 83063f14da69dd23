"""Reference singlet behavior and a search for post-selection CHSH violations.

The search looks for small ternary models whose detected-only
correlations break the CHSH bound while their raw (coin-reduced)
correlations necessarily satisfy it.  A candidate is integer state, its
parts' weights and outcomes and the sums over them, updated from its
parent's by what its move changed and ranked by unreduced integer
pairs.  Only the winner becomes a model, re-derived through the Fraction
report: a reported violation is a theorem, not a numerical artifact.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import modelio
from .chsh import ChshReport, PostSelectionReport, _flip_sums, chsh_values, postselected_correlations, zero_to_coin
from .model import (
    BehaviorTable,
    ContextualModel,
    CorrelationQuad,
    OutcomeTable,
    Pmf,
    Setting,
    behavior_from_model,
    correlation_quad,
    require_point_outcomes,
    setting_rows,
    source_labels,
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

    def side_rates(coord: int) -> dict[str, Fraction]:
        labels = source_labels(model.source, coord)
        rates = {}
        for s in (model.alice, model.bob)[coord]:
            scale, atoms = s.instrument.integer_weights()
            _vscale, rows = setting_rows(s, labels, atoms)
            rates[s.name] = Fraction(sum(w * rows[pair[coord]][0] for pair, w in src), src_scale * scale)
        return rates

    return DetectionReport(side_rates(0), side_rates(1))


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
        """Raise ``ValueError`` naming the field unless the config can be searched exactly.

        The seed must be an int, so that it alone fixes the walk; sizes,
        budget and grid denominator must be positive ints, and the
        thresholds ints or Fractions, never bools, floats or strings: the
        walk compares them exactly in integers.  ``min_coincidence`` must
        lie below ``max_detection``: a context's coincidence rate is at most
        each side's detection rate, which must stay below the cap.
        """
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        for name in ("source_atoms", "instrument_atoms", "budget", "mass_denominator"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive int, got {value!r}")
        for name in ("min_coincidence", "max_detection", "target_stat"):
            value = getattr(self, name)
            optional = value is None and name != "min_coincidence"
            if isinstance(value, bool) or not (optional or isinstance(value, (int, Fraction))):
                raise ValueError(f"{name} must be an int or a Fraction, got {value!r}")
        if not 0 < self.min_coincidence <= 1:
            raise ValueError("min_coincidence must lie in (0, 1]")
        if self.max_detection is not None and not 0 < self.max_detection <= 1:
            raise ValueError("max_detection must lie in (0, 1] or be None")
        if self.max_detection is not None and self.min_coincidence >= self.max_detection:
            raise ValueError(f"min_coincidence {self.min_coincidence} must lie below max_detection "
                             f"{self.max_detection}, which caps every coincidence rate")
        if self.mass_denominator > 64:
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
        values = {(f"s{k}", a): rng.choice((-1, 0, 1)) for k in range(n) for a in atoms}
        return Setting(name, instrument, OutcomeTable.from_integers(1, values, ternary=True))

    return ContextualModel(
        source,
        (make_setting("x"), make_setting("x'")),
        (make_setting("y"), make_setting("y'")),
    )


class _Part:
    """One part of a candidate, the source or a setting, in integers over its walk's grid scale G.

    ``weights`` maps the source's pairs, or the instrument's atoms, to
    their weights over G, zero weights kept.  A setting's ``values`` maps
    each (source label, instrument atom) to -1, 0 or 1 in its table's key
    order; the source's is None.  A part made by a move records it for
    :func:`_better`: ``moved`` is a flip's key or a mass move's ``(src,
    dst)``, and ``origin`` the parent's dict that the move replaced (not
    the parent part, so no chain of ancestors stays alive).  ``text``,
    the canonical text, is rendered on first use, for every holder.
    """

    __slots__ = ("values", "weights", "moved", "origin", "text")

    def __init__(self, values: Optional[dict], weights: dict, moved=None, origin: Optional[dict] = None):
        self.values = values
        self.weights = weights
        self.moved = moved
        self.origin = origin
        self.text: Optional[str] = None


# each context's (Alice setting, Bob setting), Alice-major, as indexes of
# the four settings (0 and 1 Alice's, 2 and 3 Bob's) ...
_CONTEXTS = ((0, 2), (0, 3), (1, 2), (1, 3))
# ... and each setting's two (context, other setting)
_PARTNERS = tuple(
    tuple((c, pair[1 - (s >> 1)]) for c, pair in enumerate(_CONTEXTS) if pair[s >> 1] == s) for s in range(4)
)


class _Grid:
    """What a walk shares: the grid scale G, its penalty thresholds, the source's label index, setting names.

    ``ternary`` is each setting's table flag.  ``index[coord][label]``
    lists ``(pair, other label)`` for each source pair holding ``label``
    at ``coord``, zero weights included; labels never change in a walk.
    The thresholds are integers over G**3 * q, the penalty's denominator.
    """

    __slots__ = ("scale", "unit", "labels", "index", "names", "ternary", "q", "cube", "denom", "floor", "cap", "lift",
                 "margin")

    def __init__(self, scale: int, pairs, settings: tuple[Setting, ...], cfg: SearchConfig):
        self.scale = scale
        self.unit = scale // cfg.mass_denominator
        self.labels = tuple(tuple(dict.fromkeys(pair[coord] for pair in pairs)) for coord in (0, 1))
        self.index = tuple({lab: [] for lab in labels} for labels in self.labels)
        for pair in pairs:
            self.index[0][pair[0]].append((pair, pair[1]))
            self.index[1][pair[1]].append((pair, pair[0]))
        self.names = tuple(s.name for s in settings)
        self.ternary = tuple(s.outcomes.ternary for s in settings)
        floor, cap = cfg.min_coincidence, cfg.max_detection
        self.q = q = math.lcm(floor.denominator, 256, 1 if cap is None else cap.denominator)
        self.cube = cube = scale**3
        self.denom = cube * q
        self.floor = floor.numerator * q // floor.denominator * cube
        self.cap = None if cap is None else cap.numerator * q // cap.denominator * cube
        # a detection sum over G**2 lifted to the penalty's denominator
        self.lift = scale * q
        self.margin = q // 256 * cube


class _Key:
    """A scored candidate: its five parts (source, Alice's two settings, Bob's two), sums and rank.

    ``rows`` maps each source label of a setting's side to ``(detected,
    signed)`` over G, the ``setting_rows`` pair: the instrument weight
    with a nonzero outcome and the sum of outcome x weight.  ``both`` and
    ``product`` are each context's coincidence weight sum w detA detB and
    post-selected product sum w sgnA sgnB over the source pairs, over
    G**3; ``detected`` is each setting's sum w det, over G**2.  ``rank``
    and ``coincidence`` are unreduced ``(numerator, denominator)`` pairs
    set by :func:`_score`.  Keys live only as the walk's candidate,
    current and best, so the walk holds the data of those three.
    """

    __slots__ = ("grid", "parts", "rows", "both", "product", "detected", "feasible", "rank", "coincidence")

    def __init__(self, grid: _Grid, parts: tuple[_Part, ...], rows: list, both: list, product: list, detected: list):
        self.grid = grid
        self.parts = parts
        self.rows = rows
        self.both = both
        self.product = product
        self.detected = detected


def _normalized_weights(pmf: Pmf, scale: int) -> dict:
    """The pmf's weights over ``scale``, which its own scale divides; ValueError unless it is normalized."""
    if not pmf.is_normalized():
        raise ValueError("behavior table is not normalized")
    own, weights = pmf.integer_atoms()
    return {lab: w * (scale // own) for lab, w in weights.items()}


def _build(model: ContextualModel, cfg: SearchConfig) -> _Key:
    """A restart: the walk's grid, and the candidate's parts and sums built in full from ``model``, scored.

    The grid scale G is the lcm of ``mass_denominator`` and the model's
    mass scales.  A restart model is drawn on the 1/d grid and every move
    shifts one grid unit, so every candidate of the walk stays on it.
    """
    settings = model.alice + model.bob
    scale = math.lcm(cfg.mass_denominator, model.source.integer_atoms()[0],
                     *(s.instrument.integer_atoms()[0] for s in settings))
    source = _normalized_weights(model.source, scale)
    grid = _Grid(scale, tuple(source), settings, cfg)
    parts, rows = [_Part(None, source)], []
    for s, setting in enumerate(settings):
        require_point_outcomes(("alice", "bob")[s >> 1], setting)
        weights = _normalized_weights(setting.instrument, scale)
        # the point test passed, so the table's scale and vscale are 1 and its numerators are its values
        parts.append(_Part(setting.outcomes.numerators, weights))
        rows.append(setting_rows(setting, grid.labels[s >> 1], weights.items())[1])
    both, product = [], []
    for a, b in ((rows[i], rows[j]) for i, j in _CONTEXTS):
        both.append(sum(w * a[l1][0] * b[l2][0] for (l1, l2), w in source.items()))
        product.append(sum(w * a[l1][1] * b[l2][1] for (l1, l2), w in source.items()))
    detected = [sum(w * rows[s][pair[s >> 1]][0] for pair, w in source.items()) for s in range(4)]
    return _score(_Key(grid, tuple(parts), rows, both, product, detected))


def _setting(grid: _Grid, s: int, part: _Part) -> Setting:
    """Setting ``s`` of a candidate as a model object."""
    return Setting(grid.names[s], Pmf.from_integers(grid.scale, part.weights),
                   OutcomeTable.from_integers(1, part.values, grid.ternary[s]))


def _model(key: _Key) -> ContextualModel:
    """The candidate as a model, equal to the one its moves would give: built for the winner only."""
    a0, a1, b0, b1 = (_setting(key.grid, s, part) for s, part in enumerate(key.parts[1:]))
    return ContextualModel(Pmf.from_integers(key.grid.scale, key.parts[0].weights), (a0, a1), (b0, b1))


# the point outcomes of an unflagged table, and of a ternary one
_POINTS = (frozenset((-1, 1)), frozenset((-1, 0, 1)))


def _require_point(grid: _Grid, s: int, part: _Part, keys=None) -> None:
    """The point-outcome test of setting ``s`` on its integer values, at ``keys`` if given."""
    values = part.values.values() if keys is None else map(part.values.__getitem__, keys)
    if not _POINTS[grid.ternary[s]].issuperset(values):
        # only a 0 in an unflagged table fails; the model's test words the error
        require_point_outcomes(("alice", "bob")[s >> 1], _setting(grid, s, part), keys)


def _shift_row(key: _Key, s: int, label, d_det: int, d_sgn: int) -> None:
    """Add ``(d_det, d_sgn)`` to setting ``s``'s row at ``label``, and each sum the terms that moved.

    Only the pairs holding ``label`` carry the row, in the two contexts
    of setting ``s`` and in its detection sum.  ``key``'s row dict of
    ``s`` and its sum lists must be its own copies.
    """
    det, sgn = key.rows[s][label]
    key.rows[s][label] = (det + d_det, sgn + d_sgn)
    source = key.parts[0].weights
    for pair, other in key.grid.index[s >> 1][label]:
        w = source[pair]
        if w:
            for c, o in _PARTNERS[s]:
                o_det, o_sgn = key.rows[o][other]
                key.both[c] += w * d_det * o_det
                key.product[c] += w * d_sgn * o_sgn
            key.detected[s] += w * d_det


def _unit_move(rng: random.Random, part: _Part, unit: int) -> _Part:
    """``part`` with one grid unit of mass moved from a random donor atom to a random atom."""
    weights = dict(part.weights)
    src = rng.choice([lab for lab, w in weights.items() if w >= unit])
    dst = rng.choice(list(weights))
    weights[src] -= unit
    weights[dst] += unit
    return _Part(part.values, weights, (src, dst), part.weights)


def _mutate(rng: random.Random, parent: _Key, cfg: SearchConfig) -> _Key:
    """One random move from ``parent``: the child, scored from its parent's sums by the move's delta.

    A move flips one outcome entry, moves one grid unit of instrument mass
    within a setting, or moves one grid unit of source mass between atoms.
    A flip point-tests its one entry and an instrument move its whole
    table; a source move changes no outcome.  The rng draws are those of
    the model-level walk: the same choices over the same key, value,
    donor and atom lists, in the same order.
    """
    kind = rng.random()
    if kind < 0.6 or (kind >= 0.85 and cfg.instrument_atoms > 1):
        side = rng.choice(("alice", "bob"))
        index = (1 if side == "alice" else 3) + rng.randrange(2)
        old = parent.parts[index]
        if kind < 0.6:
            # flip one outcome entry
            key = rng.choice(list(old.values))
            values = dict(old.values)
            values[key] = rng.choice([v for v in (-1, 0, 1) if v != values[key]])
            part, tested = _Part(values, old.weights, key, old.values), (key,)
        else:
            # move one grid unit of instrument mass within the setting
            part, tested = _unit_move(rng, old, parent.grid.unit), None
        _require_point(parent.grid, index - 1, part, tested)
    else:
        # move one grid unit of source mass between atoms
        index, part = 0, _unit_move(rng, parent.parts[0], parent.grid.unit)
    return _score(_moved(parent, index, part))


def _moved(parent: _Key, index: int, part: _Part) -> _Key:
    """The child that one move made from ``parent`` by replacing its part at ``index`` with ``part``, unscored.

    Its sums are the parent's plus the move's delta: a source move moves
    each sum by two pairs' terms, a flip moves one row by the flipped
    atom's weight, and an instrument move moves, by one grid unit, the
    rows whose entries differ at its two atoms.  The child's sum lists
    and rows are its own copies; everything else is the parent's object.
    """
    grid, old = parent.grid, parent.parts[index]
    parts, rows = list(parent.parts), list(parent.rows)
    parts[index] = part
    child = _Key(grid, tuple(parts), rows, list(parent.both), list(parent.product), list(parent.detected))
    if index == 0:
        for pair, w in zip(part.moved, (-grid.unit, grid.unit)):
            at = [rows[t][pair[t >> 1]] for t in range(4)]
            for c, (i, j) in enumerate(_CONTEXTS):
                child.both[c] += w * at[i][0] * at[j][0]
                child.product[c] += w * at[i][1] * at[j][1]
            for t in range(4):
                child.detected[t] += w * at[t][0]
        return child
    s = index - 1
    rows[s] = dict(rows[s])
    if part.weights is old.weights:
        key = part.moved
        deltas = [(key[0], old.weights[key[1]], old.values[key], part.values[key])]
    else:
        src, dst = part.moved
        deltas = [(label, grid.unit, old.values[label, src], old.values[label, dst]) for label in grid.labels[s >> 1]]
    for label, w, before, after in deltas:
        if before != after:
            _shift_row(child, s, label, w * (abs(after) - abs(before)), w * (after - before))
    return child


def _score(key: _Key) -> _Key:
    """Rank a candidate from its sums: set its feasibility, rank and coincidence total, and return it.

    Feasible candidates rank by post-selected max |S|; candidates outside
    the rate constraints rank by the negated constraint violation, which
    lets the greedy walk climb back into the feasible region but keeps
    every infeasible rank below every feasible one.  The penalty adds
    min_coincidence - rate for each context below the floor, 1 for each
    context with no coincidence, and rate - max_detection + 1/256 for
    each setting rate at or above the cap.

    Every sum is an integer over a power of the walk's grid scale G: a
    coincidence weight over G**3, a detection sum over G**2, lifted by G.
    The penalty is an integer over G**3 * q, where q is the lcm of the
    thresholds' denominators and 256.  Rank and coincidence total are
    unreduced integer pairs whose values equal what the Fraction report
    and ``chsh_values`` give: every penalty term and the coincidence total
    are homogeneous of degree one in the rates, so writing the rates over
    G**3 scales numerator and denominator alike, and each correlation
    product / both is free of the scale.
    """
    grid = key.grid
    penalty = 0
    for both in key.both:
        if both == 0:
            penalty += grid.denom
        short = grid.floor - both * grid.q
        if short > 0:
            penalty += short
    if grid.cap is not None:
        for detected in key.detected:
            over = detected * grid.lift - grid.cap
            if over >= 0:
                # the cap is exclusive, so sitting exactly on it still counts
                penalty += over + grid.margin
    key.feasible = penalty == 0
    if key.feasible:
        # the CHSH rule with every E over the lcm of the coincidences
        lcm = math.lcm(*key.both)
        scaled = [product * (lcm // both) for both, product in zip(key.both, key.product)]
        key.rank = (max(map(abs, _flip_sums(scaled))), lcm)
    else:
        key.rank = (-penalty, grid.denom)
    key.coincidence = (sum(key.both), grid.cube)
    return key


def _text(grid: _Grid, index: int, part: _Part) -> str:
    """The canonical text of the part at ``index``, rendered from its integers once."""
    if part.text is None:
        s = index - 1
        part.text = (modelio.setting_text(_setting(grid, s, part), grid.labels[s >> 1]) if index
                     else modelio.source_text(Pmf.from_integers(grid.scale, part.weights)))
    return part.text


def _text_order(index: int, key: _Key, mine: _Part, other: _Key, theirs: _Part) -> tuple:
    """Two values that order as the two parts' texts do, and are equal when the texts are."""
    for child, parent in ((mine, theirs), (theirs, mine)):
        if child.origin is parent.values and child.weights is parent.weights:
            # a flip: the texts differ only at the flipped entry's quoted value
            return mine.values[child.moved], theirs.values[child.moved]
        if child.origin is parent.weights and child.values is parent.values:
            # a mass move: the texts first differ at the first moved atom's quoted mass
            first = next(atom for atom in child.weights if atom in child.moved)
            mass = modelio._mass_text
            return mass(mine.weights[first], key.grid.scale), mass(theirs.weights[first], key.grid.scale)
    return _text(key.grid, index, mine), _text(other.grid, index, theirs)


def _better(key: _Key, other: _Key) -> bool:
    """Higher score wins; ties prefer lower coincidence, then the smaller canonical text.

    Rank and coincidence are unreduced integer pairs compared by
    cross-multiplication, so keys of walks on different grid scales
    compare by value.  The texts are compared part by part, never
    assembled.  A candidate's canonical text is the five part texts
    (source, Alice's two settings, Bob's two) set into the fixed frame of
    :func:`~lhvlab.modelio.contextual_text`, the same for both keys.
    Take the first part pair whose texts differ: everything before it in
    the two documents is equal, and since each part text is one complete
    JSON value, neither text can be a proper prefix of the other, so the
    documents first differ inside this pair, where the texts do, and
    comparing the pair orders the documents.  Parts that are one object
    are equal without rendering; the walk stops at the first pair that
    differs.

    When one part of the pair was made from the other by one move,
    nothing is rendered.  A flip's texts differ only at the flipped
    entry's quoted value, whose first character, ``-``, ``0`` or ``1``,
    orders as -1, 0 and 1 do.  A mass move's texts first differ at the
    quoted mass of the first moved atom in the part's atom order; quoted
    strings cannot be prefixes of each other, so these order the texts,
    and a move from an atom to itself leaves them equal.  Otherwise the
    pair's texts are rendered, each once for every key sharing its part.
    """
    (n, d), (m, e) = key.rank, other.rank
    if n * e != m * d:
        return n * e > m * d
    (n, d), (m, e) = key.coincidence, other.coincidence
    if n * e != m * d:
        return n * e < m * d
    for index, (mine, theirs) in enumerate(zip(key.parts, other.parts)):
        if mine is not theirs:
            a, b = _text_order(index, key, mine, other, theirs)
            if a != b:
                return a < b
    return False


def search_postselection_violation(config: SearchConfig) -> SearchOutcome:
    """Seeded random-restart greedy search for a post-selection CHSH violation.

    Candidates are ternary models with grid-rational masses; the score is
    the post-selected max |S| subject to every context's coincidence rate
    meeting the configured minimum.  Ties prefer lower total coincidence,
    then the smaller canonical serialization, so the outcome is a pure
    function of the config.  A candidate is integer state plus the move
    that made it: a restart is built in full from a drawn model, and a
    child's sums are its parent's plus the delta of its one move.  Ranks
    are integer pairs compared by cross-multiplication (:func:`_better`).
    The winner alone becomes a model, and Fractions are made only for it
    and the history: its report from ``postselected_correlations`` must
    give the integer score, and its raw coin-reduced quad is re-verified
    to satisfy CHSH exactly.  If the budget never produces a violation
    the best model is still returned, flagged accordingly.
    """
    config.validate()
    rng = random.Random(config.seed)
    best: Optional[_Key] = None
    history: list[tuple[int, Fraction]] = []
    current: Optional[_Key] = None
    stall = 0
    evaluations = 0
    target = config.target_stat
    while evaluations < config.budget:
        restarting = current is None or stall >= STALL_LIMIT
        key = _build(_random_search_model(rng, config), config) if restarting else _mutate(rng, current, config)
        evaluations += 1
        if restarting or _better(key, current):
            current = key
            stall = 0
        else:
            stall += 1
        if key.feasible and (best is None or _better(key, best)):
            best = key
            history.append((evaluations, Fraction(*key.rank)))
            if target is not None and key.rank[0] * target.denominator >= target.numerator * key.rank[1]:
                break

    if best is None:
        cap = config.max_detection
        limits = f"min_coincidence {config.min_coincidence}" + ("" if cap is None else f" and max_detection {cap}")
        raise RuntimeError(f"no candidate within the budget of {config.budget} met {limits}; lower min_coincidence"
                           f"{'' if cap is None else ', raise max_detection'} or raise the budget")

    model = _model(best)
    score = Fraction(*best.rank)
    report = postselected_correlations(behavior_from_model(model))
    if chsh_values(report.conditional_quad()).max_abs != score:
        raise RuntimeError("the winner's post-selection report disagrees with its integer score: a bug")
    raw_quad = correlation_quad(zero_to_coin(model))
    raw_chsh = chsh_values(raw_quad)
    if not raw_chsh.satisfied:
        raise RuntimeError(
            "search returned a model whose raw quad violates CHSH; "
            "this cannot happen for a well-formed model and indicates a bug"
        )
    return SearchOutcome(
        model=model,
        report=report,
        score=score,
        violating=score > 2,
        evaluations=evaluations,
        history=history,
        raw_quad=raw_quad,
        raw_chsh=raw_chsh,
        detection=detection_rates(model),
    )
