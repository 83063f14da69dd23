"""Reference singlet behavior and a search for post-selection CHSH violations.

The search looks for small ternary models whose detected-only
correlations break the CHSH bound while their raw (coin-reduced)
correlations necessarily satisfy it.  A candidate is integer state on
the 1/d grid, its parts' weights and outcomes and the sums over them.
A restart draws it as integers and builds its sums in full.  A move is
scored on its parent's sums before any child exists, and only the
children the walk keeps, as current or best, are built; candidates rank
by unreduced integer pairs.  Only the winner becomes a model,
point-tested and re-derived through the Fraction report: a reported
violation is a theorem, not a numerical artifact.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import modelio
from .chsh import ChshReport, PostSelectionReport, chsh_values, postselected_correlations, zero_to_coin
from .model import (
    BehaviorTable,
    ContextualModel,
    CorrelationQuad,
    OutcomeTable,
    Pmf,
    Setting,
    _cut,
    _excerpt,
    behavior_from_model,
    correlation_quad,
    setting_rows,
    source_labels,
)

DETECTION_THRESHOLD = Fraction(2, 3)

# non-improving steps in a row after which the search restarts from a fresh random candidate
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
            raise ValueError(f"seed must be an int, got {_excerpt(self.seed)}")
        for name in ("source_atoms", "instrument_atoms", "budget", "mass_denominator"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive int, got {_excerpt(value)}")
        for name in ("min_coincidence", "max_detection", "target_stat"):
            value = getattr(self, name)
            optional = value is None and name != "min_coincidence"
            if isinstance(value, bool) or not (optional or isinstance(value, (int, Fraction))):
                raise ValueError(f"{name} must be an int or a Fraction, got {_excerpt(value)}")
        if not 0 < self.min_coincidence <= 1:
            raise ValueError("min_coincidence must lie in (0, 1]")
        if self.max_detection is not None and not 0 < self.max_detection <= 1:
            raise ValueError("max_detection must lie in (0, 1] or be None")
        if self.max_detection is not None and self.min_coincidence >= self.max_detection:
            raise ValueError(f"min_coincidence {_cut(self.min_coincidence)} must lie below max_detection "
                             f"{_cut(self.max_detection)}, which caps every coincidence rate")
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
    raw_quad: CorrelationQuad
    raw_chsh: ChshReport
    detection: DetectionReport
    history: list[tuple[int, Fraction]] = field(default_factory=list)


def _composition(rng: random.Random, n: int, total: int) -> list[int]:
    w = [0] * n
    for _ in range(total):
        w[rng.randrange(n)] += 1
    return w


class _Part:
    """One part of a candidate, the source or a setting, in integers over its walk's grid scale G.

    ``weights`` lists the source's pair weights, or the instrument's atom
    weights, over G in the grid's order, zero weights kept.  A setting's
    ``values`` lists its table's entries, -1, 0 or 1, in the grid's entry
    order; the source's is None.  A part made by a move records it for
    :func:`_better`: ``moved`` is a flip's entry index or a mass move's
    ``(src, dst)``, and ``origin`` the parent's list that the move replaced
    (not the parent part, so no chain of ancestors stays alive).  ``text``,
    the canonical text, is rendered on first use, for every holder.
    """

    __slots__ = ("values", "weights", "moved", "origin", "text")

    def __init__(self, values: Optional[list], weights: list, moved=None, origin: Optional[list] = None):
        self.values, self.weights, self.moved, self.origin = values, weights, moved, origin
        self.text: Optional[str] = None


# each context's (Alice setting, Bob setting), Alice-major, as indexes of
# the four settings (0 and 1 Alice's, 2 and 3 Bob's) ...
_CONTEXTS = ((0, 2), (0, 3), (1, 2), (1, 3))
# ... and each setting's two (context, other setting)
_PARTNERS = tuple(
    tuple((c, pair[1 - (s >> 1)]) for c, pair in enumerate(_CONTEXTS) if pair[s >> 1] == s) for s in range(4)
)
# the two values a flip may give an entry holding -1, 0 or 1
_OTHERS = {-1: (0, 1), 0: (-1, 1), 1: (-1, 0)}


class _Grid:
    """What a walk shares: the grid scale G, its parts' names, its draw tables and its penalty thresholds.

    G is ``mass_denominator``, d: a restart draws every mass as a
    composition of d and every move shifts weight 1, so every candidate of
    the walk stays on the 1/d grid.  Source pair k is (s_k, s_k), so label
    k indexes the source's weights and each setting's rows alike; atom i is
    u_i, and a table's entry j = k * m + i is (s_k, u_i), m the number of
    atoms.  A move draws from ``pairs``, ``atoms`` and ``entries`` (each
    flip's ``(j, k, i)``) by index; ``masses[w]`` is the quoted text of mass
    w / G.  The thresholds are integers over G**3 * q, the penalty's
    denominator; a coincidence weight below ``least`` misses the floor and
    a detection sum at ``most`` or above meets the cap.
    """

    __slots__ = ("scale", "labels", "pair_names", "atom_names", "entry_names", "pairs", "atoms", "entries",
                 "masses", "q", "cube", "denom", "floor", "cap", "lift", "margin", "least", "most")

    def __init__(self, cfg: SearchConfig):
        n, m, scale = cfg.source_atoms, cfg.instrument_atoms, cfg.mass_denominator
        self.scale = scale
        self.labels = tuple(f"s{k}" for k in range(n))
        self.pair_names = tuple((lab, lab) for lab in self.labels)
        self.atom_names = tuple(f"u{i}" for i in range(m))
        self.entry_names = tuple((lab, atom) for lab in self.labels for atom in self.atom_names)
        self.pairs, self.atoms = range(n), range(m)
        self.entries = tuple((k * m + i, k, i) for k in self.pairs for i in self.atoms)
        self.masses = tuple(modelio._mass_text(w, scale) for w in range(scale + 1))
        floor, cap = cfg.min_coincidence, cfg.max_detection
        self.q = q = math.lcm(floor.denominator, 256, 1 if cap is None else cap.denominator)
        self.cube = cube = scale**3
        self.denom = cube * q
        self.floor = floor.numerator * q // floor.denominator * cube
        self.cap = None if cap is None else cap.numerator * q // cap.denominator * cube
        # a detection sum over G**2 lifted to the penalty's denominator
        self.lift = scale * q
        self.margin = q // 256 * cube
        self.least = -(-self.floor // q)
        self.most = None if cap is None else -(-self.cap // self.lift)


class _Key:
    """A scored candidate: its five parts (source, Alice's two settings, Bob's two), sums and rank.

    ``rows[s][k]`` is setting s's ``(detected, signed)`` at source label k
    over G, the ``setting_rows`` pair: the instrument weight with a nonzero
    outcome and the sum of outcome x weight.  ``both`` and ``product`` are
    each context's coincidence weight sum w detA detB and post-selected
    product sum w sgnA sgnB over the source pairs, over G**3; ``detected``
    is each setting's sum w det, over G**2.  ``score`` is :func:`_score`'s
    ``(feasible, rank, coincidence)``, rank and coincidence unreduced
    ``(numerator, denominator)`` pairs.  Keys live only as the walk's
    current and best, so the walk holds the data of those two.
    """

    __slots__ = ("grid", "parts", "rows", "both", "product", "detected", "feasible", "rank", "coincidence")

    def __init__(self, grid: _Grid, parts: tuple, rows: list, both: list, product: list, detected: list, score):
        self.grid, self.parts, self.rows = grid, parts, rows
        self.both, self.product, self.detected = both, product, detected
        self.feasible, self.rank, self.coincidence = score


# the four settings' names, Alice's two then Bob's, in the order of a key's parts
_NAMES = ("x", "x'", "y", "y'")


def _restart(rng: random.Random, grid: _Grid) -> _Key:
    """A fresh random candidate on the 1/d grid, d = ``mass_denominator``, drawn as integers and scored.

    The source is a composition of d over the pairs (s_k, s_k), k < n =
    ``source_atoms``.  Each setting, in the order x, x', y, y', draws its
    instrument, a composition of d over its atoms u_i (one atom holds d
    and draws nothing), then its table: -1, 0 or 1 at each (s_k, u_i).
    """
    m, d = len(grid.atoms), grid.scale
    parts = [_Part(None, _composition(rng, len(grid.pairs), d))]
    for _name in _NAMES:
        weights = _composition(rng, m, d) if m > 1 else [d]
        parts.append(_Part([rng.choice((-1, 0, 1)) for _entry in grid.entries], weights))
    return _build(grid, tuple(parts))


def _terms(rows: list, k: int) -> tuple:
    """Source pair k's terms at weight 1: in ``both`` and ``product`` per context, in ``detected`` per setting."""
    (det0, sgn0), (det1, sgn1), (det2, sgn2), (det3, sgn3) = [row[k] for row in rows]
    return ((det0 * det2, det0 * det3, det1 * det2, det1 * det3),
            (sgn0 * sgn2, sgn0 * sgn3, sgn1 * sgn2, sgn1 * sgn3), (det0, det1, det2, det3))


def _build(grid: _Grid, parts: tuple[_Part, ...]) -> _Key:
    """The candidate of ``parts`` on ``grid``: its rows and sums built in full, scored."""
    source = parts[0].weights
    rows = [list(setting_rows(_setting(grid, s, part), grid.labels, zip(grid.atom_names, part.weights))[1].values())
            for s, part in enumerate(parts[1:])]
    # each sum, per context or setting c, is the source-weighted sum of the pairs' terms
    both, product, detected = ([sum(w * terms[c] for w, terms in zip(source, column)) for c in range(4)]
                               for column in zip(*(_terms(rows, k) for k in grid.pairs)))
    return _Key(grid, parts, rows, both, product, detected, _score(grid, both, product, detected))


def _setting(grid: _Grid, s: int, part: _Part) -> Setting:
    """Setting ``s`` of a candidate as a model object, its table flagged ternary."""
    return Setting(_NAMES[s], Pmf.from_integers(grid.scale, dict(zip(grid.atom_names, part.weights))),
                   OutcomeTable.from_integers(1, dict(zip(grid.entry_names, part.values)), ternary=True))


def _source(grid: _Grid, part: _Part) -> Pmf:
    """The source of a candidate as a pmf, zero weights kept."""
    return Pmf.from_integers(grid.scale, dict(zip(grid.pair_names, part.weights)))


def _model(key: _Key) -> ContextualModel:
    """The candidate as a model, equal to the one its moves would give: built for the winner only."""
    a0, a1, b0, b1 = (_setting(key.grid, s, part) for s, part in enumerate(key.parts[1:]))
    return ContextualModel(_source(key.grid, key.parts[0]), (a0, a1), (b0, b1))


def _score(grid: _Grid, both: list, product: list, detected: list) -> tuple:
    """A candidate's ``(feasible, rank, coincidence)`` from its sums.

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
    coincidence = (sum(both), grid.cube)
    if min(both) >= grid.least and (grid.most is None or max(detected) < grid.most):
        # the CHSH rule, max |T - 2 E| over the four E, with every E over the lcm of the coincidences
        lcm = math.lcm(*both)
        scaled = [p * (lcm // b) for b, p in zip(both, product)]
        total = sum(scaled)
        return True, (max(total - 2 * min(scaled), 2 * max(scaled) - total), lcm), coincidence
    penalty = sum(grid.denom * (both_c == 0) + max(grid.floor - both_c * grid.q, 0) for both_c in both)
    if grid.cap is not None:
        # the cap is exclusive, so sitting exactly on it still counts
        penalty += sum(det * grid.lift - grid.cap + grid.margin for det in detected if det >= grid.most)
    return False, (-penalty, grid.denom), coincidence


def _ahead(rank: tuple, coincidence: tuple, other: _Key) -> Optional[bool]:
    """Whether ``rank`` and ``coincidence`` beat ``other``'s by cross-multiplication; None on a tie in both."""
    (n, d), (m, e) = rank, other.rank
    if n * e != m * d:
        return n * e > m * d
    (n, d), (m, e) = coincidence, other.coincidence
    if n * e != m * d:
        return n * e < m * d
    return None


def _improves(score: tuple, wins_tie: bool, parent: _Key) -> bool:
    """The walk's accept test: whether a move scored ``score`` beats ``parent``, as :func:`_better` would judge
    its child; on a tie in rank and coincidence the one part that differs decides, by ``wins_tie``."""
    ahead = _ahead(score[1], score[2], parent)
    return wins_tie if ahead is None else ahead


def _mass_tie(grid: _Grid, weights: list, src: int, dst: int) -> bool:
    """Whether moving weight 1 from ``src`` to ``dst`` makes the part's text smaller: the texts first
    differ at the first moved atom's quoted mass, and a move from an atom to itself leaves them equal."""
    first = min(src, dst)
    w = weights[first]
    return src != dst and grid.masses[w - 1 if first == src else w + 1] < grid.masses[w]


def _row_sums(parent: _Key, s: int, shifts: list) -> tuple:
    """The parent's three sums after setting ``s``'s row at each label k shifts by ``(k, d_det, d_sgn)``: only
    label k's source pair carries the row, in the two contexts of setting ``s`` and its detection sum."""
    (c0, o0), (c1, o1) = _PARTNERS[s]
    rows0, rows1, source = parent.rows[o0], parent.rows[o1], parent.parts[0].weights
    both, product, detected = parent.both.copy(), parent.product.copy(), parent.detected.copy()
    for k, d_det, d_sgn in shifts:
        w = source[k]
        both[c0] += w * d_det * rows0[k][0]
        both[c1] += w * d_det * rows1[k][0]
        product[c0] += w * d_sgn * rows0[k][1]
        product[c1] += w * d_sgn * rows1[k][1]
        detected[s] += w * d_det
    return both, product, detected


def _child(parent: _Key, index: int, part: _Part, shifts: list, sums: tuple, score: tuple) -> _Key:
    """The kept child: ``parent`` with ``part`` at ``index`` and, for a setting, its rows shifted by ``shifts``."""
    parts, rows = list(parent.parts), parent.rows
    parts[index] = part
    if index:
        rows = rows.copy()
        row = rows[index - 1] = rows[index - 1].copy()
        for k, d_det, d_sgn in shifts:
            det, sgn = row[k]
            row[k] = (det + d_det, sgn + d_sgn)
    return _Key(parent.grid, tuple(parts), rows, *sums, score)


def _flip(rng: random.Random, parent: _Key, index: int) -> Optional[_Key]:
    """Flip one entry of the setting at ``index`` to another of -1, 0 and 1: its row moves by its atom's weight."""
    part = parent.parts[index]
    j, k, i = rng.choice(parent.grid.entries)
    before = part.values[j]
    after = rng.choice(_OTHERS[before])
    w = part.weights[i]
    shifts = [(k, w * (abs(after) - abs(before)), w * (after - before))]
    sums = _row_sums(parent, index - 1, shifts)
    score = _score(parent.grid, *sums)
    # the part texts differ only at the flipped entry's quoted value, whose first character orders as the value
    if not _improves(score, after < before, parent):
        return None
    values = part.values.copy()
    values[j] = after
    return _child(parent, index, _Part(values, part.weights, j, part.values), shifts, sums, score)


def _instrument_move(rng: random.Random, parent: _Key, index: int) -> Optional[_Key]:
    """Move weight 1 of the setting's instrument mass from a random donor atom to a random atom.

    The rows move by 1 at the labels whose entries differ at the two atoms.
    """
    grid, part = parent.grid, parent.parts[index]
    src = rng.choice([i for i, w in enumerate(part.weights) if w])
    dst = rng.choice(grid.atoms)
    m = len(grid.atoms)
    shifts = [(k, abs(after) - abs(before), after - before)
              for k, before, after in zip(grid.pairs, part.values[src::m], part.values[dst::m]) if before != after]
    sums = _row_sums(parent, index - 1, shifts)
    score = _score(grid, *sums)
    if not _improves(score, _mass_tie(grid, part.weights, src, dst), parent):
        return None
    weights = [w - (i == src) + (i == dst) for i, w in enumerate(part.weights)]
    return _child(parent, index, _Part(part.values, weights, (src, dst), part.weights), shifts, sums, score)


def _source_move(rng: random.Random, parent: _Key) -> Optional[_Key]:
    """Move weight 1 of source mass from a random donor pair to a random pair: each sum moves by two pairs' terms."""
    grid, source = parent.grid, parent.parts[0].weights
    src = rng.choice([k for k, w in enumerate(source) if w])
    dst = rng.choice(grid.pairs)
    columns = zip((parent.both, parent.product, parent.detected), _terms(parent.rows, src), _terms(parent.rows, dst))
    sums = tuple([total - gone + come for total, gone, come in zip(*column)] for column in columns)
    score = _score(grid, *sums)
    if not _improves(score, _mass_tie(grid, source, src, dst), parent):
        return None
    weights = [w - (k == src) + (k == dst) for k, w in enumerate(source)]
    return _child(parent, 0, _Part(None, weights, (src, dst), source), [], sums, score)


def _step(rng: random.Random, parent: _Key) -> Optional[_Key]:
    """One random move from ``parent``, scored on its parent's sums: the child if it beats ``parent``, else None.

    A move flips one outcome entry to another of -1, 0 and 1, moves weight
    1 of instrument mass within a setting, or moves weight 1 of source
    mass between pairs.  Its kernel draws it, adds its delta to copies of
    the parent's sum lists and scores them, then hands :func:`_improves`
    the score and whether the child's part text would be the smaller; only
    a kept child's part, rows and key are built.  Every table is ternary and
    holds only -1, 0 and 1, so no move needs a point test; the winner's
    report point-tests it (:func:`~lhvlab.model.behavior_from_model`).
    """
    kind = rng.random()
    if kind < 0.6 or (kind >= 0.85 and len(parent.grid.atoms) > 1):
        # Alice's settings are parts 1 and 2, Bob's 3 and 4
        index = rng.choice((1, 3)) + rng.randrange(2)
        return (_flip if kind < 0.6 else _instrument_move)(rng, parent, index)
    return _source_move(rng, parent)


def _text(grid: _Grid, index: int, part: _Part) -> str:
    """The canonical text of the part at ``index``, rendered from its integers once."""
    if part.text is None:
        s = index - 1
        part.text = (modelio.setting_text(_setting(grid, s, part), grid.labels) if index
                     else modelio.source_text(_source(grid, part)))
    return part.text


def _text_order(index: int, key: _Key, mine: _Part, other: _Key, theirs: _Part) -> tuple:
    """Two values that order as the two parts' texts do, and are equal when the texts are."""
    for child, parent in ((mine, theirs), (theirs, mine)):
        if child.origin is parent.values and child.weights is parent.weights:
            # a flip: the texts differ only at the flipped entry's quoted value
            return mine.values[child.moved], theirs.values[child.moved]
        if child.origin is parent.weights and child.values is parent.values:
            # a mass move: the texts first differ at the first moved atom's quoted mass
            first = min(child.moved)
            return key.grid.masses[mine.weights[first]], key.grid.masses[theirs.weights[first]]
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
    nothing is rendered: a flip's texts order as the flipped entry's
    values (the quoted value starts with ``-``, ``0`` or ``1``), a mass
    move's as the quoted masses of its first moved atom, and quoted strings
    are never prefixes of each other.  Otherwise the pair's texts are
    rendered, each once for every key sharing its part.
    """
    ahead = _ahead(key.rank, key.coincidence, other)
    if ahead is not None:
        return ahead
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
    that made it: a restart draws its integers and builds its sums in
    full.  A move is scored on its parent's sums, the parent's plus the
    move's delta, before any child exists (:func:`_step`); only the
    children the walk keeps, as current or best, are built.  The walk
    runs no point test: every table it makes is ternary and holds only
    -1, 0 and 1.  Ranks are integer pairs compared by
    cross-multiplication (:func:`_better`).  The winner alone becomes a
    model, and Fractions are made only for it and the history: its report
    from ``behavior_from_model``, which point-tests every setting, and
    ``postselected_correlations`` must give the integer score, and its raw
    coin-reduced quad is re-verified to satisfy CHSH exactly.  If the
    budget never produces a violation the best model is still returned,
    flagged accordingly.
    """
    config.validate()
    rng = random.Random(config.seed)
    best: Optional[_Key] = None
    history: list[tuple[int, Fraction]] = []
    current: Optional[_Key] = None
    stall = 0
    evaluations = 0
    target = config.target_stat
    grid = _Grid(config)
    while evaluations < config.budget:
        evaluations += 1
        if current is None or stall >= STALL_LIMIT:
            key = _restart(rng, grid)
        else:
            key = _step(rng, current)
            if key is None:
                # a move the walk discards cannot be best either: it does not beat
                # current, and a feasible current never beats best
                stall += 1
                continue
        current, stall = key, 0
        if key.feasible and (best is None or _better(key, best)):
            best = key
            history.append((evaluations, Fraction(*key.rank)))
            if target is not None and key.rank[0] * target.denominator >= target.numerator * key.rank[1]:
                break

    if best is None:
        cap = config.max_detection
        limits = f"min_coincidence {_cut(config.min_coincidence)}"
        limits += "" if cap is None else f" and max_detection {_cut(cap)}"
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
