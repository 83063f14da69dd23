"""Reference singlet behavior and a search for post-selection CHSH violations.

The search looks for small ternary models whose detected-only
correlations break the CHSH bound while their raw (coin-reduced)
correlations necessarily satisfy it.  Every candidate is scored by exact
integer sums over its source and its settings' channels, and the winner
is re-derived through the Fraction report, so a reported violation is a
theorem about the returned model, not a numerical artifact.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
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
    behavior_from_model,
    channel_moments,
    correlation_quad,
    require_point_outcomes,
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
            scale, _vscale, moments = channel_moments(labels, s)
            rates[s.name] = Fraction(sum(w * moments[pair[coord]][0] for pair, w in src), src_scale * scale)
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


def _move_grid_unit(rng: random.Random, pmf: Pmf, d: int) -> Pmf:
    scale, weights = pmf.integer_atoms()
    weights = {lab: w * (d // scale) for lab, w in weights.items()}
    donors = [lab for lab, w in weights.items() if w > 0]
    src = rng.choice(donors)
    dst = rng.choice(list(weights))
    weights[src] -= 1
    weights[dst] += 1
    return Pmf.from_integers(d, weights)


def _replace_setting(model: ContextualModel, side: str, idx: int, new_setting: Setting):
    new_side = tuple(new_setting if i == idx else s for i, s in enumerate(getattr(model, side)))
    return replace(model, **{side: new_side})


# What an outcome flip changed: the index of the setting among the
# candidate's parts (1 and 2 for Alice's settings, 3 and 4 for Bob's) and
# the flipped entry's (source label, instrument atom) key.
_Change = tuple[int, tuple]


def _mutate(
    rng: random.Random, model: ContextualModel, cfg: SearchConfig
) -> tuple[ContextualModel, Optional[_Change]]:
    """One random move: the child, and for an outcome flip the :data:`_Change`.

    A move flips one outcome entry, moves one grid unit of instrument
    mass within a setting, or moves one grid unit of source mass between
    atoms; only a flip reports what it changed, the mass moves None.
    """
    kind = rng.random()
    if kind < 0.6 or (kind >= 0.85 and cfg.instrument_atoms > 1):
        side = rng.choice(("alice", "bob"))
        idx = rng.randrange(2)
        setting = getattr(model, side)[idx]
        change = None
        if kind < 0.6:
            # flip one outcome entry
            key = rng.choice(list(setting.outcomes.entries))
            old = setting.outcomes.entries[key]
            new = Fraction(rng.choice([v for v in (-1, 0, 1) if v != old]))
            setting = Setting(setting.name, setting.instrument, setting.outcomes._with_entry(key, new))
            change = ((1 if side == "alice" else 3) + idx, key)
        else:
            # move one grid unit of instrument mass within the setting
            instrument = _move_grid_unit(rng, setting.instrument, cfg.mass_denominator)
            setting = Setting(setting.name, instrument, setting.outcomes)
        return _replace_setting(model, side, idx, setting), change
    # move one grid unit of source mass between atoms
    source = _move_grid_unit(rng, model.source, cfg.mass_denominator)
    return ContextualModel(source, model.alice, model.bob), None


class _Part:
    """One part of a candidate, the source or a setting, with what is derived from it.

    ``weights`` holds the part's integers for scoring: the source support
    ``(scale, [(pair, weight)])``, or a setting's :func:`channel_moments`
    ``(scale, {label: (detected, signed)})``: the instrument weight with a
    nonzero outcome, and the first moment, which for point outcomes is
    the sum of outcome x weight over the same scale.  ``support`` is a
    setting's instrument support ``(scale, [(atom, weight)])``, None for
    the source.
    Building a part checks that its weights sum to their scale (every
    channel row regroups the instrument's support weights, so checking
    the instrument checks each row).  :meth:`flipped` derives the part of
    a one-entry flip from its parent's in one row.  The canonical text is
    rendered on first use.  A mutation's child shares every part whose
    object and labels it kept, so each part's integers and text are
    built once for all the candidates holding it.
    """

    __slots__ = ("obj", "labels", "weights", "support", "_text")

    def __init__(self, obj, labels=None, side: str = ""):
        self.obj = obj
        self.labels = labels
        if labels is None:
            scale, atoms = self.weights = obj.integer_weights()
            self.support = None
        else:
            require_point_outcomes(side, obj)
            scale, _vscale, moments = channel_moments(labels, obj)
            self.weights = scale, moments
            _scale, atoms = self.support = obj.instrument.integer_weights()
        if sum(w for _lab, w in atoms) != scale:
            raise ValueError("behavior table is not normalized")
        self._text: Optional[str] = None

    def flipped(self, setting: Setting, key: tuple, side: str) -> "_Part":
        """The part of ``setting``, equal to this part's setting but for the entry at ``key``.

        Only the new entry needs the point-outcome test, and only its
        source label's ``(detected, signed)`` row changes, recomputed over
        the instrument's support.  The instrument is the same object, so
        this part's normalization check holds for the new one.
        """
        require_point_outcomes(side, setting, (key,))
        label = key[0]
        entries = setting.outcomes.entries
        detected = signed = 0
        for atom, w in self.support[1]:
            n = entries[label, atom].numerator
            if n:
                detected += w
                signed += n * w
        scale, moments = self.weights
        moments = dict(moments)
        moments[label] = (detected, signed)
        part = _Part.__new__(_Part)
        part.obj, part.labels, part.weights, part.support, part._text = (
            setting, self.labels, (scale, moments), self.support, None
        )
        return part

    def text(self) -> str:
        if self._text is None:
            if self.labels is None:
                self._text = modelio.source_text(self.obj)
            else:
                self._text = modelio.setting_text(self.obj, self.labels)
        return self._text


def _parts(model: ContextualModel, parent: Optional["_Key"], change: Optional[_Change]) -> tuple[_Part, ...]:
    """The candidate's parts: source, Alice's two settings, Bob's two.

    A part of the parent is reused when it holds the same object, and for
    a setting the same side labels, which is all its integers and text
    depend on.  The part a flip changed is derived from the parent's by
    :meth:`_Part.flipped`; the rest are built.
    """
    if parent is not None and parent.parts[0].obj is model.source:
        # the same source has the same side labels as the parent's settings
        first, second = parent.parts[1].labels, parent.parts[3].labels
    else:
        first, second = model.source_first_labels(), model.source_second_labels()
    wanted = (
        (model.source, None, ""),
        *((s, first, "alice") for s in model.alice),
        *((s, second, "bob") for s in model.bob),
    )
    if parent is None:
        return tuple(_Part(obj, labels, side) for obj, labels, side in wanted)
    parts = []
    for index, (old, (obj, labels, side)) in enumerate(zip(parent.parts, wanted)):
        if old.labels != labels:
            parts.append(_Part(obj, labels, side))
        elif old.obj is obj:
            parts.append(old)
        elif change is not None and change[0] == index:
            parts.append(old.flipped(obj, change[1], side))
        else:
            parts.append(_Part(obj, labels, side))
    return tuple(parts)


class _Key:
    """A scored candidate: its model, rank, coincidence total and parts.

    There is no whole canonical text: :func:`_better` breaks a tie on the
    texts of the parts that differ, each rendered once and shared with
    every candidate that keeps the part.  Keys live only as the walk's
    candidate, current and best, so the derived data is bounded by those
    three models.
    """

    __slots__ = ("rank", "coincidence", "model", "parts")

    def __init__(
        self, rank: Fraction, coincidence: Fraction, model: ContextualModel, parts: tuple[_Part, ...]
    ):
        self.rank = rank
        self.coincidence = coincidence
        self.model = model
        self.parts = parts


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

    All sums are integer, over the parts' ``weights``, reusing the
    parent's for every part the mutation kept; ``change``, from
    :func:`_mutate`, lets a flip's setting derive its moments from the
    parent's in one row.  The source pair
    factorizes each context, as in ``correlation_quad``: its coincidence
    weight is sum w detA detB and its post-selected product sum w sgnA
    sgnB over the source support, with each setting's moments of
    :func:`channel_moments`; a setting's detection weight is sum w det.
    Rates share the product of the five scales as denominator; the rank
    and coincidence total are one Fraction each, equal to what the
    Fraction report (built only for the winner) and ``chsh_values`` give.
    No text is rendered here: :func:`_better` renders part texts only
    when rank and coincidence tie.
    """
    parts = _parts(model, parent, change)
    (scale, src), *settings = (p.weights for p in parts)
    alice, bob = settings[:2], settings[2:]
    denom = scale * math.prod(s for s, _table in settings)
    contexts = []
    for a_scale, a in alice:
        for b_scale, b in bob:
            both = product = 0
            for (l1, l2), w in src:
                det_a, sgn_a = a[l1]
                det_b, sgn_b = b[l2]
                both += w * det_a * det_b
                product += w * sgn_a * sgn_b
            contexts.append((both * (denom // (scale * a_scale * b_scale)), both, product))
    # the penalty in integers over denom * q, which every threshold's denominator divides
    floor, cap = cfg.min_coincidence, cfg.max_detection
    q = math.lcm(floor.denominator, 256, 1 if cap is None else cap.denominator)
    penalty = 0
    for rate, both, _product in contexts:
        if both == 0:
            penalty += denom * q
        penalty += max(0, floor.numerator * q // floor.denominator * denom - rate * q)
    if cap is not None:
        for coord, side in enumerate((alice, bob)):
            for s, table in side:
                rate = sum(w * table[pair[coord]][0] for pair, w in src) * (denom // (scale * s))
                over = rate * q - cap.numerator * q // cap.denominator * denom
                if over >= 0:
                    # the cap is exclusive, so sitting exactly on it still counts
                    penalty += over + q // 256 * denom
    feasible = penalty == 0
    if feasible:
        # max over the flipped context f of |T - 2 E_f|, every E over the lcm of the coincidences
        lcm = math.lcm(*(both for _rate, both, _product in contexts))
        scaled = [product * (lcm // both) for _rate, both, product in contexts]
        total = sum(scaled)
        rank = Fraction(max(abs(total - 2 * e) for e in scaled), lcm)
    else:
        rank = Fraction(-penalty, denom * q)
    coincidence_total = Fraction(sum(rate for rate, _both, _product in contexts), denom)
    return feasible, _Key(rank, coincidence_total, model, parts)


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
    at the first pair that differs, so a tie renders only the texts of
    parts a mutation changed, each once.
    """
    if key.rank != other.rank:
        return key.rank > other.rank
    if key.coincidence != other.coincidence:
        return key.coincidence < other.coincidence
    for mine, theirs in zip(key.parts, other.parts):
        if mine is not theirs:
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
    integers, and a candidate costs what its mutation changed: it reuses
    its parent's parts for everything the mutation kept, a flip
    recomputes one source label's row of one setting, an instrument move
    builds one channel and a source move none.  When rank and
    coincidence tie, :func:`_better` compares part texts, rendering only
    the parts that differ, each once.  Fractions are built for the history
    and the winner: its report comes from ``postselected_correlations``
    and must give the integer score, and its raw coin-reduced quad is
    re-verified to satisfy CHSH exactly.  If the budget never produces a
    violation the best model is still returned, flagged accordingly.
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
