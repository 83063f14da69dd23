"""Finite two-party measurement models with exact rational probabilities.

The central object is :class:`ContextualModel`: a source distribution over
hidden-variable pairs, plus two measurement settings per side, each carrying
its own instrument distribution and outcome table.  Masses are exact: a
:class:`Pmf` holds integer weights over one common denominator, and a
``Fraction`` is made only where a number leaves the API.

Exact numbers are projections of one product measure, source x
instrument_a x instrument_b, computed in integers in two steps.
:func:`setting_channel` integrates one setting's instrument out per
source label, keyed by each value's ``(numerator, denominator)``; it
depends on the setting and its side's source labels only.
:func:`channel_moments` reads each label's detected weight and first
moment off a channel.  Given the source pair the two sides' outcomes are
independent, so :func:`correlation_quad` factorizes through the source
pair: each context is the source-weighted sum of the two sides' first
moments.  :func:`exact_side_expectation`, ``loophole.detection_rates``,
``flatten.bell_average`` and the loophole search's scoring read the
moments too.  :func:`behavior_from_model`, the one projection that needs
joint cells, counts each context's ``(x, y)`` cells from the two
channels and hands them to :class:`BehaviorTable` as integers.  Callers
build one Fraction per reported number.
:func:`exact_expectation` sums term by term over every hidden variable
as the reference oracle, with no factorization; nothing in the package
calls it, and it reads masses only as Fractions.

:meth:`Pmf.from_integers` and :meth:`Pmf.integer_weights` move masses in
and out as integers, as :meth:`BehaviorTable.from_integers` and
:meth:`BehaviorTable.integer_cells` do a table's cells;
:func:`integer_scale` brings other rationals over the lcm of their
denominators.  The flat models of :mod:`lhvlab.flatten`
are evaluated on integer columns over their own tuple pmf, independently
of this kernel, so they can check it.

Floats never enter this module; stochastic estimation lives in
:mod:`lhvlab.montecarlo`.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, Iterable, Iterator, Mapping, Optional, Sequence, Union

Label = Hashable
Context = tuple[str, str]

Numberish = Union[Fraction, int, str, float]

# the most characters of an offending value or name that an error message quotes
QUOTE_LIMIT = 80


def _cut(value: object) -> str:
    """``str(value)`` cut to :data:`QUOTE_LIMIT` characters ending in "...", so a message stays short."""
    text = str(value)
    return text if len(text) <= QUOTE_LIMIT else text[: QUOTE_LIMIT - 3] + "..."


def _excerpt(value: object) -> str:
    """``repr(value)``, cut by :func:`_cut`.

    A value nested almost as deep as the JSON parser allows leaves ``repr``
    too little stack; it is quoted to six levels by ``reprlib`` instead.
    """
    try:
        text = repr(value)
    except RecursionError:
        import reprlib

        text = reprlib.repr(value)
    return _cut(text)

# Fraction's grammar with the token length and exponent capped, so a parsed
# value prints within Python's 4300-digit int-to-str limit
MAX_TOKEN_CHARS = 1000
MAX_EXPONENT = 1000
_RATIONAL = re.compile(r"\s*(?P<sign>[-+]?)(?=\d|\.\d)(?P<num>\d*|\d+(_\d+)*)(?:(?:/(?P<den>\d+(_\d+)*))?"
                       r"|(?:\.(?P<dec>\d*|\d+(_\d+)*))?(?:E(?P<exp>[-+]?\d+(_\d+)*))?)\s*", re.IGNORECASE)


def rational_parts(token: str) -> tuple[int, int]:
    """A number token as ``(numerator, denominator)``, not necessarily reduced.

    Accepts what ``Fraction(str)`` accepts ("1/6", "-0.25", "3e-2") within the
    bounds, checked before any large integer is made; a ``ValueError`` names the rule.
    """
    if len(token) > MAX_TOKEN_CHARS:
        raise ValueError(f"number token of {len(token)} characters exceeds the limit of {MAX_TOKEN_CHARS}")
    m = _RATIONAL.fullmatch(token)
    if m is None:
        raise ValueError(f"malformed fraction {_excerpt(token)}")
    num, den = int(m["num"] or "0"), int(m["den"] or "1")
    if den == 0:
        raise ValueError(f"zero denominator in {_excerpt(token)}")
    if m["dec"]:
        den = 10 ** len(m["dec"].replace("_", ""))
        num = num * den + int(m["dec"])
    exp = int(m["exp"] or "0")
    if abs(exp) > MAX_EXPONENT:
        raise ValueError(f"exponent {exp} of {_excerpt(token)} lies outside ±{MAX_EXPONENT}")
    return (-num if m["sign"] == "-" else num) * 10 ** max(exp, 0), den * 10 ** max(-exp, 0)


def as_fraction(value: Numberish) -> Fraction:
    """Convert a number-like value to an exact Fraction.

    Accepts Fractions, ints, fraction strings ("1/6"), decimal strings
    ("0.25", converted exactly; see :func:`rational_parts` for the bounds),
    and floats (converted via their exact binary expansion).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return Fraction(*rational_parts(value))
    if isinstance(value, (int, float)):
        return Fraction(value)
    raise TypeError(f"cannot convert {value!r} to a Fraction")


def integer_scale(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """Rationals as integers over one common denominator, the lcm of theirs.

    Returns ``(scale, ints)`` with ``ints[k] / scale == values[k]``; an
    empty sequence gives scale 1.
    """
    scale = math.lcm(*{v.denominator for v in values})
    return scale, [v.numerator * (scale // v.denominator) for v in values]


class DomainMismatchError(LookupError):
    """An outcome-table lookup fell outside the table's domain."""


class Pmf:
    """A finite probability mass function over opaque labels.

    Labels may be any hashable token.  The masses are stored as integer
    weights over their lcm denominator, ``scale``; a ``Fraction`` is made
    only where a mass is read (:meth:`items`, :meth:`mass`, ...).
    Construction does not enforce normalization (so that ill-formed
    models can be built and then diagnosed by :func:`validate_model`);
    use :meth:`is_normalized` or the validator to check it.
    """

    __slots__ = ("_scale", "_weights")

    def __init__(self, atoms: Union[Mapping[Label, Numberish], Iterable[tuple[Label, Numberish]]]):
        pairs = list(atoms.items() if isinstance(atoms, Mapping) else atoms)
        scale, weights = integer_scale([as_fraction(m) for _lab, m in pairs])
        pmf = Pmf.from_integers(scale, [(lab, w) for (lab, _m), w in zip(pairs, weights)])
        self._scale, self._weights = pmf._scale, pmf._weights

    @classmethod
    def from_integers(cls, scale: int, atoms: Union[Mapping[Label, int], Sequence[tuple[Label, int]]]) -> "Pmf":
        """The pmf with mass ``weight / scale`` at each label; ``scale`` must be positive."""
        weights = dict(atoms)
        if len(weights) != len(atoms):
            seen: set = set()
            label = next(lab for lab, _w in atoms if lab in seen or seen.add(lab))
            raise ValueError(f"duplicate pmf label {_excerpt(label)}")
        if scale <= 0:
            raise ValueError(f"pmf scale must be positive, got {scale}")
        g = math.gcd(scale, *weights.values())
        if g > 1:
            scale //= g
            weights = {lab: w // g for lab, w in weights.items()}
        pmf = cls.__new__(cls)
        pmf._scale, pmf._weights = scale, weights
        return pmf

    @classmethod
    def uniform(cls, labels: Sequence[Label]) -> "Pmf":
        return cls.from_integers(len(labels), [(lab, 1) for lab in labels])

    @classmethod
    def point(cls, label: Label) -> "Pmf":
        return cls.from_integers(1, {label: 1})

    @classmethod
    def from_weights(cls, weights: Mapping[Label, int]) -> "Pmf":
        """Normalize nonnegative integer weights into an exact pmf."""
        total = sum(weights.values())
        if total <= 0:
            raise ValueError("weights must have positive total")
        return cls.from_integers(total, weights)

    def labels(self) -> tuple[Label, ...]:
        return tuple(self._weights)

    def mass(self, label: Label) -> Fraction:
        return Fraction(self._weights.get(label, 0), self._scale)

    def items(self) -> Iterator[tuple[Label, Fraction]]:
        scale = self._scale
        return ((lab, Fraction(w, scale)) for lab, w in self._weights.items())

    def support(self) -> Iterator[tuple[Label, Fraction]]:
        """Atoms with strictly positive mass."""
        scale = self._scale
        return ((lab, Fraction(w, scale)) for lab, w in self._weights.items() if w > 0)

    def integer_atoms(self) -> tuple[int, dict[Label, int]]:
        """Every atom as ``(scale, {label: weight})``, the stored form; zero and negative weights included."""
        return self._scale, dict(self._weights)

    def integer_weights(self) -> tuple[int, list[tuple[Label, int]]]:
        """The support as ``(scale, [(label, weight)])``: each mass is weight / scale.

        ``scale`` is the lcm of the support's mass denominators.
        """
        atoms = [(lab, w) for lab, w in self._weights.items() if w > 0]
        # the stored scale is the lcm over every atom; only a negative atom left out can lower it
        if min(self._weights.values(), default=0) < 0:
            g = math.gcd(self._scale, *(w for _lab, w in atoms))
            return self._scale // g, [(lab, w // g) for lab, w in atoms]
        return self._scale, atoms

    def total(self) -> Fraction:
        return Fraction(sum(self._weights.values()), self._scale)

    def is_normalized(self) -> bool:
        return min(self._weights.values(), default=0) >= 0 and sum(self._weights.values()) == self._scale

    def __len__(self) -> int:
        return len(self._weights)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Pmf) and (self._scale, self._weights) == (other._scale, other._weights)

    def __repr__(self) -> str:
        return f"Pmf({dict(self.items())!r})"


class OutcomeTable:
    """Measurement outcomes indexed by (source label, instrument label).

    Values are Fractions in [-1, +1].  A table flagged ``ternary``
    restricts values to {-1, 0, +1}, the three-valued reading where 0
    means "no detection".  Unflagged tables may hold any rational in
    [-1, +1], read as conditional expectations of a +/-1 outcome.
    """

    __slots__ = ("entries", "ternary")

    def __init__(self, entries: Mapping[tuple[Label, Label], Numberish], ternary: bool = False):
        self.entries = {key: as_fraction(v) for key, v in entries.items()}
        self.ternary = ternary

    @classmethod
    def _of_fractions(cls, entries: dict[tuple[Label, Label], Fraction], ternary: bool) -> "OutcomeTable":
        """The table holding ``entries``, whose values are Fractions already: nothing is converted.

        The table takes ``entries`` as it is, so the caller must not change it afterwards.
        """
        table = cls.__new__(cls)
        table.entries = entries
        table.ternary = ternary
        return table

    def _with_entry(self, key: tuple[Label, Label], value: Fraction) -> "OutcomeTable":
        """This table with the entry at ``key`` set to ``value``, a Fraction."""
        entries = dict(self.entries)
        entries[key] = value
        return OutcomeTable._of_fractions(entries, self.ternary)

    def value(self, source_label: Label, instrument_label: Label) -> Fraction:
        try:
            return self.entries[(source_label, instrument_label)]
        except KeyError:
            raise DomainMismatchError(
                f"no outcome for (source={_excerpt(source_label)}, instrument={_excerpt(instrument_label)})"
            ) from None

    def values_are_point(self, keys: Optional[Iterable[tuple[Label, Label]]] = None) -> bool:
        """True when every entry, or every entry at ``keys``, is an actual outcome, not an expectation.

        +/-1 entries always qualify; a 0 entry qualifies only in a
        ternary-flagged table (in an unflagged table 0 reads as the
        expectation of a fair coin).
        """
        # integer tests, no Fraction hashing: the search calls this per candidate
        low = 0 if self.ternary else 1
        values = self.entries.values() if keys is None else map(self.entries.__getitem__, keys)
        return all(v.denominator == 1 and low <= abs(v.numerator) <= 1 for v in values)

    def has_zero(self) -> bool:
        return any(v == 0 for v in self.entries.values())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, OutcomeTable)
            and self.entries == other.entries
            and self.ternary == other.ternary
        )

    def __repr__(self) -> str:
        return f"OutcomeTable({self.entries!r}, ternary={self.ternary})"


class TwoByTwo:
    """Two named settings per side; a context is one (alice, bob) name pair."""

    alice_settings: tuple[str, ...]
    bob_settings: tuple[str, ...]

    def contexts(self) -> tuple[Context, ...]:
        """The four joint setting choices, Alice-major order."""
        return tuple((a, b) for a in self.alice_settings for b in self.bob_settings)


class SettingPairs(TwoByTwo):
    """A two-by-two model whose ``alice``/``bob`` tuples hold named setting objects."""

    @property
    def alice_settings(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.alice)

    @property
    def bob_settings(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.bob)

    def alice_setting(self, name: str):
        return self._setting(0, name)

    def bob_setting(self, name: str):
        return self._setting(1, name)

    def _setting(self, coord: int, name: str):
        """The named setting of the side at ``coord`` (0 for Alice, 1 for Bob)."""
        for s in (self.alice, self.bob)[coord]:
            if s.name == name:
                return s
        raise KeyError(f"unknown {('Alice', 'Bob')[coord]} setting {_excerpt(name)}")


@dataclass(frozen=True)
class Setting:
    """One measurement setting: a name, an instrument pmf, an outcome table."""

    name: str
    instrument: Pmf
    outcomes: OutcomeTable


def _coordinate_labels(source: Pmf, coord: int) -> tuple[Label, ...]:
    """The distinct labels at one coordinate of a source's pairs, in first-appearance order."""
    return tuple(dict.fromkeys(pair[coord] for pair in source.labels()))


@dataclass(frozen=True)
class ContextualModel(SettingPairs):
    """A local model with per-setting instrument hidden variables.

    ``source`` is a pmf over pairs (lambda1, lambda2) shared by all four
    measurement contexts.  Each side has exactly two settings; each
    setting owns an instrument pmf (its private randomness) and an
    outcome table over (own source coordinate) x (own instrument atoms).
    """

    source: Pmf
    alice: tuple[Setting, Setting]
    bob: tuple[Setting, Setting]

    def source_first_labels(self) -> tuple[Label, ...]:
        return _coordinate_labels(self.source, 0)

    def source_second_labels(self) -> tuple[Label, ...]:
        return _coordinate_labels(self.source, 1)

    def is_ternary(self) -> bool:
        return any(s.outcomes.ternary for s in self.alice + self.bob)


@dataclass(frozen=True)
class CorrelationQuad(TwoByTwo):
    """The four context expectations E(A_a B_b).

    Every quad the package derives holds exact Fractions, the singlet
    behavior's included; floats appear only in a quad built by hand.
    """

    alice_settings: tuple[str, str]
    bob_settings: tuple[str, str]
    values: Mapping[Context, Union[Fraction, float]]

    def value(self, alice_name: str, bob_name: str):
        return self.values[(alice_name, bob_name)]

    def ordered(self) -> tuple:
        """Values in Alice-major context order (xy, xy', x'y, x'y')."""
        return tuple(self.values[ctx] for ctx in self.contexts())


class BehaviorTable(TwoByTwo):
    """The experimentally accessible object: P(x, y | a, b) per context.

    ``outcomes`` is the shared outcome alphabet, (-1, 1) or (-1, 0, 1).
    The probabilities are stored as integer weights over one positive
    ``scale`` for the whole table, reduced by their gcd, with each
    context's cells in the order given and explicit zero cells kept; a
    ``Fraction`` is made only where a probability is read (:attr:`probs`,
    :meth:`prob`, :meth:`context_pmf`, :meth:`marginal`, :meth:`quad`).
    Construction does not enforce normalization; :meth:`is_normalized`
    checks it.
    """

    __slots__ = ("alice_settings", "bob_settings", "outcomes", "_scale", "_cells")

    def __init__(
        self,
        alice_settings: tuple[str, str],
        bob_settings: tuple[str, str],
        outcomes: tuple[int, ...],
        probs: Mapping[Context, Mapping[tuple[int, int], Numberish]],
    ):
        fractions = {ctx: {cell: as_fraction(p) for cell, p in pmf.items()} for ctx, pmf in probs.items()}
        scale = math.lcm(*(p.denominator for pmf in fractions.values() for p in pmf.values()))
        cells = {
            ctx: {cell: p.numerator * (scale // p.denominator) for cell, p in pmf.items()}
            for ctx, pmf in fractions.items()
        }
        self._set(alice_settings, bob_settings, outcomes, scale, cells)

    @classmethod
    def from_integers(
        cls,
        alice_settings: tuple[str, str],
        bob_settings: tuple[str, str],
        outcomes: tuple[int, ...],
        scale: int,
        cells: Mapping[Context, Mapping[tuple[int, int], int]],
    ) -> "BehaviorTable":
        """The table with P(x, y | context) = ``cells[context][x, y] / scale``; ``scale`` must be positive."""
        table = cls.__new__(cls)
        table._set(alice_settings, bob_settings, outcomes, scale, cells)
        return table

    def _set(self, alice_settings, bob_settings, outcomes, scale: int, cells: Mapping[Context, Mapping]) -> None:
        if scale <= 0:
            raise ValueError(f"behavior scale must be positive, got {scale}")
        g = math.gcd(scale, *(w for pmf in cells.values() for w in pmf.values()))
        self.alice_settings, self.bob_settings, self.outcomes = alice_settings, bob_settings, outcomes
        self._scale = scale // g
        self._cells = {ctx: {cell: w // g for cell, w in pmf.items()} for ctx, pmf in cells.items()}

    @property
    def ternary(self) -> bool:
        return 0 in self.outcomes

    @property
    def probs(self) -> dict[Context, dict[tuple[int, int], Fraction]]:
        return {ctx: self.context_pmf(ctx) for ctx in self._cells}

    @property
    def scale(self) -> int:
        """The positive denominator that every stored weight is over."""
        return self._scale

    def integer_cells(self) -> tuple[int, dict[Context, dict[tuple[int, int], int]]]:
        """Every context's cells as ``(scale, {context: {(x, y): weight}})``, the stored form."""
        return self._scale, {ctx: dict(pmf) for ctx, pmf in self._cells.items()}

    def integer_marginal(self, context: Context, coord: int) -> dict[int, int]:
        """:meth:`marginal` as integer weights over :attr:`scale`."""
        out = dict.fromkeys(self.outcomes, 0)
        for cell, w in self._cells[context].items():
            out[cell[coord]] += w
        return out

    def prob(self, context: Context, x: int, y: int) -> Fraction:
        return Fraction(self._cells[context].get((x, y), 0), self._scale)

    def context_pmf(self, context: Context) -> dict[tuple[int, int], Fraction]:
        scale = self._scale
        return {cell: Fraction(w, scale) for cell, w in self._cells[context].items()}

    def is_normalized(self) -> bool:
        scale = self._scale
        for ctx in self.contexts():
            weights = self._cells[ctx].values()
            if min(weights, default=0) < 0 or sum(weights) != scale:
                return False
        return True

    def quad(self) -> CorrelationQuad:
        """Correlations E(XY | a, b) recovered from the table: one integer sum and one Fraction per context."""
        values = {
            ctx: Fraction(sum(x * y * w for (x, y), w in self._cells[ctx].items()), self._scale)
            for ctx in self.contexts()
        }
        return CorrelationQuad(self.alice_settings, self.bob_settings, values)

    def marginal(self, context: Context, coord: int) -> dict[int, Fraction]:
        """One side's outcome pmf in a context: ``coord`` 0 for Alice's, 1 for Bob's."""
        scale = self._scale
        return {v: Fraction(w, scale) for v, w in self.integer_marginal(context, coord).items()}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BehaviorTable) and all(
            getattr(self, name) == getattr(other, name) for name in BehaviorTable.__slots__
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"BehaviorTable(alice_settings={self.alice_settings!r}, bob_settings={self.bob_settings!r}, "
            f"outcomes={self.outcomes!r}, probs={self.probs!r})"
        )


@dataclass
class ValidationReport:
    """Accumulated invariant violations; empty means well-formed."""

    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str) -> None:
        self.violations.append(message)


def _check_pmf(report: ValidationReport, pmf: Pmf, name: str) -> None:
    negative = [lab for lab, w in pmf._weights.items() if w < 0]
    if negative:
        report.add(f"{name}: negative mass at {_excerpt(negative)}")
    if sum(pmf._weights.values()) != pmf._scale:
        report.add(f"{name}: masses sum to {_cut(pmf.total())}, not 1")


def _check_table(
    report: ValidationReport,
    setting: Setting,
    source_labels: Sequence[Label],
    side: str,
) -> None:
    name = f"{side} setting {_excerpt(setting.name)} outcome table"
    entries = setting.outcomes.entries
    expected = set(itertools.product(source_labels, setting.instrument.labels()))
    missing = expected - entries.keys()
    extra = entries.keys() - expected
    if missing:
        report.add(f"{name}: missing entries for {sorted(map(_excerpt, missing))[:4]}")
    if extra:
        report.add(f"{name}: entries outside domain {sorted(map(_excerpt, extra))[:4]}")
    for key, v in entries.items():
        # within [-1, 1], an integer is -1, 0 or 1
        if abs(v.numerator) > v.denominator:
            report.add(f"{name}: value {_cut(v)} at {_excerpt(key)} outside [-1, 1]")
        elif setting.outcomes.ternary and v.denominator != 1:
            report.add(f"{name}: ternary table holds non-ternary value {_cut(v)} at {_excerpt(key)}")


def validate_model(model: ContextualModel) -> ValidationReport:
    """Report every violated invariant of a contextual model.

    Validation never raises; an empty report means the model is
    well-formed.
    """
    report = ValidationReport()
    for pair in model.source.labels():
        if not (isinstance(pair, tuple) and len(pair) == 2):
            report.add(f"source pmf: label {_excerpt(pair)} is not a (lambda1, lambda2) pair")
            return report
    _check_pmf(report, model.source, "source pmf")
    for coord, side_name in enumerate(("alice", "bob")):
        side = getattr(model, side_name)
        if len(side) != 2:
            report.add(f"{side_name}: needs exactly 2 settings, has {len(side)}")
            continue
        if side[0].name == side[1].name:
            report.add(f"{side_name}: duplicate setting name {_excerpt(side[0].name)}")
        source_labels = _coordinate_labels(model.source, coord)
        for setting in side:
            _check_pmf(
                report, setting.instrument, f"{side_name} setting {_excerpt(setting.name)} instrument pmf"
            )
            _check_table(report, setting, source_labels, side_name)
    return report


def exact_expectation(model: ContextualModel, context: Context) -> Fraction:
    """E(A_a B_b) for one context, as the exact sum over all hidden variables.

    Computed term by term over (lambda1, lambda2) x (Alice instrument atom)
    x (Bob instrument atom); no factorization or averaging shortcut is
    taken, so this serves as the reference value for the constructions in
    :mod:`lhvlab.flatten`.
    """
    a = model.alice_setting(context[0])
    b = model.bob_setting(context[1])
    total = Fraction(0)
    for (l1, l2), p_src in model.source.support():
        for la, p_a in a.instrument.support():
            va = a.outcomes.value(l1, la)
            if va == 0:
                continue
            for lb, p_b in b.instrument.support():
                total += va * b.outcomes.value(l2, lb) * p_a * p_b * p_src
    return total


def _coord(side: str) -> int:
    if side not in ("alice", "bob"):
        raise ValueError(f"side must be 'alice' or 'bob', got {side!r}")
    return 0 if side == "alice" else 1


ValueChannel = tuple[int, dict[Label, dict[tuple[int, int], int]]]


def side_labels(model: ContextualModel, side: str) -> tuple[Label, ...]:
    """The labels of the source coordinate a side's settings read."""
    return _coordinate_labels(model.source, _coord(side))


def setting_channel(labels: Sequence[Label], setting: Setting) -> ValueChannel:
    """One setting's outcome-value law per source label, as integers keyed by value.

    Returns ``(scale, channel)``: ``channel[l][(n, d)]`` is the instrument
    weight of the outcome value n/d at source label ``l``, an integer
    over ``scale`` (the lcm of the instrument's mass denominators).
    Every label in ``labels`` is present, and values appear in
    first-appearance order over ``instrument.support()``.  Keying on the
    integer pair keeps ``Fraction.__hash__`` out of the loop.  The
    channel depends on the setting and the labels only, never on the
    source masses.
    """
    scale, weights = setting.instrument.integer_weights()
    value = setting.outcomes.value
    channel: dict[Label, dict[tuple[int, int], int]] = {}
    for lab in labels:
        dist: dict[tuple[int, int], int] = {}
        for atom, w in weights:
            v = value(lab, atom)
            key = (v.numerator, v.denominator)
            dist[key] = dist.get(key, 0) + w
        channel[lab] = dist
    return scale, channel


def channel_moments(labels: Sequence[Label], setting: Setting) -> tuple[int, int, dict[Label, tuple[int, int]]]:
    """One setting's detected weight and first moment per source label, in integers.

    Returns ``(scale, vscale, {label: (detected, first)})``: ``detected``
    is the instrument weight over ``scale`` with a nonzero value at the
    label, and ``first`` the outcome averaged over the instrument, an
    integer over ``scale * vscale``, where ``vscale`` is the lcm of the
    channel's value denominators (1 for point outcomes).
    """
    scale, channel = setting_channel(labels, setting)
    vscale = math.lcm(*{d for dist in channel.values() for _n, d in dist})
    moments = {
        lab: (sum(w for (n, _d), w in dist.items() if n), sum(n * (vscale // d) * w for (n, d), w in dist.items()))
        for lab, dist in channel.items()
    }
    return scale, vscale, moments


def exact_side_expectation(model: ContextualModel, side: str, setting_name: str) -> Fraction:
    """E(A_a) or E(B_b): the single-outcome expectation for one setting."""
    coord = _coord(side)
    src_scale, src = model.source.integer_weights()
    scale, vscale, moments = channel_moments(side_labels(model, side), model._setting(coord, setting_name))
    return Fraction(sum(w * moments[pair[coord]][1] for pair, w in src), src_scale * scale * vscale)


def correlation_quad(model: ContextualModel) -> CorrelationQuad:
    """All four context expectations, factorized through the source pair.

    Given (lambda1, lambda2) the two sides' outcomes are independent, so
    E(A_a B_b) is the sum over the source support of p(lambda1, lambda2)
    times each side's outcome averaged over its own instrument, the first
    moments of :func:`channel_moments`: :func:`_factorized_quad`, one
    integer sum and one Fraction per context.
    """

    def firsts(side: str, settings) -> list:
        labels = side_labels(model, side)
        out = []
        for s in settings:
            scale, vscale, moments = channel_moments(labels, s)
            out.append((s.name, scale * vscale, {lab: first for lab, (_det, first) in moments.items()}))
        return out

    quad = _factorized_quad(model.source, firsts("alice", model.alice), firsts("bob", model.bob))
    return CorrelationQuad(model.alice_settings, model.bob_settings, quad)


def _factorized_quad(source: Pmf, alice: Sequence[tuple], bob: Sequence[tuple]) -> dict[Context, Fraction]:
    """Sum over the source support of p(l1, l2) * Abar(l1) * Bbar(l2), per context, in Alice-major order.

    Each side lists its settings as ``(name, scale, {label: value})``, the
    bar's value at each source label an integer over ``scale``; one
    integer sum and one Fraction per context.  ``correlation_quad``
    passes the first moments, ``AveragedModel.quad`` its bars.
    """
    src_scale, src = source.integer_weights()
    quad = {}
    for a_name, a_scale, a in alice:
        for b_name, b_scale, b in bob:
            quad[a_name, b_name] = Fraction(sum(w * a[l1] * b[l2] for (l1, l2), w in src), src_scale * a_scale * b_scale)
    return quad


def counterexample_model() -> ContextualModel:
    """The die-and-coins model: a six-sided die at the source, no instrument noise.

    The source is uniform on pairs (k, k), k = 1..6; each side's two
    settings are labelled "+1" and "-1"; Alice's outcome at setting a is
    a**k and Bob's at setting b is b**(k+1).  Its correlation quad is
    exactly (1, 0, 0, -1).
    """
    die = [str(k) for k in range(1, 7)]
    source = Pmf.uniform([(k, k) for k in die])
    unit = Pmf.point("*")

    def alice_table(a: int) -> OutcomeTable:
        return OutcomeTable({(k, "*"): Fraction(a ** int(k)) for k in die})

    def bob_table(b: int) -> OutcomeTable:
        return OutcomeTable({(k, "*"): Fraction(b ** (int(k) + 1)) for k in die})

    alice = (
        Setting("+1", unit, alice_table(1)),
        Setting("-1", unit, alice_table(-1)),
    )
    bob = (
        Setting("+1", unit, bob_table(1)),
        Setting("-1", unit, bob_table(-1)),
    )
    return ContextualModel(source, alice, bob)


def require_point_outcomes(side: str, setting: Setting, keys: Optional[Iterable[tuple[Label, Label]]] = None) -> None:
    """Raise ``ValueError`` unless the setting's table holds actual outcomes, at ``keys`` if given."""
    if not setting.outcomes.values_are_point(keys):
        raise ValueError(
            f"{side} setting {_excerpt(setting.name)} has fractional outcomes; "
            "behavior tables need point outcomes"
        )


def behavior_from_model(model: ContextualModel) -> BehaviorTable:
    """The outcome distribution P(x, y | a, b) induced by a point-outcome model.

    Requires every outcome table to hold actual outcomes (+/-1, or 0 in
    ternary-flagged tables).  Models with fractional entries represent
    conditional expectations, not distributions, and are rejected.
    Each context's cells are counted in integers from the two settings'
    channels, in first-appearance order over the source support, then
    Alice's channel, then Bob's, and handed to the table as integers.
    """
    for side in ("alice", "bob"):
        for setting in getattr(model, side):
            require_point_outcomes(side, setting)
    outcomes = (-1, 0, 1) if model.is_ternary() else (-1, 1)
    src_scale, src = model.source.integer_weights()
    first, second = side_labels(model, "alice"), side_labels(model, "bob")
    alice = [(a.name, setting_channel(first, a)) for a in model.alice]
    bob = [(b.name, setting_channel(second, b)) for b in model.bob]
    # a context's counts are over src_scale * a_scale * b_scale; the table's one scale is over the lcms
    a_lcm, b_lcm = (math.lcm(*(scale for _name, (scale, _chan) in side)) for side in (alice, bob))
    cells = {}
    for a_name, (a_scale, chan_a) in alice:
        for b_name, (b_scale, chan_b) in bob:
            # point outcomes have denominator 1, so each value is its numerator
            counts: dict[tuple[int, int], int] = {}
            for (l1, l2), w in src:
                row = chan_b[l2].items()
                for (x, _d), cx in chan_a[l1].items():
                    wx = w * cx
                    for (y, _e), cy in row:
                        counts[x, y] = counts.get((x, y), 0) + wx * cy
            factor = (a_lcm // a_scale) * (b_lcm // b_scale)
            cells[a_name, b_name] = {cell: c * factor for cell, c in counts.items()}
    return BehaviorTable.from_integers(
        model.alice_settings, model.bob_settings, outcomes, src_scale * a_lcm * b_lcm, cells
    )
