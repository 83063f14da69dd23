"""Reading and writing the structured text format for models and behaviors.

Files are JSON documents with a ``kind`` discriminator ("contextual",
"flat", "averaged", "behavior").  Probabilities and outcomes are written
as exact fraction strings ("1/6"); decimal strings ("0.25") are accepted
and converted exactly.  In canonical form every hidden-variable label is
a plain string, and parse(serialize(x)) == x.  Schemas live under
schemas/ in the repository root.

Every number goes through the document's memo (:class:`_Numbers`), which
converts a token it has not seen by :func:`~lhvlab.model.rational_parts`.
A contextual document, the kind the corpus parses, builds message text
only on a failure: each source atom, instrument atom and outcome table
passes one structural test, and an item that fails it goes through the
checks that name its location, so every message is the one those checks
have always written.  The other kinds run those checks on every item.
"""

from __future__ import annotations

import json
import math
import re
from itertools import accumulate, chain, product
from json.encoder import encode_basestring_ascii as _quote
from fractions import Fraction
from pathlib import Path
from typing import Any, Optional, Sequence, Union

from .flatten import AveragedModel, FlatModel, FlatSetting
from .model import (
    Bar,
    BehaviorTable,
    ContextualModel,
    Label,
    OutcomeTable,
    Pmf,
    QUOTE_LIMIT,
    Setting,
    _cut,
    _excerpt,
    cells_over_one_scale,
    integer_scale,
    rational_parts,
    source_labels,
)

Document = Union[ContextualModel, FlatModel, AveragedModel, BehaviorTable]

KINDS = ("contextual", "flat", "averaged", "behavior")


class ModelParseError(ValueError):
    """A model file failed to parse; the message names file and token."""


def _label_str(label) -> str:
    if isinstance(label, str):
        return label
    if isinstance(label, tuple):
        return "(" + ",".join(_label_str(p) for p in label) + ")"
    return str(label)


class _Numbers(dict):
    """One document's number texts, each with its reduced ``(numerator, denominator)``.

    ``numbers[token]`` converts a text it has not seen by :func:`rational_parts`,
    and a JSON integer by its decimal text, and stores the text's pair; it
    raises ``ValueError`` for a text that does not convert, which is then not
    stored, and ``TypeError`` for any other token, a JSON ``true`` included.
    :func:`parse_text` makes an empty one for each call, and only
    :func:`_parse_frac` turns a raise into a message.
    """

    __slots__ = ()

    def __missing__(self, token: Any) -> tuple[int, int]:
        if type(token) is not str:
            if type(token) is not int:
                raise TypeError(token)
            return self[str(token)]
        n, d = rational_parts(token)
        g = math.gcd(n, d)
        pair = self[token] = n // g, d // g
        return pair


def _parse_frac(token: Any, where: str, source: str, numbers: _Numbers) -> tuple[int, int]:
    """A JSON integer or number string as ``Fraction(token).as_integer_ratio()``, through ``numbers``.

    The failure branch of every number: a token ``numbers`` refuses is named at ``where``.
    """
    try:
        return numbers[token]
    except TypeError:
        raise ModelParseError(f"{source}: malformed fraction {_excerpt(token)} at {where}") from None
    except ValueError as exc:
        raise ModelParseError(f"{source}: {exc} at {where}") from None


def _parse_label(token: Any, where: str, source: str) -> str:
    """A label or setting name: JSON strings only, as the schema says."""
    if not isinstance(token, str):
        raise ModelParseError(f"{source}: {where} must be a string, got {_excerpt(token)}")
    return token


def _parse_unit(token: Any, where: str, source: str, numbers: _Numbers) -> tuple[int, int]:
    """A fraction in [-1, 1] as its reduced ``(n, d)``: a flat table entry or an averaged bar value."""
    n, d = _parse_frac(token, where, source, numbers)
    if abs(n) > d:
        raise ModelParseError(f"{source}: {where} value {_cut(Fraction(n, d))} lies outside [-1, 1]")
    return n, d


def _parse_int(token: Any, where: str, source: str) -> int:
    """A JSON integer; a float counts only when it has no fractional part."""
    if isinstance(token, int) and not isinstance(token, bool):
        return token
    if isinstance(token, float) and token.is_integer():
        return int(token)
    raise ModelParseError(f"{source}: malformed integer {_excerpt(token)} at {where}")


def _parse_ternary(sdoc: dict, where: str, source: str) -> bool:
    """A setting's optional ``ternary`` flag: a JSON boolean, false when absent."""
    flag = sdoc.get("ternary", False)
    if not isinstance(flag, bool):
        raise ModelParseError(f"{source}: {where} ternary flag must be true or false, got {_excerpt(flag)}")
    return flag


def _require_list(value: Any, where: str, source: str) -> list:
    if not isinstance(value, list):
        raise ModelParseError(f"{source}: {where} must be a list, got {_excerpt(value)}")
    return value


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str, source: str):
    if not isinstance(obj, dict):
        raise ModelParseError(f"{source}: {where} must be an object, got {_excerpt(obj)}")
    unknown = set(obj) - allowed
    if unknown:
        raise ModelParseError(f"{source}: unknown key {_excerpt(sorted(unknown)[0])} in {where}")
    missing = required - set(obj)
    if missing:
        raise ModelParseError(f"{source}: missing key {_excerpt(sorted(missing)[0])} in {where}")


def _sum_text(total: Fraction) -> str:
    """A wrong total and its deficit from 1; a total longer than the quote limit is quoted alone, cut."""
    text = str(total)
    return _cut(text) if len(text) > QUOTE_LIMIT else f"{text} (deficit {_cut(1 - total)})"


def _parse_pmf(atoms: list, where: str, source: str) -> Pmf:
    """The pmf of parsed ``(label, (n, d))`` atoms; a repeated label or a bad sum is named."""
    scale, ints = integer_scale([m for _lab, m in atoms])
    weights: dict = {}
    for (label, _m), w in zip(atoms, ints):
        if label in weights:
            raise ModelParseError(f"{source}: duplicate label {_excerpt(_label_str(label))} in {where}")
        weights[label] = w
    if any(w < 0 for w in ints):
        raise ModelParseError(f"{source}: negative mass in {where}")
    if sum(ints) != scale:
        raise ModelParseError(f"{source}: {where} sums to {_sum_text(Fraction(sum(ints), scale))}, not 1")
    return Pmf.from_integers(scale, weights)


# ---------------------------------------------------------------- serialize

# Every document is assembled from texts written into fixed frames at their
# depth in the document: _list_text and _object_text frame values already
# written, and the search's hot parts, a contextual source list and setting
# object, have literal frames of their own.  The frames are the layout of
# json.dumps(indent=2), and strings go through the encode_basestring_ascii
# that json.dumps applies by default, so each text equals json.dumps of the
# whole document (the tests keep that as the oracle).  Masses are reduced
# from integer atoms; the str of a Fraction value needs no escaping.

def serialize(obj: Document) -> str:
    """Canonical text form of a model or behavior (JSON, fraction strings)."""
    if isinstance(obj, ContextualModel):
        first, second = source_labels(obj.source, 0), source_labels(obj.source, 1)
        return contextual_text(
            source_text(obj.source),
            [setting_text(s, first) for s in obj.alice],
            [setting_text(s, second) for s in obj.bob],
        )
    if isinstance(obj, FlatModel):
        return _flat_text(obj)
    if isinstance(obj, AveragedModel):
        return _averaged_text(obj)
    if isinstance(obj, BehaviorTable):
        return _behavior_text(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _list_text(items: Sequence[str], indent: str) -> str:
    """A JSON list of already written items, its closing bracket at ``indent``."""
    if not items:
        return "[]"
    inner = ",\n  " + indent
    return "[\n  " + indent + inner.join(items) + "\n" + indent + "]"


def _object_text(indent: str, **fields: str) -> str:
    """A JSON object of already written values in keyword order, its closing brace at ``indent``."""
    inner = ",\n  " + indent
    return "{\n  " + indent + inner.join(f'"{key}": {text}' for key, text in fields.items()) + "\n" + indent + "}"


def _mass_text(weight: int, scale: int) -> str:
    """The quoted ``str(Fraction(weight, scale))``, reduced from the integers: a mass or an outcome value."""
    g = math.gcd(weight, scale)
    return f'"{weight // g}"' if g == scale else f'"{weight // g}/{scale // g}"'


def source_text(source: Pmf) -> str:
    """The ``"source"`` list of a contextual or averaged document, as it sits in the document."""
    scale, weights = source.integer_atoms()
    return _list_text(
        [
            '{\n      "pair": [\n        %s,\n        %s\n      ],\n      "mass": %s\n    }'
            % (_quote(_label_str(pair[0])), _quote(_label_str(pair[1])), _mass_text(w, scale))
            for pair, w in weights.items()
        ],
        "  ",
    )


def setting_text(setting: Setting, labels: Sequence[Label]) -> str:
    """One setting object of a contextual document, rows in the order of the source ``labels``."""
    scale, weights = setting.instrument.integer_atoms()
    instrument = _list_text(
        [
            '{\n          "label": %s,\n          "mass": %s\n        }' % (_quote(_label_str(lab)), _mass_text(w, scale))
            for lab, w in weights.items()
        ],
        "      ",
    )
    numerator, vscale = setting.outcomes.numerator, setting.outcomes.scale
    rows = _list_text(
        [_list_text([_mass_text(numerator(sl, il), vscale) for il in weights], "        ") for sl in labels],
        "      ",
    )
    return '{\n      "setting": %s,\n      "instrument": %s,\n      "ternary": %s,\n      "outcomes": %s\n    }' % (
        _quote(setting.name),
        instrument,
        "true" if setting.outcomes.ternary else "false",
        rows,
    )


def contextual_text(source: str, alice: Sequence[str], bob: Sequence[str]) -> str:
    """The canonical contextual document from its part texts."""
    return _object_text(
        "", kind='"contextual"', source=source, alice=_list_text(alice, "  "), bob=_list_text(bob, "  ")
    ) + "\n"


def _flat_text(model: FlatModel) -> str:
    scale, weights = model.lambda_pmf.integer_atoms()
    atoms = [
        _object_text("    ", tuple=_list_text([_quote(_label_str(c)) for c in lam], "      "), mass=_mass_text(w, scale))
        for lam, w in weights.items()
    ]

    def setting(s: FlatSetting) -> str:
        table = s.outcomes
        entries = [
            _object_text("        ", key=_list_text([_quote(_label_str(k)) for k in key], "          "),
                         value=_mass_text(n, table.scale))
            for key, n in table.numerators.items()
        ]
        return _object_text(
            "    ",
            setting=_quote(s.name),
            coords=_list_text([str(c) for c in s.coords], "      "),
            ternary="true" if table.ternary else "false",
            entries=_list_text(entries, "      "),
        )

    alice, bob = (_list_text([setting(s) for s in side], "  ") for side in (model.alice, model.bob))
    return _object_text("", kind='"flat"', atoms=_list_text(atoms, "  "), alice=alice, bob=bob) + "\n"


def _averaged_text(model: AveragedModel) -> str:
    def setting(name: str, scale: int, values: dict) -> str:
        texts = [_object_text("        ", label=_quote(_label_str(lab)), value=_mass_text(v, scale))
                 for lab, v in values.items()]
        return _object_text("    ", setting=_quote(name), bar=_list_text(texts, "      "))

    alice, bob = (_list_text([setting(*bar) for bar in side], "  ") for side in (model.alice, model.bob))
    return _object_text("", kind='"averaged"', source=source_text(model.source), alice=alice, bob=bob) + "\n"


def _behavior_text(behavior: BehaviorTable) -> str:
    scale, cells = behavior.integer_cells()

    def context(a: str, b: str) -> str:
        written = [_object_text("        ", x=str(x), y=str(y), p=_mass_text(w, scale)) for (x, y), w in cells[a, b].items()]
        return _object_text("    ", alice=_quote(a), bob=_quote(b), cells=_list_text(written, "      "))

    return _object_text(
        "",
        kind='"behavior"',
        aliceSettings=_list_text([_quote(s) for s in behavior.alice_settings], "  "),
        bobSettings=_list_text([_quote(s) for s in behavior.bob_settings], "  "),
        outcomes=_list_text([str(o) for o in behavior.outcomes], "  "),
        contexts=_list_text([context(a, b) for a, b in behavior.contexts()], "  "),
    ) + "\n"


# ------------------------------------------------------------------- parse

# the deepest a document's lists and objects may nest; a model needs a handful of levels
MAX_NESTING = 512
# a JSON string, or an unterminated one running to the end of the text
_STRING = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*(?:"|\Z)', re.DOTALL)
_BRACKET = re.compile(r"[\[\]{}]")
_BRACKET_STEP = {"[": 1, "{": 1, "]": -1, "}": -1}


def parse_text(text: str, source: str = "<string>") -> Document:
    """Parse model/behavior text; errors name the file, line, and token."""
    # the bound is checked before the parser recurses, so the verdict does not depend on the
    # caller's stack; only a text with more opening brackets than the bound can nest past it
    if text.count("[") + text.count("{") > MAX_NESTING:
        brackets = _BRACKET.findall(_STRING.sub("", text))
        if max(accumulate(map(_BRACKET_STEP.__getitem__, brackets)), default=0) > MAX_NESTING:
            raise ModelParseError(f"{source}: lists and objects nest too deeply (more than {MAX_NESTING} levels)")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelParseError(
            f"{source}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError:  # an integer literal past Python's int-conversion limit
        raise ModelParseError(f"{source}: an integer literal exceeds 4300 digits") from None
    except RecursionError:
        raise ModelParseError(f"{source}: lists and objects nest too deeply") from None
    if not isinstance(doc, dict):
        raise ModelParseError(f"{source}: top level must be an object")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ModelParseError(f"{source}: unknown kind {_excerpt(kind)}; expected one of {KINDS}")
    # each distinct number of this document, converted once
    numbers = _Numbers()
    if kind == "contextual":
        return _parse_contextual(doc, source, numbers)
    if kind == "flat":
        return _parse_flat(doc, source, numbers)
    if kind == "averaged":
        return _parse_averaged(doc, source, numbers)
    return _parse_behavior(doc, source, numbers)


def parse_path(path: Union[str, Path]) -> Document:
    """Parse a model file, which must be UTF-8; an ``OSError`` from reading it propagates."""
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelParseError(f"{path}: not UTF-8 text: byte {exc.start} ({data[exc.start]:#04x}) {exc.reason}") from None
    return parse_text(text, source=str(path))


# A valid contextual document costs one structural test per source atom,
# instrument atom and outcome table and one lookup per number in the
# document's _Numbers, and builds no message text.
# An item that fails its test goes through the checks written after it, in
# the order they have always run (_require_keys, _parse_label, _parse_frac,
# ...); those build the message, so the first fault of a document is
# reported word for word as before, and an item that passes them anyway is
# taken as they read it.
_PAIR_MASS = frozenset({"pair", "mass"})
_LABEL_MASS = frozenset({"label", "mass"})
_SETTING = frozenset({"setting", "instrument", "ternary", "outcomes"})
_SETTING_REQUIRED = _SETTING - {"ternary"}


def _pmf(labels: list, masses: list[tuple[int, int]]) -> Optional[Pmf]:
    """The pmf of distinct labels with reduced ``(n, d)`` masses, or None when :func:`_parse_pmf` would refuse it."""
    scale, ints = integer_scale(masses)
    weights = dict(zip(labels, ints))
    if len(weights) != len(ints) or min(ints, default=0) < 0 or sum(ints) != scale:
        return None
    return Pmf.from_integers(scale, weights)


def _parse_source(doc: dict, source: str, numbers: _Numbers) -> Pmf:
    labels, masses = [], []
    for i, atom in enumerate(_require_list(doc["source"], "source", source)):
        if type(atom) is dict and atom.keys() == _PAIR_MASS:
            pair = atom["pair"]
            if type(pair) is list and len(pair) == 2 and type(pair[0]) is str and type(pair[1]) is str:
                try:
                    masses.append(numbers[atom["mass"]])
                    labels.append((pair[0], pair[1]))
                    continue
                except (TypeError, ValueError):
                    pass
        _require_keys(atom, _PAIR_MASS, _PAIR_MASS, f"source atom {i}", source)
        pair = atom["pair"]
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ModelParseError(f"{source}: source atom {i} pair must have two labels")
        labels.append(tuple(_parse_label(lab, f"source atom {i} pair label", source) for lab in pair))
        masses.append(_parse_frac(atom["mass"], f"source atom {i}", source, numbers))
    pmf = _pmf(labels, masses)
    return _parse_pmf(list(zip(labels, masses)), "source pmf", source) if pmf is None else pmf


def _parse_instrument(entries: Any, side: str, name: str, source: str, numbers: _Numbers) -> Pmf:
    """A contextual setting's instrument pmf; a fault is named at ``{side} setting {name} instrument pmf``."""
    if type(entries) is not list:
        _require_list(entries, _instrument_where(side, name), source)
    labels, masses = [], []
    for i, e in enumerate(entries):
        if type(e) is dict and e.keys() == _LABEL_MASS and type(e["label"]) is str:
            try:
                masses.append(numbers[e["mass"]])
                labels.append(e["label"])
                continue
            except (TypeError, ValueError):
                pass
        where = _instrument_where(side, name)
        _require_keys(e, _LABEL_MASS, _LABEL_MASS, f"{where} atom {i}", source)
        labels.append(_parse_label(e["label"], f"{where} atom {i} label", source))
        masses.append(_parse_frac(e["mass"], f"{where} atom {i}", source, numbers))
    pmf = _pmf(labels, masses)
    return _parse_pmf(list(zip(labels, masses)), _instrument_where(side, name), source) if pmf is None else pmf


def _instrument_where(side: str, name: str) -> str:
    return f"{side} setting {_excerpt(name)} instrument pmf"


def _parse_contextual(doc: dict, source: str, numbers: _Numbers) -> ContextualModel:
    _require_keys(doc, {"kind", "source", "alice", "bob"}, {"source", "alice", "bob"}, "model", source)
    src = _parse_source(doc, source, numbers)
    sides = []
    for coord, side in enumerate(("alice", "bob")):
        docs = _require_list(doc[side], side, source)
        if len(docs) != 2:
            raise ModelParseError(f"{source}: {side} needs exactly 2 settings, has {len(docs)}")
        labels = source_labels(src, coord)
        sides.append(tuple(_parse_setting(d, side, labels, source, numbers) for d in docs))
    return ContextualModel(src, *sides)


def _parse_setting(sdoc: Any, side: str, labels: tuple[str, ...], source: str, numbers: _Numbers) -> Setting:
    """One contextual setting, its outcome rows read in the order of the source ``labels``."""
    if not (type(sdoc) is dict and _SETTING_REQUIRED <= sdoc.keys() <= _SETTING):
        _require_keys(sdoc, _SETTING, _SETTING_REQUIRED, f"{side} setting", source)
    name = sdoc["setting"]
    if type(name) is not str:
        _parse_label(name, f"{side} setting name", source)
    instrument = _parse_instrument(sdoc["instrument"], side, name, source, numbers)
    rows, ternary = sdoc["outcomes"], sdoc.get("ternary", False)
    inst_labels = instrument.labels()
    values = None
    if type(rows) is list and len(rows) == len(labels) and type(ternary) is bool:
        width = len(inst_labels)
        if all(type(row) is list and len(row) == width for row in rows):
            try:
                values = list(map(numbers.__getitem__, chain.from_iterable(rows)))
            except (TypeError, ValueError):
                pass
    if values is None:
        where = f"{side} setting {_excerpt(name)}"
        rows = _require_list(rows, f"{where} outcomes", source)
        if len(rows) != len(labels):
            raise ModelParseError(f"{source}: {where} outcome table has {len(rows)} rows, needs {len(labels)}")
        values = []
        shown_il = [_excerpt(il) for il in inst_labels]
        for sl, row in zip(labels, rows):
            shown_sl = _excerpt(sl)
            row = _require_list(row, f"{where} outcome row for {shown_sl}", source)
            if len(row) != len(inst_labels):
                raise ModelParseError(
                    f"{source}: {where} outcome row for {shown_sl} has {len(row)} entries, needs {len(inst_labels)}"
                )
            for shown, token in zip(shown_il, row):
                values.append(_parse_frac(token, f"{where} outcome ({shown_sl}, {shown})", source, numbers))
        ternary = _parse_ternary(sdoc, where, source)
    scale, numerators = integer_scale(values)
    table = dict(zip(product(labels, inst_labels), numerators))
    return Setting(name, instrument, OutcomeTable.from_integers(scale, table, ternary))


def _outcome_table(entries: dict, ternary: bool) -> OutcomeTable:
    """The outcome table of parsed ``{key: (n, d)}`` entries."""
    scale, numerators = integer_scale(list(entries.values()))
    return OutcomeTable.from_integers(scale, dict(zip(entries, numerators)), ternary)


def _require_distinct(names: Sequence[str], where: str, source: str) -> None:
    """Reject a side whose two settings share a name: each context must be named once."""
    if names[0] == names[1]:
        raise ModelParseError(f"{source}: {where}: duplicate setting name {_excerpt(names[0])}")


def _parse_flat_setting(sdoc: dict, side: str, arity: int, source: str, numbers: _Numbers) -> FlatSetting:
    """One flat setting; ``arity`` is the shortest atom tuple, which its coords must index."""
    _require_keys(
        sdoc,
        {"setting", "coords", "ternary", "entries"},
        {"setting", "coords", "entries"},
        f"{side} flat setting",
        source,
    )
    name = _parse_label(sdoc["setting"], f"{side} flat setting name", source)
    shown = _excerpt(name)
    coords = sdoc["coords"]
    if not (isinstance(coords, list) and len(coords) == 2):
        raise ModelParseError(f"{source}: flat setting {shown} coords must be two indices")
    coords = tuple(_parse_int(c, f"flat setting {shown} coords", source) for c in coords)
    for c in coords:
        if not 0 <= c < arity:
            raise ModelParseError(
                f"{source}: flat setting {shown} coordinate {_cut(c)} lies outside the atom tuples "
                f"(shortest has length {arity})"
            )
    ternary = _parse_ternary(sdoc, f"flat setting {shown}", source)
    entries = {}
    for i, e in enumerate(_require_list(sdoc["entries"], f"flat setting {shown} entries", source)):
        _require_keys(e, {"key", "value"}, {"key", "value"}, f"{shown} entry {i}", source)
        key = e["key"]
        if not (isinstance(key, list) and len(key) == 2):
            raise ModelParseError(f"{source}: flat setting {shown} entry {i} key must have 2 parts")
        key = tuple(_parse_label(k, f"flat setting {shown} entry {i} key", source) for k in key)
        if key in entries:
            raise ModelParseError(f"{source}: flat setting {shown} key {_cut(_label_str(key))} is listed twice")
        n, d = entries[key] = _parse_unit(e["value"], f"flat setting {shown} entry {i}", source, numbers)
        # within [-1, 1], an integer is -1, 0 or 1
        if ternary and d != 1:
            raise ModelParseError(
                f"{source}: flat setting {shown} is ternary but entry {i} value {_cut(f'{n}/{d}')} is not -1, 0 or 1"
            )
    return FlatSetting(name, coords, _outcome_table(entries, ternary))


def _parse_flat(doc: dict, source: str, numbers: _Numbers) -> FlatModel:
    _require_keys(doc, {"kind", "atoms", "alice", "bob"}, {"atoms", "alice", "bob"}, "flat model", source)
    atoms = []
    for i, atom in enumerate(_require_list(doc["atoms"], "atoms", source)):
        _require_keys(atom, {"tuple", "mass"}, {"tuple", "mass"}, f"atom {i}", source)
        lam = _require_list(atom["tuple"], f"atom {i} tuple", source)
        lam = tuple(_parse_label(c, f"atom {i} tuple", source) for c in lam)
        atoms.append((lam, _parse_frac(atom["mass"], f"atom {i}", source, numbers)))
    pmf = _parse_pmf(atoms, "tuple pmf", source)
    arity = min(len(lam) for lam, _m in atoms)

    def parse_side(side: str) -> tuple:
        docs = _require_list(doc[side], side, source)
        return tuple(_parse_flat_setting(d, side, arity, source, numbers) for d in docs)

    alice, bob = parse_side("alice"), parse_side("bob")
    if len(alice) != 2 or len(bob) != 2:
        raise ModelParseError(f"{source}: flat model needs 2 settings per side")
    for side, settings in (("alice", alice), ("bob", bob)):
        _require_distinct([s.name for s in settings], side, source)
    support = [lam for lam, _w in pmf.integer_weights()[1]]
    for setting in alice + bob:
        i, j = setting.coords
        for lam in support:
            if (lam[i], lam[j]) not in setting.outcomes.numerators:
                raise ModelParseError(
                    f"{source}: flat setting {_excerpt(setting.name)} has no entry for key "
                    f"{_cut(_label_str((lam[i], lam[j])))} of atom {_cut(_label_str(lam))}"
                )
    return FlatModel(pmf, alice, bob)


def _parse_averaged(doc: dict, source: str, numbers: _Numbers) -> AveragedModel:
    _require_keys(doc, {"kind", "source", "alice", "bob"}, {"source", "alice", "bob"}, "averaged model", source)
    src = _parse_source(doc, source, numbers)

    def parse_side(side: str, coord: int) -> tuple[Bar, ...]:
        # the source labels this side's bars are evaluated at
        labels = dict.fromkeys(pair[coord] for pair, _w in src.integer_weights()[1])
        bars = []
        for sdoc in _require_list(doc[side], side, source):
            _require_keys(sdoc, {"setting", "bar"}, {"setting", "bar"}, f"{side} setting", source)
            name = _parse_label(sdoc["setting"], f"{side} setting name", source)
            shown = _excerpt(name)
            values = {}
            for i, e in enumerate(_require_list(sdoc["bar"], f"{side} setting {shown} bar", source)):
                _require_keys(e, {"label", "value"}, {"label", "value"}, f"{shown} bar {i}", source)
                label = _parse_label(e["label"], f"{side} setting {shown} bar {i} label", source)
                if label in values:
                    raise ModelParseError(
                        f"{source}: {side} setting {shown} bar label {_excerpt(label)} is listed twice"
                    )
                values[label] = _parse_unit(e["value"], f"{side} setting {shown} bar {i}", source, numbers)
            missing = [lab for lab in labels if lab not in values]
            if missing:
                raise ModelParseError(
                    f"{source}: {side} setting {shown} bar has no value for source label {_excerpt(missing[0])}"
                )
            scale, ints = integer_scale(list(values.values()))
            bars.append(Bar(name, scale, dict(zip(values, ints))))
        if len(bars) != 2:
            raise ModelParseError(f"{source}: {side} needs exactly 2 settings")
        _require_distinct([bar.name for bar in bars], side, source)
        return tuple(bars)

    return AveragedModel(src, parse_side("alice", 0), parse_side("bob", 1))


def _parse_behavior(doc: dict, source: str, numbers: _Numbers) -> BehaviorTable:
    _require_keys(
        doc,
        {"kind", "aliceSettings", "bobSettings", "outcomes", "contexts"},
        {"aliceSettings", "bobSettings", "outcomes", "contexts"},
        "behavior",
        source,
    )
    alice, bob = (
        tuple(_parse_label(s, key, source) for s in _require_list(doc[key], key, source))
        for key in ("aliceSettings", "bobSettings")
    )
    if len(alice) != 2 or len(bob) != 2:
        raise ModelParseError(f"{source}: behavior needs 2 settings per side")
    for key, names in (("aliceSettings", alice), ("bobSettings", bob)):
        _require_distinct(names, key, source)
    outcomes = tuple(
        _parse_int(o, "outcomes", source) for o in _require_list(doc["outcomes"], "outcomes", source)
    )
    if outcomes not in ((-1, 1), (-1, 0, 1)):
        raise ModelParseError(f"{source}: outcomes must be [-1, 1] or [-1, 0, 1], got {_excerpt(outcomes)}")
    probs: dict = {}
    for cdoc in _require_list(doc["contexts"], "contexts", source):
        _require_keys(cdoc, {"alice", "bob", "cells"}, {"alice", "bob", "cells"}, "context", source)
        ctx = tuple(_parse_label(cdoc[side], f"context {side}", source) for side in ("alice", "bob"))
        shown = _excerpt(ctx)
        if ctx[0] not in alice or ctx[1] not in bob:
            raise ModelParseError(f"{source}: context {shown} names unknown settings")
        if ctx in probs:
            raise ModelParseError(f"{source}: context {shown} is listed twice")
        cells = {}
        for i, cell in enumerate(_require_list(cdoc["cells"], f"context {shown} cells", source)):
            where = f"context {shown} cell {i}"
            _require_keys(cell, {"x", "y", "p"}, {"x", "y", "p"}, where, source)
            x, y = _parse_int(cell["x"], where, source), _parse_int(cell["y"], where, source)
            if x not in outcomes or y not in outcomes:
                raise ModelParseError(f"{source}: context {shown} cell {_excerpt((x, y))} outside alphabet")
            if (x, y) in cells:
                raise ModelParseError(f"{source}: context {shown} cell ({x}, {y}) is listed twice")
            cells[(x, y)] = _parse_frac(cell["p"], where, source, numbers)
        scale, weights = integer_scale(list(cells.values()))
        if any(w < 0 for w in weights):
            raise ModelParseError(f"{source}: context {shown} has a negative probability")
        if sum(weights) != scale:
            total = Fraction(sum(weights), scale)
            raise ModelParseError(f"{source}: context {shown} pmf sums to {_sum_text(total)}, not 1")
        probs[ctx] = cells
    expected = {(a, b) for a in alice for b in bob}
    if set(probs) != expected:
        raise ModelParseError(f"{source}: behavior must list all four contexts exactly once")
    return BehaviorTable.from_integers(alice, bob, outcomes, *cells_over_one_scale(probs))
