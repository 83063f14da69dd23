"""Reading and writing the structured text format for models and behaviors.

Files are JSON documents with a ``kind`` discriminator ("contextual",
"flat", "averaged", "behavior").  Probabilities and outcomes are written
as exact fraction strings ("1/6"); decimal strings ("0.25") are accepted
and converted exactly.  In canonical form every hidden-variable label is
a plain string, and parse(serialize(x)) == x.  Schemas live under
schemas/ in the repository root.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _quote
from fractions import Fraction
from pathlib import Path
from typing import Any, Mapping, Sequence, Union

from .flatten import AveragedModel, FlatModel, FlatSetting
from .model import (
    BehaviorTable,
    ContextualModel,
    Label,
    OutcomeTable,
    Pmf,
    QUOTE_LIMIT,
    Setting,
    _coordinate_labels,
    _cut,
    _excerpt,
    rational_parts,
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


def _parse_frac(token: Any, where: str, source: str, numbers: dict[str, Fraction]) -> Fraction:
    """A JSON integer or number string as a Fraction, by :func:`rational_parts`.

    ``numbers`` holds the number strings this document has already
    converted; :func:`parse_text` makes it empty for each call.  It is
    keyed on strings only, so a JSON ``true`` (equal to ``1`` as a dict
    key) never reaches it, and a failed conversion is never stored, so an
    error names the occurrence that raised it.
    """
    if type(token) is str:
        value = numbers.get(token)
        if value is None:
            value = numbers[token] = _fraction(token, where, source)
        return value
    if isinstance(token, int) and not isinstance(token, bool):
        return _fraction(str(token), where, source)
    raise ModelParseError(f"{source}: malformed fraction {_excerpt(token)} at {where}")


def _fraction(text: str, where: str, source: str) -> Fraction:
    try:
        return Fraction(*rational_parts(text))
    except ValueError as exc:
        raise ModelParseError(f"{source}: {exc} at {where}") from None


def _parse_label(token: Any, where: str, source: str) -> str:
    """A label or setting name: JSON strings only, as the schema says."""
    if not isinstance(token, str):
        raise ModelParseError(f"{source}: {where} must be a string, got {_excerpt(token)}")
    return token


def _parse_unit(token: Any, where: str, source: str, numbers: dict[str, Fraction]) -> Fraction:
    """A fraction in [-1, 1]: a flat table entry or an averaged bar value."""
    value = _parse_frac(token, where, source, numbers)
    if not -1 <= value <= 1:
        raise ModelParseError(f"{source}: {where} value {_cut(value)} lies outside [-1, 1]")
    return value


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
    """The pmf of parsed ``(label, mass)`` atoms; a repeated label or a bad sum is named."""
    ratios = [m.as_integer_ratio() for _lab, m in atoms]
    scale = math.lcm(*{d for _n, d in ratios})
    weights: dict = {}
    for (label, _m), (n, d) in zip(atoms, ratios):
        if label in weights:
            raise ModelParseError(f"{source}: duplicate label {_excerpt(_label_str(label))} in {where}")
        weights[label] = n * (scale // d)
    if any(w < 0 for w in weights.values()):
        raise ModelParseError(f"{source}: negative mass in {where}")
    total = sum(weights.values())
    if total != scale:
        total = Fraction(total, scale)
        raise ModelParseError(f"{source}: {where} sums to {_sum_text(total)}, not 1")
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
        first, second = obj.source_first_labels(), obj.source_second_labels()
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
    """The quoted ``str(Fraction(weight, scale))``, reduced from the integers."""
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


def setting_text(setting: Setting, source_labels: Sequence[Label]) -> str:
    """One setting object of a contextual document, rows in ``source_labels`` order."""
    scale, weights = setting.instrument.integer_atoms()
    instrument = _list_text(
        [
            '{\n          "label": %s,\n          "mass": %s\n        }' % (_quote(_label_str(lab)), _mass_text(w, scale))
            for lab, w in weights.items()
        ],
        "      ",
    )
    value = setting.outcomes.value
    rows = _list_text(
        [_list_text(['"%s"' % value(sl, il) for il in weights], "        ") for sl in source_labels],
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
        entries = [
            _object_text("        ", key=_list_text([_quote(_label_str(k)) for k in key], "          "), value='"%s"' % v)
            for key, v in s.outcomes.entries.items()
        ]
        return _object_text(
            "    ",
            setting=_quote(s.name),
            coords=_list_text([str(c) for c in s.coords], "      "),
            ternary="true" if s.outcomes.ternary else "false",
            entries=_list_text(entries, "      "),
        )

    alice, bob = (_list_text([setting(s) for s in side], "  ") for side in (model.alice, model.bob))
    return _object_text("", kind='"flat"', atoms=_list_text(atoms, "  "), alice=alice, bob=bob) + "\n"


def _averaged_text(model: AveragedModel) -> str:
    def setting(name: str, bar: Mapping[Label, Fraction]) -> str:
        values = [_object_text("        ", label=_quote(_label_str(lab)), value='"%s"' % v) for lab, v in bar.items()]
        return _object_text("    ", setting=_quote(name), bar=_list_text(values, "      "))

    alice, bob = (
        _list_text([setting(name, bars[name]) for name in names], "  ")
        for names, bars in ((model.alice_settings, model.alice_bar), (model.bob_settings, model.bob_bar))
    )
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

def parse_text(text: str, source: str = "<string>") -> Document:
    """Parse model/behavior text; errors name the file, line, and token."""
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
    # each distinct number string of this document, converted once; see _parse_frac
    numbers: dict[str, Fraction] = {}
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


def _parse_source(doc: dict, source: str, numbers: dict[str, Fraction]) -> Pmf:
    atoms = []
    for i, atom in enumerate(_require_list(doc["source"], "source", source)):
        _require_keys(atom, {"pair", "mass"}, {"pair", "mass"}, f"source atom {i}", source)
        pair = atom["pair"]
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ModelParseError(f"{source}: source atom {i} pair must have two labels")
        pair = tuple(_parse_label(lab, f"source atom {i} pair label", source) for lab in pair)
        atoms.append((pair, _parse_frac(atom["mass"], f"source atom {i}", source, numbers)))
    return _parse_pmf(atoms, "source pmf", source)


def _parse_instrument(entries: list, where: str, source: str, numbers: dict[str, Fraction]) -> Pmf:
    atoms = []
    for i, e in enumerate(_require_list(entries, where, source)):
        _require_keys(e, {"label", "mass"}, {"label", "mass"}, f"{where} atom {i}", source)
        label = _parse_label(e["label"], f"{where} atom {i} label", source)
        atoms.append((label, _parse_frac(e["mass"], f"{where} atom {i}", source, numbers)))
    return _parse_pmf(atoms, where, source)


def _parse_contextual(doc: dict, source: str, numbers: dict[str, Fraction]) -> ContextualModel:
    _require_keys(doc, {"kind", "source", "alice", "bob"}, {"source", "alice", "bob"}, "model", source)
    src = _parse_source(doc, source, numbers)

    def parse_setting(sdoc: dict, side: str, labels: tuple[str, ...]) -> Setting:
        where = f"{side} setting"
        _require_keys(
            sdoc,
            {"setting", "instrument", "ternary", "outcomes"},
            {"setting", "instrument", "outcomes"},
            where,
            source,
        )
        name = _parse_label(sdoc["setting"], f"{side} setting name", source)
        where = f"{side} setting {_excerpt(name)}"
        instrument = _parse_instrument(sdoc["instrument"], f"{where} instrument pmf", source, numbers)
        rows = _require_list(sdoc["outcomes"], f"{where} outcomes", source)
        inst_labels = instrument.labels()
        if len(rows) != len(labels):
            raise ModelParseError(
                f"{source}: {where} outcome table has {len(rows)} rows, needs {len(labels)}"
            )
        entries = {}
        shown_il = [_excerpt(il) for il in inst_labels]
        for sl, row in zip(labels, rows):
            shown_sl = _excerpt(sl)
            row = _require_list(row, f"{where} outcome row for {shown_sl}", source)
            if len(row) != len(inst_labels):
                raise ModelParseError(
                    f"{source}: {where} outcome row for {shown_sl} has {len(row)} entries, "
                    f"needs {len(inst_labels)}"
                )
            for il, shown, token in zip(inst_labels, shown_il, row):
                entries[(sl, il)] = _parse_frac(token, f"{where} outcome ({shown_sl}, {shown})", source, numbers)
        return Setting(name, instrument, OutcomeTable(entries, ternary=_parse_ternary(sdoc, where, source)))

    def parse_side(coord: int, side: str):
        docs = _require_list(doc[side], side, source)
        if len(docs) != 2:
            raise ModelParseError(f"{source}: {side} needs exactly 2 settings, has {len(docs)}")
        labels = _coordinate_labels(src, coord)
        return tuple(parse_setting(d, side, labels) for d in docs)

    return ContextualModel(src, *(parse_side(coord, side) for coord, side in enumerate(("alice", "bob"))))


def _require_distinct(names: Sequence[str], where: str, source: str) -> None:
    """Reject a side whose two settings share a name: each context must be named once."""
    if names[0] == names[1]:
        raise ModelParseError(f"{source}: {where}: duplicate setting name {_excerpt(names[0])}")


def _parse_flat_setting(sdoc: dict, side: str, arity: int, source: str, numbers: dict[str, Fraction]) -> FlatSetting:
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
                f"{source}: flat setting {shown} coordinate {c} lies outside the atom tuples "
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
        value = _parse_unit(e["value"], f"flat setting {shown} entry {i}", source, numbers)
        # within [-1, 1], an integer is -1, 0 or 1
        if ternary and value.denominator != 1:
            raise ModelParseError(
                f"{source}: flat setting {shown} is ternary but entry {i} value {_cut(value)} is not -1, 0 or 1"
            )
        entries[key] = value
    return FlatSetting(name, coords, OutcomeTable(entries, ternary=ternary))


def _parse_flat(doc: dict, source: str, numbers: dict[str, Fraction]) -> FlatModel:
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
    support = [lam for lam, _m in pmf.support()]
    for setting in alice + bob:
        i, j = setting.coords
        for lam in support:
            if (lam[i], lam[j]) not in setting.outcomes.entries:
                raise ModelParseError(
                    f"{source}: flat setting {_excerpt(setting.name)} has no entry for key "
                    f"{_cut(_label_str((lam[i], lam[j])))} of atom {_cut(_label_str(lam))}"
                )
    return FlatModel(pmf, alice, bob)


def _parse_averaged(doc: dict, source: str, numbers: dict[str, Fraction]) -> AveragedModel:
    _require_keys(doc, {"kind", "source", "alice", "bob"}, {"source", "alice", "bob"}, "averaged model", source)
    src = _parse_source(doc, source, numbers)

    def parse_side(side: str, coord: int):
        # the source labels this side's bars are evaluated at
        labels = dict.fromkeys(pair[coord] for pair, _m in src.support())
        names = []
        bars = {}
        for sdoc in _require_list(doc[side], side, source):
            _require_keys(sdoc, {"setting", "bar"}, {"setting", "bar"}, f"{side} setting", source)
            name = _parse_label(sdoc["setting"], f"{side} setting name", source)
            shown = _excerpt(name)
            names.append(name)
            bar = {}
            for i, e in enumerate(_require_list(sdoc["bar"], f"{side} setting {shown} bar", source)):
                _require_keys(e, {"label", "value"}, {"label", "value"}, f"{shown} bar {i}", source)
                label = _parse_label(e["label"], f"{side} setting {shown} bar {i} label", source)
                if label in bar:
                    raise ModelParseError(
                        f"{source}: {side} setting {shown} bar label {_excerpt(label)} is listed twice"
                    )
                bar[label] = _parse_unit(e["value"], f"{side} setting {shown} bar {i}", source, numbers)
            missing = [lab for lab in labels if lab not in bar]
            if missing:
                raise ModelParseError(
                    f"{source}: {side} setting {shown} bar has no value for source label {_excerpt(missing[0])}"
                )
            bars[name] = bar
        if len(names) != 2:
            raise ModelParseError(f"{source}: {side} needs exactly 2 settings")
        _require_distinct(names, side, source)
        return tuple(names), bars

    alice_names, alice_bar = parse_side("alice", 0)
    bob_names, bob_bar = parse_side("bob", 1)
    return AveragedModel(src, alice_names, bob_names, alice_bar, bob_bar)


def _parse_behavior(doc: dict, source: str, numbers: dict[str, Fraction]) -> BehaviorTable:
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
        total = sum(cells.values(), Fraction(0))
        if any(p < 0 for p in cells.values()):
            raise ModelParseError(f"{source}: context {shown} has a negative probability")
        if total != 1:
            raise ModelParseError(
                f"{source}: context {shown} pmf sums to {_sum_text(total)}, not 1"
            )
        probs[ctx] = cells
    expected = {(a, b) for a in alice for b in bob}
    if set(probs) != expected:
        raise ModelParseError(f"{source}: behavior must list all four contexts exactly once")
    return BehaviorTable(alice, bob, outcomes, probs)
