"""Shared helpers: independent oracles and corpus iteration.

Every model oracle here walks ``support()`` atom by atom in Fractions,
so it shares no code path with the integer kernel in :mod:`lhvlab.model`
or the integer columns of :meth:`lhvlab.FlatModel.quad`; the LP oracle
pivots a Fraction tableau, sharing no code with the integer simplex in
:mod:`lhvlab.simplex`; the post-selection oracle adds the cells as
Fractions read through ``context_pmf``, sharing no code with the integer
weights of :class:`lhvlab.BehaviorTable` or the integer sums of
:func:`lhvlab.postselected_correlations`; the serializer oracle builds a
model or behavior of any kind as one whole document of dicts and lists
and dumps it with ``json.dumps(indent=2)``, sharing no code with the
fixed frames :func:`lhvlab.serialize` writes; the CHSH oracle writes
each of the eight combinations out term by term, sharing no code with
the one rule behind :func:`lhvlab.chsh_values`.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from typing import Optional, Sequence

from lhvlab import (
    AveragedModel,
    BehaviorTable,
    ContextualModel,
    CorrelationQuad,
    FlatModel,
    PostSelectionReport,
    behavior_from_model,
    zero_to_coin,
)
from lhvlab.corpus import random_contextual_model, random_nosignalling_behavior
from lhvlab.model import source_labels


def brute_expectation(model: ContextualModel, context) -> Fraction:
    """Reference oracle: enumerate the full six-coordinate product space.

    Sums A*B*mass over every tuple (l1, l2, la, la', lb, lb') with the
    product mass, including the two instrument coordinates the context
    never reads.  Structurally different from exact_expectation (which
    never builds the irrelevant coordinates), so agreement is meaningful.
    """
    a = model.alice_setting(context[0])
    b = model.bob_setting(context[1])
    ax, ax2 = model.alice
    by, by2 = model.bob
    total = Fraction(0)
    for (l1, l2), p_src in model.source.items():
        for la, pa in ax.instrument.items():
            for la2, pa2 in ax2.instrument.items():
                lam_a = la if a is ax else la2
                va = a.outcomes.value(l1, lam_a)
                for lb, pb in by.instrument.items():
                    for lb2, pb2 in by2.instrument.items():
                        lam_b = lb if b is by else lb2
                        total += (
                            va
                            * b.outcomes.value(l2, lam_b)
                            * p_src
                            * pa
                            * pa2
                            * pb
                            * pb2
                        )
    return total


def brute_quad(model: ContextualModel) -> CorrelationQuad:
    values = {ctx: brute_expectation(model, ctx) for ctx in model.contexts()}
    return CorrelationQuad(model.alice_settings, model.bob_settings, values)


def brute_flat_quad(flat: FlatModel) -> CorrelationQuad:
    """Reference flat-model quad: each context summed atom by atom over the tuple pmf."""
    return CorrelationQuad(
        flat.alice_settings,
        flat.bob_settings,
        {ctx: brute_flat_expectation(flat, ctx) for ctx in flat.contexts()},
    )


def brute_flat_expectation(flat: FlatModel, context) -> Fraction:
    a = flat.alice_setting(context[0])
    b = flat.bob_setting(context[1])
    total = Fraction(0)
    for lam, mass in flat.lambda_pmf.support():
        total += a.evaluate(lam) * b.evaluate(lam) * mass
    return total


def brute_behavior(model: ContextualModel) -> dict:
    """Reference P(x, y | a, b): cells in first-appearance order over the supports."""
    probs = {}
    for ctx in model.contexts():
        a = model.alice_setting(ctx[0])
        b = model.bob_setting(ctx[1])
        cells: dict = {}
        for (l1, l2), p_src in model.source.support():
            for la, p_a in a.instrument.support():
                x = int(a.outcomes.value(l1, la))
                for lb, p_b in b.instrument.support():
                    key = (x, int(b.outcomes.value(l2, lb)))
                    cells[key] = cells.get(key, Fraction(0)) + p_src * p_a * p_b
        probs[ctx] = cells
    return probs


def brute_postselect(behavior: BehaviorTable) -> PostSelectionReport:
    """Reference post-selection: each context's cells added one by one as Fractions.

    It reads the table only through ``context_pmf``, never its integer
    weights, normalization check or quad.
    """
    if not behavior.ternary:
        raise ValueError("post-selection needs a ternary behavior (no zero outcomes to discard)")
    pmfs = {ctx: behavior.context_pmf(ctx) for ctx in behavior.contexts()}
    if any(min(cells.values(), default=0) < 0 or sum(cells.values(), Fraction(0)) != 1 for cells in pmfs.values()):
        raise ValueError("behavior table is not normalized")
    raw: dict = {}
    conditional: dict = {}
    coincidence: dict = {}
    alice_detect: dict = {}
    bob_detect: dict = {}
    for ctx, cells in pmfs.items():
        raw[ctx] = sum((x * y * p for (x, y), p in cells.items()), Fraction(0))
        num = Fraction(0)
        den = Fraction(0)
        a_det = Fraction(0)
        b_det = Fraction(0)
        for (x, y), p in cells.items():
            if x != 0:
                a_det += p
            if y != 0:
                b_det += p
            if x != 0 and y != 0:
                den += p
                num += x * y * p
        coincidence[ctx] = den
        alice_detect[ctx] = a_det
        bob_detect[ctx] = b_det
        conditional[ctx] = num / den if den > 0 else None
    return PostSelectionReport(
        raw_quad=CorrelationQuad(behavior.alice_settings, behavior.bob_settings, raw),
        conditional=conditional,
        coincidence_rate=coincidence,
        alice_detect=alice_detect,
        bob_detect=bob_detect,
    )


def brute_no_signalling(behavior: BehaviorTable) -> tuple[dict, dict, dict, Fraction]:
    """Reference no-signalling marginals, from the ``context_pmf`` Fractions cell by cell.

    Returns ``(alice, bob, per_setting_deviation, max_deviation)`` as a
    :class:`lhvlab.NoSignallingReport` holds them: ``alice[a][b][v]`` is
    the probability that Alice sees ``v`` in context (a, b).
    """
    sides = []
    for coord in (0, 1):
        own_settings = (behavior.alice_settings, behavior.bob_settings)[coord]
        other_settings = (behavior.bob_settings, behavior.alice_settings)[coord]
        marginals: dict = {}
        for own in own_settings:
            for other in other_settings:
                ctx = (own, other) if coord == 0 else (other, own)
                out = {v: Fraction(0) for v in behavior.outcomes}
                for cell, p in behavior.context_pmf(ctx).items():
                    out[cell[coord]] += p
                marginals.setdefault(own, {})[other] = out
        sides.append(marginals)
    deviation = {
        (side, own): max(
            abs(by_other[first][v] - by_other[second][v])
            for first in by_other
            for second in by_other
            for v in behavior.outcomes
        )
        for side, marginals in zip(("alice", "bob"), sides)
        for own, by_other in marginals.items()
    }
    return sides[0], sides[1], deviation, max(deviation.values())


def _side_terms(model: ContextualModel, side: str, setting):
    """(outcome value, mass) for every source atom x instrument atom of one setting."""
    coord = 0 if side == "alice" else 1
    for pair, p_src in model.source.support():
        for lam, p_i in setting.instrument.support():
            yield setting.outcomes.value(pair[coord], lam), p_src * p_i


def brute_side_expectation(model: ContextualModel, side: str, setting) -> Fraction:
    return sum((v * p for v, p in _side_terms(model, side, setting)), Fraction(0))


def brute_detection_rates(model: ContextualModel) -> tuple[dict, dict]:
    """Per side, per setting name: the probability of a nonzero outcome."""
    return tuple(
        {
            s.name: sum((p for v, p in _side_terms(model, side, s) if v != 0), Fraction(0))
            for s in settings
        }
        for side, settings in (("alice", model.alice), ("bob", model.bob))
    )


def brute_bars(model: ContextualModel) -> tuple[dict, dict]:
    """Per side, per setting name, per source label: the instrument-averaged outcome."""
    out = []
    for coord, settings in enumerate((model.alice, model.bob)):
        labels = source_labels(model.source, coord)
        out.append(
            {
                s.name: {
                    lab: sum(
                        (s.outcomes.value(lab, li) * p for li, p in s.instrument.support()),
                        Fraction(0),
                    )
                    for lab in labels
                }
                for s in settings
            }
        )
    return tuple(out)


def brute_setting_rows(setting, labels, atoms, scale: int) -> tuple[int, dict]:
    """Per label, (detected mass, first moment) of ``(atom, weight)`` pairs over ``scale``, as Fractions.

    Also the lcm of the value denominators at every label and atom, zero
    weights included, by which the integer kernel scales its first moments:
    the table's scale when the table holds exactly those keys.
    """
    vscale = 1
    out = {}
    for lab in labels:
        detected = first = Fraction(0)
        for atom, w in atoms:
            v = setting.outcomes.value(lab, atom)
            vscale = vscale * v.denominator // math.gcd(vscale, v.denominator)
            if w != 0:
                first += v * Fraction(w, scale)
                if v != 0:
                    detected += Fraction(w, scale)
        out[lab] = (detected, first)
    return vscale, out


def brute_serialize(obj) -> str:
    """Reference serialization of any of the four kinds: the whole document dumped at once."""
    builders = {
        ContextualModel: _contextual_doc,
        FlatModel: _flat_doc,
        AveragedModel: _averaged_doc,
        BehaviorTable: _behavior_doc,
    }
    return json.dumps(builders[type(obj)](obj), indent=2) + "\n"


def _label_str(label) -> str:
    if isinstance(label, str):
        return label
    if isinstance(label, tuple):
        return "(" + ",".join(_label_str(p) for p in label) + ")"
    return str(label)


def _contextual_doc(model: ContextualModel) -> dict:
    def setting_doc(setting, labels) -> dict:
        instrument_labels = setting.instrument.labels()
        rows = [
            [str(setting.outcomes.value(sl, il)) for il in instrument_labels]
            for sl in labels
        ]
        return {
            "setting": setting.name,
            "instrument": [
                {"label": _label_str(lab), "mass": str(m)}
                for lab, m in setting.instrument.items()
            ],
            "ternary": setting.outcomes.ternary,
            "outcomes": rows,
        }

    first = source_labels(model.source, 0)
    second = source_labels(model.source, 1)
    return {
        "kind": "contextual",
        "source": _source_doc(model.source),
        "alice": [setting_doc(s, first) for s in model.alice],
        "bob": [setting_doc(s, second) for s in model.bob],
    }



def _source_doc(source) -> list:
    return [
        {"pair": [_label_str(pair[0]), _label_str(pair[1])], "mass": str(m)}
        for pair, m in source.items()
    ]


def _flat_doc(model: FlatModel) -> dict:
    def setting_doc(s) -> dict:
        return {
            "setting": s.name,
            "coords": list(s.coords),
            "ternary": s.outcomes.ternary,
            "entries": [
                {"key": [_label_str(k[0]), _label_str(k[1])], "value": str(s.outcomes.value(*k))}
                for k in s.outcomes.numerators
            ],
        }

    return {
        "kind": "flat",
        "atoms": [
            {"tuple": [_label_str(c) for c in lam], "mass": str(m)}
            for lam, m in model.lambda_pmf.items()
        ],
        "alice": [setting_doc(s) for s in model.alice],
        "bob": [setting_doc(s) for s in model.bob],
    }


def _averaged_doc(model: AveragedModel) -> dict:
    def side_doc(names, bars) -> list:
        return [
            {
                "setting": name,
                "bar": [{"label": _label_str(lab), "value": str(v)} for lab, v in bars[name].items()],
            }
            for name in names
        ]

    return {
        "kind": "averaged",
        "source": _source_doc(model.source),
        "alice": side_doc(model.alice_settings, model.alice_bar),
        "bob": side_doc(model.bob_settings, model.bob_bar),
    }


def _behavior_doc(behavior: BehaviorTable) -> dict:
    contexts = []
    for (a, b) in behavior.contexts():
        cells = [{"x": x, "y": y, "p": str(p)} for (x, y), p in behavior.context_pmf((a, b)).items()]
        contexts.append({"alice": a, "bob": b, "cells": cells})
    return {
        "kind": "behavior",
        "aliceSettings": list(behavior.alice_settings),
        "bobSettings": list(behavior.bob_settings),
        "outcomes": list(behavior.outcomes),
        "contexts": contexts,
    }

# the acceptance corpus: corpus_models(CORPUS_SIZE, seed=CORPUS_SEED)
CORPUS_SEED = 20240913
CORPUS_SIZE = 1000


def corpus_models(n: int, seed: int = 2024, **kwargs):
    """Yield n random models alternating ternary and interval outcomes."""
    rng = random.Random(seed)
    for i in range(n):
        kind = "ternary" if i % 2 == 0 else "interval"
        yield random_contextual_model(rng, outcome_kind=kind, **kwargs)


def fine_lp_behaviors(n_corpus: int, n_tables: int, seed: int):
    """Binary behaviors as the fine_lp benchmark draws them.

    Every other corpus model, coin-reduced, then random no-signalling
    tables alternating generic and near-quantum draws; only the last
    straddle the CHSH boundary.
    """
    for i, model in enumerate(corpus_models(n_corpus, seed=seed)):
        if i % 2 == 0:
            yield behavior_from_model(zero_to_coin(model))
    rng = random.Random(seed + 1)
    for i in range(n_tables):
        yield random_nosignalling_behavior(rng, mode="generic" if i % 2 == 0 else "near_quantum")


def brute_chsh(e_xy, e_xy2, e_x2y, e_x2y2) -> list:
    """Reference oracle: the eight one-sided CHSH combinations, each written out.

    The arguments are the quad's correlations in context order (x, y),
    (x, y'), (x', y), (x', y').  The combinations follow ``chsh_values``:
    for each flipped context in that order, overall sign +1 then -1.
    """
    return [
        -e_xy + e_xy2 + e_x2y + e_x2y2,
        e_xy - e_xy2 - e_x2y - e_x2y2,
        e_xy - e_xy2 + e_x2y + e_x2y2,
        -e_xy + e_xy2 - e_x2y - e_x2y2,
        e_xy + e_xy2 - e_x2y + e_x2y2,
        -e_xy - e_xy2 + e_x2y - e_x2y2,
        e_xy + e_xy2 + e_x2y - e_x2y2,
        -e_xy - e_xy2 - e_x2y + e_x2y2,
    ]


def fraction_find_feasible(
    a_matrix: Sequence[Sequence[Fraction]], b_vector: Sequence[Fraction]
) -> Optional[list[Fraction]]:
    """Reference LP oracle: phase-1 simplex, Bland's rule, every entry a Fraction.

    A textbook tableau that divides the pivot row by the pivot.  It makes
    the same pivot choices as :func:`lhvlab.simplex.find_feasible` but
    shares none of its integer arithmetic, so equal results check it.
    """
    m = len(a_matrix)
    if m == 0:
        return []
    n = len(a_matrix[0])

    # standardize to b >= 0, append one artificial per row
    rows: list[list[Fraction]] = []
    for i in range(m):
        row = [Fraction(v) for v in a_matrix[i]]
        rhs = Fraction(b_vector[i])
        if len(row) != n:
            raise ValueError("ragged constraint matrix")
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
        art = [Fraction(0)] * m
        art[i] = Fraction(1)
        rows.append(row + art + [rhs])
    basis = [n + i for i in range(m)]
    width = n + m

    # phase-1 objective: minimize the artificial sum; reduced costs after
    # pricing out the artificial basis
    zrow = [Fraction(0)] * (width + 1)
    for j in range(n):
        zrow[j] = -sum(rows[i][j] for i in range(m))
    zrow[width] = -sum(rows[i][width] for i in range(m))

    while True:
        entering = next((j for j in range(width) if zrow[j] < 0), None)
        if entering is None:
            break
        pivot_row = None
        best_ratio = None
        for i in range(m):
            coeff = rows[i][entering]
            if coeff > 0:
                ratio = rows[i][width] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[pivot_row])
                ):
                    best_ratio = ratio
                    pivot_row = i
        if pivot_row is None:
            raise AssertionError("phase-1 objective is bounded; unbounded pivot is a bug")
        _fraction_pivot(rows, zrow, basis, pivot_row, entering, width)

    if zrow[width] != 0:
        return None
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = rows[i][width]
    return x


def _fraction_pivot(rows, zrow, basis, pr: int, pc: int, width: int) -> None:
    piv = rows[pr][pc]
    rows[pr] = [v / piv for v in rows[pr]]
    for i in range(len(rows)):
        if i != pr and rows[i][pc] != 0:
            f = rows[i][pc]
            rows[i] = [v - f * p for v, p in zip(rows[i], rows[pr])]
    if zrow[pc] != 0:
        f = zrow[pc]
        for j in range(width + 1):
            zrow[j] -= f * rows[pr][j]
    basis[pr] = pc
