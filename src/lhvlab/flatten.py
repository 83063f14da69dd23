"""Constructions that rewrite a contextual model as an ordinary product-space model.

Three routes, all preserving the four context expectations exactly:

* :func:`product_flatten` - one tuple space carrying every hidden variable
  at once, with a single setting-independent pmf;
* :func:`uniform_reduce` - replaces each side's two instrument
  distributions by one shared discrete uniform-like variable via
  inverse-CDF cells;
* :func:`bell_average` - integrates the instrument variables out,
  leaving per-source-label conditional expectations.

Equality of expectations is exact rational equality, checkable with ==.

The flat models are built and evaluated in integers: masses are integer
weights over one common denominator until a single ``Fraction`` is made
per atom, and :meth:`FlatModel.quad` sums each context over integer
columns of table values at the flat pmf's support tuples.  That
evaluation walks the flat pmf only; it never calls the contextual kernel
(``outcome_channel``, ``context_distributions``) it is used to check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Mapping, Sequence

from .model import (
    Context,
    ContextualModel,
    CorrelationQuad,
    Label,
    OutcomeTable,
    Pmf,
    SettingPairs,
    TwoByTwo,
    integer_scale,
    outcome_channel,
)


@dataclass(frozen=True)
class FlatSetting:
    """One setting of a flat model: which tuple coordinates it reads, and its table.

    ``coords`` gives the positions (i, j) in the hidden tuple; the
    outcome table is keyed by (tuple[i], tuple[j]).
    """

    name: str
    coords: tuple[int, int]
    outcomes: OutcomeTable

    def evaluate(self, lam: tuple) -> Fraction:
        i, j = self.coords
        return self.outcomes.value(lam[i], lam[j])


@dataclass(frozen=True)
class FlatModel(SettingPairs):
    """A single product-space hidden-variable model.

    One pmf over tuples serves all four contexts; each setting's outcome
    function just projects out its own coordinates.  The pmf being a
    single shared object is the structural form of setting independence.
    """

    lambda_pmf: Pmf
    alice: tuple[FlatSetting, FlatSetting]
    bob: tuple[FlatSetting, FlatSetting]

    def quad(self) -> CorrelationQuad:
        """All four expectations; each setting's column is built once for both its contexts."""
        scale, atoms = self.lambda_pmf.integer_weights()
        lams = [lam for lam, _w in atoms]
        weights = [w for _lam, w in atoms]
        # Alice's columns carry the pmf weights and scale, so a context is one dot product
        alice = {}
        for name in self.alice_settings:
            a_scale, a = _column(self.alice_setting(name), lams)
            alice[name] = a_scale * scale, list(map(mul, a, weights))
        bob = {name: _column(self.bob_setting(name), lams) for name in self.bob_settings}
        values = {}
        for ctx in self.contexts():
            aw_scale, aw = alice[ctx[0]]
            b_scale, b = bob[ctx[1]]
            values[ctx] = Fraction(sum(map(mul, aw, b)), aw_scale * b_scale)
        return CorrelationQuad(self.alice_settings, self.bob_settings, values)


def _column(setting: FlatSetting, lams: Sequence[tuple]) -> tuple[int, list[int]]:
    """A setting's table value at each tuple, as integers over the lcm of their denominators."""
    i, j = setting.coords
    keys = [(lam[i], lam[j]) for lam in lams]
    distinct = list(dict.fromkeys(keys))
    scale, ints = integer_scale([setting.outcomes.value(*key) for key in distinct])
    scaled = dict(zip(distinct, ints))
    return scale, [scaled[key] for key in keys]


@dataclass(frozen=True)
class AveragedModel(TwoByTwo):
    """A model with the instrument variables integrated out.

    ``alice_bar[name]`` maps each first source coordinate to the
    expectation of Alice's outcome given that coordinate, and likewise
    for Bob; both are bounded by 1 in absolute value pointwise.
    """

    source: Pmf
    alice_settings: tuple[str, str]
    bob_settings: tuple[str, str]
    alice_bar: Mapping[str, Mapping[Label, Fraction]]
    bob_bar: Mapping[str, Mapping[Label, Fraction]]

    def expectation(self, context: Context) -> Fraction:
        abar = self.alice_bar[context[0]]
        bbar = self.bob_bar[context[1]]
        total = Fraction(0)
        for (l1, l2), mass in self.source.support():
            total += abar[l1] * bbar[l2] * mass
        return total

    def quad(self) -> CorrelationQuad:
        return CorrelationQuad(
            self.alice_settings,
            self.bob_settings,
            {ctx: self.expectation(ctx) for ctx in self.contexts()},
        )


def product_flatten(model: ContextualModel) -> FlatModel:
    """Rebuild a contextual model on the product of all its hidden-variable spaces.

    The tuple is (l1, l2, la, la', lb, lb') with the product pmf; each
    setting reads its own source coordinate and its own instrument
    coordinate.  All four context expectations equal the original's
    exactly.
    """
    ax, ax2 = model.alice
    by, by2 = model.bob
    src_scale, src = model.source.integer_weights()
    (sa, inst_ax), (sa2, inst_ax2), (sb, inst_by), (sb2, inst_by2) = (
        s.instrument.integer_weights() for s in (ax, ax2, by, by2)
    )
    scale = src_scale * sa * sa2 * sb * sb2
    atoms = []
    for (l1, l2), w_src in src:
        for la, wa in inst_ax:
            w1 = w_src * wa
            for la2, wa2 in inst_ax2:
                w2 = w1 * wa2
                for lb, wb in inst_by:
                    w3 = w2 * wb
                    for lb2, wb2 in inst_by2:
                        atoms.append(((l1, l2, la, la2, lb, lb2), Fraction(w3 * wb2, scale)))
    lambda_pmf = Pmf(atoms)
    alice = (
        FlatSetting(ax.name, (0, 2), ax.outcomes),
        FlatSetting(ax2.name, (0, 3), ax2.outcomes),
    )
    bob = (
        FlatSetting(by.name, (1, 4), by.outcomes),
        FlatSetting(by2.name, (1, 5), by2.outcomes),
    )
    return FlatModel(lambda_pmf, alice, bob)


def refine_breakpoints(first: Pmf, second: Pmf) -> list[tuple[Fraction, Fraction]]:
    """Common inverse-CDF cells for two pmfs over the unit interval.

    Returns the half-open cells [lo, hi) cut by the union of both pmfs'
    cumulative breakpoints.  Cell lengths are exact and sum to 1; every
    cell lies inside exactly one atom interval of each pmf.
    """
    points = {Fraction(0), Fraction(1)}
    for pmf in (first, second):
        cum = Fraction(0)
        for _lab, mass in pmf.support():
            cum += mass
            points.add(cum)
    grid = sorted(points)
    return [(grid[i], grid[i + 1]) for i in range(len(grid) - 1)]


def _cell_atom_map(pmf: Pmf, cells: Sequence[tuple[Fraction, Fraction]]) -> dict[tuple, Label]:
    """Assign each cell to the pmf atom whose cumulative interval contains it."""
    spans = []
    cum = Fraction(0)
    for lab, mass in pmf.support():
        spans.append((cum, cum + mass, lab))
        cum += mass
    mapping: dict[tuple, Label] = {}
    for lo, hi in cells:
        for s_lo, s_hi, lab in spans:
            if s_lo <= lo < s_hi:
                if hi > s_hi:
                    raise AssertionError("cell crosses an atom boundary; refinement is broken")
                mapping[(lo, hi)] = lab
                break
        else:
            raise AssertionError(f"cell [{lo}, {hi}) not covered by pmf")
    return mapping


def _cell_label(cell: tuple[Fraction, Fraction]) -> str:
    return f"[{cell[0]},{cell[1]})"


def uniform_reduce(model: ContextualModel) -> FlatModel:
    """Flatten with one shared quantile variable per side instead of two instrument spaces.

    Each side's two instrument pmfs are realized as functions of a single
    variable u ranging over the common refinement of their cumulative
    breakpoints; the per-setting outcome tables compose with the
    inverse-CDF cell map.  The tuple is (l1, l2, u1-cell, u2-cell) and
    context expectations match the original model exactly.
    """
    ax, ax2 = model.alice
    by, by2 = model.bob
    cells_a = refine_breakpoints(ax.instrument, ax2.instrument)
    cells_b = refine_breakpoints(by.instrument, by2.instrument)
    map_ax = _cell_atom_map(ax.instrument, cells_a)
    map_ax2 = _cell_atom_map(ax2.instrument, cells_a)
    map_by = _cell_atom_map(by.instrument, cells_b)
    map_by2 = _cell_atom_map(by2.instrument, cells_b)

    labels_a = [_cell_label(cell) for cell in cells_a]
    labels_b = [_cell_label(cell) for cell in cells_b]
    scale_a, lengths_a = integer_scale([hi - lo for lo, hi in cells_a])
    scale_b, lengths_b = integer_scale([hi - lo for lo, hi in cells_b])
    src_scale, src = model.source.integer_weights()
    scale = src_scale * scale_a * scale_b
    cells_b_weighted = list(zip(labels_b, lengths_b))

    atoms = []
    for (l1, l2), w_src in src:
        for u1, wa in zip(labels_a, lengths_a):
            w = w_src * wa
            for u2, wb in cells_b_weighted:
                atoms.append(((l1, l2, u1, u2), Fraction(w * wb, scale)))
    lambda_pmf = Pmf(atoms)

    def composed(setting, cell_map, cells, labels, source_labels) -> OutcomeTable:
        cell_atoms = list(zip(labels, [cell_map[cell] for cell in cells]))
        entries = {}
        for l_src in source_labels:
            for label, atom in cell_atoms:
                entries[(l_src, label)] = setting.outcomes.value(l_src, atom)
        return OutcomeTable(entries, ternary=setting.outcomes.ternary)

    first = model.source_first_labels()
    second = model.source_second_labels()
    alice = (
        FlatSetting(ax.name, (0, 2), composed(ax, map_ax, cells_a, labels_a, first)),
        FlatSetting(ax2.name, (0, 2), composed(ax2, map_ax2, cells_a, labels_a, first)),
    )
    bob = (
        FlatSetting(by.name, (1, 3), composed(by, map_by, cells_b, labels_b, second)),
        FlatSetting(by2.name, (1, 3), composed(by2, map_by2, cells_b, labels_b, second)),
    )
    return FlatModel(lambda_pmf, alice, bob)


def bell_average(model: ContextualModel) -> AveragedModel:
    """Integrate out the instrument variables, per setting and source coordinate.

    The averaged outcome for Alice's setting a at source label l1 is
    sum over la of A_a(l1, la) p_a(la), the first moment of the setting's
    outcome channel at l1; likewise for Bob.  The averaged
    model's expectations equal the original's for every context, and
    every averaged value is bounded by 1 in absolute value.  Fractional
    outcome tables are welcome (averaging is linear), so the output
    drops any ternary flag.
    """

    def bars(side, settings) -> dict[str, dict[Label, Fraction]]:
        out: dict[str, dict[Label, Fraction]] = {}
        for setting in settings:
            scale, channel = outcome_channel(model, side, setting)
            out[setting.name] = {
                lab: sum((v * c for v, c in dist.items()), Fraction(0)) / scale
                for lab, dist in channel.items()
            }
        return out

    return AveragedModel(
        source=model.source,
        alice_settings=model.alice_settings,
        bob_settings=model.bob_settings,
        alice_bar=bars("alice", model.alice),
        bob_bar=bars("bob", model.bob),
    )
