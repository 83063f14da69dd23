"""Constructions that rewrite a contextual model as an ordinary product-space model.

Three routes, all preserving the four context expectations exactly:

* :func:`product_flatten` - one tuple space carrying every hidden variable
  at once, with a single setting-independent pmf;
* :func:`uniform_reduce` - replaces each side's two instrument
  distributions by one shared discrete uniform-like variable via
  inverse-CDF cells, the tuple product over :func:`_quantile_model`;
* :func:`bell_average` - integrates the instrument variables out,
  leaving per-source-label conditional expectations.

Equality of expectations is exact rational equality, checkable with ==.

All three are built and evaluated in integers, with a ``Fraction`` made
only where a mass, cell bound or bar is read: the builders hand integer
weights to :meth:`Pmf.from_integers`, uniform cells are cut on integer
cumulative points, each bar and each :meth:`AveragedModel.quad` context is
one integer sum, and :meth:`FlatModel.quad` sums each context over integer
columns of table values at the flat pmf's support tuples.  A column is
the table's stored numerators, over its one scale, read at each support
tuple's key, one lookup each, so an entry no tuple reads costs nothing
and a zero-mass atom's key need not be listed.  That evaluation walks
the flat pmf only; it never calls the contextual kernel,
``model.setting_rows``, that it is used to check.  The bars themselves are that kernel's
per-label first moments.

:func:`product_size` and :func:`uniform_size` count the atoms a flattening
would build, without building it, so a caller can refuse a size first.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import itemgetter, mul
from typing import Mapping, Sequence

from .model import (
    ContextualModel,
    CorrelationQuad,
    Label,
    OutcomeTable,
    Pmf,
    Setting,
    SettingPairs,
    TwoByTwo,
    _excerpt,
    _factorized_quad,
    integer_scale,
    setting_rows,
    side_labels,
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
    """A setting's table value at each tuple, as integers over the table's scale."""
    table = setting.outcomes
    try:
        return table.scale, list(map(table.numerators.__getitem__, map(itemgetter(*setting.coords), lams)))
    except KeyError as exc:
        # the map stops at the first tuple whose key is missing; numerator() names it
        table.numerator(*exc.args[0])
        raise


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

    def quad(self) -> CorrelationQuad:
        """All four expectations, each one integer dot product over the source weights."""
        alice = [_scaled(name, self.alice_bar[name]) for name in self.alice_settings]
        bob = [_scaled(name, self.bob_bar[name]) for name in self.bob_settings]
        return CorrelationQuad(self.alice_settings, self.bob_settings, _factorized_quad(self.source, alice, bob))


def _scaled(name: str, bar: Mapping[Label, Fraction]) -> tuple[str, int, dict[Label, int]]:
    """A named bar's values as integers over the lcm of their denominators."""
    scale, ints = integer_scale([v.as_integer_ratio() for v in bar.values()])
    return name, scale, dict(zip(bar, ints))


def product_size(model: ContextualModel) -> int:
    """The number of atoms :func:`product_flatten` builds: the source support times the four instrument supports."""
    supports = [model.source] + [s.instrument for s in model.alice + model.bob]
    return math.prod(len(pmf.integer_weights()[1]) for pmf in supports)


def uniform_size(model: ContextualModel) -> int:
    """The number of atoms :func:`uniform_reduce` builds: the source support times each side's cell count."""
    cells_a, cells_b = (len(_side_cells(side)[1]) - 1 for side in (model.alice, model.bob))
    return len(model.source.integer_weights()[1]) * cells_a * cells_b


def product_flatten(model: ContextualModel) -> FlatModel:
    """Rebuild a contextual model on the product of all its hidden-variable spaces.

    The tuple is (l1, l2, la, la', lb, lb') with the product pmf; each
    setting reads its own source coordinate and its own instrument
    coordinate.  All four context expectations equal the original's
    exactly.  Each instrument must be a pmf (:func:`_require_pmfs`).
    """
    _require_pmfs(model.alice, model.bob)
    ax, ax2 = model.alice
    by, by2 = model.bob
    src_scale, src = model.source.integer_weights()
    (sa, inst_ax), (sa2, inst_ax2), (sb, inst_by), (sb2, inst_by2) = (
        s.instrument.integer_weights() for s in (ax, ax2, by, by2)
    )
    scale = src_scale * sa * sa2 * sb * sb2
    # one comprehension; each "for w in [...]" binds a partial product once per outer atom
    atoms = [
        ((l1, l2, la, la2, lb, lb2), w3 * wb2)
        for (l1, l2), w_src in src
        for la, wa in inst_ax
        for w1 in [w_src * wa]
        for la2, wa2 in inst_ax2
        for w2 in [w1 * wa2]
        for lb, wb in inst_by
        for w3 in [w2 * wb]
        for lb2, wb2 in inst_by2
    ]
    lambda_pmf = Pmf.from_integers(scale, atoms)
    alice = (
        FlatSetting(ax.name, (0, 2), ax.outcomes),
        FlatSetting(ax2.name, (0, 3), ax2.outcomes),
    )
    bob = (
        FlatSetting(by.name, (1, 4), by.outcomes),
        FlatSetting(by2.name, (1, 5), by2.outcomes),
    )
    return FlatModel(lambda_pmf, alice, bob)


def _quantile_cells(first: Pmf, second: Pmf) -> tuple[int, list[int], list[list[Label]]]:
    """Common inverse-CDF cells of two pmfs over the unit interval, in integers: ``(scale, grid, atoms)``.

    ``grid`` holds the sorted cut points, the union of both pmfs' cumulative
    masses over their common scale, 0 and ``scale`` included; the cells are
    the half-open intervals between neighbours.  ``atoms`` gives per pmf the
    label of the atom whose interval holds each cell.  Both pmfs must sum to 1
    with no negative mass.
    """
    (s1, w1), (s2, w2) = first.integer_weights(), second.integer_weights()
    scale = math.lcm(s1, s2)
    ends = [list(accumulate(w * (scale // s) for _lab, w in weights)) for s, weights in ((s1, w1), (s2, w2))]
    grid = sorted({0, scale}.union(*ends))
    # every atom end is a grid point, so a cell's atom is the first one ending after its lo
    atoms = [[weights[bisect_right(cum, lo)][0] for lo in grid[:-1]] for cum, weights in zip(ends, (w1, w2))]
    return scale, grid, atoms


def _require_pmfs(*sides: Sequence[Setting]) -> None:
    """A ``ValueError`` naming a side's two settings unless each of its instruments is a pmf.

    The product and uniform flattenings weigh each atom by instrument
    masses that its context may not read, and a bar is an expectation only
    over a pmf, so each instrument must sum to 1 with no negative mass.
    """
    for side in sides:
        for s in side:
            if not s.instrument.is_normalized():
                raise ValueError(
                    f"settings {_excerpt(side[0].name)} and {_excerpt(side[1].name)}: "
                    f"the instrument of {_excerpt(s.name)} does not sum to 1 with nonnegative masses"
                )


def _side_cells(side: Sequence[Setting]) -> tuple[int, list[int], list[list[Label]]]:
    """:func:`_quantile_cells` of one side's two instruments, which :func:`_require_pmfs` checks."""
    _require_pmfs(side)
    return _quantile_cells(side[0].instrument, side[1].instrument)


def _quantile_model(model: ContextualModel) -> ContextualModel:
    """The model with each side's two instruments replaced by one shared pmf of quantile cells.

    This is the one place the cells are cut.  A side's cells are those of
    :func:`_quantile_cells` on its two instruments, each labelled "[lo,hi)"
    and weighing its width; each setting's table reads, at a cell, the
    input table's numerator at the instrument atom that holds the cell,
    over the input table's scale.  So every setting's outcome law given
    its source label is the input's, and the four context expectations
    are the input's exactly.
    :func:`uniform_reduce` takes the product over this model, and
    ``montecarlo.DagModel`` samples it.
    """

    def side(settings: Sequence[Setting], labels: Sequence[Label]) -> tuple[Setting, Setting]:
        scale, grid, cell_atoms = _side_cells(settings)
        points = [str(Fraction(p, scale)) for p in grid]
        cells = [f"[{lo},{hi})" for lo, hi in zip(points, points[1:])]
        pmf = Pmf.from_integers(scale, [(cell, hi - lo) for cell, lo, hi in zip(cells, grid, grid[1:])])
        return tuple(
            Setting(s.name, pmf, OutcomeTable.from_integers(
                s.outcomes.scale,
                {(lab, cell): s.outcomes.numerator(lab, atom) for lab in labels for cell, atom in zip(cells, atoms)},
                s.outcomes.ternary,
            ))
            for s, atoms in zip(settings, cell_atoms)
        )

    alice = side(model.alice, model.source_first_labels())
    bob = side(model.bob, model.source_second_labels())
    return ContextualModel(model.source, alice, bob)


def uniform_reduce(model: ContextualModel) -> FlatModel:
    """Flatten with one shared quantile variable per side instead of two instrument spaces.

    The tuple product over :func:`_quantile_model`: the tuple is
    (l1, l2, u1-cell, u2-cell) with the product pmf, and each setting reads
    its own source coordinate and its side's cell.  Context expectations
    match the original model exactly.
    """
    quantile = _quantile_model(model)
    src_scale, src = quantile.source.integer_weights()
    scale_a, cells_a = quantile.alice[0].instrument.integer_weights()
    scale_b, cells_b = quantile.bob[0].instrument.integer_weights()
    atoms = [
        ((l1, l2, u1, u2), w * wb)
        for (l1, l2), w_src in src
        for u1, wa in cells_a
        for w in [w_src * wa]
        for u2, wb in cells_b
    ]
    lambda_pmf = Pmf.from_integers(src_scale * scale_a * scale_b, atoms)
    alice, bob = (
        tuple(FlatSetting(s.name, (coord, coord + 2), s.outcomes) for s in side)
        for coord, side in enumerate((quantile.alice, quantile.bob))
    )
    return FlatModel(lambda_pmf, alice, bob)


def bell_average(model: ContextualModel) -> AveragedModel:
    """Integrate out the instrument variables, per setting and source coordinate.

    The averaged outcome for Alice's setting a at source label l1 is
    sum over la of A_a(l1, la) p_a(la), the first moment that
    :func:`~lhvlab.model.setting_rows` gives at l1; likewise for Bob.
    The averaged model's expectations equal the original's for every
    context, and every averaged value is bounded by 1 in absolute value.
    Fractional outcome tables are welcome (averaging is linear), so the
    output drops any ternary flag.  Each instrument must be a pmf
    (:func:`_require_pmfs`).
    """
    _require_pmfs(model.alice, model.bob)

    def bars(side, settings) -> dict[str, dict[Label, Fraction]]:
        labels = side_labels(model, side)
        out: dict[str, dict[Label, Fraction]] = {}
        for setting in settings:
            scale, atoms = setting.instrument.integer_weights()
            vscale, rows = setting_rows(setting, labels, atoms)
            out[setting.name] = {lab: Fraction(first, scale * vscale) for lab, (_det, first) in rows.items()}
        return out

    return AveragedModel(
        source=model.source,
        alice_settings=model.alice_settings,
        bob_settings=model.bob_settings,
        alice_bar=bars("alice", model.alice),
        bob_bar=bars("bob", model.bob),
    )
