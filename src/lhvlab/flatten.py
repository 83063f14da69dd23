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

Both flat models are one tuple product, :func:`_tuple_product`, of the
source pairs with a list of pmfs: the four instruments, or the two shared
cell pmfs of :func:`_quantile_model`, whose cells are cut on integer
cumulative points.  Weights stay integers (:meth:`Pmf.from_integers`), and
:meth:`FlatModel.quad` sums each context over integer columns, each the
table's stored numerators read at the support tuples' keys, one lookup
each, the keys zipped from :func:`label_columns`, one label column per
tuple coordinate shared by the settings that read it; an entry no tuple
reads costs nothing and a zero-mass atom's key need not be listed.
That evaluation walks the flat pmf only and never
calls the contextual kernel, ``model.setting_rows``, that it checks.  The
averaged model holds that kernel's first moments as integer
:class:`~lhvlab.model.Bar` values (``model.side_bars``), and each
:meth:`AveragedModel.quad` context is one integer sum.

:func:`product_size`, and :func:`_quantile_size` on a quantile model,
count the atoms a flattening would build, without building it, so a
caller can refuse a size first.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from operator import itemgetter, mul, sub
from typing import Iterable, Sequence

from .model import (
    Bar,
    ContextualModel,
    CorrelationQuad,
    Label,
    OutcomeTable,
    Pmf,
    Setting,
    SettingPairs,
    _excerpt,
    _factorized_quad,
    side_bars,
    source_labels,
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
        labels = label_columns(lams, self.alice + self.bob)
        # Alice's columns carry the pmf weights and scale, so a context is one dot product
        alice = {}
        for name in self.alice_settings:
            a_scale, a = _column(self.alice_setting(name), labels)
            alice[name] = a_scale * scale, list(map(mul, a, weights))
        bob = {name: _column(self.bob_setting(name), labels) for name in self.bob_settings}
        values = {}
        for ctx in self.contexts():
            aw_scale, aw = alice[ctx[0]]
            b_scale, b = bob[ctx[1]]
            values[ctx] = Fraction(sum(map(mul, aw, b)), aw_scale * b_scale)
        return CorrelationQuad(self.alice_settings, self.bob_settings, values)


def label_columns(lams: Sequence[tuple], settings: Iterable[FlatSetting]) -> dict[int, list[Label]]:
    """For each tuple coordinate that ``settings`` read, the label at that coordinate of every tuple in ``lams``."""
    return {c: list(map(itemgetter(c), lams)) for c in dict.fromkeys(c for s in settings for c in s.coords)}


def _column(setting: FlatSetting, labels: dict[int, list[Label]]) -> tuple[int, list[int]]:
    """A setting's table value at each tuple, as integers over the table's scale; ``labels`` are :func:`label_columns`."""
    table = setting.outcomes
    i, j = setting.coords
    try:
        return table.scale, list(map(table.numerators.__getitem__, zip(labels[i], labels[j])))
    except KeyError as exc:
        # the map stops at the first tuple whose key is missing; numerator() names it
        table.numerator(*exc.args[0])
        raise


@dataclass(frozen=True)
class AveragedModel(SettingPairs):
    """A model with the instrument variables integrated out.

    Each side holds one :class:`~lhvlab.model.Bar` per setting: at each
    source label of the side's coordinate, the expectation of the
    setting's outcome given that label, as an integer over the bar's
    scale.  ``alice_bar[name]`` and ``bob_bar[name]`` read them as
    ``{label: Fraction}``; every value is bounded by 1 in absolute value.
    """

    source: Pmf
    alice: tuple[Bar, Bar]
    bob: tuple[Bar, Bar]

    @property
    def alice_bar(self) -> dict[str, dict[Label, Fraction]]:
        return _bar_fractions(self.alice)

    @property
    def bob_bar(self) -> dict[str, dict[Label, Fraction]]:
        return _bar_fractions(self.bob)

    def quad(self) -> CorrelationQuad:
        """All four expectations, each one integer dot product over the source weights."""
        return _factorized_quad(self.source, self.alice, self.bob)


def _bar_fractions(bars: Sequence[Bar]) -> dict[str, dict[Label, Fraction]]:
    return {name: {lab: Fraction(v, scale) for lab, v in values.items()} for name, scale, values in bars}


def product_size(model: ContextualModel) -> int:
    """The number of atoms :func:`product_flatten` builds: the source support times the four instrument supports."""
    supports = [model.source] + [s.instrument for s in model.alice + model.bob]
    return math.prod(len(pmf.integer_weights()[1]) for pmf in supports)


def _quantile_size(quantile: ContextualModel) -> int:
    """The number of atoms :func:`_quantile_product` builds: the source support times each side's cell count."""
    cells = len(quantile.alice[0].instrument) * len(quantile.bob[0].instrument)
    return len(quantile.source.integer_weights()[1]) * cells


def product_flatten(model: ContextualModel) -> FlatModel:
    """Rebuild a contextual model on the product of all its hidden-variable spaces.

    The tuple is (l1, l2, la, la', lb, lb') with the product pmf; each
    setting reads its own source coordinate and its own instrument
    coordinate.  All four context expectations equal the original's
    exactly.  Each instrument must be a pmf (:func:`_require_pmfs`).
    """
    _require_pmfs(model.alice, model.bob)
    return _tuple_product(model, [s.instrument for s in model.alice + model.bob], (2, 3, 4, 5))


def _tuple_product(model: ContextualModel, spaces: Sequence[Pmf], coords: Sequence[int]) -> FlatModel:
    """The flat model on the source pairs times ``spaces``, one tuple per support atom.

    A tuple is (l1, l2) followed by one label per space, in source-major
    then ``spaces`` order, and weighs the product of its atoms' weights
    over the product of the scales.  Alice's settings, then Bob's, read
    their own source coordinate and the tuple coordinate at ``coords``.
    """
    src_scale, src = model.source.integer_weights()
    # the spaces' product is the same for every source pair, so it is built once
    scale, rest = src_scale, [((), 1)]
    for pmf in spaces:
        space_scale, space = pmf.integer_weights()
        scale *= space_scale
        rest = [(lam + (lab,), w * wl) for lam, w in rest for lab, wl in space]
    # unpacking each source label checks that it is a pair; the tuples are
    # distinct, as the source pairs and each space's labels are
    atoms = {pair + lam: w_src * w for (l1, l2), w_src in src for pair in [(l1, l2)] for lam, w in rest}
    lambda_pmf = Pmf.from_integers(scale, atoms)
    # the k-th setting, Alice's two then Bob's, reads source coordinate k // 2
    flat = [FlatSetting(s.name, (k // 2, c), s.outcomes) for k, (s, c) in enumerate(zip(model.alice + model.bob, coords))]
    return FlatModel(lambda_pmf, tuple(flat[:2]), tuple(flat[2:]))


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


def _quantile_model(model: ContextualModel) -> ContextualModel:
    """The model with each side's two instruments replaced by one shared pmf of quantile cells.

    This is the one place the cells are cut.  A side's cells are those of
    :func:`_quantile_cells` on its two instruments, which must be pmfs
    (:func:`_require_pmfs`), each cell labelled "[lo,hi)"
    and weighing its width; each setting's table reads, at a cell, the
    input table's numerator at the instrument atom that holds the cell,
    over the input table's scale.  So every setting's outcome law given
    its source label is the input's, and the four context expectations
    are the input's exactly.
    :func:`_quantile_product` takes the product over this model, and
    ``montecarlo.DagModel`` samples it.
    """

    def side(settings: Sequence[Setting], labels: Sequence[Label]) -> tuple[Setting, Setting]:
        _require_pmfs(settings)
        scale, grid, cell_atoms = _quantile_cells(settings[0].instrument, settings[1].instrument)
        points = [_point_text(p, scale) for p in grid]
        cells = [f"[{lo},{hi})" for lo, hi in zip(points, points[1:])]
        pmf = Pmf.from_integers(scale, dict(zip(cells, map(sub, grid[1:], grid))))
        keys = list(product(labels, cells))
        return tuple(
            Setting(s.name, pmf, OutcomeTable.from_integers(
                s.outcomes.scale, dict(zip(keys, _cell_values(s.outcomes, labels, atoms))), s.outcomes.ternary
            ))
            for s, atoms in zip(settings, cell_atoms)
        )

    alice = side(model.alice, source_labels(model.source, 0))
    bob = side(model.bob, source_labels(model.source, 1))
    return ContextualModel(model.source, alice, bob)


def _point_text(p: int, scale: int) -> str:
    """``str(Fraction(p, scale))``, reduced from the integers."""
    g = math.gcd(p, scale)
    return str(p // g) if g == scale else f"{p // g}/{scale // g}"


def _cell_values(table: OutcomeTable, labels: Sequence[Label], atoms: Sequence[Label]) -> list[int]:
    """The table's numerator at each (source label, cell atom), label-major; a missing key raises as :meth:`OutcomeTable.numerator`."""
    numerators = table.numerators
    try:
        return [numerators[lab, atom] for lab in labels for atom in atoms]
    except KeyError as exc:
        table.numerator(*exc.args[0])
        raise


def uniform_reduce(model: ContextualModel) -> FlatModel:
    """Flatten with one shared quantile variable per side instead of two instrument spaces.

    The tuple product over :func:`_quantile_model`: the tuple is
    (l1, l2, u1-cell, u2-cell) with the product pmf, and each setting reads
    its own source coordinate and its side's cell.  Context expectations
    match the original model exactly.
    """
    return _quantile_product(_quantile_model(model))


def _quantile_product(quantile: ContextualModel) -> FlatModel:
    """The tuple product over a :func:`_quantile_model`'s source and its two shared cell pmfs."""
    return _tuple_product(quantile, [quantile.alice[0].instrument, quantile.bob[0].instrument], (2, 2, 3, 3))


def bell_average(model: ContextualModel) -> AveragedModel:
    """Integrate out the instrument variables, per setting and source coordinate.

    The averaged outcome for Alice's setting a at source label l1 is
    sum over la of A_a(l1, la) p_a(la), the first moment that
    :func:`~lhvlab.model.setting_rows` gives at l1, as the bars of
    :func:`~lhvlab.model.side_bars`; likewise for Bob.
    The averaged model's expectations equal the original's for every
    context, and every averaged value is bounded by 1 in absolute value.
    Fractional outcome tables are welcome (averaging is linear), so the
    output drops any ternary flag.  Each instrument must be a pmf
    (:func:`_require_pmfs`).
    """
    _require_pmfs(model.alice, model.bob)
    return AveragedModel(model.source, side_bars(model, "alice"), side_bars(model, "bob"))
