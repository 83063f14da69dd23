"""The eight one-sided CHSH combinations, post-selection, and the zero-to-coin reduction."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .model import (
    BehaviorTable,
    Context,
    ContextualModel,
    CorrelationQuad,
    OutcomeTable,
    Pmf,
    Setting,
    _cut,
    _excerpt,
)

Value = Union[Fraction, float]


@dataclass(frozen=True)
class ChshCombination:
    """One signed combination: three terms share a sign, one carries the opposite.

    ``flipped`` names the context whose term has the minority sign and
    ``sign`` is the sign of the three majority terms.
    """

    flipped: Context
    sign: int
    value: Value


@dataclass
class ChshReport:
    """All eight one-sided combinations of a correlation quad."""

    quad: CorrelationQuad
    combinations: list[ChshCombination]

    @property
    def max_abs(self) -> Value:
        """The largest |value|: the largest value or the negated least, whichever is greater."""
        values = [c.value for c in self.combinations]
        return max(max(values), -min(values))

    @property
    def satisfied(self) -> bool:
        return self.max_abs <= 2


def _flip_sums(values: Sequence[Value]) -> list[Value]:
    """T - 2 v_f for each value v_f, T the sum of all four: the CHSH rule.

    The eight one-sided combinations of a quad are +/- these four sums,
    so the quad meets CHSH iff each is at most 2 in absolute value.  The
    arithmetic stays in the values' own number type.
    """
    total = sum(values)
    return [total - 2 * v for v in values]


def chsh_values(quad: CorrelationQuad) -> ChshReport:
    """Evaluate all 8 one-sided CHSH combinations of a quad exactly.

    For each choice of the single opposite-sign term and each overall
    sign, the combination is sign times the flipped context's
    :func:`_flip_sums` entry.  Arithmetic stays in the quad's own number
    type (Fraction in, Fraction out).
    """
    contexts = quad.contexts()
    values = [quad.values[ctx] for ctx in contexts]
    for ctx, v in zip(contexts, values):
        if not -1 <= v <= 1:
            raise ValueError(f"correlation {_cut(v)} at context {_excerpt(ctx)} outside [-1, 1]")
    combos = []
    for flipped, base in zip(contexts, _flip_sums(values)):
        combos += ChshCombination(flipped, 1, base), ChshCombination(flipped, -1, -base)
    return ChshReport(quad, combos)


@dataclass
class PostSelectionReport:
    """Raw versus detected-only correlations of a ternary behavior.

    ``conditional[ctx]`` is E(XY | X != 0, Y != 0), or None when the
    coincidence probability for that context is zero (an undefined
    correlation is reported as absent, never as a number).
    """

    raw_quad: CorrelationQuad
    conditional: dict[Context, Optional[Fraction]]
    coincidence_rate: dict[Context, Fraction]
    alice_detect: dict[Context, Fraction]
    bob_detect: dict[Context, Fraction]

    def conditional_quad(self) -> CorrelationQuad:
        """The post-selected quad; raises if any context is undefined."""
        for ctx, v in self.conditional.items():
            if v is None:
                raise ValueError(f"post-selected correlation undefined in context {ctx}")
        return CorrelationQuad(
            self.raw_quad.alice_settings,
            self.raw_quad.bob_settings,
            dict(self.conditional),
        )


def postselected_correlations(behavior: BehaviorTable) -> PostSelectionReport:
    """Condition each context's correlation on both outcomes being nonzero.

    This is what an experimenter does when discarding no-detection
    trials.  The conditioned values are free to leave the CHSH polytope
    even though the raw ones cannot.  Every sum runs over the table's
    integer weights, and each reported number is one Fraction.
    """
    if not behavior.ternary:
        raise ValueError("post-selection needs a ternary behavior (no zero outcomes to discard)")
    raw: dict[Context, Fraction] = {}
    conditional: dict[Context, Optional[Fraction]] = {}
    coincidence: dict[Context, Fraction] = {}
    alice_detect: dict[Context, Fraction] = {}
    bob_detect: dict[Context, Fraction] = {}
    if not behavior.is_normalized():
        raise ValueError("behavior table is not normalized")
    scale, cells = behavior.integer_cells()
    for ctx in behavior.contexts():
        corr = num = den = a_det = b_det = 0
        for (x, y), w in cells[ctx].items():
            xyw = x * y * w
            corr += xyw
            if x != 0:
                a_det += w
            if y != 0:
                b_det += w
                if x != 0:
                    den += w
                    num += xyw
        raw[ctx] = Fraction(corr, scale)
        coincidence[ctx] = Fraction(den, scale)
        alice_detect[ctx] = Fraction(a_det, scale)
        bob_detect[ctx] = Fraction(b_det, scale)
        conditional[ctx] = Fraction(num, den) if den > 0 else None
    return PostSelectionReport(
        raw_quad=CorrelationQuad(behavior.alice_settings, behavior.bob_settings, raw),
        conditional=conditional,
        coincidence_rate=coincidence,
        alice_detect=alice_detect,
        bob_detect=bob_detect,
    )


def _coin_extend(setting: Setting) -> Setting:
    """Product the instrument space with a fair coin that resolves zero outcomes."""
    scale, weights = setting.instrument.integer_atoms()
    atoms = [((lab, face), w) for lab, w in weights.items() for face in ("H", "T")]
    table = setting.outcomes
    numerators = {}
    for (src, lab), n in table.numerators.items():
        numerators[(src, (lab, "H"))] = n or table.scale
        numerators[(src, (lab, "T"))] = n or -table.scale
    return Setting(setting.name, Pmf.from_integers(2 * scale, atoms), OutcomeTable.from_integers(table.scale, numerators))


def zero_to_coin(model: ContextualModel) -> ContextualModel:
    """Replace every zero outcome by an independent fair coin.

    Each setting whose table contains a 0 gets its instrument space
    extended by a coin component; the 0 entries split into +1/-1 halves.
    A zero outcome contributes nothing to any product, so the returned
    binary model has exactly the same four expectations as the input.
    Settings without zeros are kept as they are (minus the ternary flag).
    """
    for side_name, side in (("alice", model.alice), ("bob", model.bob)):
        for setting in side:
            bad = setting.outcomes.first_non_ternary()
            if bad is not None:
                raise ValueError(
                    f"{side_name} setting {_excerpt(setting.name)} has non-ternary outcome {_cut(bad)}; "
                    "the coin reduction applies to outcomes in {-1, 0, +1}"
                )

    def convert(setting: Setting) -> Setting:
        if setting.outcomes.has_zero():
            return _coin_extend(setting)
        table = setting.outcomes
        if table.ternary:
            return Setting(setting.name, setting.instrument, OutcomeTable.from_integers(table.scale, table.numerators))
        return setting

    return ContextualModel(
        source=model.source,
        alice=(convert(model.alice[0]), convert(model.alice[1])),
        bob=(convert(model.bob[0]), convert(model.bob[1])),
    )
