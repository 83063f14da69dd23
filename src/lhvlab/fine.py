"""Joint-distribution feasibility for the four pairwise-measurable variables.

A behavior admits a single distribution over (A_x, A_x', B_y, B_y')
reproducing all four context marginals iff its single-variable marginals
are setting-independent and its quad satisfies every CHSH inequality.
This module checks both sides of that equivalence independently: an
exact rational linear program on one side, the inequality test on the
other.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .chsh import ChshCombination, _flip_sums
from .model import BehaviorTable, Context, ContextualModel, _OverScale, _cut, _excerpt, _scale_gcd, integer_scale
from .simplex import find_feasible
from . import flatten as _flatten

SIGNS = (-1, 1)

# The joint-feasibility LP over the 16 sign patterns of (A_x, A_x', B_y,
# B_y'): the unit total, then one row per (alice setting index, bob
# setting index, x, y), each a 0/1 indicator of the patterns that show
# x and y in that context.  Only the right-hand side depends on the
# behavior.
_PATTERNS = tuple(itertools.product(SIGNS, SIGNS, SIGNS, SIGNS))
_INCIDENCE = [[1] * 16] + [
    [int(t[ai] == x and t[2 + bi] == y) for t in _PATTERNS]
    for ai in range(2)
    for bi in range(2)
    for x in SIGNS
    for y in SIGNS
]
_INDEX = {pattern: k for k, pattern in enumerate(_PATTERNS)}


class InternalInconsistencyError(RuntimeError):
    """The LP and the inequality test disagreed; one of them is buggy."""


class JointDistribution16(_OverScale):
    """A pmf over the 16 sign patterns of (A_x, A_x', B_y, B_y').

    Nonnegativity and exact unit total are enforced on construction.
    Coordinates follow (alice_settings[0], alice_settings[1],
    bob_settings[0], bob_settings[1]).  The masses are stored as integer
    weights over one positive scale, reduced by their gcd as in the other
    exact types of :mod:`lhvlab.model`, whose base gives the slot-wise
    ``==``; :attr:`mass` and :meth:`prob` build the Fractions when read.
    """

    __slots__ = ("alice_settings", "bob_settings", "_scale", "_weights")

    def __init__(
        self,
        alice_settings: tuple[str, str],
        bob_settings: tuple[str, str],
        mass: Mapping[tuple[int, int, int, int], Fraction],
    ):
        extra = set(mass) - set(_PATTERNS)
        if extra:
            raise ValueError(f"mass on non-sign pattern {sorted(extra)[0]!r}")
        scale, weights = integer_scale([Fraction(mass.get(key, 0)).as_integer_ratio() for key in _PATTERNS])
        self._set(alice_settings, bob_settings, scale, weights)

    @classmethod
    def _from_integers(
        cls, alice_settings: tuple[str, str], bob_settings: tuple[str, str], scale: int, weights: list[int]
    ) -> "JointDistribution16":
        """The joint with mass ``weights[k] / scale`` on the k-th of the 16 patterns in product order."""
        joint = cls.__new__(cls)
        joint._set(alice_settings, bob_settings, scale, weights)
        return joint

    def _set(self, alice_settings, bob_settings, scale: int, weights: list[int]) -> None:
        g = _scale_gcd("joint distribution", scale, weights)
        if min(weights) < 0:
            raise ValueError("negative mass in joint distribution")
        total = sum(weights)
        if total != scale:
            raise ValueError(f"joint distribution mass sums to {Fraction(total, scale)}, not 1")
        self.alice_settings = alice_settings
        self.bob_settings = bob_settings
        self._scale = scale // g
        self._weights = [w // g for w in weights]

    @property
    def mass(self) -> dict[tuple[int, int, int, int], Fraction]:
        scale = self._scale
        return {key: Fraction(w, scale) for key, w in zip(_PATTERNS, self._weights)}

    def prob(self, pattern: tuple[int, int, int, int]) -> Fraction:
        return Fraction(self._weights[_INDEX[pattern]], self._scale)


def marginalize_context(
    joint: JointDistribution16, context: Context
) -> dict[tuple[int, int], Fraction]:
    """Sum out the two coordinates not selected by (alice setting, bob setting)."""
    ai = joint.alice_settings.index(context[0])
    bi = joint.bob_settings.index(context[1])
    out = {(x, y): 0 for x in SIGNS for y in SIGNS}
    for pattern, w in zip(_PATTERNS, joint._weights):
        out[pattern[ai], pattern[2 + bi]] += w
    scale = joint._scale
    return {cell: Fraction(w, scale) for cell, w in out.items()}


@dataclass
class NoSignallingReport:
    """Outcome marginals of each setting under both partner settings.

    ``alice[a][b]`` is Alice's outcome marginal in context (a, b);
    equal-across-b marginals (and the mirror for Bob) is the
    no-signalling property.  It holds only when every deviation is
    exactly zero.
    """

    alice: dict[str, dict[str, dict[int, Fraction]]]
    bob: dict[str, dict[str, dict[int, Fraction]]]
    per_setting_deviation: dict[tuple[str, str], Fraction]
    max_deviation: Fraction

    @property
    def holds(self) -> bool:
        return self.max_deviation == 0


def _integer_marginals(behavior: BehaviorTable) -> list[dict[str, dict[str, dict[int, int]]]]:
    """Each side's outcome marginals as integer weights over the table's scale.

    ``sides[coord][own setting][other setting][v]``, both setting keys in
    the order of the contexts.
    """
    sides = []
    for coord in (0, 1):
        marginals: dict[str, dict[str, dict[int, int]]] = {}
        for ctx in behavior.contexts():
            marginals.setdefault(ctx[coord], {})[ctx[1 - coord]] = behavior.integer_marginal(ctx, coord)
        sides.append(marginals)
    return sides


def _signals(behavior: BehaviorTable) -> bool:
    """True when some outcome marginal depends on the other side's setting.

    The whole table shares one scale, so equal marginals are equal integers.
    """
    for marginals in _integer_marginals(behavior):
        for by_other in marginals.values():
            m0, m1 = by_other.values()
            if m0 != m1:
                return True
    return False


def check_no_signalling(behavior: BehaviorTable) -> NoSignallingReport:
    """Compare each side's outcome marginal across the other side's settings.

    The comparison is exact, with no tolerance: a table whose
    probabilities went through floating point and lost their equalities
    does not pass.  The marginals are integer sums over the table's
    scale; each reported number is one Fraction.
    """
    if behavior.ternary:
        raise ValueError(
            "no-signalling check expects a binary behavior; reduce ternary input first"
        )
    scale = behavior.scale
    sides: list[dict[str, dict[str, dict[int, Fraction]]]] = []
    per_setting: dict[tuple[str, str], Fraction] = {}
    for side, marginals in zip(("alice", "bob"), _integer_marginals(behavior)):
        for name, by_other in marginals.items():
            m0, m1 = by_other.values()
            per_setting[(side, name)] = Fraction(max(abs(m0[v] - m1[v]) for v in behavior.outcomes), scale)
        sides.append({
            own: {other: {v: Fraction(w, scale) for v, w in m.items()} for other, m in by_other.items()}
            for own, by_other in marginals.items()
        })
    max_dev = max(per_setting.values())
    return NoSignallingReport(*sides, per_setting, max_dev)


@dataclass
class JointSearchResult:
    """Outcome of the joint-distribution feasibility problem."""

    feasible: bool
    joint: Optional[JointDistribution16] = None
    certificate: Optional[ChshCombination] = None


def find_joint(behavior: BehaviorTable) -> JointSearchResult:
    """Search for a joint distribution reproducing all four context marginals.

    Solved as an exact rational feasibility problem over the 16 sign
    patterns: nonnegativity, unit total, and one equality per context
    and outcome pair.  When infeasible, the violated CHSH combination is
    attached as a certificate; by Fine's theorem one must exist for an
    exactly no-signalling behavior, and we raise if that self-check ever
    fails.
    """
    if behavior.ternary:
        raise ValueError("joint feasibility expects a binary behavior; reduce ternary input first")
    if not behavior.is_normalized():
        raise ValueError("behavior table is not normalized")
    if _signals(behavior):
        report = check_no_signalling(behavior)
        raise ValueError(
            "behavior signals (marginal deviation "
            f"{_cut(report.max_deviation)}); no joint distribution can match its marginals"
        )

    # The LP is posed on the table's integer weights: the unit total's
    # right-hand side is the scale, each context row's is its cell weight,
    # so its solution is scale times the joint.  This is the Fraction
    # system with b multiplied by scale > 0, and it pivots the same way.
    # The tableau's coefficient columns do not involve b, so the reduced
    # costs, and with them each entering column, are unchanged.  Every
    # rhs entry is multiplied by the same positive number, so the ratio
    # test orders its rows the same, ties included.  Under Bland's rule
    # the pivots are therefore the same, and so is the vertex.
    scale, cells = behavior.integer_cells()
    rhs = [scale] + [cells[ctx].get((x, y), 0) for ctx in behavior.contexts() for x in SIGNS for y in SIGNS]
    solution = find_feasible(_INCIDENCE, rhs)
    if solution is not None:
        # solution[k] == joint mass * scale; bring it over one denominator
        lcd, weights = integer_scale([x.as_integer_ratio() for x in solution])
        joint = JointDistribution16._from_integers(
            behavior.alice_settings, behavior.bob_settings, scale * lcd, weights
        )
        return JointSearchResult(feasible=True, joint=joint)

    # the certificate is chsh_values' first combination with the largest |S|
    scale, corr = _integer_correlations(behavior)
    sums = _flip_sums(corr)
    f = max(range(4), key=lambda k: abs(sums[k]))
    if abs(sums[f]) <= 2 * scale:
        raise InternalInconsistencyError(
            "LP found no joint yet every CHSH combination holds; "
            f"max |S| = {Fraction(abs(sums[f]), scale)}"
        )
    certificate = ChshCombination(behavior.contexts()[f], 1, Fraction(sums[f], scale))
    return JointSearchResult(feasible=False, certificate=certificate)


def _integer_correlations(behavior: BehaviorTable) -> tuple[int, list[int]]:
    """``(scale, [E * scale per context])`` from the table's integer cells; each E must lie in [-1, 1]."""
    scale, cells = behavior.integer_cells()
    contexts = behavior.contexts()
    corr = [sum(x * y * w for (x, y), w in cells[ctx].items()) for ctx in contexts]
    for ctx, c in zip(contexts, corr):
        if abs(c) > scale:
            raise ValueError(f"correlation {_cut(Fraction(c, scale))} at context {_excerpt(ctx)} outside [-1, 1]")
    return scale, corr


def fine_criterion(behavior: BehaviorTable) -> bool:
    """True iff no-signalling holds exactly and all 8 CHSH inequalities hold.

    This is the closed-form side of the equivalence that
    :func:`find_joint` decides by linear programming.
    """
    if behavior.ternary:
        raise ValueError("criterion applies to binary behaviors; reduce ternary input first")
    if _signals(behavior):
        return False
    # over the table's scale, |S| <= 2 is an integer comparison
    scale, corr = _integer_correlations(behavior)
    return all(abs(s) <= 2 * scale for s in _flip_sums(corr))


def coupling_joint(model: ContextualModel) -> JointDistribution16:
    """Push a binary model forward onto (A_x, A_x', B_y, B_y') jointly.

    Evaluates all four settings on every point of the flattened product
    space; the resulting distribution marginalizes to the model's
    behavior in every context.  Requires strictly +/-1 outcomes (apply
    the coin reduction first if there are zeros).
    """
    flat = _flatten.product_flatten(model)
    scale, atoms = flat.lambda_pmf.integer_weights()
    # each setting's integer column over its table's scale, one entry per support atom
    labels = _flatten.label_columns([lam for lam, _w in atoms], flat.alice + flat.bob)
    columns = [_flatten._column(setting, labels) for setting in flat.alice + flat.bob]
    weights = dict.fromkeys(_PATTERNS, 0)
    for k, (_lam, w) in enumerate(atoms):
        for vscale, column in columns:
            if abs(column[k]) != vscale:
                raise ValueError(f"outcome {_cut(Fraction(column[k], vscale))} is not +/-1; coupling needs a binary model")
        weights[tuple(column[k] // vscale for vscale, column in columns)] += w
    return JointDistribution16._from_integers(flat.alice_settings, flat.bob_settings, scale, list(weights.values()))
