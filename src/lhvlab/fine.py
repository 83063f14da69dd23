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

from .chsh import ChshCombination, chsh_values
from .model import BehaviorTable, Context, ContextualModel
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


class InternalInconsistencyError(RuntimeError):
    """The LP and the inequality test disagreed; one of them is buggy."""


class JointDistribution16:
    """A pmf over the 16 sign patterns of (A_x, A_x', B_y, B_y').

    Nonnegativity and exact unit total are enforced on construction.
    Coordinates follow (alice_settings[0], alice_settings[1],
    bob_settings[0], bob_settings[1]).
    """

    def __init__(
        self,
        alice_settings: tuple[str, str],
        bob_settings: tuple[str, str],
        mass: Mapping[tuple[int, int, int, int], Fraction],
    ):
        self.alice_settings = alice_settings
        self.bob_settings = bob_settings
        full: dict[tuple[int, int, int, int], Fraction] = {}
        for key in itertools.product(SIGNS, SIGNS, SIGNS, SIGNS):
            full[key] = Fraction(mass.get(key, Fraction(0)))
        extra = set(mass) - set(full)
        if extra:
            raise ValueError(f"mass on non-sign pattern {sorted(extra)[0]!r}")
        if any(v < 0 for v in full.values()):
            raise ValueError("negative mass in joint distribution")
        total = sum(full.values(), Fraction(0))
        if total != 1:
            raise ValueError(f"joint distribution mass sums to {total}, not 1")
        self.mass = full

    def prob(self, pattern: tuple[int, int, int, int]) -> Fraction:
        return self.mass[pattern]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, JointDistribution16)
            and self.alice_settings == other.alice_settings
            and self.bob_settings == other.bob_settings
            and self.mass == other.mass
        )


def marginalize_context(
    joint: JointDistribution16, context: Context
) -> dict[tuple[int, int], Fraction]:
    """Sum out the two coordinates not selected by (alice setting, bob setting)."""
    ai = joint.alice_settings.index(context[0])
    bi = joint.bob_settings.index(context[1])
    out: dict[tuple[int, int], Fraction] = {
        (x, y): Fraction(0) for x in SIGNS for y in SIGNS
    }
    for pattern, p in joint.mass.items():
        out[(pattern[ai], pattern[2 + bi])] += p
    return out


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


def check_no_signalling(behavior: BehaviorTable) -> NoSignallingReport:
    """Compare each side's outcome marginal across the other side's settings.

    The comparison is exact equality of Fractions, with no tolerance: a
    table whose probabilities went through floating point and lost their
    equalities does not pass.
    """
    if behavior.ternary:
        raise ValueError(
            "no-signalling check expects a binary behavior; reduce ternary input first"
        )
    sides: list[dict[str, dict[str, dict[int, Fraction]]]] = []
    per_setting: dict[tuple[str, str], Fraction] = {}
    settings = (behavior.alice_settings, behavior.bob_settings)
    for coord, side in enumerate(("alice", "bob")):
        # marginals[own setting][other setting], both in the order of the settings
        marginals: dict[str, dict[str, dict[int, Fraction]]] = {}
        for ctx in behavior.contexts():
            marginals.setdefault(ctx[coord], {})[ctx[1 - coord]] = behavior.marginal(ctx, coord)
        other0, other1 = settings[1 - coord]
        for name, by_other in marginals.items():
            per_setting[(side, name)] = max(
                abs(by_other[other0][v] - by_other[other1][v]) for v in behavior.outcomes
            )
        sides.append(marginals)
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
    report = check_no_signalling(behavior)
    if not report.holds:
        raise ValueError(
            "behavior signals (marginal deviation "
            f"{report.max_deviation}); no joint distribution can match its marginals"
        )

    rhs: list[Fraction] = [Fraction(1)]
    for a in behavior.alice_settings:
        for b in behavior.bob_settings:
            for x in SIGNS:
                for y in SIGNS:
                    rhs.append(behavior.prob((a, b), x, y))

    solution = find_feasible(_INCIDENCE, rhs)
    if solution is not None:
        joint = JointDistribution16(
            behavior.alice_settings,
            behavior.bob_settings,
            dict(zip(_PATTERNS, solution)),
        )
        return JointSearchResult(feasible=True, joint=joint)

    report = chsh_values(behavior.quad())
    worst = report.worst()
    if abs(worst.value) <= 2:
        raise InternalInconsistencyError(
            "LP found no joint yet every CHSH combination holds; "
            f"max |S| = {report.max_abs}"
        )
    return JointSearchResult(feasible=False, certificate=worst)


def fine_criterion(behavior: BehaviorTable) -> bool:
    """True iff no-signalling holds exactly and all 8 CHSH inequalities hold.

    This is the closed-form side of the equivalence that
    :func:`find_joint` decides by linear programming.
    """
    if behavior.ternary:
        raise ValueError("criterion applies to binary behaviors; reduce ternary input first")
    if not check_no_signalling(behavior).holds:
        return False
    return chsh_values(behavior.quad()).satisfied


def coupling_joint(model: ContextualModel) -> JointDistribution16:
    """Push a binary model forward onto (A_x, A_x', B_y, B_y') jointly.

    Evaluates all four settings on every point of the flattened product
    space; the resulting distribution marginalizes to the model's
    behavior in every context.  Requires strictly +/-1 outcomes (apply
    the coin reduction first if there are zeros).
    """
    flat = _flatten.product_flatten(model)
    mass: dict[tuple[int, int, int, int], Fraction] = {}
    for lam, p in flat.lambda_pmf.support():
        vals = []
        for setting in flat.alice + flat.bob:
            v = setting.evaluate(lam)
            if v not in (Fraction(-1), Fraction(1)):
                raise ValueError(f"outcome {v} is not +/-1; coupling needs a binary model")
            vals.append(int(v))
        key = (vals[0], vals[1], vals[2], vals[3])
        mass[key] = mass.get(key, Fraction(0)) + p
    return JointDistribution16(flat.alice_settings, flat.bob_settings, mass)
