import itertools
import random
from fractions import Fraction

import pytest

from lhvlab import (
    AngleSet,
    BehaviorTable,
    JointDistribution16,
    behavior_from_model,
    check_no_signalling,
    chsh_values,
    counterexample_model,
    coupling_joint,
    find_joint,
    fine_criterion,
    marginalize_context,
    quantum_singlet_behavior,
    zero_to_coin,
)
from conftest import fine_lp_behaviors
from lhvlab.corpus import random_contextual_model, random_nosignalling_behavior

SIGNS = (-1, 1)
CONTEXTS = [("x", "y"), ("x", "y'"), ("x'", "y"), ("x'", "y'")]


def uniform_behavior():
    cell = {(x, y): Fraction(1, 4) for x in SIGNS for y in SIGNS}
    return BehaviorTable(("x", "x'"), ("y", "y'"), (-1, 1), {ctx: dict(cell) for ctx in CONTEXTS})


def roundtrips(joint, behavior) -> bool:
    return all(
        marginalize_context(joint, ctx)
        == {(x, y): behavior.prob(ctx, x, y) for x in SIGNS for y in SIGNS}
        for ctx in behavior.contexts()
    )


class TestJointDistribution16:
    def test_uniform_marginalizes_uniformly(self):
        uniform = JointDistribution16(
            ("x", "x'"),
            ("y", "y'"),
            {t: Fraction(1, 16) for t in itertools.product(SIGNS, repeat=4)},
        )
        for ctx in CONTEXTS:
            assert marginalize_context(uniform, ctx) == {
                (x, y): Fraction(1, 4) for x in SIGNS for y in SIGNS
            }

    def test_point_mass_marginalizes_to_point(self):
        point = JointDistribution16(
            ("x", "x'"), ("y", "y'"), {(1, 1, 1, 1): Fraction(1)}
        )
        for ctx in CONTEXTS:
            assert marginalize_context(point, ctx)[(1, 1)] == 1

    def test_construction_rejects_bad_mass(self):
        good = {t: Fraction(1, 16) for t in itertools.product(SIGNS, repeat=4)}
        with pytest.raises(ValueError, match="sums"):
            JointDistribution16(("x", "x'"), ("y", "y'"), dict(list(good.items())[:8]))
        bad = dict(good)
        bad[(1, 1, 1, 1)] = Fraction(-1, 16)
        bad[(1, 1, 1, -1)] = Fraction(3, 16)
        with pytest.raises(ValueError, match="negative"):
            JointDistribution16(("x", "x'"), ("y", "y'"), bad)
        with pytest.raises(ValueError, match="pattern"):
            JointDistribution16(("x", "x'"), ("y", "y'"), {(0, 1, 1, 1): Fraction(1)})


class TestNoSignalling:
    def test_lhv_behaviors_have_zero_deviation(self):
        rng = random.Random(55)
        for _ in range(20):
            m = random_contextual_model(rng, max_source_side=3, max_instrument=2, outcome_kind="binary")
            report = check_no_signalling(behavior_from_model(m))
            assert report.holds
            assert report.max_deviation == 0

    def test_constructed_deviation_read_back(self):
        probs = {}
        for ctx in CONTEXTS:
            p_plus = Fraction(1, 2) if ctx[1] == "y" else Fraction(1, 2) + Fraction(1, 10)
            probs[ctx] = {
                (1, 1): p_plus / 2,
                (1, -1): p_plus / 2,
                (-1, 1): (1 - p_plus) / 2,
                (-1, -1): (1 - p_plus) / 2,
            }
        b = BehaviorTable(("x", "x'"), ("y", "y'"), (-1, 1), probs)
        report = check_no_signalling(b)
        assert not report.holds
        assert report.max_deviation == Fraction(1, 10)
        assert report.per_setting_deviation[("alice", "x")] == Fraction(1, 10)

    def test_product_behavior_has_zero_deviation(self):
        singles_a = {"x": Fraction(1, 3), "x'": Fraction(-1, 2)}
        singles_b = {"y": Fraction(0), "y'": Fraction(1, 4)}
        probs = {
            (a, b): {
                (x, y): (1 + x * singles_a[a]) * (1 + y * singles_b[b]) / 4
                for x in SIGNS
                for y in SIGNS
            }
            for a in ("x", "x'")
            for b in ("y", "y'")
        }
        b = BehaviorTable(("x", "x'"), ("y", "y'"), (-1, 1), probs)
        assert check_no_signalling(b).max_deviation == 0

    def test_ternary_input_rejected(self):
        rng = random.Random(56)
        m = random_contextual_model(rng, max_source_side=2, max_instrument=1, outcome_kind="ternary")
        with pytest.raises(ValueError, match="binary"):
            check_no_signalling(behavior_from_model(m))

    def test_a_thousandth_of_signalling_fails_exactly(self):
        probs = {}
        for ctx in CONTEXTS:
            p_plus = Fraction(1, 2) if ctx[1] == "y" else Fraction(1, 2) + Fraction(1, 1000)
            probs[ctx] = {
                (1, 1): p_plus / 2,
                (1, -1): p_plus / 2,
                (-1, 1): (1 - p_plus) / 2,
                (-1, -1): (1 - p_plus) / 2,
            }
        b = BehaviorTable(("x", "x'"), ("y", "y'"), (-1, 1), probs)
        report = check_no_signalling(b)
        assert not report.holds
        assert report.max_deviation == Fraction(1, 1000)
        # the joint problem needs exact marginal consistency too
        with pytest.raises(ValueError, match="signal"):
            find_joint(b)


class TestFindJoint:
    def test_counterexample_behavior_is_feasible_and_roundtrips(self):
        b = behavior_from_model(counterexample_model())
        result = find_joint(b)
        assert result.feasible
        assert roundtrips(result.joint, b)
        assert result.joint.alice_settings == ("+1", "-1")

    def test_uniform_behavior_feasible_with_uniform_witness(self):
        b = uniform_behavior()
        result = find_joint(b)
        assert result.feasible
        assert roundtrips(result.joint, b)
        uniform = JointDistribution16(
            ("x", "x'"),
            ("y", "y'"),
            {t: Fraction(1, 16) for t in itertools.product(SIGNS, repeat=4)},
        )
        assert roundtrips(uniform, b)

    def test_quantum_behavior_is_infeasible_with_certificate(self):
        b = quantum_singlet_behavior(AngleSet.chsh_optimal())
        result = find_joint(b)
        assert not result.feasible
        assert result.certificate is not None
        assert abs(result.certificate.value) > 2

    def test_certificate_is_the_first_largest_chsh_combination(self):
        infeasible = 0
        for b in fine_lp_behaviors(40, 200, seed=20240913):
            result = find_joint(b)
            if result.feasible:
                continue
            combos = chsh_values(b.quad()).combinations
            top = max(abs(c.value) for c in combos)
            assert result.certificate == next(c for c in combos if abs(c.value) == top)
            assert type(result.certificate.value) is Fraction
            infeasible += 1
        assert infeasible > 0

    def test_signalling_behavior_rejected(self):
        probs = {}
        for ctx in CONTEXTS:
            p_plus = Fraction(1, 2) if ctx[1] == "y" else Fraction(3, 5)
            probs[ctx] = {
                (1, 1): p_plus / 2,
                (1, -1): p_plus / 2,
                (-1, 1): (1 - p_plus) / 2,
                (-1, -1): (1 - p_plus) / 2,
            }
        b = BehaviorTable(("x", "x'"), ("y", "y'"), (-1, 1), probs)
        with pytest.raises(ValueError, match="signal"):
            find_joint(b)

    def test_ternary_behavior_rejected(self):
        rng = random.Random(57)
        m = random_contextual_model(rng, max_source_side=2, max_instrument=1, outcome_kind="ternary")
        with pytest.raises(ValueError, match="binary"):
            find_joint(behavior_from_model(m))


class TestFineCriterion:
    def test_counterexample_accepted(self):
        assert fine_criterion(behavior_from_model(counterexample_model()))

    def test_quantum_rejected(self):
        assert not fine_criterion(quantum_singlet_behavior(AngleSet.chsh_optimal()))

    def test_random_lhv_behaviors_accepted(self):
        rng = random.Random(58)
        for _ in range(20):
            m = random_contextual_model(rng, max_source_side=3, max_instrument=2, outcome_kind="ternary")
            assert fine_criterion(behavior_from_model(zero_to_coin(m)))


class TestFineEquivalence:
    def test_feasibility_matches_criterion_on_mixed_corpus(self):
        rng = random.Random(59)
        behaviors = []
        for i in range(40):
            m = random_contextual_model(rng, max_source_side=3, max_instrument=2, outcome_kind="ternary")
            behaviors.append(behavior_from_model(zero_to_coin(m)))
        for i in range(60):
            behaviors.append(random_nosignalling_behavior(rng, mode="generic"))
        for i in range(60):
            behaviors.append(random_nosignalling_behavior(rng, mode="near_quantum"))
        verdicts = {True: 0, False: 0}
        for b in behaviors:
            expected = fine_criterion(b)
            result = find_joint(b)
            assert result.feasible == expected
            if result.feasible:
                assert roundtrips(result.joint, b)
            verdicts[expected] += 1
        # the banked corpus must exercise both sides of the boundary
        assert verdicts[True] > 0
        assert verdicts[False] > 0


class TestCouplingJoint:
    def test_pushforward_matches_lp_witness_marginals(self):
        rng = random.Random(60)
        for _ in range(10):
            m = random_contextual_model(rng, max_source_side=3, max_instrument=2, outcome_kind="ternary")
            binary = zero_to_coin(m)
            b = behavior_from_model(binary)
            pushed = coupling_joint(binary)
            assert roundtrips(pushed, b)
            lp = find_joint(b)
            assert lp.feasible
            assert roundtrips(lp.joint, b)

    def test_counterexample_coupling_reproduces_quad(self):
        m = counterexample_model()
        joint = coupling_joint(m)
        b = behavior_from_model(m)
        assert roundtrips(joint, b)
        quad = chsh_values(b.quad()).quad
        assert quad.ordered() == (1, 0, 0, -1)

    def test_nonbinary_model_rejected(self):
        rng = random.Random(61)
        m = random_contextual_model(rng, max_source_side=2, max_instrument=1, outcome_kind="ternary")
        if not any(s.outcomes.has_zero() for s in m.alice + m.bob):
            pytest.skip("random draw has no zeros")
        with pytest.raises(ValueError, match="binary"):
            coupling_joint(m)
