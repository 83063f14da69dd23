import itertools
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from conftest import fine_lp_behaviors, fraction_find_feasible
from lhvlab import find_joint
from lhvlab.simplex import find_feasible

F = Fraction


def integer_rows(a, b):
    """A x = b in integers: every row and right-hand side times the lcm of all denominators.

    One multiplier for the whole system keeps the phase-1 objective's
    reduced costs in proportion, so the pivots and the vertex are those of
    the rational system.  A multiplier per row would weight each
    artificial variable by its row's and could end at another vertex.
    """
    scale = lcm(*(F(v).denominator for v in itertools.chain(b, *a)))
    return [[int(c * scale) for c in row] for row in a], [int(v * scale) for v in b]


def solve(a, b):
    return find_feasible(*integer_rows(a, b))


def check_solution(a, b, x):
    assert x is not None
    assert all(v >= 0 for v in x)
    for row, rhs in zip(a, b):
        assert sum(c * v for c, v in zip(row, x)) == rhs


def test_identity_system():
    a = [[F(1), F(0)], [F(0), F(1)]]
    b = [F(2), F(3)]
    check_solution(a, b, solve(a, b))


def test_single_equation_many_solutions():
    a = [[F(1), F(1), F(1)]]
    b = [F(1)]
    check_solution(a, b, solve(a, b))


def test_negative_rhs_handled_by_row_flip():
    a = [[F(-1), F(0)]]
    b = [F(-5)]
    check_solution(a, b, solve(a, b))


def test_contradictory_rows_infeasible():
    a = [[F(1), F(0)], [F(1), F(0)]]
    b = [F(1), F(2)]
    assert solve(a, b) is None


def test_zero_row_nonzero_rhs_infeasible():
    a = [[F(0), F(0)]]
    b = [F(1)]
    assert solve(a, b) is None


def test_nonnegativity_can_force_infeasibility():
    # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold
    a = [[F(1), F(1)], [F(1), F(1)]]
    b = [F(1), F(2)]
    assert solve(a, b) is None


def test_negative_only_solution_is_infeasible():
    # x = -1 has no nonnegative solution
    a = [[F(1)]]
    b = [F(-1)]
    assert solve(a, b) is None


def test_empty_system_is_trivially_feasible():
    assert find_feasible([], []) == []


def test_random_consistent_systems_are_solved_exactly():
    rng = random.Random(123)
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 8)
        a = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
        x_true = [F(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(n)]
        b = [sum(c * v for c, v in zip(row, x_true)) for row in a]
        check_solution(a, b, solve(a, b))


def test_random_systems_with_poison_row_are_infeasible():
    rng = random.Random(321)
    for _ in range(30):
        m, n = rng.randint(1, 4), rng.randint(1, 6)
        a = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        x_true = [F(rng.randint(0, 4)) for _ in range(n)]
        b = [sum(c * v for c, v in zip(row, x_true)) for row in a]
        a.append([F(0)] * n)
        b.append(F(1))
        assert solve(a, b) is None


def test_degenerate_pivots_terminate():
    # highly degenerate: many redundant rows sharing one solution
    a = [[F(1), F(2)], [F(2), F(4)], [F(3), F(6)], [F(1), F(2)]]
    b = [F(2), F(4), F(6), F(2)]
    check_solution(a, b, solve(a, b))


def test_ragged_matrix_rejected():
    with pytest.raises(ValueError, match="ragged"):
        find_feasible([[1, 0], [1]], [1, 1])


def test_integer_entries_give_fraction_solution():
    x = find_feasible([[1, 2], [0, 3]], [5, 3])
    assert x == [F(3), F(1)]
    assert all(type(v) is Fraction for v in x)


entries = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)
# 0/1 rows and sparse planted points give degenerate vertices, where the
# ratio test ties and Bland's lower-basis-index rule picks the pivot
SPARSE_POINTS = (F(0), F(0), F(0), F(1), F(1, 2), F(2))


@st.composite
def linear_systems(draw):
    """A x = b with planted, arbitrary or poisoned right-hand sides."""
    degenerate = draw(st.booleans())
    m = draw(st.integers(1, 8 if degenerate else 5))
    n = draw(st.integers(1, 12 if degenerate else 6))
    coeffs = st.integers(0, 1) if degenerate else entries
    a = [[draw(coeffs) for _ in range(n)] for _ in range(m)]
    for i in draw(st.sets(st.integers(0, m - 1), max_size=2)):
        a[i] = [0] * n
    kind = draw(st.sampled_from(("planted", "arbitrary", "poisoned")))
    if kind == "arbitrary":
        b = [draw(entries) for _ in range(m)]
    else:
        point = st.sampled_from(SPARSE_POINTS) if degenerate else st.fractions(min_value=0, max_value=3, max_denominator=4)
        x = [draw(point) for _ in range(n)]
        b = [sum((c * v for c, v in zip(row, x)), F(0)) for row in a]
    if kind == "poisoned":
        i = draw(st.integers(0, m - 1))
        shift = draw(st.sampled_from((F(-1), F(1, 3), F(2))))
        if draw(st.booleans()):
            a.append([0] * n)  # 0 = shift
            b.append(shift)
        else:
            a.append(list(a[i]))  # row i again, with a different rhs
            b.append(b[i] + shift)
    return a, b


@settings(max_examples=300, deadline=None)
@given(linear_systems())
def test_integer_simplex_matches_fraction_oracle(system):
    a, b = system
    x = solve(a, b)
    assert x == fraction_find_feasible(a, b)
    if x is not None:
        assert all(type(v) is Fraction for v in x)
        check_solution(a, b, x)


def test_degenerate_zero_one_systems_match_fraction_oracle():
    # larger tie-heavy systems in bulk: a reversed tie-break changes the
    # vertex on a few of them, which the smaller property above rarely sees
    rng = random.Random(4242)
    for _ in range(1000):
        m, n = rng.randint(4, 8), rng.randint(6, 12)
        a = [[rng.randint(0, 1) for _ in range(n)] for _ in range(m)]
        x = [rng.choice(SPARSE_POINTS) for _ in range(n)]
        b = [sum((c * v for c, v in zip(row, x)), F(0)) for row in a]
        assert solve(a, b) == fraction_find_feasible(a, b)


def test_find_joint_witnesses_match_fraction_oracle():
    patterns = list(itertools.product((-1, 1), repeat=4))
    feasible = infeasible = 0
    for behavior in fine_lp_behaviors(100, 200, seed=20240913):
        rows, rhs = [[F(1)] * 16], [F(1)]
        for ai, a in enumerate(behavior.alice_settings):
            for bi, b in enumerate(behavior.bob_settings):
                for x in (-1, 1):
                    for y in (-1, 1):
                        rows.append([F(t[ai] == x and t[2 + bi] == y) for t in patterns])
                        rhs.append(behavior.prob((a, b), x, y))
        want = fraction_find_feasible(rows, rhs)
        result = find_joint(behavior)
        if want is None:
            infeasible += 1
            assert not result.feasible
        else:
            feasible += 1
            assert result.joint.mass == dict(zip(patterns, want))
    assert feasible > 0 and infeasible > 0
