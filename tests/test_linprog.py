import random
from fractions import Fraction as Q

import pytest

from helpers_lp import oracle_feasible, random_system
from amenlab.linprog import (
    EQ,
    GE,
    LE,
    FeasibilityOutcome,
    LinearSystem,
    Optimum,
    minimize,
    solve_feasibility,
    verify_certificate,
)
from amenlab.rationals import canonical_dumps


def test_box_feasible():
    s = LinearSystem(1, [([1], GE, 0), ([1], LE, 1)])
    out = solve_feasibility(s)
    assert out.feasible and verify_certificate(s, out)


def test_one_variable_contradiction():
    s = LinearSystem(1, [([1], GE, 1), ([1], LE, 0)])
    out = solve_feasibility(s)
    assert not out.feasible
    assert verify_certificate(s, out)
    # hand-built multipliers: row0 used as -x <= -1, row1 as x <= 0, sum 0 <= -1
    assert verify_certificate(s, FeasibilityOutcome(False, farkas=(Q(1), Q(1))))


def test_unique_feasible_point():
    # simplex slice pinned by x1 - x2 = 1/3; solution is forced
    s = LinearSystem(2, [([1, 1], EQ, 1), ([1, -1], EQ, Q(1, 3))], nonneg=True)
    out = solve_feasibility(s)
    assert out.feasible
    assert out.point == (Q(2, 3), Q(1, 3))


def test_minimize_simple_bound():
    s = LinearSystem(1, [([1], GE, 3)], objective=[1])
    opt = minimize(s)
    assert opt.value == 3
    assert verify_certificate(s, opt)


def test_l1_linearization():
    # min t subject to t >= x, t >= -x, x = 1/2
    s = LinearSystem(
        2,
        [([1, -1], GE, 0), ([1, 1], GE, 0), ([0, 1], EQ, Q(1, 2))],
        objective=[1, 0],
    )
    assert minimize(s).value == Q(1, 2)


def test_minimize_infeasible_raises():
    s = LinearSystem(1, [([1], GE, 1), ([1], LE, 0)], objective=[1])
    with pytest.raises(ValueError, match="infeasible"):
        minimize(s)
    # the Farkas certificate comes from the feasibility solve
    assert verify_certificate(s, solve_feasibility(s))


def test_minimize_unbounded_raises():
    s = LinearSystem(1, [([1], LE, 0)], objective=[1])
    with pytest.raises(ValueError, match="unbounded"):
        minimize(s)


def test_maximize_direction():
    # max x + y is min -x - y
    s = LinearSystem(
        2,
        [([1, 2], LE, 4), ([3, 1], LE, 6)],
        objective=[-1, -1],
        nonneg=True,
    )
    opt = minimize(s)
    assert opt.value == Q(-14, 5)
    assert opt.point == (Q(8, 5), Q(6, 5))
    assert verify_certificate(s, opt)


def test_verification_is_exact():
    s = LinearSystem(2, [([1, 1], EQ, 1), ([1, -1], EQ, Q(1, 3))], nonneg=True)
    perturbed = FeasibilityOutcome(
        True, point=(Q(2, 3) + Q(1, 10**6), Q(1, 3))
    )
    assert not verify_certificate(s, perturbed)
    wrong_value = Optimum(Q(1), (Q(1),), (Q(0),))
    s2 = LinearSystem(1, [([1], GE, 1)], objective=[1])
    assert not verify_certificate(s2, Optimum(Q(2), (Q(2),), (Q(1),)))
    assert verify_certificate(s2, Optimum(Q(1), (Q(1),), (Q(1),)))
    del wrong_value


def test_completeness_against_minimal_face_oracle():
    rng = random.Random(20240817)
    for _ in range(150):
        system = random_system(rng)
        out = solve_feasibility(system)
        assert verify_certificate(system, out)
        assert out.feasible == oracle_feasible(system)


def test_determinism_bit_for_bit():
    rng = random.Random(99)
    for _ in range(40):
        system = random_system(rng)
        a = solve_feasibility(system)
        b = solve_feasibility(system)
        assert a == b
        assert canonical_dumps(a.to_json()) == canonical_dumps(b.to_json())


def test_objective_with_random_systems_strong_duality():
    rng = random.Random(5)
    solved = 0
    while solved < 25:
        system = random_system(rng, max_vars=4, max_rows=6)
        obj = tuple(rng.randint(-2, 2) for _ in range(system.num_vars))
        system = LinearSystem(
            system.num_vars,
            [(r.coeffs, r.rel, r.rhs) for r in system.rows],
            obj,
            system.nonneg,
        )
        try:
            opt = minimize(system)
        except ValueError:  # infeasible or unbounded below
            continue
        assert verify_certificate(system, opt)
        solved += 1


def test_json_roundtrips():
    s = LinearSystem(
        2,
        [([1, Q(1, 3)], LE, Q(5, 2)), ([0, 1], GE, -1)],
        objective=[-1, 1],
        nonneg=[True, False],
    )
    opt = minimize(s)
    assert Optimum.from_json(opt.to_json()) == opt
    bad = LinearSystem(1, [([1], GE, 1), ([1], LE, 0)])
    with pytest.raises(ValueError):
        Optimum.from_json(solve_feasibility(bad).to_json())


def test_rejects_floats():
    with pytest.raises(ValueError):
        LinearSystem(1, [([0.5], LE, 1)])


def test_shape_validation():
    with pytest.raises(ValueError):
        LinearSystem(2, [([1], LE, 0)])
    with pytest.raises(ValueError):
        LinearSystem(1, [([1], "<", 0)])
    with pytest.raises(TypeError):
        verify_certificate(LinearSystem(1, [([1], LE, 0)]), object())
