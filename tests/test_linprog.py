import random
from fractions import Fraction as Q
from math import gcd

import pytest

from helpers_lp import (
    FractionSimplex,
    fraction_verify_certificate,
    oracle_feasible,
    random_system,
)
from amenlab import folner, linprog
from amenlab.balance import SetFamily, deficiency_system
from amenlab.folner import weighted_folner
from amenlab.groups import FreeAbelianGroup, FreeGroup, ball, sort_elements
from amenlab.linprog import (
    EQ,
    GE,
    LE,
    FeasibilityOutcome,
    LinearSystem,
    Optimum,
    _Simplex,
    minimize,
    solve_feasibility,
    verify_certificate,
)
from amenlab.ramsey import _layout, _masks_and_columns, direct_gap_system
from amenlab.rationals import canonical_dumps

F2 = FreeGroup(["a", "b"])


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


@pytest.mark.parametrize("bad", [True, False, 0.5, 1.0, "1"])
def test_gate_rejects_each_non_exact_value(bad):
    with pytest.raises(ValueError, match="exact rational expected"):
        LinearSystem(2, [([1, bad], LE, 1)])
    with pytest.raises(ValueError, match="exact rational expected"):
        LinearSystem(2, [([1, 0], GE, bad)])
    with pytest.raises(ValueError, match="exact rational expected"):
        LinearSystem(2, [([1, 0], EQ, 1)], objective=[bad, 1])


def test_rows_keep_the_gated_input_and_its_integer_form():
    coeffs = (1, Q(1, 3), 0, Q(-2), Q(0))
    s = LinearSystem(5, [(coeffs, GE, Q(5, 2)), ([0, 0, -1, 0, 2], LE, 3)], objective=[0, 1, Q(1, 2), 0, 0])
    row, int_row = s.rows
    assert (row.coeffs, row.rel, row.rhs) == (coeffs, GE, Q(5, 2))
    assert [type(c) for c in row.coeffs] == [type(c) for c in coeffs]
    # over den = lcm(3, 2) = 6: 1, 1/3 and -2 become 6, 2 and -12, and 5/2 becomes 15
    assert (row.support, row.nums, row.rnum, row.den) == ((0, 1, 3), (6, 2, -12), 15, 6)
    assert (int_row.support, int_row.nums, int_row.rnum, int_row.den) == ((2, 4), (-1, 2), 3, 1)
    assert s.objective == (0, 1, Q(1, 2), 0, 0)


def test_int_rows_take_the_rhs_denominator_as_the_general_path_does():
    rng = random.Random(30)
    for _ in range(300):
        n = rng.randint(1, 6)
        coeffs = tuple(rng.choice([0, 0, 1, -1, rng.randint(-9, 9)]) for _ in range(n))
        rhs = rng.choice([rng.randint(-5, 5), Q(rng.randint(-9, 9), rng.randint(1, 12))])
        # the same row with one coefficient or every one a Fraction takes the lcm path
        one, i = list(coeffs), rng.choice([k for k, c in enumerate(coeffs) if c] or [0])
        one[i] = Q(one[i])
        for general in (tuple(one), tuple(map(Q, coeffs))):
            fast, slow = linprog._row(coeffs, LE, rhs), linprog._row(general, LE, rhs)
            assert fast[3:] == slow[3:]
            assert {type(x) for x in (*fast.nums, fast.rnum, fast.den)} == {int}
            assert fast.den * rhs == fast.rnum and fast.den == Q(rhs).denominator
    assert linprog._scaled((3, 0, -2)) == ([3, 0, -2], 1)
    assert linprog._scaled((3, Q(1, 2))) == ([6, 1], 2)


def test_certificates_with_non_exact_entries_do_not_verify():
    s = LinearSystem(1, [([1], GE, 1)], objective=[1])
    assert verify_certificate(s, Optimum(Q(1), (Q(1),), (Q(1),)))
    for bad in (1.0, True):
        assert not verify_certificate(s, FeasibilityOutcome(True, point=(bad,)))
        assert not verify_certificate(s, Optimum(bad, (Q(1),), (Q(1),)))
        assert not verify_certificate(s, Optimum(Q(1), (bad,), (Q(1),)))
        assert not verify_certificate(s, Optimum(Q(1), (Q(1),), (bad,)))
    s2 = LinearSystem(1, [([1], GE, 1), ([1], LE, 0)])
    assert verify_certificate(s2, FeasibilityOutcome(False, farkas=(Q(1), Q(1))))
    assert not verify_certificate(s2, FeasibilityOutcome(False, farkas=(1.0, Q(1))))


def test_shape_validation():
    with pytest.raises(ValueError):
        LinearSystem(2, [([1], LE, 0)])
    with pytest.raises(ValueError):
        LinearSystem(1, [([1], "<", 0)])
    with pytest.raises(TypeError):
        verify_certificate(LinearSystem(1, [([1], LE, 0)]), object())


# ---------------------------------------------- integer tableau vs Fractions


def _run(sx) -> dict:
    """Both phases on one tableau; everything a caller can read off it."""
    system = sx.system
    out = {"feasible": sx.run_phase1()}
    if not out["feasible"]:
        out["farkas"] = sx.farkas_multipliers()
    else:
        out["point"] = sx.primal_point()
    if out["feasible"] and system.objective is not None:
        out["bounded"] = sx.run_phase2(system.objective)
        if out["bounded"]:
            out.update(optimum=sx.primal_point(), duals=sx.duals(phase1=False), value=sx.value())
    out["pivots"] = sx.pivots
    out["basis"] = tuple(sx.basis)
    return out


def _assert_tableaus_agree(system: LinearSystem) -> dict:
    ours = _run(_Simplex(system))
    assert ours == _run(FractionSimplex(system))
    return ours


def _rational_system(rng: random.Random) -> LinearSystem:
    """Random system with an objective, all data p/q with q <= 6, a third zeros."""

    def q():
        return Q(0) if rng.random() < 1 / 3 else Q(rng.randint(-6, 6), rng.randint(1, 6))

    n = rng.randint(1, 6)
    rows = [
        ([q() for _ in range(n)], rng.choice([LE, EQ, GE]), q())
        for _ in range(rng.randint(1, 10))
    ]
    objective = [q() for _ in range(n)]
    return LinearSystem(n, rows, objective, [rng.random() < 0.5 for _ in range(n)])


def test_integer_tableau_pivots_like_fractions_on_rational_systems():
    rng = random.Random(20261018)
    kinds = {}
    for _ in range(400):
        out = _assert_tableaus_agree(_rational_system(rng))
        kind = (out["feasible"], out.get("bounded"))
        kinds[kind] = kinds.get(kind, 0) + 1
    # infeasible, unbounded and optimal outcomes are all compared
    assert set(kinds) == {(False, None), (True, False), (True, True)}, kinds


def test_integer_tableau_pivots_like_fractions_on_deficiency_lps():
    Z = FreeAbelianGroup(1)
    window = tuple(sort_elements(ball(Z, 2)))
    _, products, _, prod_pos = _layout(window, ball(Z, 4))
    families = {frozenset(cols) for _, cols in _masks_and_columns(prod_pos, len(products))}
    assert len(families) == 474
    for key in sorted(families, key=sorted):
        out = _assert_tableaus_agree(deficiency_system(SetFamily(window, key)))
        assert out["bounded"]


def test_integer_tableau_pivots_like_fractions_on_direct_gap_lps():
    # the direct route's LPs for F2 ball(1)/ball(2) at eps 5/12, in the order it solves
    # them: one per new family, up to the first infeasible one, its Farkas counterexample
    window = tuple(sort_elements(ball(F2, 1)))
    _, products, _, prod_pos = _layout(window, ball(F2, 2))
    families, outcomes = set(), []
    for _, cols in _masks_and_columns(prod_pos, len(products)):
        key = frozenset(cols)
        if key not in families:
            families.add(key)
            system = direct_gap_system(len(window), sorted(key), Q(5, 12))
            outcomes.append(_assert_tableaus_agree(system)["feasible"])
            if not outcomes[-1]:
                break
    assert len(outcomes) == 80 and outcomes.count(False) == 1


def test_no_tableau_row_is_shared_and_both_elimination_paths_run(monkeypatch):
    # `_eliminate` updates a row in place when the pivot entry is 1, so no two
    # rows of the tableau, the cost row included, may be one list
    rng = random.Random(20261022)
    systems = [random_system(rng) for _ in range(150)]
    systems += [_rational_system(rng) for _ in range(300)]
    Z = FreeAbelianGroup(1)
    window = tuple(sort_elements(ball(Z, 2)))
    _, products, _, prod_pos = _layout(window, ball(Z, 4))
    families = {frozenset(cols) for _, cols in _masks_and_columns(prod_pos, len(products))}
    systems += [deficiency_system(SetFamily(window, key)) for key in sorted(families, key=sorted)]
    paths = {"in place": 0, "whole row": 0}
    eliminate = linprog._eliminate

    def counted(row, f, prow, p, support):
        paths["in place" if p == 1 else "whole row"] += 1
        return eliminate(row, f, prow, p, support)

    monkeypatch.setattr(linprog, "_eliminate", counted)
    pivots = 0
    for system in systems:
        sx = _Simplex(system)
        pivot = sx._pivot

        def checked(r, c, sx=sx, pivot=pivot):
            pivot(r, c)
            rows = [*sx.T, sx.zrow]
            assert len(set(map(id, rows))) == len(rows)

        sx._pivot = checked
        pivots += _run(sx)["pivots"]
    assert pivots > 1000 and paths["in place"] > 0 and paths["whole row"] > 0, paths


def _logged_pivots(sx) -> list[tuple]:
    """Log (row, column, entry, rows tied with the pivot row on the ratio) per pivot."""
    log = []
    pivot = sx._pivot

    def logged(r, c):
        def ratio(i):  # rhs over entry: the row denominator cancels
            return Q(sx.T[i][-1], sx.T[i][c])

        entry = sx.T[r][c]
        tied = [i for i, row in enumerate(sx.T) if row[c] > 0 and ratio(i) == ratio(r)] if entry > 0 else []
        log.append((r, c, entry, tied))
        pivot(r, c)

    sx._pivot = logged
    return log


def test_driving_out_an_artificial_on_a_negative_entry():
    # -2x - y = 0 keeps its artificial basic at level 0 through phase 1
    system = LinearSystem(2, [([-2, -1], EQ, 0), ([1, 1], LE, 3)], objective=[1, -1], nonneg=True)
    sx = _Simplex(system)
    log = _logged_pivots(sx)
    assert sx.run_phase1() and log == []
    assert sx.basis[0] in sx.art_set
    sx.run_phase2(system.objective)
    # the first pivot is the drive-out, on -2: the branch that negates the row
    assert log[0][:3] == (0, 0, -2)
    assert _assert_tableaus_agree(system)["value"] == 0


def test_redundant_equality_keeps_an_artificial_basic():
    system = LinearSystem(2, [([1, 1], EQ, 1), ([2, 2], EQ, 2)], objective=[1, -1], nonneg=True)
    sx = _Simplex(system)
    assert sx.run_phase1() and sx.run_phase2(system.objective)
    (i,) = [i for i, b in enumerate(sx.basis) if b in sx.art_set]
    # the row is zero outside the artificial columns, so nothing drove it out
    assert all(v == 0 for c, v in enumerate(sx.T[i][:-1]) if c not in sx.art_set)
    assert _assert_tableaus_agree(system)["value"] == -1


def test_ratio_tie_goes_to_the_smaller_basis_index():
    # x = 1 (artificial basic, the last column) ties with x + y <= 1 (slack basic)
    system = LinearSystem(2, [([1, 0], EQ, 1), ([1, 1], LE, 1)], objective=[1, -1], nonneg=True)
    sx = _Simplex(system)
    log = _logged_pivots(sx)
    basis = list(sx.basis)
    assert sx.run_phase1()
    r, c, _, tied = log[0]
    assert tied == [0, 1] and basis[1] < basis[0]
    assert r == 1  # Bland's basis-index rule, not the first tied row
    assert _assert_tableaus_agree(system)["value"] == 1


def test_every_pivot_reduces_its_row_and_never_divides_another():
    # `_pivot` brings the pivot row to lowest terms before reading its entry p,
    # and every other row, the cost row included, becomes p*row - f*prow exactly
    rng = random.Random(20261021)
    systems = [random_system(rng) for _ in range(150)]
    systems += [_rational_system(rng) for _ in range(300)]
    entries = []
    unreduced = [0]  # pivot rows that reached their pivot with a common factor

    def assert_basic_entries(sx):
        for i, row in enumerate(sx.T):
            assert row[sx.basis[i]] > 0 and row[sx.ncols] == 0
        assert not sx.zrow or sx.zrow[sx.ncols] > 0

    for system in systems:
        sx = _Simplex(system)
        pivot = sx._pivot

        def checked(r, c, sx=sx, pivot=pivot):
            unreduced[0] += gcd(*sx.T[r]) != 1
            old = [list(row) for row in [*sx.T, sx.zrow]]
            pivot(r, c)
            prow = sx.T[r]
            p = prow[c]
            entries.append(p)
            assert p > 0 and gcd(*prow) == 1
            for i, (before, after) in enumerate(zip(old, [*sx.T, sx.zrow])):
                if i != r:
                    f = before[c]
                    assert after == [p * a - f * b for a, b in zip(before, prow)] if f else before
            assert_basic_entries(sx)

        sx._pivot = checked
        assert_basic_entries(sx)
        if sx.run_phase1():  # phase 2 drives artificials out, by pivots too
            sx.run_phase2(system.objective or [0] * system.num_vars)
    # most pivots are on entries other than 1, and some pivot rows arrive unreduced
    assert len(entries) > 1000 and sum(p != 1 for p in entries) > len(entries) / 2
    assert unreduced[0] > 0


@pytest.mark.parametrize(
    "group, m, n, pivots",
    [(F2, 1, 2, 105), (FreeAbelianGroup(2), 1, 3, 313)],
    ids=["F2 ball(1)/ball(2)", "Z2 ball(1)/ball(3)"],
)
def test_integer_tableau_pivots_like_fractions_on_weighted_folner_lps(monkeypatch, group, m, n, pivots):
    # no row but the pivot row is ever divided, so these long LPs grow their entries most
    systems = []

    def captured(system):
        systems.append(system)
        return minimize(system)

    monkeypatch.setattr(folner, "minimize", captured)
    weighted_folner(group, m, n)
    (system,) = systems
    assert _assert_tableaus_agree(system)["pivots"] == pivots


# ------------------------------------ integer certificate check vs Fractions


def _forgeries(outcome, rng: random.Random) -> list[tuple[str, object]]:
    """Copies of a solver outcome with one entry moved, negated or dropped."""

    def moved(values):
        values = list(values)
        values[rng.randrange(len(values))] += rng.choice((1, -1)) * Q(1, rng.randint(1, 6))
        return tuple(values)

    def negated(values):
        values = list(values)
        nonzero = [i for i, v in enumerate(values) if v]
        if nonzero:
            i = rng.choice(nonzero)
            values[i] = -values[i]
        return tuple(values)

    if isinstance(outcome, Optimum):
        value, point, duals = outcome.value, outcome.point, outcome.duals
        return [
            ("point moved", Optimum(value, moved(point), duals)),
            ("dual negated", Optimum(value, point, negated(duals))),
            ("point truncated", Optimum(value, point[:-1], duals)),
            ("duals truncated", Optimum(value, point, duals[:-1])),
            ("value moved", Optimum(moved((value,))[0], point, duals)),
        ]
    if outcome.feasible:
        return [
            ("point moved", FeasibilityOutcome(True, point=moved(outcome.point))),
            ("point truncated", FeasibilityOutcome(True, point=outcome.point[:-1])),
        ]
    return [
        ("farkas negated", FeasibilityOutcome(False, farkas=negated(outcome.farkas))),
        ("farkas truncated", FeasibilityOutcome(False, farkas=outcome.farkas[:-1])),
    ]


def _solver_outcomes(system: LinearSystem) -> list:
    out = [solve_feasibility(system)]
    if system.objective is not None and out[0].feasible:
        try:
            out.append(minimize(system))
        except ValueError:  # unbounded below
            pass
    return out


def test_integer_checker_agrees_with_fraction_oracle():
    rng = random.Random(20261019)
    systems = [random_system(rng) for _ in range(150)]
    systems += [_rational_system(rng) for _ in range(300)]
    Z = FreeAbelianGroup(1)
    window = tuple(sort_elements(ball(Z, 2)))
    _, products, _, prod_pos = _layout(window, ball(Z, 4))
    families = {frozenset(cols) for _, cols in _masks_and_columns(prod_pos, len(products))}
    systems += [deficiency_system(SetFamily(window, key)) for key in sorted(families, key=sorted)]
    # integer coefficients over a Fraction right-hand side, as the direct route builds them
    window = tuple(sort_elements(ball(Z, 1)))
    _, products, _, prod_pos = _layout(window, ball(Z, 4))
    keys = {tuple(sorted(cols)) for _, cols in _masks_and_columns(prod_pos, len(products))}
    systems += [direct_gap_system(len(window), key, Q(1, 3)) for key in sorted(keys)]
    verdicts: dict[tuple[str, bool], int] = {}
    for system in systems:
        for outcome in _solver_outcomes(system):
            assert verify_certificate(system, outcome)
            assert fraction_verify_certificate(system, outcome)
            for kind, forged in _forgeries(outcome, rng):
                ok = verify_certificate(system, forged)
                assert ok == fraction_verify_certificate(system, forged), (kind, system.rows, forged)
                verdicts[kind, ok] = verdicts.get((kind, ok), 0) + 1
    # every kind of forgery is rejected, and some moved points stay feasible
    kinds = {kind for kind, _ in verdicts}
    assert len(kinds) == 7
    assert all(verdicts.get((kind, False)) for kind in kinds), verdicts
    assert verdicts.get(("point moved", True)), verdicts
