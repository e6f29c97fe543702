from fractions import Fraction as Q

import pytest

from amenlab import folner
from amenlab.folner import (
    folner_from_weighted,
    folner_function,
    inequality_harness,
    invariance_defect,
    is_epsilon_folner,
    weighted_folner,
    weighted_folner_function,
)
from amenlab.groups import (
    CapExceeded,
    CyclicGroup,
    FreeAbelianGroup,
    FreeGroup,
    Measure,
    ball,
)

Z = FreeAbelianGroup(1)
Z5 = CyclicGroup(5)
F2 = FreeGroup(["a", "b"])


def zel(k):
    return Z.parse_element(str(k))


def interval(lo, hi):
    return [zel(k) for k in range(lo, hi + 1)]


def test_interval_examples():
    r = is_epsilon_folner(Z.generators(), interval(0, 9), Q(1, 5))
    assert r.total == 2 and r.ok
    r2 = is_epsilon_folner(Z.generators(), interval(0, 9), Q(1, 10))
    assert r2.total == 2 and not r2.ok
    assert r2.threshold == 1


def test_empty_candidate_rejected():
    with pytest.raises(ValueError):
        is_epsilon_folner(Z.generators(), [], Q(1))


def test_f2_ball_is_not_half_folner():
    report = is_epsilon_folner(F2.generators(), ball(F2, 3), Q(1, 2))
    assert not report.ok
    # tree growth: each generator moves at least half the ball out of itself
    assert report.total > len(ball(F2, 3))


def test_folner_function_z():
    f1 = folner_function(Z, 1, ball(Z, 6))
    assert (f1.size, f1.exact) == (2, True)
    assert [x.value[0] for x in f1.witness] == [0, 1]
    f2_ = folner_function(Z, 2, ball(Z, 6))
    assert (f2_.size, f2_.exact) == (4, True)
    assert [x.value[0] for x in f2_.witness] == [0, 1, 2, 3]


def test_folner_function_matches_exhaustive_oracle():
    # oracle: all nonempty subsets of {-6..6}, no symmetry pruning
    window = interval(-6, 6)
    gens = Z.generators()
    for k in (1, 2):
        best = None
        for mask in range(1, 1 << len(window)):
            cand = [window[i] for i in range(len(window)) if mask >> i & 1]
            if best is not None and len(cand) >= best:
                continue
            if is_epsilon_folner(gens, cand, Q(1, k)).ok:
                best = len(cand)
        assert folner_function(Z, k, window).size == best


def test_folner_function_cyclic_whole_group():
    res = folner_function(Z5, 3, ball(Z5, 2))
    assert res.size == 5 and res.exact
    res2 = folner_function(Z5, 1, ball(Z5, 2))
    assert res2.size == 2 and res2.exact


def test_folner_function_window_cap(monkeypatch):
    monkeypatch.setattr(folner, "MAX_WINDOW_CANDIDATES", 8)
    with pytest.raises(CapExceeded):
        folner_function(Z, 1, ball(Z, 6))


def test_weighted_folner_values():
    assert weighted_folner(Z, 1, 1).value == 4  # support pinned to the origin
    for n in (2, 3, 4):
        cell = weighted_folner(Z, 1, n)
        assert cell.value == Q(4, 2 * n - 1)
        assert invariance_defect(cell.measure, ball(Z, 1)) == cell.value


def test_weighted_folner_no_admissible():
    cell = weighted_folner(Z, 1, 0)
    assert cell.status == "no_admissible" and cell.value is None


def test_weighted_folner_monotone_in_n():
    values = [weighted_folner(Z, 1, n).value for n in range(1, 5)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_weighted_folner_finite_group_zero():
    cell = weighted_folner(Z5, 2, 2)
    assert cell.value == 0
    assert len(cell.measure.support()) == 5  # uniform measure is invariant


def test_weighted_folner_function():
    res = weighted_folner_function(Z, 1, Q(1), 6)
    assert res == 3  # least n with 4/(2n-1) <= 1
    res2 = weighted_folner_function(Z, 1, Q(1, 2), 6)
    assert res2 == 5


def test_folner_from_weighted():
    cell = weighted_folner(Z, 1, 4)
    level = folner_from_weighted(cell.measure, ball(Z, 1), Q(4, 7))
    assert is_epsilon_folner(ball(Z, 1), level, Q(4, 7)).ok
    # point mass against the single generator: {e} is vacuously eps-Folner
    level2 = folner_from_weighted(Measure.point_mass(Z.identity()), Z.generators(), Q(3))
    assert level2 == frozenset({Z.identity()})


def test_folner_from_weighted_precondition():
    with pytest.raises(ValueError):
        folner_from_weighted(Measure.point_mass(Z.identity()), ball(Z, 1), Q(1, 2))


def test_uniform_measure_link():
    # uniform weights on an eps-Folner set: defect equals boundary/|B|,
    # hence at most eps (and a fortiori at most 2*eps)
    for hi, k in ((1, 1), (3, 2)):
        B = interval(0, hi)
        report = is_epsilon_folner(Z.generators(), B, Q(1, k))
        assert report.ok
        nu = Measure(Z, {b: Q(1, len(B)) for b in B})
        defect = invariance_defect(nu, Z.generators())
        assert defect == Q(report.total, len(B))
        assert defect <= Q(2, k)


def test_harness_no_violations_z_and_z5():
    for group in (Z, Z5):
        report = inequality_harness(group, [1], [1, 2])
        assert not report.violated
        names = {i.name for i in report.instances}
        assert "ramsey_le_weighted" in names
        assert "folner_le_exp_weighted" in names


def test_weighted_folner_function_rejects_a_negative_n_max():
    # range(0, n_max + 1) would be empty and report an exhausted search
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        weighted_folner_function(Z, 1, Q(1, 2), -1)
