import hashlib
import random
from dataclasses import replace
from fractions import Fraction as Q

import pytest

from amenlab.balance import SetFamily, deficiency_optimum
from amenlab.groups import (
    CapExceeded,
    CyclicGroup,
    FreeAbelianGroup,
    FreeGroup,
    TableGroup,
    ball,
    sort_elements,
)
from amenlab.rationals import canonical_dumps
from amenlab.ramsey import (
    _families,
    _layout,
    _masks_and_columns,
    binary_to_unit,
    boost,
    boost_steps_needed,
    direct_gap_system,
    interior,
    is_epsilon_ramsey,
    ramsey_function,
    subset_measure,
    verify_ramsey_verdict,
)
from amenlab import ramsey
from amenlab.linprog import solve_feasibility

Z = FreeAbelianGroup(1)
F2 = FreeGroup(["a", "b"])


def zel(k):
    return Z.parse_element(str(k))


def zball(n):
    return ball(Z, n)


def test_interior_identity_window():
    B = zball(3)
    assert interior([Z.identity()], B) == tuple(B)


def test_interior_interval_erosion():
    C = interior(zball(1), zball(3))
    assert [c.value[0] for c in C] == [-2, -1, 0, 1, 2]


def test_interior_f2_ball_one():
    # brute-force oracle over the 5x5 products
    B1 = ball(F2, 1)
    pool = set(B1)
    expected = tuple(
        b for b in B1 if all((a * b) in pool for a in B1)
    )
    got = interior(B1, B1)
    assert got == tuple(sorted(expected, key=lambda e: e.key()))
    assert [repr(x) for x in got] == ["e"]


def test_trivial_eps_one():
    v = is_epsilon_ramsey(zball(1), zball(1), 1)
    assert v.is_ramsey
    assert verify_ramsey_verdict(v)


def test_empty_interior_not_ramsey():
    # window ball(1) around a singleton B = {e}: no admissible support
    v = is_epsilon_ramsey(zball(1), [Z.identity()], Q(1, 2))
    assert not v.is_ramsey
    assert v.reason == "empty_interior"
    assert verify_ramsey_verdict(v)


def test_z_half_ramsey_fixture():
    # discovered fixture: radius 2 is the least 1/2-Ramsey ball for window ball(1)
    res = ramsey_function(Z, 1, Q(1, 2), 4)
    assert res.value == 2
    assert res.per_n == [(0, "not_ramsey"), (1, "not_ramsey"), (2, "ramsey")]
    # ramsey_function decides by pictures; the direct route must give the same per-n verdicts
    for n, verdict in res.per_n:
        direct = is_epsilon_ramsey(zball(1), zball(n), Q(1, 2), method="direct")
        assert ("ramsey" if direct.is_ramsey else "not_ramsey") == verdict


def test_z_eps_one_fixture():
    assert ramsey_function(Z, 1, Q(1), 3).value == 1


def test_ramsey_function_rejects_a_negative_n_max():
    # range(0, n_max + 1) would be empty and report an exhausted search
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        ramsey_function(Z, 1, Q(1, 2), -1)


def test_method_agreement_small_z():
    for eps in (Q(0), Q(1, 3), Q(1, 2)):
        for n in range(1, 5):
            a = is_epsilon_ramsey(zball(1), zball(n), eps, method="direct")
            b = is_epsilon_ramsey(zball(1), zball(n), eps, method="pictures")
            assert a.is_ramsey == b.is_ramsey
            if not a.is_ramsey:
                assert a.counterexample.e_mask == b.counterexample.e_mask
            assert verify_ramsey_verdict(a) is True
            assert verify_ramsey_verdict(b) is True


def test_f2_ball2_fails_at_zero():
    v = is_epsilon_ramsey(ball(F2, 1), ball(F2, 2), 0, method="pictures")
    assert not v.is_ramsey
    # regression fixture: least failing subset in bitmask order
    assert [repr(x) for x in v.counterexample.elements] == ["e", "a", "b"]
    assert verify_ramsey_verdict(v)
    d = is_epsilon_ramsey(ball(F2, 1), ball(F2, 2), 0, method="direct")
    assert not d.is_ramsey
    assert d.counterexample.e_mask == v.counterexample.e_mask
    assert verify_ramsey_verdict(d)


def test_counterexample_is_least():
    v = is_epsilon_ramsey(ball(F2, 1), ball(F2, 2), 0, method="direct")
    ce = v.counterexample.e_mask
    window = v.window
    C = v.interior
    pos = {x: i for i, x in enumerate(v.products)}
    width = len(window)
    for mask in range(ce):
        cols = []
        for c in C:
            m = 0
            for i, a in enumerate(window):
                if mask >> pos[a * c] & 1:
                    m |= 1 << i
            cols.append(m)
        assert solve_feasibility(direct_gap_system(width, cols, Q(0))).feasible


S3_TABLE = [
    [0, 1, 2, 3, 4, 5],
    [1, 0, 4, 5, 2, 3],
    [2, 5, 0, 4, 3, 1],
    [3, 4, 5, 0, 1, 2],
    [4, 3, 1, 2, 5, 0],
    [5, 2, 3, 1, 0, 4],
]


@pytest.mark.parametrize(
    "group, m, n",
    [
        (Z, 1, 5),
        (FreeAbelianGroup(2), 1, 2),
        (F2, 1, 2),
        (TableGroup(S3_TABLE), 1, 2),
        (CyclicGroup(5), 1, 2),
    ],
    ids=["Z", "Z2", "F2", "S3", "Z5"],
)
def test_masks_and_columns_match_per_mask_pictures(group, m, n):
    window = tuple(sort_elements(ball(group, m)))
    C, products, pos, prod_pos = _layout(window, ball(group, n))
    k = len(products)
    assert C and k <= 17
    # column j, bit i reads the position of window[i] * C[j]
    where = [[(i, pos[a * c]) for i, a in enumerate(window)] for c in C]
    masks = []
    for e_mask, cols in _masks_and_columns(prod_pos, k):
        expected = [sum((e_mask >> p & 1) << i for i, p in column) for column in where]
        assert cols == expected, e_mask
        masks.append(e_mask)
    assert masks == list(range(1 << k))


def _least_masks(prod_pos, k):
    """Family -> least mask realizing it, by visiting every mask."""
    least = {}
    for e_mask, cols in _masks_and_columns(prod_pos, k):
        least.setdefault(frozenset(cols), e_mask)
    return least


def _assert_families_match_every_mask(prod_pos, k, width):
    found = [(e_mask, frozenset(family)) for e_mask, family in _families(prod_pos, k, width)]
    masks = [e_mask for e_mask, _ in found]
    assert all(a < b for a, b in zip(masks, masks[1:]))
    least = _least_masks(prod_pos, k)
    assert len(found) == len(least)
    assert {family: e_mask for e_mask, family in found} == least


@pytest.mark.parametrize(
    "group, m, n",
    [(Z, 1, n) for n in range(5, 10)]
    + [
        (Z, 0, 0),
        (Z, 0, 3),
        (Z, 2, 4),
        (FreeAbelianGroup(2), 1, 2),
        (F2, 1, 2),
        (TableGroup(S3_TABLE), 1, 2),
        (CyclicGroup(5), 1, 2),
        (CyclicGroup(6), 1, 3),
    ],
    ids=[f"Z-1-{n}" for n in range(5, 10)]
    + ["Z-0-0", "Z-0-3", "Z-2-4", "Z2", "F2", "S3", "Z5", "Z6"],
)
def test_families_match_every_mask(group, m, n):
    window = tuple(sort_elements(ball(group, m)))
    _, products, _, prod_pos = _layout(window, ball(group, n))
    _assert_families_match_every_mask(prod_pos, len(products), len(window))


@pytest.mark.parametrize("group, n", [(Z, 5), (FreeAbelianGroup(2), 2)], ids=["Z", "Z2"])
def test_families_match_every_mask_on_permuted_positions(group, n):
    # relabel the positions of A*C and shuffle the columns and their bits, so
    # columns close at other positions than in any canonical layout
    window = ball(group, 1)
    _, products, _, prod_pos = _layout(window, ball(group, n))
    k = len(products)
    rng = random.Random(f"families:{n}")
    relabel = rng.sample(range(k), k)
    shuffled = [rng.sample([relabel[p] for p in positions], len(positions)) for positions in prod_pos]
    rng.shuffle(shuffled)
    assert max(map(min, shuffled)) != max(map(min, prod_pos))
    _assert_families_match_every_mask(shuffled, k, len(window))


def _pictures_by_every_mask(window, bset, eps):
    """The pictures route by a walk over every mask: one deficiency LP per
    new family, stopping at the first family whose deficiency exceeds eps.
    Returns (least failing mask, family, optimum), or the sorted family
    witnesses when every family passes."""
    window = tuple(sort_elements(window))
    _, products, _, prod_pos = _layout(window, bset)
    seen = {}
    for e_mask, cols in _masks_and_columns(prod_pos, len(products)):
        key = frozenset(cols)
        if key in seen:
            continue
        family = SetFamily(window, key)
        optimum, seen[key] = deficiency_optimum(family)
        if optimum.value > eps:
            return e_mask, family, optimum
    return [(SetFamily(window, key), w) for key, w in sorted(seen.items(), key=lambda kv: sorted(kv[0]))]


@pytest.mark.parametrize(
    "group, m, n, eps",
    [(F2, 1, 2, eps) for eps in (Q(0), Q(1, 3), Q(5, 12), Q(1, 2))] + [(Z, 2, 4, Q(1, 3))],
    ids=["F2-0", "F2-1/3", "F2-5/12", "F2-1/2", "Z-2-4-1/3"],
)
def test_pictures_counterexample_matches_a_walk_over_every_mask(group, m, n, eps):
    window, bset = ball(group, m), ball(group, n)
    e_mask, family, optimum = _pictures_by_every_mask(window, bset, eps)
    verdict = is_epsilon_ramsey(window, bset, eps, method="pictures")
    assert not verdict.is_ramsey
    ce = verdict.counterexample
    assert (ce.e_mask, verdict.subsets_checked) == (e_mask, e_mask + 1)
    assert ce.payload == {"family": family.to_json(), "optimum": optimum.to_json()}


def test_pictures_witnesses_match_a_walk_over_every_mask():
    window, bset = zball(1), zball(4)
    expected = _pictures_by_every_mask(window, bset, Q(1, 2))
    verdict = is_epsilon_ramsey(window, bset, Q(1, 2), method="pictures")
    assert verdict.is_ramsey and verdict.subsets_checked == 1 << len(verdict.products)
    assert verdict.family_witnesses == expected


def test_f2_ramsey_function_exhausts():
    res = ramsey_function(F2, 1, 0, 3, cap=20)
    assert res.status == "exhausted"
    assert res.value is None
    statuses = dict(res.per_n)
    assert statuses[1] == "not_ramsey"
    assert statuses[2] == "not_ramsey"
    assert statuses[3] == "cap_exceeded"


def test_ramsey_function_builds_no_ball_past_the_cap(monkeypatch):
    # A*C only grows with n, so every radius past the first cap_exceeded one is past the cap too
    radii = []

    def counting_ball(group, radius, **options):
        radii.append(radius)
        return ball(group, radius, **options)

    monkeypatch.setattr(ramsey, "ball", counting_ball)
    res = ramsey_function(F2, 1, Q(1, 2), 6)
    assert res.per_n == [(0, "not_ramsey"), (1, "not_ramsey"), (2, "not_ramsey")] + [
        (n, "cap_exceeded") for n in range(3, 7)
    ]
    assert max(radii) == 3


def test_cap_enforced():
    with pytest.raises(CapExceeded):
        is_epsilon_ramsey(zball(1), zball(13), Q(1, 2), cap=24)


def test_monotone_in_eps():
    v1 = is_epsilon_ramsey(zball(1), zball(2), Q(1, 2))
    v2 = is_epsilon_ramsey(zball(1), zball(2), Q(3, 4))
    assert v1.is_ramsey and v2.is_ramsey
    assert verify_ramsey_verdict(v2)


def test_subset_irrelevance_outside_products():
    # mutate E outside A*C: the single-subset verdict cannot change
    rng = random.Random(7)
    bset = list(zball(3)) + [zel(10)]
    products = {a * c for a in zball(1) for c in interior(zball(1), bset)}
    assert zel(10) not in products
    for _ in range(20):
        base = [x for x in zball(3) if rng.random() < 0.5]
        m1 = subset_measure(zball(1), bset, base, Q(1, 4))
        m2 = subset_measure(zball(1), bset, base + [zel(10)], Q(1, 4))
        assert (m1 is None) == (m2 is None)
        if m1 is not None:
            assert m1 == m2


def test_witnesses_collected_and_exact():
    v = is_epsilon_ramsey(zball(1), zball(2), Q(1, 2), method="direct")
    assert v.is_ramsey and v.witnesses is not None
    assert len(v.witnesses) == 2 ** len(v.products)
    assert verify_ramsey_verdict(v)


def test_a_positive_verdict_without_the_witnesses_its_route_keeps_fails():
    # 2^5 subsets: below the 4096 past which the direct route keeps no witnesses
    for method in ("direct", "pictures"):
        v = is_epsilon_ramsey(zball(1), zball(2), Q(1, 2), method=method)
        assert verify_ramsey_verdict(v) is True
        assert verify_ramsey_verdict(replace(v, witnesses=None, family_witnesses=None)) is False
    # 2^13 subsets: the direct route kept none, so only the layout is checked
    v = is_epsilon_ramsey(zball(1), zball(6), Q(1, 2), method="direct")
    assert v.is_ramsey and v.witnesses is None
    assert verify_ramsey_verdict(v) is None


def test_determinism():
    a = is_epsilon_ramsey(zball(1), zball(2), Q(1, 2), method="direct")
    b = is_epsilon_ramsey(zball(1), zball(2), Q(1, 2), method="direct")
    assert canonical_dumps(a.to_json()) == canonical_dumps(b.to_json())


def test_binary_to_unit_constant():
    bset = zball(2)
    nu = binary_to_unit(zball(1), bset, {b: Q(1, 3) for b in bset})
    gaps = [sum((w * Q(1, 3) for w in nu.weights.values()), Q(0)) for _ in range(3)]
    assert max(gaps) - min(gaps) == 0


def test_binary_to_unit_characteristic():
    bset = zball(2)
    E = {b for b in bset if b.value[0] >= 0}
    f = {b: Q(1) if b in E else Q(0) for b in bset}
    nu = binary_to_unit(zball(1), bset, f)
    vals = [
        sum((w * f[a * c] for c, w in nu.weights.items()), Q(0))
        for a in zball(1)
    ]
    assert max(vals) - min(vals) <= Q(1, 2)


def test_binary_to_unit_ramp_fixture():
    # ramp on the discovered 1/2-Ramsey ball: gap must stay within 3/4
    n0 = 2
    bset = zball(n0)
    f = {b: max(Q(0), min(Q(1), Q(b.value[0] + n0, 2 * n0))) for b in bset}
    nu = binary_to_unit(zball(1), bset, f)
    vals = [
        sum((w * f[a * c] for c, w in nu.weights.items()), Q(0))
        for a in zball(1)
    ]
    assert max(vals) - min(vals) <= Q(3, 4)


def test_binary_to_unit_range_validation():
    bset = zball(1)
    with pytest.raises(ValueError):
        binary_to_unit(zball(1), bset, {b: Q(2) for b in bset})


def test_boost_steps_needed():
    assert boost_steps_needed(Q(3, 4)) == 1
    assert boost_steps_needed(Q(9, 16)) == 2
    assert boost_steps_needed(Q(1, 2)) == 3
    assert boost_steps_needed(1) == 0
    with pytest.raises(ValueError):
        boost_steps_needed(0)


def _ramp(radius):
    def f(g):
        return max(Q(0), min(Q(1), Q(g.value[0] + radius, 2 * radius)))

    return f


def test_boost_contraction():
    f = _ramp(16)
    window = zball(1)
    for k in (1, 2, 3, 4):
        eps = Q(3, 4) ** k
        res = boost(window, f, eps)
        assert len(res.steps) == k
        assert res.final_gap <= eps
        for i, step in enumerate(res.steps):
            assert step.tail_gap <= Q(3, 4) ** (k - i)


def test_boost_single_step_is_binary_to_unit_bound():
    res = boost(zball(1), _ramp(4), Q(3, 4))
    assert len(res.steps) == 1
    assert res.final_gap <= Q(3, 4)


def _starts_with_a(g):
    return Q(1) if repr(g)[0] in "aA" else Q(0)


def _digest(result):
    return hashlib.sha256(canonical_dumps(result.to_json()).encode()).hexdigest()


def test_boost_retries_a_failed_level_with_a_larger_ball():
    # the step fails at ball(2) and succeeds at ball(3)
    res = boost(ball(F2, 1), _starts_with_a, Q(3, 4))
    assert [len(s.next_window) for s in res.steps] == [len(ball(F2, 3))] == [53]
    assert _digest(res) == "57e71ea71930173701859978d2f6418521a6862fc326b30b9d939521c075bf92"


def test_boost_tower_radius_follows_the_enclosing_ball():
    # ball(Z5, 2) is all of Z5, so the radius stays at 2 where doubling would pass the cap
    Z5 = CyclicGroup(5)
    res = boost(ball(Z5, 1), lambda g: Q(g.value, 4), Q(3, 4) ** 8)
    assert [len(s.next_window) for s in res.steps] == [5] * 8
    assert _digest(res) == "55e0c4df01f2ce3479280d85a12d593822cbaf758e4162dcd8cb04d61f3f2762"


def test_boost_window_outside_the_radius_cap():
    with pytest.raises(CapExceeded):
        boost([zel(65)], _ramp(8), Q(3, 4))
