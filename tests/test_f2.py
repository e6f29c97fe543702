from fractions import Fraction as Q

import pytest

from amenlab.f2 import (
    FIVE_SET_ORDER,
    InvarianceOutcome,
    ThresholdReport,
    f2_group,
    first_spec,
    five_set_specs,
    invariance_system,
    invariance_threshold,
    invariance_translates,
    simultaneous_invariance,
    verify_disjoint_translates,
    verify_identities,
    verify_invariance_outcome,
    verify_threshold_report,
)
from amenlab.groups import CapExceeded, ball
from amenlab.pictures import SetSpec, height

G = f2_group()


def w(text):
    return G.parse_element(text)


def test_membership_examples():
    first = first_spec(G).compile(G)
    high = SetSpec.from_json({"kind": "h_above", "k": 0}).compile(G)
    sets = {k: s.compile(G) for k, s in five_set_specs(G).items()}
    assert first(w("Ab"))  # starts with the inverse of the first generator
    assert not first(w("ba"))
    assert high(w("aB"))  # height 2
    assert not sets["first_and_high"](w("b"))
    assert sets["rest_and_low"](w("b"))
    assert sets["first_or_low"](w("e")) and sets["rest_or_high"](w("e"))


def test_height_homomorphism_on_ball_pairs():
    pool = ball(G, 4)
    hv = {u: height(u) for u in pool}
    for u in pool:
        for v in pool:
            assert height(u * v) == hv[u] + hv[v]


def test_identities_scan():
    report = verify_identities(8)
    assert report.ok
    names = {c.name for c in report.checks}
    assert "first_xor_low_is_two_cores" in names
    assert "translate_high_is_level_shift" in names
    assert all(c.checked > 0 for c in report.checks)


def test_identities_cap():
    with pytest.raises(CapExceeded):
        verify_identities(13)


def test_disjoint_translates_scan():
    report = verify_disjoint_translates(4, 8)
    assert report.ok
    assert {c.name for c in report.checks} == {
        "a_pow_rest_and_low",
        "b_pow_first_and_high",
        "b_pow_first",
        "a_pow_rest",
    }


def test_compiled_specs_match_direct_logic():
    # cross-validate composed predicates against raw word structure
    sets = {k: s.compile(G) for k, s in five_set_specs(G).items()}
    for u in ball(G, 6):
        word = u.value
        f = bool(word) and abs(word[0]) == 1
        h = height(u) > 0
        assert sets["first_or_low"](u) == (f or not h)
        assert sets["first_and_high"](u) == (f and h)
        assert sets["rest_or_high"](u) == ((not f) or h)
        assert sets["rest_and_low"](u) == ((not f) and (not h))
        assert sets["high"](u) == h


def test_invariance_system_shape():
    system, columns = invariance_system(8, Q(1, 100), 2)
    assert len(columns) == len(ball(G, 2)) == 17
    assert system.num_vars == 17
    assert len(system.rows) == 1 + len(FIVE_SET_ORDER) * 14 * 2
    assert len(invariance_translates(G, 8)) == 14


def test_small_radius_infeasible():
    out = simultaneous_invariance(8, Q(1, 100), 2)
    assert not out.feasible
    assert verify_invariance_outcome(out)


def test_vacuous_delta_feasible():
    out = simultaneous_invariance(2, Q(1), 2)
    assert out.feasible
    assert verify_invariance_outcome(out)


def test_infeasibility_monotone_in_delta():
    hi = simultaneous_invariance(8, Q(1, 50), 2)
    lo = simultaneous_invariance(8, Q(1, 200), 2)
    assert not hi.feasible and not lo.feasible


def test_outcome_json_roundtrip():
    out = simultaneous_invariance(8, Q(1, 100), 2)
    back = InvarianceOutcome.from_json(out.to_json())
    assert back.to_json() == out.to_json()
    assert verify_invariance_outcome(back)
    feas = simultaneous_invariance(2, Q(1), 2)
    back2 = InvarianceOutcome.from_json(feas.to_json())
    assert verify_invariance_outcome(back2)


def test_tampered_farkas_rejected():
    out = simultaneous_invariance(8, Q(1, 100), 2)
    zeroed = InvarianceOutcome(
        out.translate_count, out.delta, out.radius, False, None,
        tuple(Q(0) for _ in out.farkas),
    )
    assert not verify_invariance_outcome(zeroed)  # combines to 0 <= 0, no contradiction
    negated = InvarianceOutcome(
        out.translate_count, out.delta, out.radius, False, None,
        tuple(-x for x in out.farkas),
    )
    assert not verify_invariance_outcome(negated)  # sign conditions break
    # a certificate for a harder delta cannot certify an easier one
    easier = InvarianceOutcome(
        out.translate_count, Q(1, 2), out.radius, False, None, out.farkas
    )
    assert not verify_invariance_outcome(easier)


def test_invariance_threshold_small_radius():
    report = invariance_threshold(8, 2)
    assert report.delta == Q(1, 2)
    assert verify_threshold_report(report)


def test_threshold_report_with_lowered_delta_rejected():
    report = invariance_threshold(8, 2)
    lowered = ThresholdReport(8, 2, report.delta - Q(1, 100), report.measure, report.duals)
    assert not verify_threshold_report(lowered)


def test_threshold_report_with_zeroed_duals_rejected():
    report = invariance_threshold(8, 2)
    zeroed = ThresholdReport(8, 2, report.delta, report.measure, (Q(0),) * len(report.duals))
    assert not verify_threshold_report(zeroed)


def test_aggregated_solve_matches_full_system():
    from amenlab.linprog import solve_feasibility

    for delta in (Q(1, 100), Q(3, 4)):
        merged = simultaneous_invariance(8, delta, 2)
        system, _ = invariance_system(8, delta, 2)
        full = solve_feasibility(system)
        assert merged.feasible == full.feasible


def test_argument_validation():
    with pytest.raises(ValueError):
        simultaneous_invariance(1, Q(1, 10), 2)
    with pytest.raises(ValueError):
        simultaneous_invariance(4, Q(-1), 2)
