import itertools
import json
from collections import Counter
from fractions import Fraction as Q

import pytest

from amenlab import f2
from amenlab.cli import main
from amenlab.f2 import (
    FIVE_SET_ORDER,
    MAX_SCAN_LENGTH,
    MAX_TRANSLATES,
    TRANSLATE_RADIUS,
    IdentityCheck,
    InvarianceOutcome,
    ThresholdReport,
    _merged_system,
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
from amenlab.groups import CapExceeded, Element, FreeGroup, ball
from amenlab.linprog import EQ, GE, LE
from amenlab.pictures import SetSpec, candidate_pool, height

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
        f = repr(u)[0] in "aA"
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
    # the invariance LP grows by 20 rows per translate, so K is capped like the scan's
    with pytest.raises(CapExceeded):
        simultaneous_invariance(9, Q(1, 2), 2)
    with pytest.raises(CapExceeded):
        invariance_threshold(9, 2)


def test_members_depend_only_on_the_class():
    # every first-letter/height construction of Boolean depth <= 2 in the search pool
    tests = [spec.compile(G) for spec in candidate_pool(G)]
    assert len(tests) == 484
    words = ball(G, 4)
    heights = [height(x) for x in words]
    memo = {}  # shared by every translate, as in a pass
    for t in ball(G, 2):
        products = [t * x for x in words]
        assert f2._members(t, words, heights, tests, memo) == [
            [test(p) for p in products] for test in tests
        ]


def _counting_products(monkeypatch):
    """A one-slot list that counts `FreeGroup.multiply` calls from now on."""
    calls = [0]
    multiply = FreeGroup.multiply

    def counting(self, g, h):
        calls[0] += 1
        return multiply(self, g, h)

    monkeypatch.setattr(FreeGroup, "multiply", counting)
    return calls


def test_membership_table_forms_one_product_per_class(monkeypatch):
    columns = ball(G, 6)
    translates = [G.identity()] + invariance_translates(G, 8)
    classes = len({(p.value[:1], height(p)) for t in translates for p in (t * x for x in columns)})
    calls = _counting_products(monkeypatch)
    invariance_translates(G, 8)
    powers, calls[0] = calls[0], 0
    f2._membership_table(G, columns, 8)
    # one product per (first letter, height) of w * x over the whole table,
    # plus the powers a^k and b^k themselves
    assert (calls[0], classes, powers) == (classes + powers, 61, 58)


def test_identities_form_one_product_per_class_and_pass(monkeypatch):
    # the six identities decide each (first letter, height) of a word once, and the
    # level-shift law each (first letter, height) of w^-1 * x over the whole pass
    reps, _, _ = f2._path_classes(G, (), MAX_SCAN_LENGTH)
    words = {(x.value[:1], height(x)) for x in reps}
    shifted = {
        (p.value[:1], height(p))
        for t in ball(G, TRANSLATE_RADIUS)
        for x in f2._path_classes(G, t.value, MAX_SCAN_LENGTH - TRANSLATE_RADIUS)[0]
        for p in [t.inverse() * x]
    }
    calls = _counting_products(monkeypatch)
    assert verify_identities(MAX_SCAN_LENGTH).ok
    assert calls[0] == len(words) + len(shifted) < 200


# Per-word oracles: the scans and LP builds as they were before the
# membership pass, one product and one predicate call per (word, use).
# They read the sets through `f2.five_set_specs`, so the `rotated_sets`
# fixture swaps them for both sides and the scans report failures.


@pytest.fixture(params=[False, True], ids=["five_sets", "rotated"])
def rotated_sets(request, monkeypatch):
    if request.param:
        specs = five_set_specs(G)
        rotated = {k: specs[FIVE_SET_ORDER[i - 1]] for i, k in enumerate(FIVE_SET_ORDER)}
        monkeypatch.setattr(f2, "five_set_specs", lambda group: rotated)
    return request.param


def _oracle_identity_checks(max_length):
    words = ball(G, max_length)
    first = first_spec(G).compile(G)
    sets = {k: s.compile(G) for k, s in f2.five_set_specs(G).items()}
    high = sets["high"]
    cores = lambda u: sets["first_and_high"](u) or sets["rest_and_low"](u)
    predicates = [
        ("first_xor_low_is_two_cores", lambda u: (first(u) ^ (not high(u))) == cores(u)),
        ("rest_xor_high_is_two_cores", lambda u: ((not first(u)) ^ high(u)) == cores(u)),
        ("first_and_high_inside_high", lambda u: not sets["first_and_high"](u) or high(u)),
        ("high_inside_rest_or_high", lambda u: not high(u) or sets["rest_or_high"](u)),
        ("rest_and_low_inside_low", lambda u: not sets["rest_and_low"](u) or not high(u)),
        ("low_inside_first_or_low", lambda u: high(u) or sets["first_or_low"](u)),
    ]
    checks = [
        IdentityCheck(name, len(words), sum(0 if holds(u) else 1 for u in words))
        for name, holds in predicates
    ]
    inner = ball(G, max(0, max_length - 3))
    checked = failures = 0
    for t in ball(G, 3):
        for u in inner:
            checked += 1
            failures += high(t.inverse() * u) != (height(u) > height(t))
    checks.append(IdentityCheck("translate_high_is_level_shift", checked, failures))
    return checks


def _oracle_disjoint_checks(translate_count, max_length):
    a, b = G.generators()
    words = ball(G, max_length)
    sets = {k: s.compile(G) for k, s in f2.five_set_specs(G).items()}
    first = first_spec(G).compile(G)
    a_pows = [a ** (-k) for k in range(translate_count)]
    b_pows = [b ** (-k) for k in range(translate_count)]
    families = [
        ("a_pow_rest_and_low", a_pows, sets["rest_and_low"]),
        ("b_pow_first_and_high", b_pows, sets["first_and_high"]),
        ("b_pow_first", b_pows, first),
        ("a_pow_rest", a_pows, lambda u: not first(u)),
    ]
    checks = []
    for name, powers, member in families:
        failures = sum(1 for u in words if sum(bool(member(p * u)) for p in powers) > 1)
        checks.append(IdentityCheck(name, len(words), failures))
    return checks


def _oracle_invariance_rows(translate_count, delta, radius):
    columns = ball(G, radius)
    tests = {k: s.compile(G) for k, s in f2.five_set_specs(G).items()}
    rows = [(tuple([Q(1)] * len(columns)), EQ, Q(1))]
    for key in FIVE_SET_ORDER:
        for t in invariance_translates(G, translate_count):
            coeffs = tuple(Q(int(tests[key](t * x)) - int(tests[key](x))) for x in columns)
            rows.append((coeffs, LE, delta))
            rows.append((coeffs, GE, -delta))
    return rows, columns


def _oracle_merged_rows(columns, translate_count, delta):
    tests = [f2.five_set_specs(G)[k].compile(G) for k in FIVE_SET_ORDER]
    translates = [G.identity()] + invariance_translates(G, translate_count)
    classes = {}
    for x in columns:
        classes.setdefault(tuple(test(t * x) for test in tests for t in translates), x)
    rows = [(tuple([Q(1)] * len(classes)), EQ, Q(1))]
    n = len(translates)
    for base in range(0, len(tests) * n, n):
        for ti in range(base + 1, base + n):
            coeffs = tuple(Q(int(p[ti]) - int(p[base])) for p in classes)
            rows.append((coeffs, LE, delta))
            rows.append((coeffs, GE, -delta))
    return rows, list(classes.values())


def _rows(system):
    return [(row.coeffs, row.rel, row.rhs) for row in system.rows]


@pytest.mark.parametrize("max_length", range(10))
def test_identities_scan_matches_per_word_oracle(rotated_sets, max_length):
    report = verify_identities(max_length)
    assert report.checks == _oracle_identity_checks(max_length)
    assert report.ok != rotated_sets


@pytest.mark.parametrize("translate_count", [2, 3, 4, 8])
@pytest.mark.parametrize("max_length", range(8))
def test_disjoint_scan_matches_per_word_oracle(rotated_sets, translate_count, max_length):
    report = verify_disjoint_translates(translate_count, max_length)
    assert report.checks == _oracle_disjoint_checks(translate_count, max_length)


def test_rotated_sets_fail_the_disjoint_scan(rotated_sets):
    report = verify_disjoint_translates(4, 6)
    assert report.ok != rotated_sets
    if rotated_sets:
        # failures short of every word, so the scan weights some classes and not others
        assert all(0 < c.failures < c.checked for c in report.checks if not c.ok)


def test_invariance_systems_match_per_word_oracle(rotated_sets):
    delta = Q(1, 10)
    system, columns = invariance_system(4, delta, 3)
    rows, oracle_columns = _oracle_invariance_rows(4, delta, 3)
    assert columns == oracle_columns
    assert system.num_vars == len(columns)
    assert _rows(system) == rows
    merged, reps = _merged_system(G, columns, 4, delta)
    rows, oracle_reps = _oracle_merged_rows(columns, 4, delta)
    assert reps == oracle_reps and len(reps) < len(columns)
    assert merged.num_vars == len(reps)
    assert _rows(merged) == rows


@pytest.mark.parametrize("translate_count", [2, 4, 8])
def test_merged_systems_match_per_word_oracle(rotated_sets, translate_count):
    for radius in range(7):
        columns = ball(G, radius)
        signature_columns = f2._signature_columns(G, translate_count, radius)
        for delta in (Q(0), Q(1, 25), Q(10, 11)):
            merged, reps = _merged_system(G, signature_columns, translate_count, delta)
            rows, oracle_reps = _oracle_merged_rows(columns, translate_count, delta)
            assert reps == oracle_reps and merged.num_vars == len(reps)
            assert _rows(merged) == rows


def test_merged_system_reads_one_column_per_run_signature(monkeypatch):
    def leading_runs(x):
        # (min(run, K), the letter after the run or None) for A and for B, then height
        signature = []
        for code in (1, 3):
            run = 0
            while run < len(x.value) and x.value[run] == code:
                run += 1
            signature += (min(run, 8), x.value[run] if run < len(x.value) else None)
        return (*signature, height(x))

    columns = ball(G, 6)
    firsts = {}
    for x in columns:
        firsts.setdefault(leading_runs(x), x)
    read = []
    table = f2._membership_table
    monkeypatch.setattr(
        f2, "_membership_table", lambda group, cols, k: read.append(cols) or table(group, cols, k)
    )
    radii = []
    monkeypatch.setattr(
        f2, "ball", lambda group, radius, **kwargs: radii.append(radius) or ball(group, radius)
    )
    _merged_system(G, f2._signature_columns(G, 8, 6), 8, Q(1, 25))
    assert read == [list(firsts.values())] and len(columns) == 1457 and len(read[0]) == 135
    # the solve and the threshold count their columns along A^6 and B^6
    assert not simultaneous_invariance(8, Q(1, 25), 6).feasible
    invariance_threshold(8, 6)
    assert radii == [] and read[1:] == read[:1] * 2


def test_signature_columns_are_the_first_ball_word_of_each_signature():
    words = ball(G, 8)
    heights = [height(x) for x in words]
    for translate_count in range(2, 9):
        firsts = {}  # signature -> index of its first word in ball(8)
        for i, (x, h) in enumerate(zip(words, heights)):
            firsts.setdefault(f2._run_signature(x.value, h, translate_count), i)
        for radius in range(9):
            size = 2 * 3**radius - 1  # ball(radius) is the first `size` words of ball(8)
            expected = [words[i] for i in firsts.values() if i < size]
            assert f2._signature_columns(G, translate_count, radius) == expected


@pytest.mark.parametrize("last", range(4))
def test_suffix_classes_keep_the_shortlex_least_suffix_of_each_height(last):
    weights = tuple(height(Element(G, (code,))) for code in range(4))
    for max_length in range(7):
        counts, least = Counter(), {}
        for n in range(max_length + 1):
            for v in itertools.product(range(4), repeat=n):  # lex order within a length
                reduced = all(c != d ^ 1 for d, c in zip((last,) + v, v))
                if reduced:
                    h = sum(weights[c] for c in v)
                    counts[h] += 1
                    least.setdefault(h, v)
        got = dict(f2._suffix_classes(last, max_length, weights))
        assert got == {h: (counts[h], least[h]) for h in counts}


# `amenlab f2-infeasible 8 <delta> 6`: neither the column merge nor the pivot
# arithmetic may change a byte of an envelope
F2_INFEASIBLE_DIGESTS = {
    "1/100": "c3cd87aa9869740d2ad4c093d9c177cd7b3b28b19d99b74f3f2cf249e82d45b8",
    "1/25": "5bdf7761fe79f77f06676f968fe6168b618ed52a7308041960a705995304e109",
    "1/4": "477d0e6420684a2fdf6a16156f77a28f6ff90d756dbd2798a4ba4c3878f3fee7",
    "1/2": "5ba49275bb2bfcce8e4f081cb2717e20310139db90c9af227f04ebdd9f81b58c",
    "10/11": "0ab7d614aa26dd9923c344094fe78c7c5a4f0d320f808ef5d9a88eff2ac7d1e4",
    "11/12": "31c2898f7d6252ed651bba6fe306b90295545836c7d07130618993c145e9d2f8",
}


@pytest.mark.parametrize("delta", sorted(F2_INFEASIBLE_DIGESTS))
def test_f2_infeasible_envelopes_keep_their_digests(capsys, tmp_path, delta):
    path = tmp_path / "env.json"
    assert main(["f2-infeasible", "8", delta, "6", "--out", str(path)]) == 0
    assert json.loads(path.read_text())["digest"] == "sha256:" + F2_INFEASIBLE_DIGESTS[delta]
    capsys.readouterr()
    assert main(["verify", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["certificates"] == "ok"


# `amenlab f2-verify` at the scan cap, past the lengths the golden corpus reaches:
# the class counts and the shared memo may not change a byte of either report
F2_VERIFY_CAP_DIGESTS = {
    ("--identities", "12"): "0349fdb0922395a75f81b4e63a45ed207b8c0665fc430e352b4040d030cf51bc",
    ("--disjoint", "8", "12"): "25f5b8a14cc082146e0502ff20f2340fa71a0475c5964d957c39fa5f18e4c0b5",
}


@pytest.mark.parametrize("args", sorted(F2_VERIFY_CAP_DIGESTS), ids=" ".join)
def test_f2_verify_envelopes_at_the_cap_keep_their_digests(capsys, tmp_path, args):
    path = tmp_path / "env.json"
    assert main(["f2-verify", *args, "--out", str(path)]) == 0
    envelope = json.loads(path.read_text())
    assert envelope["digest"] == "sha256:" + F2_VERIFY_CAP_DIGESTS[args]
    assert envelope["result"]["ok"]
    capsys.readouterr()
    assert main(["verify", str(path)]) == 0


def test_disjoint_scan_needs_two_translates():
    for k in (0, 1):
        with pytest.raises(ValueError):
            verify_disjoint_translates(k, 4)


def _head(path, v):
    """Where the word v leaves path, k letters in: path[:k] + (v[k],), or
    path[:k] + (None,) when v is path[:k]."""
    k = 0
    while k < min(len(v), len(path)) and v[k] == path[k]:
        k += 1
    return (v + (None,))[: k + 1]


# the empty path, every translator of the level-shift law and every power path
_A, _B = G.generators()
CLASS_PATHS = list(
    dict.fromkeys([*ball(G, 3), *(g**j for g in (_A, _A**-1, _B, _B**-1) for j in range(8))])
)


@pytest.mark.parametrize("path", CLASS_PATHS, ids=repr)
def test_path_classes_count_the_ball_by_head_and_height(path):
    path = path.value
    by_length = Counter((_head(path, x.value), height(x), len(x.value)) for x in ball(G, 8))
    for max_length in range(9):
        expected = Counter()
        for (head, h, n), count in by_length.items():
            if n <= max_length:
                expected[head, h] += count
        reps, heights, counts = f2._path_classes(G, path, max_length)
        keys = [(_head(path, x.value), h) for x, h in zip(reps, heights)]
        assert dict(zip(keys, counts)) == expected and len(keys) == len(expected)
        assert sum(counts) == 2 * 3**max_length - 1
        heads = {head for head, _ in keys}
        assert not any(head[:k] in heads for head in heads for k in range(len(head)))
        assert all(height(x) == h and len(x.value) <= max_length for x, h in zip(reps, heights))


def test_scans_at_the_cap_build_no_large_ball(monkeypatch):
    radii = []

    def recording(group, radius, **kwargs):
        radii.append(radius)
        return ball(group, radius, **kwargs)

    monkeypatch.setattr(f2, "ball", recording)
    identities = verify_identities(MAX_SCAN_LENGTH)
    disjoint = verify_disjoint_translates(MAX_TRANSLATES, MAX_SCAN_LENGTH)
    assert max(radii) <= TRANSLATE_RADIUS
    words = 2 * 3**MAX_SCAN_LENGTH - 1
    assert words == 1_062_881
    assert [(c.checked, c.failures) for c in identities.checks] == (
        [(words, 0)] * 6 + [(53 * (2 * 3**9 - 1), 0)]
    )
    assert [(c.checked, c.failures) for c in disjoint.checks] == [(words, 0)] * 4


def test_disjoint_scan_at_the_cap_passes_few_words_per_members_call(monkeypatch):
    # the words are counted along a^7 and b^7, not by (prefix of length 8, height)
    sizes = []
    members = f2._members

    def recording(w, words, heights, tests, memo):
        sizes.append(len(words))
        return members(w, words, heights, tests, memo)

    monkeypatch.setattr(f2, "_members", recording)
    assert verify_disjoint_translates(MAX_TRANSLATES, MAX_SCAN_LENGTH).ok
    assert sizes and max(sizes) <= 300
