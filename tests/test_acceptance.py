"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import random
import time
from fractions import Fraction as Q

from helpers_lp import oracle_feasible, random_system

from amenlab.balance import (
    SetFamily,
    balance_deficiency,
    unbalance_witness,
    verify_balance_witness,
    verify_unbalance_witness,
)
from amenlab.cli import main as cli_main
from amenlab.f2 import (
    invariance_threshold,
    simultaneous_invariance,
    verify_disjoint_translates,
    verify_identities,
    verify_invariance_outcome,
    verify_threshold_report,
)
from amenlab.folner import folner_function, inequality_harness, is_epsilon_folner
from amenlab.groups import (
    CyclicGroup,
    FreeAbelianGroup,
    FreeGroup,
    TableGroup,
    ball,
)
from amenlab.linprog import solve_feasibility, verify_certificate
from amenlab.pictures import realization_search, verify_nonamenability_certificate
from amenlab.ramsey import boost, direct_gap_system, interior, is_epsilon_ramsey
from amenlab.rationals import canonical_dumps

Z = FreeAbelianGroup(1)
F2 = FreeGroup(["a", "b"])
Z5 = CyclicGroup(5)


def _stamp(start, label):
    print(f"\n[criterion] {label} ({time.time() - start:.1f}s)")


def test_criterion_01_balance_duality():
    start = time.time()
    ground = "xyz"
    subsets = list(range(8))
    families = 0
    for selector in range(1, 1 << 8):
        members = [subsets[i] for i in range(8) if selector >> i & 1]
        family = SetFamily(ground, members)
        eps_star, witness = balance_deficiency(family)
        dual = unbalance_witness(family)
        assert (eps_star == 0) != (dual is not None), family
        assert verify_balance_witness(family, witness)
        if dual is not None:
            assert verify_unbalance_witness(family, dual)
        families += 1
    assert families == 255
    elapsed = time.time() - start
    assert elapsed < 10, f"balance duality took {elapsed:.1f}s, budget is 10s"
    _stamp(start, "1 PASS: exact balance duality on all 255 three-point families")


def test_criterion_02_ramsey_method_agreement():
    start = time.time()
    window = ball(Z, 1)
    width = len(window)
    compared = 0
    for n in range(1, 8):
        bset = ball(Z, n)
        C = interior(window, bset)
        if not C:
            continue
        products = sorted({a * c for a in window for c in C}, key=lambda e: e.key())
        k = len(products)
        if k > 14:
            continue
        pos = {x: i for i, x in enumerate(products)}
        prod_pos = [[pos[a * c] for a in window] for c in C]
        for eps in (Q(0), Q(1, 2)):
            balance_memo = {}
            for mask in range(1 << k):
                cols = []
                for pp in prod_pos:
                    m = 0
                    for i in range(width):
                        if mask >> pp[i] & 1:
                            m |= 1 << i
                    cols.append(m)
                direct_ok = solve_feasibility(
                    direct_gap_system(width, cols, eps)
                ).feasible
                key = frozenset(cols)
                hit = balance_memo.get(key)
                if hit is None:
                    hit = balance_deficiency(SetFamily(window, key))[0] <= eps
                    balance_memo[key] = hit
                assert direct_ok == hit, (n, str(eps), mask)
                compared += 1
        # the aggregated verdicts must agree as well
        for eps in (Q(0), Q(1, 2)):
            a = is_epsilon_ramsey(window, bset, eps, method="direct")
            b = is_epsilon_ramsey(window, bset, eps, method="pictures")
            assert a.is_ramsey == b.is_ramsey
            if not a.is_ramsey:
                assert a.counterexample.e_mask == b.counterexample.e_mask
    elapsed = time.time() - start
    assert compared == 21840
    assert elapsed < 300, f"method agreement took {elapsed:.1f}s, budget is 300s"
    _stamp(start, f"2 PASS: direct and picture methods agree on {compared} subsets")


def test_criterion_03_z_folner_function():
    start = time.time()
    window = [Z.parse_element(str(k)) for k in range(-6, 7)]
    gens = Z.generators()
    oracle = {}
    for k in (1, 2):
        best = None
        for mask in range(1, 1 << len(window)):
            cand = [window[i] for i in range(len(window)) if mask >> i & 1]
            if best is not None and len(cand) >= best:
                continue
            if is_epsilon_folner(gens, cand, Q(1, k)).ok:
                best = len(cand)
        oracle[k] = best
    assert oracle == {1: 2, 2: 4}
    for k in (1, 2):
        res = folner_function(Z, k, window)
        assert res.size == oracle[k] and res.exact
    elapsed = time.time() - start
    assert elapsed < 60, f"Folner search took {elapsed:.1f}s, budget is 60s"
    _stamp(start, "3 PASS: Fol_Z(1)=2 and Fol_Z(2)=4, matching the exhaustive oracle")


def test_criterion_04_ball_growth():
    start = time.time()
    for n in range(9):
        assert len(ball(F2, n)) == 2 * 3**n - 1
    s3 = [
        [0, 1, 2, 3, 4, 5],
        [1, 0, 4, 5, 2, 3],
        [2, 5, 0, 4, 3, 1],
        [3, 4, 5, 0, 1, 2],
        [4, 3, 1, 2, 5, 0],
        [5, 2, 3, 1, 0, 4],
    ]
    for group in (F2, Z, FreeAbelianGroup(2), Z5, TableGroup(s3)):
        s = len(group.generators())
        for n in range(9):
            assert len(ball(group, n)) <= (2 * s + 1) ** n or n == 0
    _stamp(start, "4 PASS: |B_n| = 2*3^n - 1 in F2 (n <= 8) and (2|S|+1)^n bounds hold")


def test_criterion_05_f2_identities():
    start = time.time()
    identities = verify_identities(10)
    assert identities.ok
    assert all(c.failures == 0 for c in identities.checks)
    translate = [c for c in identities.checks if c.name == "translate_high_is_level_shift"]
    assert translate and translate[0].checked == 53 * (2 * 3**7 - 1)
    disjoint = verify_disjoint_translates(4, 10)
    assert disjoint.ok
    assert len(disjoint.checks) == 4
    elapsed = time.time() - start
    assert elapsed < 120, f"identity scans took {elapsed:.1f}s, budget is 120s"
    _stamp(start, "5 PASS: all pointwise identities and 4 disjoint-translate families at L=10")


def test_criterion_06_invariance_threshold():
    start = time.time()
    report = invariance_threshold(8, 6)
    assert report.delta == Q(1, 2)
    assert verify_threshold_report(report)
    above = simultaneous_invariance(8, report.delta, 6)
    assert above.feasible and above.measure is not None
    assert verify_invariance_outcome(above)
    below = simultaneous_invariance(8, Q(49, 100), 6)
    assert not below.feasible and below.farkas is not None
    assert verify_invariance_outcome(below)
    _stamp(
        start,
        "6 PASS: five-set invariance LP threshold delta="
        f"{report.delta} exactly: infeasible at 49/100, feasible at {report.delta} (K=8, r=6)",
    )


def test_criterion_07_boost_contraction():
    start = time.time()

    def ramp(g):
        return max(Q(0), min(Q(1), Q(g.value[0] + 8, 16)))

    window = ball(Z, 1)
    for k in (1, 2, 3):
        eps = Q(3, 4) ** k
        res = boost(window, ramp, eps)
        assert len(res.steps) == k
        assert res.final_gap <= eps
        for i, step in enumerate(res.steps):
            assert step.tail_gap <= Q(3, 4) ** (k - i)
    _stamp(start, "7 PASS: boosted chains verified at gap <= (3/4)^k for k = 1, 2, 3")


def test_criterion_08_inequality_harness():
    start = time.time()
    for group, label in ((Z, "Z"), (Z5, "Z5")):
        report = inequality_harness(group, [1], [1, 2])
        assert not report.violated, f"{label}: {[i.to_json() for i in report.violated]}"
        computed = {
            (i.name, str(i.params)): i.status
            for i in report.instances
        }
        for k in (1, 2):
            key = ("ramsey_le_weighted", str({"m": 1, "eps": f"1/{k}"}))
            assert computed[key] == "holds"
            key = ("folner_le_exp_weighted", str({"k": k}))
            assert computed[key] == "holds"
    _stamp(start, "8 PASS: every computed inequality instance holds on Z and Z5")


def test_criterion_09_nonamenability_certificate():
    start = time.time()
    window = ball(F2, 1)
    f = {
        x: Q(0) if repr(x) == "e" else (Q(1) if repr(x) in ("a", "A") else Q(-1))
        for x in window
    }
    cert = realization_search(F2, window, f, 4)
    assert cert is not None
    assert verify_nonamenability_certificate(cert)
    assert cert.witness.margin >= 1
    for member in cert.family.member_labels():
        assert sum((f[x] for x in member), Q(0)) > 0
    zwindow = ball(Z, 1)
    assert realization_search(Z, zwindow, dict(zip(zwindow, [Q(1), Q(0), Q(-1)])), 4) is None
    _stamp(start, "9 PASS: F2 search yields a verified certificate; the Z search is empty")


def test_criterion_10_lp_certification():
    start = time.time()
    rng = random.Random(20250809)
    for i in range(500):
        system = random_system(rng)
        out = solve_feasibility(system)
        assert verify_certificate(system, out), i
        assert out.feasible == oracle_feasible(system), i
        again = solve_feasibility(system)
        assert canonical_dumps(out.to_json()) == canonical_dumps(again.to_json())
    # byte-identical envelopes across independent CLI runs
    import json

    class _Capture:
        def __init__(self):
            self.chunks = []

        def write(self, text):
            self.chunks.append(text)

        def flush(self):
            pass

    import sys

    def run_cli(argv):
        cap = _Capture()
        old = sys.stdout
        sys.stdout = cap
        try:
            code = cli_main(argv)
        finally:
            sys.stdout = old
        assert code == 0
        return "".join(cap.chunks)

    argv = [
        "ramsey-check", "--group", '{"kind":"free_abelian","rank":1}',
        "--m", "1", "--n", "2", "--eps", "1/2",
    ]
    assert run_cli(argv) == run_cli(argv)
    json.loads(run_cli(argv))
    _stamp(start, "10 PASS: 500 LPs match the sub-basis oracle; envelopes byte-stable")
