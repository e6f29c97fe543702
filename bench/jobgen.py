"""Seeded job lists for the three benchmark workloads.

A job is a dict: ``name``, ``argv`` (amenlab CLI arguments, without
``--out``), ``expect`` (the verdict or status the chosen parameter range
guarantees, or None) and ``pair`` (jobs sharing a pair key must agree on
verdict and least failing mask).  The seed picks the rationals and the
job order; the structure of each list is fixed, so every seed asks for
the same kinds and sizes of work and runs stay comparable across seeds.

Ranges, and why.  No job takes more than about 2 s, so that a run of
40 s times every job of its list several times (see `run`):

* windows — ``ramsey-check --method pictures`` on Z, A = ball(1),
  B = ball(n) for each n in 6..8 once, eps in [0, 1).  Every eps there is
  a positive verdict (B is already 0-Ramsey), so each job enumerates all
  2^(2n+1) subsets: 8 192 to 131 072 subsets sharing about a hundred
  picture families.  Cost: 0.4 to 2 s a job, about 3 s a list.
* tables — ``function-table`` on Z5 and Z6 (m-max 1, k-max 2), plus
  low-sharing ``ramsey-check`` jobs: direct on Z ball(1)/ball(5) with eps
  in [0, 1) (always positive, 2048 subsets); pictures on Z
  ball(2)/ball(4) with eps in [1/2, 1) (positive, 474 families from 512
  subsets; below 1/2 it fails at mask 23 and skips the LPs); F2
  ball(1)/ball(2) by both methods at one eps in [5/12, 1/2) (negative).
  F2 eps stays <= 1/2: at 2/3 the same job enumerates all 2^17 subsets,
  measured at 350 s and 660 MB.  Below 1/2 the least failing mask falls
  with eps (227 at 1/2, 86 on [5/12, 1/2), 11 at 0), so the range is the
  plateau on which every seed checks the same 87 subsets.  The Z table (7 s, one job) is left out
  because a run could time it only a few times.  Cost: about 6 s a list.
* free_group — ``f2-verify --identities 8``, ``f2-verify --disjoint 4 8``
  and ``f2-infeasible 8 delta 6`` for one delta in [1/100, 1/4]
  (infeasible) and one in [1/2, 1) (feasible).  delta stays < 1 because
  delta >= 1 takes a shortcut with no LP.  Cost: about 5 s a list.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

Z = {"kind": "free_abelian", "rank": 1}
Z5 = {"kind": "cyclic", "order": 5}
Z6 = {"kind": "cyclic", "order": 6}
F2 = {"kind": "free", "generators": ["a", "b"]}


def rational(rng: random.Random, lo: Fraction, hi: Fraction, *, max_den: int = 12,
             closed: bool = False) -> Fraction:
    """A seeded p/q with q <= max_den in [lo, hi), or [lo, hi] when closed; 0 <= lo < hi <= 1."""
    while True:
        q = rng.randint(1, max_den)
        x = Fraction(rng.randint(0, q), q)
        if lo <= x and (x < hi or closed and x == hi):
            return x


def _q(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def ramsey_check(group, m, n, eps, method, *, expect=None, pair=None) -> dict:
    kind = group["kind"]
    return {
        "name": f"ramsey-check {kind} {m}/{n} {method} eps={_q(eps)}",
        "argv": ["ramsey-check", "--group", json.dumps(group), "--m", str(m), "--n", str(n),
                 "--eps", _q(eps), "--method", method],
        "expect": expect,
        "pair": pair,
    }


def function_table(group) -> dict:
    return {
        "name": f"function-table {group['kind']}",
        "argv": ["function-table", "--group", json.dumps(group), "--m-max", "1", "--k-max", "2"],
        "expect": None,
        "pair": None,
    }


def f2_infeasible(delta, *, expect) -> dict:
    return {
        "name": f"f2-infeasible 8 {_q(delta)} 6",
        "argv": ["f2-infeasible", "8", _q(delta), "6"],
        "expect": expect,
        "pair": None,
    }


def windows(rng: random.Random) -> list[dict]:
    return [
        ramsey_check(Z, 1, n, rational(rng, Fraction(0), Fraction(1)), "pictures", expect=True)
        for n in rng.sample([6, 7, 8], 3)
    ]


def tables(rng: random.Random) -> list[dict]:
    f2_eps = rational(rng, Fraction(5, 12), Fraction(1, 2))
    jobs = [
        function_table(Z5),
        function_table(Z6),
        ramsey_check(Z, 1, 5, rational(rng, Fraction(0), Fraction(1)), "direct", expect=True),
        ramsey_check(Z, 2, 4, rational(rng, Fraction(1, 2), Fraction(1)), "pictures", expect=True),
        ramsey_check(F2, 1, 2, f2_eps, "direct", expect=False, pair="f2"),
        ramsey_check(F2, 1, 2, f2_eps, "pictures", expect=False, pair="f2"),
    ]
    rng.shuffle(jobs)
    return jobs


def free_group(rng: random.Random) -> list[dict]:
    low = rational(rng, Fraction(1, 100), Fraction(1, 4), max_den=100, closed=True)
    high = rational(rng, Fraction(1, 2), Fraction(1))
    jobs = [
        {"name": "f2-verify identities 8", "argv": ["f2-verify", "--identities", "8"],
         "expect": None, "pair": None},
        {"name": "f2-verify disjoint 4 8", "argv": ["f2-verify", "--disjoint", "4", "8"],
         "expect": None, "pair": None},
        f2_infeasible(low, expect="infeasible"),
        f2_infeasible(high, expect="feasible"),
    ]
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {"windows": windows, "tables": tables, "free_group": free_group}


def generate(workload: str, seed: int) -> list[dict]:
    """The job list of `workload` for `seed`; equal seeds give equal lists."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
