"""Why the rank-2 free group resists invariant averaging.

Two ingredients:

1. A picture family trapped in a positive cone.  Weight the five-element
   window (identity, a, a^-1, b, b^-1) by (0, 1, 1, -1, -1) — a zero-sum
   weighting — and look at the set of words starting with a or a^-1.
   Every picture of that set, from every vantage point, has strictly
   positive weight.  No convex combination of such pictures can be
   constant, so no measure averages this set across the window; the same
   search over the integers comes back empty.

2. Five sets that cannot share one almost-invariant measure.  Derived
   from "starts with a^{+-1}" and "height > 0", each is almost invariant
   on its own, but powers of the generators translate them disjointly,
   which an exact LP turns into a Farkas-certified infeasibility for any
   finitely supported measure once the tolerated error drops below a
   threshold.  One more LP, minimizing the tolerated error, finds that
   threshold exactly, with dual multipliers proving it minimal.
"""

from fractions import Fraction as Q

from amenlab import FreeAbelianGroup, ball, realization_search
from amenlab.f2 import (
    f2_group,
    invariance_threshold,
    simultaneous_invariance,
    verify_disjoint_translates,
    verify_identities,
    verify_threshold_report,
)

F2 = f2_group()
Z = FreeAbelianGroup(1)

window = ball(F2, 1)
weights = {
    x: Q(0) if repr(x) == "e" else (Q(1) if repr(x) in ("a", "A") else Q(-1))
    for x in window
}
cert = realization_search(F2, window, weights, radius=3)
print("free group: found target", cert.target.to_json())
print("pictures over the probe ball:")
for member in cert.family.member_labels():
    total = sum(weights[x] for x in member)
    print("  ", sorted(repr(x) for x in member), "weight sum", total)

zweights = dict(zip(ball(Z, 1), [Q(1), Q(0), Q(-1)]))
print("\nintegers: same search ->", realization_search(Z, ball(Z, 1), zweights, 4))

# the structural facts behind the five-set obstruction, scanned pointwise
print("\nidentity scan (length <= 6):", verify_identities(6).ok)
print("disjoint translates (K=4, length <= 6):", verify_disjoint_translates(4, 6).ok)

# the finitized conclusion: infeasibility below the threshold, with a
# verified Farkas certificate, and an explicit measure above it
tight = simultaneous_invariance(8, Q(1, 100), 4)
print("\nK=8, delta=1/100, radius 4:", "feasible" if tight.feasible else "infeasible")

report = invariance_threshold(8, 4)
print(
    "exact threshold at radius 4: delta =",
    report.delta,
    "| checked against the full ball:",
    verify_threshold_report(report),
)
