"""Folner sets, their weighted counterparts, and the bridge between them.

A finite set is eps-Folner when shifting it by each window element moves
at most an eps fraction of its points (counted with multiplicity over
the window).  Measures generalize sets: the invariance defect of a
probability measure is the total l1 movement under window shifts, and
any measure with defect <= eps hides an eps-Folner set among its weight
level sets.  This script maps the small landscape in Z and a cyclic
group, then runs the inequality harness connecting the Folner, weighted,
and averaging functions.
"""

from fractions import Fraction as Q

from amenlab import (
    CyclicGroup,
    FreeAbelianGroup,
    ball,
    folner_from_weighted,
    folner_function,
    inequality_harness,
    invariance_defect,
    is_epsilon_folner,
    weighted_folner,
)

Z = FreeAbelianGroup(1)
Z5 = CyclicGroup(5)

# intervals are the optimal Folner sets in Z: boundary 2, so size 2k
for k in (1, 2, 3):
    res = folner_function(Z, k, ball(Z, 6))
    print(f"Fol_Z({k}) = {res.size}  witness {[x.value[0] for x in res.witness]}"
          f"  exact={res.exact}")

# a finite group is 0-Folner in itself
whole = folner_function(Z5, 3, ball(Z5, 2))
print(f"\nFol_Z5(3) = {whole.size} ({whole.note})")

# the weighted analogue: optimal defect over admissible measures
print("\noptimal defects in Z (window = ball(1)):")
for n in (1, 2, 3, 4):
    cell = weighted_folner(Z, 1, n)
    print(f"  support radius {n - 1}: defect {cell.value}")

# layer-cake extraction: a low-defect measure yields a Folner level set
cell = weighted_folner(Z, 1, 4)
level = folner_from_weighted(cell.measure, ball(Z, 1), cell.value)
report = is_epsilon_folner(ball(Z, 1), level, cell.value)
print(
    f"\nextracted level set {[x.value[0] for x in sorted(level, key=lambda e: e.key())]}"
    f" with boundary total {report.total} <= {report.threshold}"
)

# uniform weights on a Folner set have defect boundary/|B|
B = [Z.parse_element(str(i)) for i in range(4)]
from amenlab import Measure

nu = Measure(Z, {b: Q(1, len(B)) for b in B})
print("uniform defect on {0..3}:", invariance_defect(nu, Z.generators()))

# the function-level inequalities, checked on computable instances
print("\ninequality harness on Z:")
for inst in inequality_harness(Z, [1], [1, 2]).instances:
    print(f"  {inst.name:32s} {str(inst.params):24s} {inst.lhs} vs {inst.rhs}: {inst.status}")
