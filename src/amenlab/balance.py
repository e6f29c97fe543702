"""Balanced and unbalanced families of subsets of a finite window.

A family of subsets of an ordered ground set is eps-balanced when some
convex combination of the characteristic vectors of its members has
max - min at most eps.  The least such eps (the balance deficiency) is
computed by a single exact LP, or by none when the family holds the
empty member (`empty_member_witness`); the dual phenomenon is an unbalance
witness: a zero-sum rational weighting of the ground set whose sum over
every member is strictly positive (normalized here to margin >= 1).
Exactly one of {deficiency == 0, witness exists} holds for every
nonempty family, and both sides are verifiable by plain arithmetic.

Members are stored as bitmasks over the ground order, so families stay
hashable and deduplication is cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .groups import CapExceeded
from .linprog import EQ, GE, LE, LinearSystem, Optimum, minimize, solve_feasibility
from .rationals import exact, fmt_q, items, parse_q

_F0 = Fraction(0)
_F1 = Fraction(1)

POSITIVE_SETS_CAP = 20  # largest ground set whose subsets `family_of_positive_sets` enumerates


class SetFamily:
    """A deduplicated collection of subsets of an ordered ground set."""

    def __init__(self, ground: Sequence, members: Iterable):
        self.ground = tuple(ground)
        if not self.ground:
            raise ValueError("ground set must be nonempty")
        width = len(self.ground)
        index = {label: i for i, label in enumerate(self.ground)}
        if len(index) != width:
            raise ValueError("ground labels must be distinct")
        masks = set()
        for member in members:
            if isinstance(member, int):
                mask = member
                if not 0 <= mask < (1 << width):
                    raise ValueError(f"member bitmask out of range: {mask}")
            else:
                mask = 0
                for label in member:
                    if label not in index:
                        raise ValueError(f"member label {label!r} is not in the ground set")
                    mask |= 1 << index[label]
            masks.add(mask)
        self.members: tuple[int, ...] = tuple(sorted(masks))

    def __eq__(self, other):
        return (
            isinstance(other, SetFamily)
            and self.ground == other.ground
            and self.members == other.members
        )

    def __hash__(self):
        return hash((self.ground, self.members))

    def __len__(self):
        return len(self.members)

    def member_labels(self) -> list[tuple]:
        """Members as tuples of ground labels, in canonical member order."""
        out = []
        for mask in self.members:
            out.append(tuple(g for i, g in enumerate(self.ground) if mask >> i & 1))
        return out

    def to_json(self) -> dict:
        return {
            "ground": [str(g) for g in self.ground],
            "members": [[str(g) for g in mem] for mem in self.member_labels()],
        }

    @classmethod
    def from_json(cls, obj: Mapping, parse: Callable = None) -> "SetFamily":
        if not isinstance(obj, Mapping) or set(obj) != {"ground", "members"}:
            raise ValueError("a set family is a JSON object with the fields ground and members")
        parse = parse or (lambda s: s)
        ground = [parse(g) for g in items(obj["ground"], str, "ground")]
        members = [
            [parse(g) for g in items(mem, str, "a member")]
            for mem in items(obj["members"], list, "members")
        ]
        return cls(ground, members)

    def __repr__(self):
        return f"SetFamily(ground={self.ground!r}, members={self.member_labels()!r})"


@dataclass(frozen=True)
class BalanceWitness:
    """Convex weights over the members attaining a max-min gap."""

    weights: tuple[Fraction, ...]  # aligned with SetFamily.members
    vector: tuple[Fraction, ...]  # combined characteristic vector over ground
    gap: Fraction

    def to_json(self) -> dict:
        return {
            "weights": [fmt_q(x) for x in self.weights],
            "vector": [fmt_q(x) for x in self.vector],
            "gap": fmt_q(self.gap),
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "BalanceWitness":
        return cls(
            tuple(parse_q(x) for x in obj["weights"]),
            tuple(parse_q(x) for x in obj["vector"]),
            parse_q(obj["gap"]),
        )


@dataclass(frozen=True)
class UnbalanceWitness:
    """Zero-sum ground weighting with positive sum on every member."""

    values: tuple[Fraction, ...]  # aligned with SetFamily.ground
    margin: Fraction  # min over members of the member sum; >= 1

    def to_json(self) -> dict:
        return {
            "values": [fmt_q(x) for x in self.values],
            "margin": fmt_q(self.margin),
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "UnbalanceWitness":
        return cls(tuple(parse_q(x) for x in obj["values"]), parse_q(obj["margin"]))


def combined_vector(
    masks: Iterable[int], weights: Iterable[Fraction], width: int
) -> tuple[Fraction, ...]:
    """Σ w·1_mask over positions 0 .. width - 1: position i sums the weights
    of the masks that have bit i set."""
    v = [_F0] * width
    for mask, lam in zip(masks, weights):
        if lam:
            for i in range(width):
                if mask >> i & 1:
                    v[i] += lam
    return tuple(v)


def member_sums(family: SetFamily, values: Sequence[Fraction]) -> list[Fraction]:
    """The sum of a ground weighting over each member, in member order."""
    width = len(family.ground)
    return [
        sum((values[i] for i in range(width) if mask >> i & 1), _F0) for mask in family.members
    ]


def deficiency_system(family: SetFamily) -> LinearSystem:
    """The deficiency LP: convex member weights, then t_hi, t_lo.

    Row order (relied on by certificate verification): the convexity row,
    then per ground position the upper bound followed by the lower bound.
    """
    if not family.members:
        raise ValueError("balance decisions need a nonempty family")
    k = len(family.members)
    width = len(family.ground)
    rows = [(tuple([1] * k + [0, 0]), EQ, 1)]
    for i in range(width):
        coeffs = [mask >> i & 1 for mask in family.members]
        rows.append((tuple(coeffs + [-1, 0]), LE, 0))
        rows.append((tuple(coeffs + [0, -1]), GE, 0))
    objective = [0] * k + [1, -1]
    nonneg = [True] * k + [False, False]
    return LinearSystem(k + 2, rows, objective, nonneg)


def deficiency_optimum(family: SetFamily) -> tuple[Optimum, BalanceWitness]:
    """The solved `deficiency_system` and the balance witness read from it.

    One LP: minimize t_hi - t_lo over convex weights, where the combined
    vector is pinned between t_lo and t_hi coordinatewise.  Zero weights
    are allowed, so any superfamily of a balanced family stays balanced.
    The optimum's duals certify that no smaller gap is attainable, and
    `minimize` has checked them, so t_hi - t_lo is max - min of the vector.
    """
    k = len(family.members)
    opt = minimize(deficiency_system(family))
    weights = tuple(opt.point[:k])
    vector = combined_vector(family.members, weights, len(family.ground))
    return opt, BalanceWitness(weights, vector, opt.value)


def empty_member_witness(family: SetFamily) -> BalanceWitness | None:
    """The witness `deficiency_optimum` reads, found without its LP, when the
    family holds the empty member; None otherwise.

    That witness is weights (1, 0, ..., 0), vector 0 and gap 0: the point
    mass on the empty member.  Proof, for the two-phase simplex under
    Bland's rule that `minimize` runs on `deficiency_system`:

    * The empty member is mask 0, so it is column 0, and it is nonzero
      only on the convexity row, whose artificial is basic.  Its phase-1
      reduced cost is -1, the least column index wins, and the convexity
      row is the only row with a positive entry: the first pivot enters
      λ₀ = 1 there.  Every other basic variable is 0, so the phase-1
      objective, the sum of the artificials, is 0.
    * From then on both phases sit at the lower bound of their objective:
      0 in phase 1, and in phase 2 t_hi − t_lo, which is 0 at this point
      (t_hi and t_lo are 0 there) and ≥ max v − min v ≥ 0 at every
      feasible one.  So every later pivot is degenerate: a ratio-test
      pivot on a positive ratio would lower the objective, and
      `_drive_out_artificials` pivots only on rows whose artificial is 0.
    * λ₀'s row has right-hand side 1, so it never wins a zero ratio and
      is not an artificial's row; λ₀ stays basic at 1 and the point never
      moves.

    The LP thus ends at weights e₀ and value 0, and the vector of e₀ is 0.
    """
    if family.members[:1] != (0,):
        return None
    k, width = len(family.members), len(family.ground)
    return BalanceWitness((_F1,) + (_F0,) * (k - 1), (_F0,) * width, _F0)


def balance_deficiency(family: SetFamily) -> tuple[Fraction, BalanceWitness]:
    """Least eps for which the family is eps-balanced, with attaining weights.

    The witness is `deficiency_optimum`'s; a family that holds the empty
    member gets it from `empty_member_witness`, with no LP.
    """
    witness = empty_member_witness(family)
    if witness is None:
        witness = deficiency_optimum(family)[1]
    return witness.gap, witness


def unbalance_witness(family: SetFamily) -> UnbalanceWitness | None:
    """A zero-sum f positive on every member, or None when balanced.

    Strictness is handled by scaling: feasibility of member sums >= 1 is
    equivalent to the existence of f with all member sums > 0, and
    `solve_feasibility` has checked the zero sum and every sum >= 1.
    """
    if not family.members:
        raise ValueError("balance decisions need a nonempty family")
    width = len(family.ground)
    rows = [(tuple([1] * width), EQ, 0)]
    for mask in family.members:
        coeffs = tuple(mask >> i & 1 for i in range(width))
        rows.append((coeffs, GE, 1))
    out = solve_feasibility(LinearSystem(width, rows))
    if not out.feasible:
        return None
    values = tuple(out.point)
    return UnbalanceWitness(values, min(member_sums(family, values)))


def family_of_positive_sets(values: Sequence, ground: Sequence) -> SetFamily:
    """All subsets of the ground set whose value sum is strictly positive.

    The input weighting must sum to zero; the ground set is limited to
    `POSITIVE_SETS_CAP` points because every subset is enumerated.
    """
    ground = tuple(ground)
    vals = [exact(v) for v in values]
    if len(vals) != len(ground):
        raise ValueError("values must align with the ground set")
    if sum(vals, _F0) != 0:
        raise ValueError("values must sum to zero")
    if len(ground) > POSITIVE_SETS_CAP:
        raise CapExceeded(f"ground set larger than cap {POSITIVE_SETS_CAP}")
    subsets = SetFamily(ground, range(1, 1 << len(ground)))
    sums = member_sums(subsets, vals)
    return SetFamily(ground, [mask for mask, total in zip(subsets.members, sums) if total > 0])


def verify_balance_witness(family: SetFamily, witness: BalanceWitness, eps=None) -> bool:
    """Exact recheck: convexity, vector recomputation, gap, optional bound."""
    eps = None if eps is None else exact(eps)
    if len(witness.weights) != len(family.members):
        return False
    if any(w < 0 for w in witness.weights):
        return False
    if sum(witness.weights, _F0) != 1:
        return False
    vector = combined_vector(family.members, witness.weights, len(family.ground))
    if vector != tuple(witness.vector):
        return False
    if max(vector) - min(vector) != witness.gap:
        return False
    if eps is not None and witness.gap > eps:
        return False
    return True


def verify_unbalance_witness(family: SetFamily, witness: UnbalanceWitness) -> bool:
    """Exact recheck: zero sum, margin recomputation, normalized margin."""
    if len(witness.values) != len(family.ground):
        return False
    if sum(witness.values, _F0) != 0:
        return False
    sums = member_sums(family, witness.values)
    if not sums or min(sums) != witness.margin:
        return False
    return witness.margin >= 1
