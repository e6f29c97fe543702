"""Averaging windows: deciding eps-Ramsey sets and building their measures.

A finite set ``B`` is eps-Ramsey with respect to a window ``A`` when for
every ``E subset of B`` there is a probability measure ``nu`` whose
window translates all stay inside ``B`` (equivalently: the support lies
in the interior ``C = {b in B : A*b subset of B}``) and whose translated
measures of ``E`` pairwise differ by at most eps.

Two independent decision routes are implemented and must agree:

* direct:   for each ``E`` solve the LP over ``nu in P(C)`` with the
            pairwise gap constraints, once per picture family;
* pictures: for each ``E`` test eps-balancedness of the picture family
            ``{ {a in A : a*c in E} : c in C }`` via the balance module.

Only subsets of ``A*C`` matter: a picture depends on ``E`` through
``E ∩ A*C`` alone, so every other subset of ``B`` is equivalent to one
of these.  Subsets are numbered by bitmask over the canonical order of
``A*C``, and a failing verdict reports the least failing mask.  The
direct route visits every mask in increasing order (`_masks_and_columns`)
and solves the gap LP the first time a mask realizes a family.  The
pictures route sees each realized family once, at its least mask and
in increasing mask order, from a memoized depth-first search over E's
bits (`_families`), so it never walks the masks that repeat a family.
It solves one deficiency LP per realized family that does not hold the
empty picture; a family that holds it is balanced, and Bland's rule
would stop at the point mass on the empty member, so that witness is
written without an LP (`empty_member_witness`).  The enumeration cap
bounds |A*C|.

The module also houses the constructive gap reductions: turning a
1/2-Ramsey witness for the binary level set of ``f`` into a measure with
f-gap at most 3/4, and boosting that single step through a tower of
windows to reach any positive gap (the verified contraction is (3/4)^n).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .balance import (
    BalanceWitness,
    SetFamily,
    deficiency_optimum,
    deficiency_system,
    empty_member_witness,
    verify_balance_witness,
)
from .groups import (
    CapExceeded,
    Element,
    Group,
    Measure,
    ball,
    parse_elements,
    sort_elements,
)
from .linprog import (
    EQ,
    GE,
    LE,
    FeasibilityOutcome,
    LinearSystem,
    Optimum,
    solve_feasibility,
    verify_certificate,
)
from .pictures import picture
from .rationals import exact, fmt_q, parse_q, typed

_F1 = Fraction(1)

DEFAULT_ENUMERATION_CAP = 24
WITNESS_MASK_LIMIT = 4096  # direct verdicts keep per-subset witnesses up to this many subsets
BOOST_STEP_GAP = Fraction(3, 4)
BOOST_RADIUS_CAP = 64  # largest ball radius in a boost tower
# most elements of a ball in a boost tower: above every level the tests, README and demos
# build (Z's ball(64) has 129, F2's ball(3) 53) and Z^2's ball(16) (545), and below
# F2's ball(8) (13,121), whose level LP over the window ball(4) would have 25,761 rows
BOOST_BALL_CAP = 1000
BOOST_ATTEMPT_CAP = 50  # descents, each after one level's radius is bumped


def interior(window: Iterable[Element], bset: Iterable[Element]) -> tuple[Element, ...]:
    """C = {b in B : a*b in B for every a in A}, canonically ordered.

    Measures supported in C are exactly those whose window translates
    stay supported in B.  C may be empty.
    """
    bpool = frozenset(bset)
    window = tuple(window)
    out = []
    for b in bpool:
        if all(a * b in bpool for a in window):
            out.append(b)
    return tuple(sort_elements(out))


def _masks_and_columns(prod_pos: Sequence[Sequence[int]], k: int):
    """Yield (e_mask, cols) for e_mask = 0, 1, ..., 2^k - 1 in that order.

    cols[j] is the picture of E at interior point j: bit i is set when
    position prod_pos[j][i] of A*C is in E.  `cols` is one list, updated
    in place between yields.  From e - 1 to e exactly positions 0..t flip,
    t being the index of e's lowest set bit, so each step applies the
    precomputed XOR of every column those positions feed.
    """
    carry = []  # carry[t]: (column, XOR) for every column that positions 0..t feed
    for t in range(k):
        flips = (
            (j, sum(1 << i for i, p in enumerate(positions) if p <= t))
            for j, positions in enumerate(prod_pos)
        )
        carry.append(tuple((j, x) for j, x in flips if x))
    cols = [0] * len(prod_pos)
    yield 0, cols
    for e_mask in range(1, 1 << k):
        for j, x in carry[(e_mask & -e_mask).bit_length() - 1]:
            cols[j] ^= x
        yield e_mask, cols


def _families(prod_pos: Sequence[Sequence[int]], k: int, width: int):
    """Yield (e_mask, family) once per picture family that the subsets of
    A*C realize, with the least mask realizing it, in increasing mask order.

    family is the frozenset of the columns `_masks_and_columns` gives at
    e_mask.  A depth-first search decides E's bits from position k - 1
    down to 0, bit 0 before bit 1, so the leaves come in mask order.  Its
    node holds the position, the closed family as a bitmask (bit v set when
    a closed column is v) and every open column's partial picture, column j
    at shift j * width.  A column closes at its least position, where its
    last bit is decided.  The families below a node depend on that state
    alone, and the first visit of a state had the smaller prefix, so a node
    whose state was visited before is skipped.  Above `top`, the highest
    position at which a column closes, no column has closed and no state
    repeats, so only the nodes below `top` are recorded.
    """
    full = (1 << width) - 1
    top = max(min(positions) for positions in prod_pos)
    feeds = [0] * k  # feeds[p]: the packed partial-picture bits that position p sets
    closes: list[list[int]] = [[] for _ in range(k)]  # shifts of the columns closing at p
    for j, positions in enumerate(prod_pos):
        for i, p in enumerate(positions):
            feeds[p] |= 1 << (j * width + i)
        closes[min(positions)].append(j * width)
    keeps = [~sum(full << s for s in shifts) for shifts in closes]
    visited = set()
    found = set()  # families yielded so far, as bitmasks
    stack = [(k - 1, 0, 0, 0)]  # (position to decide, mask, family, partials)
    while stack:
        p, mask, family, part = stack.pop()
        if p < top:
            node = (p, family, part)
            if node in visited:
                continue
            visited.add(node)
        fam0 = fam1 = family
        part1 = part ^ feeds[p]
        for s in closes[p]:
            fam0 |= 1 << (part >> s & full)
            fam1 |= 1 << (part1 >> s & full)
        if p:
            stack.append((p - 1, mask | 1 << p, fam1, part1 & keeps[p]))
            stack.append((p - 1, mask, fam0, part & keeps[p]))
            continue
        for e_mask, fam in ((mask, fam0), (mask | 1, fam1)):
            if fam not in found:
                found.add(fam)
                members = []
                while fam:
                    low = fam & -fam
                    members.append(low.bit_length() - 1)
                    fam ^= low
                yield e_mask, frozenset(members)


def _layout(window: Sequence[Element], bset: Iterable[Element]):
    """Interior C, the products A*C in canonical order, their position map,
    and prod_pos[j][i], the position of window[i] * C[j]."""
    C = interior(window, bset)
    products = tuple(sort_elements({a * c for a in window for c in C}))
    pos = {x: i for i, x in enumerate(products)}
    prod_pos = [[pos[a * c] for a in window] for c in C]
    return C, products, pos, prod_pos


def direct_gap_system(
    width: int, cols: Sequence[int], eps: Fraction
) -> LinearSystem:
    """The direct-method LP for one E, encoded by its picture columns.

    Variables are the interior weights.  Row order (relied on by
    verification): the normalization row, then for each window pair
    (i, j), i < j, the <= eps row followed by the >= -eps row; pairs
    whose coefficient rows vanish are kept for stable indexing.
    """
    nc = len(cols)
    rows = [(tuple([1] * nc), EQ, 1)]
    for i in range(width):
        for j in range(i + 1, width):
            coeffs = tuple((col >> i & 1) - (col >> j & 1) for col in cols)
            rows.append((coeffs, LE, eps))
            rows.append((coeffs, GE, -eps))
    return LinearSystem(nc, rows, nonneg=True)


@dataclass(frozen=True)
class RamseyCounterexample:
    e_mask: int
    elements: tuple[Element, ...]
    kind: str  # "direct_farkas" | "balance_optimum" | "empty_interior"
    payload: dict

    def to_json(self) -> dict:
        return {
            "E_mask": self.e_mask,
            "E": [repr(x) for x in self.elements],
            "kind": self.kind,
            "payload": self.payload,
        }


@dataclass
class RamseyVerdict:
    """Outcome of one eps-Ramsey decision, with verifiable evidence."""

    is_ramsey: bool
    eps: Fraction
    method: str
    window: tuple[Element, ...]
    bset: tuple[Element, ...]
    interior: tuple[Element, ...]
    products: tuple[Element, ...]  # A*C in canonical order; E's live here
    reason: str | None = None
    witnesses: dict[int, Measure] | None = None  # E mask -> measure
    family_witnesses: list[tuple[SetFamily, BalanceWitness]] | None = None
    counterexample: RamseyCounterexample | None = None
    subsets_checked: int = 0

    def to_json(self) -> dict:
        out = {
            "is_ramsey": self.is_ramsey,
            "eps": fmt_q(self.eps),
            "method": self.method,
            "window": [repr(x) for x in self.window],
            "bset": [repr(x) for x in self.bset],
            "interior": [repr(x) for x in self.interior],
            "products": [repr(x) for x in self.products],
            "subsets_checked": self.subsets_checked,
        }
        if self.reason:
            out["reason"] = self.reason
        if self.witnesses is not None:
            out["witnesses"] = {
                str(mask): nu.to_json() for mask, nu in sorted(self.witnesses.items())
            }
        if self.family_witnesses is not None:
            out["family_witnesses"] = [
                {"family": fam.to_json(), "witness": w.to_json()}
                for fam, w in self.family_witnesses
            ]
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample.to_json()
        return out

    @classmethod
    def from_json(cls, obj: Mapping, group: Group) -> "RamseyVerdict":
        witnesses = family_witnesses = counterexample = None
        if "witnesses" in obj:
            # a mask is a plain decimal, so "05" cannot alias "5"
            if any(str(int(mask)) != mask for mask in obj["witnesses"]):
                raise ValueError("each witness mask must be a plain decimal")
            witnesses = {
                int(mask): Measure.from_json(group, nu) for mask, nu in obj["witnesses"].items()
            }
        if "family_witnesses" in obj:
            family_witnesses = [
                (
                    SetFamily.from_json(item["family"], group.read_element),
                    BalanceWitness.from_json(item["witness"]),
                )
                for item in obj["family_witnesses"]
            ]
        if "counterexample" in obj:
            ce = obj["counterexample"]
            e_mask, e_set = typed(ce["E_mask"], int, "E_mask"), parse_elements(group, ce["E"])
            counterexample = RamseyCounterexample(e_mask, e_set, ce["kind"], ce["payload"])
        return cls(
            typed(obj["is_ramsey"], bool, "is_ramsey"),
            parse_q(obj["eps"]),
            obj["method"],
            parse_elements(group, obj["window"]),
            parse_elements(group, obj["bset"]),
            parse_elements(group, obj["interior"]),
            parse_elements(group, obj["products"]),
            reason=obj.get("reason"),
            witnesses=witnesses,
            family_witnesses=family_witnesses,
            counterexample=counterexample,
            subsets_checked=typed(obj["subsets_checked"], int, "subsets_checked"),
        )


def _mask_elements(products: Sequence[Element], mask: int) -> tuple[Element, ...]:
    return tuple(x for i, x in enumerate(products) if mask >> i & 1)


def _keeps_witnesses(method: str, k: int) -> bool:
    """Whether a positive verdict over the 2^k subsets of A*C carries witnesses.

    The pictures route always keeps its family witnesses; the direct
    route keeps one measure per subset up to `WITNESS_MASK_LIMIT` subsets.
    """
    return method == "pictures" or 1 << k <= WITNESS_MASK_LIMIT


def ramsey_eps(eps) -> Fraction:
    """eps through the `exact` gate; a negative eps is a ValueError."""
    eps = exact(eps)
    if eps < 0:
        raise ValueError("eps must be >= 0")
    return eps


def is_epsilon_ramsey(
    window: Iterable[Element],
    bset: Iterable[Element],
    eps,
    *,
    method: str = "direct",
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> RamseyVerdict:
    """Decide eps-Ramseyness of B with respect to the window A.

    Covers every subset of A*C and reports either witnesses for all of
    them (as far as `_keeps_witnesses` allows) or the least failing subset
    in bitmask order with an exact infeasibility certificate.  ``method``
    selects the decision route; both produce identical verdicts.  The
    direct route visits every mask and solves one gap LP per realized
    family, on its distinct columns: a repeated LP column never enters a
    Bland's-rule basis, so the point and Farkas multipliers are those of
    the LP on every column.  The pictures route solves one deficiency LP
    per realized family that does not hold the empty picture, in the
    order of the families' least masks; a family that holds it gets the
    LP's witness, the point mass on the empty member, from
    `empty_member_witness`.
    """
    eps = ramsey_eps(eps)
    if method not in ("direct", "pictures"):
        raise ValueError("method must be 'direct' or 'pictures'")
    window = tuple(sort_elements(window))
    bset_t = tuple(sort_elements(bset))
    group = window[0].group
    C, products, _, prod_pos = _layout(window, bset_t)
    if not C:
        return RamseyVerdict(
            False,
            eps,
            method,
            window,
            bset_t,
            C,
            (),
            reason="empty_interior",
            counterexample=RamseyCounterexample(0, (), "empty_interior", {}),
        )
    k = len(products)
    if k > cap:
        raise CapExceeded(f"|A*C| = {k} exceeds enumeration cap {cap}")
    width = len(window)
    witnesses: dict[int, Measure] | None = None
    family_witnesses: list[tuple[SetFamily, BalanceWitness]] | None = None
    counterexample = None
    checked = 1 << k  # every subset, unless a counterexample stops the search

    if method == "pictures":
        family_witnesses = []
        for e_mask, members in _families(prod_pos, k, width):
            family = SetFamily(window, members)
            witness = empty_member_witness(family)
            if witness is None:
                optimum, witness = deficiency_optimum(family)
                if optimum.value > eps:
                    counterexample = RamseyCounterexample(
                        e_mask,
                        _mask_elements(products, e_mask),
                        "balance_optimum",
                        {
                            "family": family.to_json(),
                            "optimum": optimum.to_json(),
                        },
                    )
                    checked = e_mask + 1
                    break
            family_witnesses.append((family, witness))
        family_witnesses.sort(key=lambda fw: fw[0].members)
    else:
        if _keeps_witnesses(method, k):
            witnesses = {}
        direct_memo: dict[frozenset[int], FeasibilityOutcome] = {}
        for e_mask, cols in _masks_and_columns(prod_pos, k):
            family = frozenset(cols)
            outcome = direct_memo.get(family)
            if outcome is None:
                outcome = solve_feasibility(direct_gap_system(width, sorted(family), eps))
                direct_memo[family] = outcome
            if not outcome.feasible:
                # a Farkas certificate weighs the rows, which do not depend on
                # how often or in which order the columns occur
                counterexample = RamseyCounterexample(
                    e_mask,
                    _mask_elements(products, e_mask),
                    "direct_farkas",
                    {"farkas": [fmt_q(x) for x in outcome.farkas]},
                )
                checked = e_mask + 1
                break
            if witnesses is not None:
                # each column's weight goes to the first interior point with that column
                weights = dict(zip(sorted(family), outcome.point))
                support = {c: weights.pop(col) for c, col in zip(C, cols) if weights.get(col)}
                witnesses[e_mask] = Measure(group, support)

    ok = counterexample is None
    return RamseyVerdict(
        ok,
        eps,
        method,
        window,
        bset_t,
        C,
        products,
        witnesses=witnesses if ok else None,
        family_witnesses=family_witnesses if ok else None,
        counterexample=counterexample,
        subsets_checked=checked,
    )


def verify_ramsey_verdict(verdict: RamseyVerdict) -> bool | None:
    """Recheck a verdict's stored evidence without re-running the search.

    A positive verdict's witnesses must cover every subset of A*C: direct
    witnesses are keyed by exactly the masks 0 .. 2^k - 1, and the
    pictures route's families are exactly the families those subsets
    realize, recomputed by enumeration alone (no LP).  A counterexample's
    columns are rebuilt from its subset with `picture`.  Returns None for
    a positive verdict that carries no witnesses because its route keeps
    none (`_keeps_witnesses`): only its layout and subset count were
    checked.  One whose route keeps them fails.
    """
    window = verdict.window
    C, products, pos, prod_pos = _layout(window, verdict.bset)
    if tuple(C) != tuple(verdict.interior):
        return False
    if verdict.reason == "empty_interior":
        return not C and not verdict.is_ramsey
    if products != tuple(verdict.products):
        return False
    k = len(products)
    if verdict.is_ramsey:
        if verdict.subsets_checked != 1 << k:
            return False
        if verdict.witnesses is None and verdict.family_witnesses is None:
            return False if _keeps_witnesses(verdict.method, k) else None
        if verdict.witnesses is not None:
            if verdict.witnesses.keys() != set(range(1 << k)):
                return False
            for e_mask, nu in verdict.witnesses.items():
                # E's indicator; bit k of e_mask is 0, so points off A*C are outside E
                gap = nu.gap(window, lambda x: e_mask >> pos.get(x, k) & 1)
                if set(nu.support()) - set(C) or gap > verdict.eps:
                    return False
        if verdict.family_witnesses is not None:
            realized = {frozenset(cols) for _, cols in _masks_and_columns(prod_pos, k)}
            witnessed = [frozenset(family.members) for family, _ in verdict.family_witnesses]
            if len(witnessed) != len(realized) or set(witnessed) != realized:
                return False
            for family, wit in verdict.family_witnesses:
                if family.ground != window or not verify_balance_witness(family, wit, verdict.eps):
                    return False
        return True
    ce = verdict.counterexample
    if (
        ce is None
        or not 0 <= ce.e_mask < 1 << k
        or ce.elements != _mask_elements(products, ce.e_mask)
        or verdict.subsets_checked != ce.e_mask + 1
    ):
        return False
    in_e = frozenset(ce.elements).__contains__
    cols = [picture(window, in_e, c) for c in C]
    if ce.kind == "direct_farkas":
        system = direct_gap_system(len(window), cols, verdict.eps)
        farkas = tuple(parse_q(x) for x in ce.payload["farkas"])
        return verify_certificate(system, FeasibilityOutcome(False, farkas=farkas))
    if ce.kind == "balance_optimum":
        family = SetFamily(window, cols)
        if ce.payload["family"] != family.to_json():
            return False
        optimum = Optimum.from_json(ce.payload["optimum"])
        if not verify_certificate(deficiency_system(family), optimum):
            return False
        return optimum.value > verdict.eps
    return False


def subset_measure(
    window: Sequence[Element],
    bset: Sequence[Element],
    e_elements: Iterable[Element],
    eps=Fraction(1, 2),
) -> Measure | None:
    """A measure with E-gap <= eps for one specific E, or None.

    The single-subset slice of the eps-Ramsey property; only the part of
    E inside A*C matters, and the 1/2 default is all the boosting
    construction ever needs from a window.  It solves the LP over every
    interior point in canonical order, not over E's distinct columns as
    `is_epsilon_ramsey` does: that LP can end at another point, and routed
    through it, Z5 and Z6 `boost` results changed.
    """
    eps = exact(eps)
    window = tuple(sort_elements(window))
    C = interior(window, bset)
    if not C:
        return None
    group = window[0].group
    in_e = frozenset(e_elements).__contains__
    cols = [picture(window, in_e, c) for c in C]
    system = direct_gap_system(len(window), cols, eps)
    outcome = solve_feasibility(system)
    if not outcome.feasible:
        return None
    weights = {c: w for c, w in zip(C, outcome.point) if w}
    return Measure(group, weights)


def binary_to_unit(
    window: Sequence[Element],
    bset: Sequence[Element],
    f: Mapping[Element, Fraction],
) -> Measure:
    """From the 1/2-Ramsey witness of the level set {f >= 1/2} to an
    f-gap of at most 3/4.

    ``f`` is a mapping from every point of B to a value in [0,1].  The
    returned measure is the witness for the induced binary set; splitting
    f as (1/2)*chi_E + (f - (1/2)*chi_E) bounds its gap by 1/4 + 1/2, and
    the bound is verified exactly before returning.
    """
    bset_t = tuple(sort_elements(bset))
    fvals = {}
    for b in bset_t:
        v = exact(f[b])
        if not 0 <= v <= 1:
            raise ValueError("f must map B into [0,1]")
        fvals[b] = v
    e_elements = frozenset(b for b, v in fvals.items() if v >= Fraction(1, 2))
    nu = subset_measure(window, bset_t, e_elements)
    if nu is None:
        raise ValueError("B is not 1/2-Ramsey w.r.t. the window for the level set of f")
    gap = nu.gap(window, fvals.__getitem__)
    if gap > BOOST_STEP_GAP:
        raise RuntimeError("internal error: single-step gap bound violated")
    return nu


@dataclass
class BoostStep:
    window: tuple[Element, ...]
    next_window: tuple[Element, ...]
    measure: Measure
    tail_gap: Fraction  # verified gap of the composed tail over `window`


@dataclass
class BoostResult:
    measure: Measure
    steps: list[BoostStep]
    final_gap: Fraction
    target_eps: Fraction

    def to_json(self) -> dict:
        return {
            "steps": [
                {
                    "window_size": len(s.window),
                    "next_window_size": len(s.next_window),
                    "measure": s.measure.to_json(),
                    "tail_gap": fmt_q(s.tail_gap),
                }
                for s in self.steps
            ],
            "measure": self.measure.to_json(),
            "final_gap": fmt_q(self.final_gap),
            "eps": fmt_q(self.target_eps),
        }


def boost_steps_needed(eps: Fraction) -> int:
    """Least n with (3/4)^n <= eps."""
    eps = exact(eps)
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    n = 0
    power = _F1
    while power > eps:
        power *= BOOST_STEP_GAP
        n += 1
    return n


def _ball_tower(window: tuple[Element, ...], bumps: Sequence[int]) -> list[tuple[Element, ...]]:
    """window, then one ball per level: the least ball enclosing the level
    below has radius r, and the next level is ball(max(2r, r+1) + bump).

    ball(2r) contains ball(r)·ball(r), so each level holds the pairwise
    products of the one below.  r is recomputed at every level because a
    ball can stop growing (on a finite group), which plain doubling misses.
    """
    group = window[0].group
    towers = [window]
    for bump in bumps:
        current = set(towers[-1])
        radius = 0
        while not current <= set(ball(group, radius, cap=BOOST_BALL_CAP)):
            radius += 1
            if radius > BOOST_RADIUS_CAP:
                raise CapExceeded(f"boost window is not contained in ball({BOOST_RADIUS_CAP})")
        next_radius = max(2 * radius, radius + 1) + bump
        if next_radius > BOOST_RADIUS_CAP:
            raise CapExceeded("boost tower exceeded the radius cap")
        towers.append(ball(group, next_radius, cap=BOOST_BALL_CAP))
    return towers


def boost(
    window: Iterable[Element],
    f: Callable[[Element], Fraction],
    eps,
) -> BoostResult:
    """Compose single-step measures until the f-gap over the window is <= eps.

    Builds a tower of n = `boost_steps_needed(eps)` balls over the window
    (see `_ball_tower`) and descends it once from the top.  The running
    convolution rho = nu_{i+1} * ... * nu_{n-1} gives level i its tail
    g -> (g rho)(f); rescaled into [0,1], `binary_to_unit` turns it into
    nu_i, and nu_i * rho gives the tail gap over level i, at most
    (3/4)^(n-i).  A level whose step fails gets one more unit of radius
    and the descent restarts, at most `BOOST_ATTEMPT_CAP` times; a tower
    past `BOOST_RADIUS_CAP` or with a ball past `BOOST_BALL_CAP` raises
    `CapExceeded` as it is built.  All gap bounds, per
    step and final, are verified exactly.
    """
    eps = exact(eps)
    window = tuple(sort_elements(window))
    if not window:
        raise ValueError("window must be nonempty")
    n = boost_steps_needed(eps)
    bumps = [0] * n
    for _attempt in range(BOOST_ATTEMPT_CAP):
        towers = _ball_tower(window, bumps)
        rho = Measure.point_mass(window[0].group.identity())
        steps: list[BoostStep] = []
        for i in range(n - 1, -1, -1):
            tail = {g: rho.average(f, g) for g in towers[i + 1]}
            lo = min(tail.values())
            scale = BOOST_STEP_GAP ** (n - i - 1)
            f_i = {g: (v - lo) / scale for g, v in tail.items()}
            if any(not 0 <= v <= 1 for v in f_i.values()):
                raise RuntimeError("internal error: rescaled tail left [0,1]")
            try:
                nu = binary_to_unit(towers[i], towers[i + 1], f_i)
            except ValueError:  # towers[i + 1] is not 1/2-Ramsey for this tail's level set
                bumps[i] += 1
                break
            rho = nu.convolve(rho)
            tail_gap = rho.gap(towers[i], f)
            if tail_gap > scale * BOOST_STEP_GAP:
                raise RuntimeError("internal error: contraction bound violated")
            steps.append(BoostStep(towers[i], towers[i + 1], nu, tail_gap))
        else:  # every level solved
            steps.reverse()
            final_gap = rho.gap(window, f)
            if final_gap > eps:
                raise RuntimeError("internal error: boosted gap exceeds eps")
            return BoostResult(rho, steps, final_gap, eps)
    raise CapExceeded("boost failed to find workable windows within the attempt cap")


@dataclass
class RamseyFunctionResult:
    m: int
    eps: Fraction
    n_max: int
    value: int | None
    status: str  # "found" | "exhausted"
    per_n: list[tuple[int, str]] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "eps": fmt_q(self.eps),
            "n_max": self.n_max,
            "value": self.value,
            "status": self.status,
            "per_n": [{"n": n, "verdict": v} for n, v in self.per_n],
        }


def ramsey_function(
    group: Group,
    m: int,
    eps,
    n_max: int,
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> RamseyFunctionResult:
    """Least n <= n_max with ball(n) eps-Ramsey w.r.t. ball(m), else exhausted.

    Each radius is decided by the pictures route.  Radii past the enumeration cap are recorded
    as "cap_exceeded", not as negative verdicts, and past the first of them no ball is built.
    """
    eps = exact(eps)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    window = ball(group, m)
    per_n: list[tuple[int, str]] = []
    for n in range(0, n_max + 1):
        bset = ball(group, n)
        try:
            verdict = is_epsilon_ramsey(window, bset, eps, method="pictures", cap=cap)
        except CapExceeded:  # A*C only grows with n: every larger radius is past the cap too
            per_n += [(r, "cap_exceeded") for r in range(n, n_max + 1)]
            break
        if verdict.is_ramsey:
            per_n.append((n, "ramsey"))
            return RamseyFunctionResult(m, eps, n_max, n, "found", per_n)
        per_n.append((n, "not_ramsey"))
    return RamseyFunctionResult(m, eps, n_max, None, "exhausted", per_n)
