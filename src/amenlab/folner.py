"""Folner sets, Folner functions, and their weighted (measure) analogues.

A finite set ``B`` is eps-Folner for a window ``A`` when the total
boundary count ``sum over a in A of |aB △ B|`` is at most ``eps * |B|``.
The Folner function of a generated group takes ``k`` to the least
cardinality of a ``1/k``-Folner set with respect to the generating set.

The weighted analogue replaces sets by probability measures: the optimal
invariance defect ``min over nu of sum over g in ball(m) of the l1 norm
of (g nu - nu)``, with the support constrained so window translates stay
inside ``ball(n)``.  A measure with small defect always contains an
eps-Folner set among its weight level sets (layer-cake extraction), and
`inequality_harness` cross-checks the function-level inequalities that
connect all of these quantities to the averaging (Ramsey) functions.

Folner-function search is exhaustive only over a user-supplied window of
translate-normalized candidates (the identity is the canonical-least
member; finite-table groups, whose index order is not translation
invariant, only require membership of the identity).  Results carry an
``exact`` flag: a value is exact when the window provably contains an
optimal normalized set, and an upper bound otherwise.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from .groups import (
    CapExceeded,
    CyclicGroup,
    Element,
    FreeAbelianGroup,
    Group,
    Measure,
    TableGroup,
    ball,
    sort_elements,
    translate_set,
)
from .linprog import EQ, GE, LE, LinearSystem, minimize
from .rationals import exact, fmt_q
from .ramsey import boost_steps_needed, interior, ramsey_function

_F0 = Fraction(0)

MAX_WINDOW_CANDIDATES = 1 << 24
# keeps weighted solves at desk scale
WEIGHTED_LP_CAP = 600
# The harness's Ramsey searches enumerate 2^|A*C| subsets for every (m, eps)
# it compares: on Z with m = 1 and k = 1, 2, the harness took 0.75 s at cap 14
# and 555 s at the enumeration default 24 (2-vCPU x86-64 VM, Python 3.11.7).
HARNESS_RAMSEY_CAP = 14


class FolnerReport(NamedTuple):
    window: tuple[Element, ...]
    bset: tuple[Element, ...]
    per_generator: list[tuple[Element, int]]
    total: int
    threshold: Fraction  # eps * |B|
    ok: bool

    def to_json(self) -> dict:
        return {
            "window": [repr(a) for a in self.window],
            "bset": [repr(b) for b in self.bset],
            "per_generator": [[repr(a), c] for a, c in self.per_generator],
            "total": self.total,
            "threshold": fmt_q(self.threshold),
            "ok": self.ok,
        }


def is_epsilon_folner(window: Iterable[Element], bset: Iterable[Element], eps) -> FolnerReport:
    """Exact boundary counts and the verdict total <= eps * |B|."""
    eps = exact(eps)
    window = tuple(sort_elements(window))
    bpool = frozenset(bset)
    if not bpool:
        raise ValueError("Folner checks need a nonempty candidate set")
    per = []
    total = 0
    for a in window:
        moved = translate_set(a, bpool)
        count = len(moved ^ bpool)
        per.append((a, count))
        total += count
    threshold = eps * len(bpool)
    return FolnerReport(
        window, tuple(sort_elements(bpool)), per, total, threshold, total <= threshold
    )


class FolnerFunctionResult(NamedTuple):
    k: int
    size: int | None
    witness: tuple[Element, ...] | None
    exact: bool
    note: str
    candidates_checked: int

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "size": self.size,
            "witness": None if self.witness is None else [repr(x) for x in self.witness],
            "exact": self.exact,
            "note": self.note,
            "candidates_checked": self.candidates_checked,
        }


def _normalized_pool(group: Group, window: Sequence[Element]):
    """Candidate elements allowed to join the identity in a normalized set."""
    e = group.identity()
    if isinstance(group, TableGroup):
        # index order is not translation invariant; only pin membership of e
        return [w for w in window if w != e]
    ekey = e.key()
    return [w for w in window if w.key() > ekey]


def folner_function(group: Group, k: int, window: Iterable[Element]) -> FolnerFunctionResult:
    """Minimum size of a 1/k-Folner set among normalized window subsets.

    Deterministic tie-breaking: smallest size first, then the first hit
    in lexicographic combination order over the canonically sorted pool.
    A window with more than `MAX_WINDOW_CANDIDATES` normalized subsets
    raises `CapExceeded`.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    eps = Fraction(1, k)
    gens = group.generators()
    e = group.identity()
    window = tuple(sort_elements(set(window) | {e}))
    pool = _normalized_pool(group, window)
    if 2 ** len(pool) > MAX_WINDOW_CANDIDATES:
        raise CapExceeded(
            f"window admits 2^{len(pool)} candidates, beyond the {MAX_WINDOW_CANDIDATES} cap"
        )
    checked = 0
    for size in range(1, len(pool) + 2):
        for extra in combinations(pool, size - 1):
            checked += 1
            candidate = frozenset((e,) + extra)
            report = is_epsilon_folner(gens, candidate, eps)
            if report.ok:
                witness = tuple(sort_elements(candidate))
                exact, note = _exactness(group, k, size, window)
                return FolnerFunctionResult(k, size, witness, exact, note, checked)
    exact, note = _exactness(group, k, None, window)
    return FolnerFunctionResult(k, None, None, exact, note, checked)


def _exactness(group: Group, k: int, size: int | None, window) -> tuple[bool, str]:
    """The `exact` flag and note for a least size found in a window (None: none found)."""
    if size is None:
        return False, "no Folner set inside the window"
    if isinstance(group, (CyclicGroup, TableGroup)):
        if len(window) == group.order:
            return True, "window covers the whole finite group"
        return False, "window is a proper subset of the finite group"
    if isinstance(group, FreeAbelianGroup) and group.rank == 1:
        if size == 2 * k:
            return True, "matches the shift-boundary lower bound 2k"
        return False, "exceeds the shift-boundary lower bound; window may be too small"
    return False, "search window is not provably exhaustive for this group"


def invariance_defect(nu: Measure, window: Iterable[Element]) -> Fraction:
    """sum over g in window of the l1 distance between g*nu and nu."""
    total = _F0
    for g in window:
        moved = {g * x: w for x, w in nu.weights.items()}
        keys = set(moved) | set(nu.weights)
        total += sum(
            (abs(moved.get(x, _F0) - nu.weights.get(x, _F0)) for x in keys), _F0
        )
    return total


class WeightedFolnerValue(NamedTuple):
    m: int
    n: int
    value: Fraction | None  # None when no admissible measure exists
    measure: Measure | None
    status: str  # "ok" | "no_admissible"

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "value": None if self.value is None else fmt_q(self.value),
            "measure": None if self.measure is None else self.measure.to_json(),
            "status": self.status,
        }


def weighted_folner(group: Group, m: int, n: int) -> WeightedFolnerValue:
    """Optimal invariance defect over measures admissible for (ball m, ball n).

    One exact LP with an auxiliary variable per (generator-ball element,
    affected point) pair linearizing the l1 norms.
    """
    window = ball(group, m)
    bset = ball(group, n)
    C = interior(window, bset)
    if not C:
        return WeightedFolnerValue(m, n, None, None, "no_admissible")
    cpos = {c: i for i, c in enumerate(C)}
    nc = len(C)
    movers = [g for g in window if g != group.identity()]
    terms = []  # (g, x) pairs with t-variables
    for g in movers:
        affected = sorted(set(C) | translate_set(g, C), key=lambda x: x.key())
        for x in affected:
            terms.append((g, x))
    nvars = nc + len(terms)
    if nvars > WEIGHTED_LP_CAP:
        raise CapExceeded(f"weighted Folner LP has {nvars} variables, beyond {WEIGHTED_LP_CAP}")
    rows = [(tuple([1] * nc + [0] * len(terms)), EQ, 1)]
    for t_idx, (g, x) in enumerate(terms):
        coeffs = [0] * nvars
        src = cpos.get(g.inverse() * x)  # (g nu)(x) = nu(g^{-1} x)
        dst = cpos.get(x)
        if src is not None:
            coeffs[src] = 1
        if dst is not None:
            coeffs[dst] -= 1
        tcol = nc + t_idx
        up = list(coeffs)
        up[tcol] = -1
        rows.append((tuple(up), LE, 0))
        dn = list(coeffs)
        dn[tcol] = 1
        rows.append((tuple(dn), GE, 0))
    objective = [0] * nc + [1] * len(terms)
    opt = minimize(LinearSystem(nvars, rows, objective, nonneg=True))
    weights = {c: w for c, w in zip(C, opt.point[:nc]) if w}
    nu = Measure(group, weights)
    value = invariance_defect(nu, window)
    if value != opt.value:
        raise RuntimeError("internal error: defect recomputation mismatch")
    return WeightedFolnerValue(m, n, opt.value, nu, "ok")


def weighted_folner_function(group: Group, m: int, eps, n_max: int) -> int | None:
    """Least n <= n_max whose optimal defect is <= eps, or None.

    A radius whose LP is past `WEIGHTED_LP_CAP`, or which admits no
    measure, is passed over.
    """
    eps = exact(eps)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    for n in range(0, n_max + 1):
        try:
            cell = weighted_folner(group, m, n)
        except CapExceeded:
            continue
        if cell.status == "ok" and cell.value <= eps:
            return n
    return None


def folner_from_weighted(nu: Measure, window: Iterable[Element], eps) -> frozenset[Element]:
    """Extract an eps-Folner level set from a measure with defect <= eps.

    Layer-cake: the defect is the threshold-weighted sum of level-set
    boundary counts while the total mass is the weighted sum of level-set
    sizes, so not every level set can be above threshold.
    """
    eps = exact(eps)
    window = tuple(sort_elements(window))
    defect = invariance_defect(nu, window)
    if defect > eps:
        raise ValueError(f"measure has defect {defect} > eps {eps}")
    thresholds = sorted(set(nu.weights.values()), reverse=True)
    for t in thresholds:
        level = frozenset(x for x, w in nu.weights.items() if w >= t)
        if is_epsilon_folner(window, level, eps).ok:
            return level
    raise RuntimeError("internal error: no Folner level set; layer-cake violated")


class HarnessInstance(NamedTuple):
    name: str
    params: dict
    lhs: object
    rhs: object
    status: str  # "holds" | "violated" | "untested"
    note: str = ""

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "lhs": repr(self.lhs),
            "rhs": repr(self.rhs),
            "status": self.status,
            "note": self.note,
        }


class HarnessReport(NamedTuple):
    group: dict
    instances: list[HarnessInstance]
    folner: dict[int, FolnerFunctionResult]  # k -> folner_function result
    weighted: dict[tuple[int, int], int | None]  # (m, k) -> weighted_folner_function at eps 1/k

    @property
    def violated(self) -> list[HarnessInstance]:
        return [i for i in self.instances if i.status == "violated"]

    def to_json(self) -> dict:
        return {
            "group": self.group,
            "instances": [i.to_json() for i in self.instances],
            "all_hold": not self.violated,
        }


def _compare(name: str, params: dict, lhs, rhs, note: str) -> HarnessInstance:
    """lhs <= rhs when both sides are known, else untested with `note`."""
    if lhs is None or rhs is None:
        return HarnessInstance(name, params, lhs, rhs, "untested", note)
    return HarnessInstance(name, params, lhs, rhs, "holds" if lhs <= rhs else "violated")


def _iterated_ramsey(ramsey, m, times):
    """R applied `times` times starting from radius m, 1/2 gap each step."""
    radius = m
    for _ in range(times):
        step = ramsey(radius, Fraction(1, 2))
        if step.value is None:
            return None
        radius = step.value
    return radius


def inequality_harness(
    group: Group,
    m_values: Sequence[int],
    k_values: Sequence[int],
    *,
    window_radius: int = 6,
    n_max: int = 8,
) -> HarnessReport:
    """Compute both sides of the comparison inequalities on small instances.

    Quantities that exceed their caps are reported as untested, never as
    failures; any genuinely violated instance is a build-breaking event
    surfaced through `HarnessReport.violated`.  An empty range of m or k
    values compares nothing, so it is a ValueError.
    """
    if not m_values or not k_values:
        raise ValueError("the harness needs at least one m and one k value")
    s = len(group.generators())
    instances: list[HarnessInstance] = []
    # the comparisons share arguments, so each (m, eps) is solved once per call
    ramsey = functools.cache(
        lambda m, eps: ramsey_function(group, m, eps, n_max, cap=HARNESS_RAMSEY_CAP)
    )
    weighted_fn = functools.cache(lambda m, eps: weighted_folner_function(group, m, eps, n_max))

    folner: dict[int, FolnerFunctionResult] = {}
    fol_values: dict[int, int | None] = {}
    for k in k_values:
        res = folner[k] = folner_function(group, k, ball(group, window_radius))
        fol_values[k] = res.size if res.exact else None
        if res.size is not None and not res.exact:
            note = "window value is only an upper bound"
            instances.append(_compare("folner_exactness", {"k": k}, res.size, None, note))

    weighted: dict[tuple[int, int], int | None] = {}
    for m in m_values:
        for k in k_values:
            eps = Fraction(1, k)
            rr = ramsey(m, eps)
            ww = weighted[m, k] = weighted_fn(m, eps)
            instances.append(
                _compare(
                    "ramsey_le_weighted",
                    {"m": m, "eps": fmt_q(eps)},
                    rr.value,
                    ww,
                    "a side exhausted its search bound",
                )
            )

    for k in k_values:
        ww = weighted_fn(1, Fraction(1, k))
        instances.append(
            _compare(
                "folner_le_exp_weighted",
                {"k": k},
                fol_values.get(k),
                None if ww is None else (2 * s + 1) ** ww,
                "needs an exact Folner value and an achieved weighted level",
            )
        )

    for k in k_values:
        # p-fold averaging with (3/4)^p < 1/(2ks); no power of 3/4 equals
        # 1/(2ks), so boost_steps_needed's <= gives the same p
        p = boost_steps_needed(Fraction(1, 2 * k * s))
        iterated = _iterated_ramsey(ramsey, 1, p * s)
        instances.append(
            _compare(
                "folner_le_exp_iterated_ramsey",
                {"k": k, "p": p},
                fol_values.get(k),
                None if iterated is None else (2 * s + 1) ** iterated,
                "iterated averaging radius exceeded its caps",
            )
        )

    for m in m_values:
        # weighted level at doubled gap vs iterated averaging: with
        # (3/4)^p < eps, F(m, 2*eps*s) <= R^{s*p}(m)
        eps = Fraction(1, 2)
        p = boost_steps_needed(eps)
        ww = weighted_fn(m, 2 * eps * s)
        iterated = _iterated_ramsey(ramsey, m, s * p)
        instances.append(
            _compare(
                "weighted_le_iterated_ramsey",
                {"m": m, "eps": fmt_q(eps)},
                ww,
                iterated,
                "a side exhausted its search bound",
            )
        )

    return HarnessReport(group.to_json(), instances, folner, weighted)
