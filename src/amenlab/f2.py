"""The rank-2 free group obstruction to a single invariant-measure view.

Working in the free group on ``a, b``, two base sets drive everything:

* ``first``: reduced words whose first letter is ``a`` or ``a^-1``;
* ``high``:  words of positive height (letter weights a: +1, b: -1).

From these, five derived sets (keys used throughout reports and the
five-set LP, in this fixed order):

* ``first_or_low``   = first  union      complement(high)
* ``first_and_high`` = first  intersect  high
* ``rest_or_high``   = complement(first) union     high
* ``rest_and_low``   = complement(first) intersect complement(high)
* ``high``

Each of the five admits almost-invariant finitely supported measures in
isolation, yet no single measure treats all five almost invariantly:
powers of ``a`` and ``b`` translate the derived sets disjointly, which
forces every candidate measure's mass to vanish.  The module verifies
the combinatorial identities behind that argument pointwise on word-
length truncations (exact predicates make truncation sound: reports say
"verified up to length L", never more), and finitizes the conclusion as
an LP over measures supported in a ball: for each derived set ``E`` and
each translate ``w`` in {a^k, b^k : k < K}, require
``|nu(w^-1 E) - nu(E)| <= delta``.  For small ``delta`` the LP is
infeasible with a Farkas certificate.  The exact crossover threshold is
one more LP, which makes ``delta`` a variable and minimizes it: its
optimal point gives a measure at the threshold and its duals prove that
no smaller ``delta`` is feasible.

The scans and the LP builds share one membership pass (`_members`).
Every set here is decided by a word's first letter and its height, so
for each translate w the words x fall into classes by the first letter
and height of w * x, both read off x without multiplying.  A class names
the product, not the translate, so one memo of results serves every
translate of a pass that runs the same predicates: a product is formed
and each predicate evaluated on it only the first time its (first
letter, height) occurs, and every word of the class gets that result;
only the boolean lists are kept.

The scans never list their words.  `_path_classes` counts the words of
length <= L by where they leave a given path and by height, keeping one
real word per class.  Under every translate w whose inverse is a prefix
of the path, every word of a class has the same `_members` class, so a
scan runs `_members` on those words and weights each result by its
class's count.  The six identities take the empty path, the level-shift
law takes each translator w as the path for w^-1, and the disjointness
scan takes g^(K-1) for the powers g^-k of each generator g.

The LP solve merges ball columns with equal membership profiles, and
reads the profiles on `_path_columns`: the words `_path_classes` keeps
along A^(K-1) and B^(K-1), the inverses of the translates a^k and b^k,
whose classes each have one profile.  So the solve lists no ball: 135
columns stand for ball(6)'s 1,457 at K = 8.  Only `invariance_system`
and the verifiers list the ball and keep the full table.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from fractions import Fraction
from typing import Mapping, NamedTuple

from .groups import CapExceeded, Element, FreeGroup, GroupError, Measure, ball, sort_elements
from .linprog import (
    EQ,
    FeasibilityOutcome,
    GE,
    LE,
    LinearSystem,
    Optimum,
    minimize,
    solve_feasibility,
    verify_certificate,
)
from .pictures import SetSpec, height
from .rationals import exact, fmt_q, parse_q, typed

_F0 = Fraction(0)

FIVE_SET_ORDER = (
    "first_or_low",
    "first_and_high",
    "rest_or_high",
    "rest_and_low",
    "high",
)


def f2_group() -> FreeGroup:
    return FreeGroup(["a", "b"])


def first_spec(group: FreeGroup) -> SetSpec:
    name = group.gen_names[0]
    return SetSpec.from_json({"kind": "first_letter", "letters": [name, name.upper()]})


def five_set_specs(group: FreeGroup) -> dict[str, SetSpec]:
    first = first_spec(group).to_json()
    high = {"kind": "h_above", "k": 0}
    rest = {"kind": "complement", "of": first}
    low = {"kind": "complement", "of": high}
    sets = {
        "first_or_low": {"kind": "union", "of": [first, low]},
        "first_and_high": {"kind": "intersection", "of": [first, high]},
        "rest_or_high": {"kind": "union", "of": [rest, high]},
        "rest_and_low": {"kind": "intersection", "of": [rest, low]},
        "high": high,
    }
    return {key: SetSpec.from_json(obj) for key, obj in sets.items()}


def _members(w: Element, words, heights, tests, memo: dict) -> list[list[bool]]:
    """[test(w * x) for x in words] for each test, one product per class.

    ``heights[i]`` is ``height(words[i])``.  Every test must be decided by
    the first letter and the height of its argument: a ``first_letter`` or
    ``h_above`` set, or a complement, union or intersection of such sets,
    which are all the sets f2 builds (an ``explicit`` set is not).  The
    class of ``w * x`` is then (first letter, height), and both are read
    off ``x`` without forming the product: height is additive, so it is
    ``height(w) + heights[i]``, and the first letter is ``w``'s own unless
    ``x`` begins with ``w^-1``, when it is the letter of ``x`` after that
    prefix (none for the identity).

    ``memo`` maps a class to the tests' results on it.  The class names
    the product, not the pair (w, x), so the caller shares one memo
    across every translate that runs the same list of tests: a product is
    formed, and the tests run on it, only for a class no earlier call
    decided.  Every word of a class gets that result.
    """
    u = w.value
    n = len(u)
    cancel = tuple(code ^ 1 for code in reversed(u))
    lead = u[0] if u else None
    hw = height(w)
    ids: dict[tuple, int] = {}  # class -> its index in first-seen order
    index = []
    for x, h in zip(words, heights):
        v = x.value
        if v[:n] == cancel:
            key = (v[n] if len(v) > n else None, hw + h)
        else:
            key = (lead, hw + h)
        i = ids.get(key)
        if i is None:
            i = ids[key] = len(ids)
            if key not in memo:
                product = w * x
                memo[key] = [test(product) for test in tests]
        index.append(i)
    results = [memo[key] for key in ids]
    by_test = ([r[t] for r in results] for t in range(len(tests)))
    return [[by_class[i] for i in index] for by_class in by_test]


def _path_classes(group: FreeGroup, path: tuple, max_length: int):
    """The words of length <= max_length, counted by (head, height).

    ``path`` is the letter codes of a reduced word.  A word x's head is
    where it leaves the path: with k the length of the longest common
    prefix of x and the path, it is path[:k] when x is path[:k], and
    path[:k] + (x[k],) otherwise, so x[k] is neither path[k] nor the
    inverse of path[k - 1].  Every word has exactly one head.  Returns
    parallel lists: one real word of each class, its height and the
    number of words in the class.  A word path[:k] is a class of its own;
    the suffixes after a head path[:k] + (c,) are counted by
    `_suffix_classes`, never listed, so no ball is built.  The word kept
    of each class is its canonically (shortlex) first: the words of a
    class share their head, and `_suffix_classes` keeps the shortlex-least
    suffix of each height.

    Let p be a word whose inverse is a prefix of the path, of length n.
    Every word x of a class then gives the same `_members` class under p:
    if n <= k, x begins with p^-1 and the head fixes x[n] (or that there
    is none), and if n > k, x[k] differs from path[k], so x does not
    begin with p^-1.  The height is the class's own.
    """
    if max_length < 0:
        raise GroupError("ball radius must be >= 0")
    weights = tuple(height(Element(group, (code,))) for code in range(2 * group.rank))
    words, heights, counts = [], [], []
    for k in range(min(len(path), max_length) + 1):
        head = path[:k]
        h = sum(weights[code] for code in head)
        words.append(Element(group, head))
        heights.append(h)
        counts.append(1)
        for c, weight in enumerate(weights):
            if path[k : k + 1] == (c,) or head[-1:] == (c ^ 1,):
                continue
            for dh, (n, tail) in _suffix_classes(c, max_length - k - 1, weights):
                words.append(Element(group, head + (c,) + tail))
                heights.append(h + weight + dh)
                counts.append(n)
    return words, heights, counts


@cache
def _suffix_classes(last: int, max_length: int, weights: tuple) -> tuple:
    """(height, (count, one suffix)) pairs over the reduced words of length <= max_length
    whose first letter does not cancel the letter code ``last``.

    A transfer-matrix pass over (length, last letter, height): each state
    holds its word count and one of its words, and ``weights[c]`` is the
    height of letter code c.  It is `groups._free_ball` with counts in
    place of word lists.  Results are cached, so they are returned as tuples.

    The suffix kept of each height is its shortlex-least: the pass walks
    lengths in order and records a height at the first length that
    reaches it, from the first state of that layer.  Within a layer the
    states come in the lex order of their suffixes, and each holds its
    lex-least suffix.  That holds for the one start state, and the pass
    keeps it: a state (c, h) is reached only by appending c to parents of
    height h - weights[c], so its lex-least suffix is c after the
    lex-least of its parents' suffixes.  The pass walks parents in the lex
    order of their suffixes and letters in code order, so the first
    arrival at a state carries that suffix, and the states of the next
    layer are inserted in lex order.
    """
    layer = {(last, 0): (1, ())}  # (last letter, height) -> (count, one suffix)
    out: dict[int, tuple[int, tuple]] = {}
    for k in range(max_length + 1):
        nxt: dict[tuple, tuple[int, tuple]] = {}
        for (end, dh), (n, tail) in layer.items():
            total, rep = out.get(dh, (0, tail))
            out[dh] = (total + n, rep)
            if k == max_length:
                continue
            for code, weight in enumerate(weights):
                if code != end ^ 1:
                    state = (code, dh + weight)
                    total, rep = nxt.get(state, (0, tail + (code,)))
                    nxt[state] = (total + n, rep)
        layer = nxt
    return tuple(out.items())


MAX_SCAN_LENGTH = 12
MAX_TRANSLATES = 8  # largest translate count K of the disjointness scan and the invariance LP
TRANSLATE_RADIUS = 3  # translators of the level-shift check: ball(TRANSLATE_RADIUS)
INVARIANCE_BALL_CAP = 2000  # largest ball the invariance LP takes as columns


class IdentityCheck(NamedTuple):
    name: str
    checked: int
    failures: int

    @property
    def ok(self) -> bool:
        return self.failures == 0


class ScanReport(NamedTuple):
    """Named checks scanned on the words of length <= max_length.

    ``scope`` opens the report's note; ``translate_count`` is written only
    when set, by the disjointness scan.
    """

    max_length: int
    scope: str
    translate_count: int | None
    checks: list[IdentityCheck]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json(self) -> dict:
        out = {
            "max_length": self.max_length,
            "note": f"{self.scope} of length <= {self.max_length}",
            "checks": [
                {"name": c.name, "checked": c.checked, "failures": c.failures}
                for c in self.checks
            ],
            "ok": self.ok,
        }
        if self.translate_count is not None:
            out["translate_count"] = self.translate_count
        return out


def _check_translate_count(translate_count: int) -> None:
    if translate_count < 2:
        raise ValueError("need at least two translates")
    if translate_count > MAX_TRANSLATES:
        raise CapExceeded(f"translate count capped at {MAX_TRANSLATES}")


def _invariance_group(translate_count: int, delta: Fraction, radius: int) -> FreeGroup:
    """F2, once the invariance LP's arguments pass: every solve and verify
    path raises here, in this order, `ValueError` for delta < 0,
    `CapExceeded` for K past its cap, `GroupError` for a negative radius
    and `CapExceeded` for ball(radius) past INVARIANCE_BALL_CAP, before any
    ball or LP is built."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    _check_translate_count(translate_count)
    if radius < 0:
        raise GroupError("ball radius must be >= 0")
    # |ball(r)| = 2·3^r - 1 > r, so a radius past the cap needs no power
    if radius > INVARIANCE_BALL_CAP or 2 * 3**radius - 1 > INVARIANCE_BALL_CAP:
        raise CapExceeded(f"ball exceeded cap of {INVARIANCE_BALL_CAP} elements")
    return f2_group()


def _invariance_ball(
    translate_count: int, delta: Fraction, radius: int
) -> tuple[FreeGroup, tuple[Element, ...]]:
    """F2 and the full column ball of the invariance LP, which only the
    verifiers and `invariance_system` list."""
    group = _invariance_group(translate_count, delta, radius)
    return group, ball(group, radius)


def verify_identities(max_length: int) -> ScanReport:
    """Pointwise identity checks on every word of length <= max_length.

    Covered: the two symmetric-difference identities expressing
    first △ low and rest △ high through the two intersection sets, the
    four containments threading the five sets, and the translation law
    ``w * high = (height > height(w))`` for all w in the translate ball
    against all words of length <= max_length - TRANSLATE_RADIUS.  The
    words are counted in `_path_classes`.  For the six identities the
    path is empty, so the classes are (first letter, height): each set
    is evaluated once per class and each identity once per distinct
    membership profile, weighted by the number of words that have it.
    For the translation law each translator w is the path of the words
    x, and ``high(w^-1 * x)`` is read per class with one memo for all
    translators.
    """
    if max_length > MAX_SCAN_LENGTH:
        raise CapExceeded(f"scan capped at length {MAX_SCAN_LENGTH}")
    group = f2_group()
    words, heights, counts = _path_classes(group, (), max_length)
    sets = five_set_specs(group)
    tests = [first_spec(group).compile(group)] + [sets[k].compile(group) for k in FIVE_SET_ORDER]
    # profile (first, then the five sets in FIVE_SET_ORDER) -> number of words having it
    profiles: Counter = Counter()
    for profile, n in zip(zip(*_members(group.identity(), words, heights, tests, {})), counts):
        profiles[profile] += n
    identities = (
        ("first_xor_low_is_two_cores", lambda f, fl, fh, rh, rl, h: (f ^ (not h)) == (fh or rl)),
        ("rest_xor_high_is_two_cores", lambda f, fl, fh, rh, rl, h: ((not f) ^ h) == (fh or rl)),
        ("first_and_high_inside_high", lambda f, fl, fh, rh, rl, h: not fh or h),
        ("high_inside_rest_or_high", lambda f, fl, fh, rh, rl, h: not h or rh),
        ("rest_and_low_inside_low", lambda f, fl, fh, rh, rl, h: not rl or not h),
        ("low_inside_first_or_low", lambda f, fl, fh, rh, rl, h: h or fl),
    )
    report = ScanReport(max_length, "verified pointwise on all words", None, [])
    checked = sum(counts)
    for name, holds in identities:
        failures = sum(n for m, n in profiles.items() if not holds(*m))
        report.checks.append(IdentityCheck(name, checked, failures))

    inner_length = max(0, max_length - TRANSLATE_RADIUS)
    memo: dict = {}
    checked = failures = 0
    for w in ball(group, TRANSLATE_RADIUS):
        words, heights, counts = _path_classes(group, w.value, inner_length)
        (high,) = _members(w.inverse(), words, heights, tests[-1:], memo)
        hw = height(w)
        checked += sum(counts)
        failures += sum(n for m, h, n in zip(high, heights, counts) if m != (h > hw))
    report.checks.append(IdentityCheck("translate_high_is_level_shift", checked, failures))
    return report


def verify_disjoint_translates(translate_count: int, max_length: int) -> ScanReport:
    """Each of the four translate sequences is pairwise disjoint on the scan.

    Scanned families: a^k(rest_and_low), b^k(first_and_high), b^k(first),
    a^k(rest) for k < translate_count.  A word lies in at most one member
    of each sequence.  The words are counted in `_path_classes` once per
    generator g, along the path g^(K-1) with K = translate_count: the
    inverse of every power g^-k with k < K is a prefix of it.  Each family
    runs `_members` under its K powers with one memo.  A failure is a word
    in two or more members, counted by its class.
    """
    _check_translate_count(translate_count)
    if max_length > MAX_SCAN_LENGTH:
        raise CapExceeded(f"scan capped at length {MAX_SCAN_LENGTH}")
    group = f2_group()
    a, b = group.generators()
    sets = {k: s.compile(group) for k, s in five_set_specs(group).items()}
    first = first_spec(group).compile(group)
    families = [
        ("a_pow_rest_and_low", a, sets["rest_and_low"]),
        ("b_pow_first_and_high", b, sets["first_and_high"]),
        ("b_pow_first", b, first),
        ("a_pow_rest", a, lambda u: not first(u)),
    ]
    classes = {
        g: _path_classes(group, (g ** (translate_count - 1)).value, max_length) for g in (a, b)
    }
    report = ScanReport(max_length, "pairwise disjointness scanned on words", translate_count, [])
    for name, g, test in families:
        words, heights, counts = classes[g]
        hits = [0] * len(words)
        memo: dict = {}
        for k in range(translate_count):
            (member,) = _members(g ** (-k), words, heights, [test], memo)
            hits = [n + m for n, m in zip(hits, member)]
        failures = sum(n for hit, n in zip(hits, counts) if hit > 1)
        report.checks.append(IdentityCheck(name, sum(counts), failures))
    return report


def invariance_translates(group: FreeGroup, translate_count: int) -> list[Element]:
    """{a^k, b^k : 1 <= k < K} in scan order (identity rows are vacuous)."""
    a, b = group.generators()
    out = [a**k for k in range(1, translate_count)]
    out += [b**k for k in range(1, translate_count)]
    return out


def _membership_table(group: FreeGroup, columns, translate_count: int) -> list[list[list[bool]]]:
    """table[i][j][c]: whether w_j * columns[c] lies in set i of FIVE_SET_ORDER.

    w_0 is the identity, then `invariance_translates` order.  The column
    heights are computed once, and every translate's pass shares one
    memo, so each (first letter, height) of a product is decided once.
    """
    sets = five_set_specs(group)
    tests = [sets[k].compile(group) for k in FIVE_SET_ORDER]
    translates = [group.identity()] + invariance_translates(group, translate_count)
    heights = [height(x) for x in columns]
    memo: dict = {}
    by_translate = [_members(w, columns, heights, tests, memo) for w in translates]
    return [[members[i] for members in by_translate] for i in range(len(tests))]


def _gap_rows(table: list[list[list[bool]]], delta: Fraction, keep) -> list[tuple]:
    """The rows of the invariance LP on the columns ``keep`` of the table.

    The normalization row, then for each set and each translate w_j
    (j >= 1) the <= delta and >= -delta rows of ``nu(w_j^-1 E) - nu(E)``.
    """
    rows = [((1,) * len(keep), EQ, 1)]
    for per_translate in table:
        base = per_translate[0]
        for shifted in per_translate[1:]:
            # membership(w * x) - membership(x), as an int
            coeffs = tuple(shifted[c] - base[c] for c in keep)
            rows.append((coeffs, LE, delta))
            rows.append((coeffs, GE, -delta))
    return rows


def invariance_system(
    translate_count: int, delta, radius: int
) -> tuple[LinearSystem, tuple[Element, ...]]:
    """The full five-set invariance LP over measures supported in a ball.

    Variables are the ball elements in canonical order.  Row order
    (relied on by certificate verification): the normalization row, then
    for each derived set in FIVE_SET_ORDER and each translate w in
    `invariance_translates` order, the <= delta row followed by the
    >= -delta row for ``nu(w^-1 E) - nu(E)``.
    """
    delta = exact(delta)
    group, columns = _invariance_ball(translate_count, delta, radius)
    table = _membership_table(group, columns, translate_count)
    rows = _gap_rows(table, delta, range(len(columns)))
    return LinearSystem(len(columns), rows, nonneg=True), columns


class InvarianceOutcome(NamedTuple):
    translate_count: int
    delta: Fraction
    radius: int
    feasible: bool
    measure: Measure | None
    farkas: tuple[Fraction, ...] | None

    def to_json(self) -> dict:
        out = {
            "K": self.translate_count,
            "delta": fmt_q(self.delta),
            "radius": self.radius,
            "status": "feasible" if self.feasible else "infeasible",
        }
        if self.measure is not None:
            out["measure"] = self.measure.to_json()
        if self.farkas is not None:
            out["farkas"] = [fmt_q(x) for x in self.farkas]
        return out

    @classmethod
    def from_json(cls, obj: Mapping) -> "InvarianceOutcome":
        """The outcome `to_json` writes: a feasible status with its measure or
        an infeasible one with its Farkas multipliers, else a ValueError."""
        proof = {"feasible": "measure", "infeasible": "farkas"}.get(obj["status"])
        if proof is None or set(obj) != {"K", "delta", "radius", "status", proof}:
            raise ValueError("an invariance outcome carries its own status's certificate only")
        feasible = proof == "measure"
        return cls(
            typed(obj["K"], int, "K"),
            parse_q(obj["delta"]),
            typed(obj["radius"], int, "radius"),
            feasible,
            Measure.from_json(f2_group(), obj["measure"]) if feasible else None,
            None if feasible else tuple(parse_q(x) for x in obj["farkas"]),
        )


def _merged_system(
    group: FreeGroup, reps: list[Element], translate_count: int, delta: Fraction
) -> tuple[LinearSystem, list[Element]]:
    """The invariance LP with identical columns merged, and their representatives.

    Ball elements with identical membership profiles across all
    (set, translate) pairs have identical LP columns, so each class is one
    column on its canonical-least element.  The rows are those of
    `invariance_system`, which keeps Farkas multipliers and duals valid
    for the full system.

    The profiles are read on ``reps``, ball words in canonical order,
    and each profile keeps its first.  ``reps`` is the ball itself or
    `_path_columns`, which holds the first ball word of every profile.
    """
    table = _membership_table(group, reps, translate_count)
    classes: dict[tuple, int] = {}  # profile -> first representative in canonical order
    for c, profile in enumerate(zip(*(m for per_set in table for m in per_set))):
        classes.setdefault(profile, c)
    keep = list(classes.values())
    rows = _gap_rows(table, delta, keep)
    return LinearSystem(len(keep), rows, nonneg=True), [reps[c] for c in keep]


def _path_columns(group: FreeGroup, translate_count: int, radius: int) -> list[Element]:
    """The words `_path_classes` keeps along A^(K-1) and along B^(K-1) at
    max length radius, in canonical order: the columns `_merged_system`
    reads, with no ball listed.

    Take a class of the A path whose head does not start with B.  Under
    a^k with k < K its words have one `_members` class, by `_path_classes`,
    as A^k is a prefix of the path.  Under b^k with k >= 1 none of them
    starts with B, so b^k times each starts with b.  Under the identity
    the class is (first letter, height), and the head fixes the first
    letter: an empty head is the empty word alone.  So all its words have
    one membership profile, and a class of the B path whose head does not
    start with A is the same with a and b swapped.  These classes cover
    ball(radius), so each profile is a union of them, and its canonically
    first word is the first word of one of them, which `_path_classes`
    keeps.  Every other word kept is a ball word too, so merging these
    columns by profile keeps the same columns in the same order as
    merging the ball.
    """
    paths = ((code,) * (translate_count - 1) for code in (1, 3))  # A and B are codes 1 and 3
    return sort_elements({x for path in paths for x in _path_classes(group, path, radius)[0]})


def simultaneous_invariance(translate_count: int, delta, radius: int) -> InvarianceOutcome:
    """Decide the five-set invariance LP, with exact certificates.

    The LP is solved on merged columns (see `_merged_system`), read on
    `_path_columns`, which counts the ball along A^(K-1) and B^(K-1);
    only the verifiers list the ball.  Feasible points expand by placing each
    merged weight on the representative.  `solve_feasibility` checks the
    merged system's certificate, which holds for the full system too:
    merged columns are identical columns over the same rows.
    """
    delta = exact(delta)
    group = _invariance_group(translate_count, delta, radius)
    columns = _path_columns(group, translate_count, radius)
    system, reps = _merged_system(group, columns, translate_count, delta)
    outcome = solve_feasibility(system)
    if outcome.feasible:
        weights = {rep: w for rep, w in zip(reps, outcome.point) if w}
        return InvarianceOutcome(
            translate_count, delta, radius, True, Measure(group, weights), None
        )
    return InvarianceOutcome(translate_count, delta, radius, False, None, tuple(outcome.farkas))


def verify_invariance_outcome(outcome: InvarianceOutcome) -> bool:
    """Recheck against the full system; no aggregation trusted.

    Feasible outcomes are checked directly through the membership
    predicates; infeasible ones rebuild the full LP and validate the
    Farkas multipliers row by row.
    """
    if outcome.feasible:
        nu = outcome.measure
        group, columns = _invariance_ball(
            outcome.translate_count, outcome.delta, outcome.radius
        )
        if nu is None or set(nu.support()) - set(columns):
            return False
        sets = five_set_specs(group)
        for key in FIVE_SET_ORDER:
            test = sets[key].compile(group)
            base = nu.average(test)
            for w in invariance_translates(group, outcome.translate_count):
                if abs(nu.average(test, w) - base) > outcome.delta:
                    return False
        return True
    if outcome.farkas is None:
        return False
    system, _ = invariance_system(outcome.translate_count, outcome.delta, outcome.radius)
    return verify_certificate(system, FeasibilityOutcome(False, farkas=outcome.farkas))


def _threshold_system(system: LinearSystem) -> LinearSystem:
    """The delta LP of an invariance system written at delta = 0.

    Appends delta as a last, nonnegative column and minimizes it.  Each
    gap row is written as "<=": ``c.nu <= 0`` becomes ``c.nu - delta <= 0``
    and ``c.nu >= 0`` becomes ``-c.nu - delta <= 0``, so every gap row
    starts with a basic slack and only the normalization row needs an
    artificial column in phase 1.
    """
    rows = []
    for row in system.rows:
        if row.rel == EQ:
            rows.append((row.coeffs + (0,), EQ, row.rhs))
        elif row.rel == LE:
            rows.append((row.coeffs + (-1,), LE, row.rhs))
        else:
            rows.append((tuple(-c for c in row.coeffs) + (-1,), LE, -row.rhs))
    n = system.num_vars
    return LinearSystem(n + 1, rows, (0,) * n + (1,), nonneg=True)


class ThresholdReport(NamedTuple):
    """The least delta for which the invariance LP is feasible.

    ``measure`` attains ``delta``; ``duals`` (one per row of the delta LP)
    certify that no smaller delta is feasible.
    """

    translate_count: int
    radius: int
    delta: Fraction
    measure: Measure
    duals: tuple[Fraction, ...]


def invariance_threshold(translate_count: int, radius: int) -> ThresholdReport:
    """The exact crossover delta of the five-set invariance LP, by one LP.

    The delta LP is built on the merged columns of `_merged_system`, read
    on `_path_columns`; only `verify_threshold_report` lists the ball.
    """
    group = _invariance_group(translate_count, _F0, radius)
    columns = _path_columns(group, translate_count, radius)
    system, reps = _merged_system(group, columns, translate_count, _F0)
    opt = minimize(_threshold_system(system))
    weights = {rep: w for rep, w in zip(reps, opt.point[:-1]) if w}
    return ThresholdReport(
        translate_count, radius, opt.value, Measure(group, weights), opt.duals
    )


def verify_threshold_report(report: ThresholdReport) -> bool:
    """Recheck a threshold against the full-ball delta LP; no merging trusted.

    The measure, extended by ``delta`` as the last coordinate, must be
    feasible for the delta LP over every ball element, and the duals must
    match its value exactly, which proves it minimal.
    """
    system, columns = invariance_system(report.translate_count, 0, report.radius)
    if set(report.measure.support()) - set(columns):
        return False
    point = tuple(report.measure.weights.get(x, _F0) for x in columns) + (report.delta,)
    optimum = Optimum(report.delta, point, report.duals)
    return verify_certificate(_threshold_system(system), optimum)
