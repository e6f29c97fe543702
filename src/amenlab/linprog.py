"""Exact rational linear feasibility and minimization with certificates.

A two-phase simplex with Bland's anti-cycling rule, so pivoting
terminates and identical systems produce identical answers bit for bit.
Its tableau rows are dense lists of integers, each over its own positive
basic entry, the cost row included.  A pivot divides only the pivot row,
by its gcd, before its entry p is read; every other row f·prow touches
becomes p·row − f·prow and is never divided.  System data passes the
`rationals.exact` gate (a Fraction or an int; a float, bool or string is
a ValueError) and results are `fractions.Fraction`, each read off the
tableau as one quotient of two ints.  `LinearSystem` stores each row
once more as integers over one positive denominator, with the columns of
its nonzero coefficients; the simplex's tableau starts from those
integer rows, and `verify_certificate` rechecks every result on them in
integer arithmetic alone, independent of the solver:

* Feasible     -> a rational point satisfying every constraint exactly.
* Infeasible   -> Farkas multipliers, one per constraint row, that
                  combine the rows into the contradiction 0 <= h < 0.
* Minimum      -> the attaining point plus a dual vector whose objective
                  matches the primal value exactly (strong duality).

The objective is always minimized.  `minimize` is meant for systems that
are feasible and bounded below; it raises `ValueError` otherwise, without
a certificate (use `solve_feasibility` for a Farkas certificate).

Farkas convention: multiplier i scales row i oriented as "<=" (so a ">="
row contributes with flipped sign).  Multipliers on inequality rows must
be nonnegative; equality rows are unrestricted.  The combined coefficient
vector must vanish on free variables, be nonnegative on variables flagged
nonnegative, and have a negative combined right-hand side.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import compress
from math import comb, gcd, lcm
from operator import eq, ge, le, mul
from typing import Iterable, Mapping, NamedTuple, Sequence

from .rationals import exact, fmt_q, parse_q

LE, EQ, GE = "<=", "=", ">="
_RELS = (LE, EQ, GE)
_HOLDS = {LE: le, EQ: eq, GE: ge}

_F0 = Fraction(0)
_F1 = Fraction(1)
_EXACT_TYPES = {int, Fraction}


def _gated(values) -> tuple:
    """values as a tuple that passed the `exact` gate: ints and Fractions as given."""
    values = tuple(values)
    if set(map(type, values)) <= _EXACT_TYPES:  # a bool's type is not int
        return values
    return tuple(map(exact, values))


class Row(NamedTuple):
    """``coeffs · x  rel  rhs``, as given and as integers.

    ``coeffs`` and ``rhs`` are the gated values as given, each an int or
    a Fraction (an int stays an int, so ``/`` on it gives a float: do
    arithmetic on the integer form, or pass the value through `exact`
    first).  The same row reads ``Σ nums[k] · x[support[k]]  rel  rnum``,
    all over the positive ``den``, the lcm of the row's denominators:
    ``support`` lists the columns of the nonzero coefficients in
    increasing order.
    """

    coeffs: tuple[Fraction | int, ...]
    rel: str
    rhs: Fraction | int
    support: tuple[int, ...]
    nums: tuple[int, ...]
    rnum: int
    den: int


def _scaled(values: Sequence) -> tuple[list[int], int] | None:
    """Integers X over D, the lcm of the values' denominators, with X[j]/D == values[j].

    None when a value is not an int or a Fraction: a certificate holding
    one cannot be checked exactly, so it fails.
    """
    types = set(map(type, values))
    if not types <= _EXACT_TYPES:
        return None
    if Fraction not in types:
        return list(values), 1
    d = lcm(*(x.denominator for x in values))
    return [x.numerator * (d // x.denominator) for x in values], d


def _row(coeffs: tuple, rel: str, rhs: Fraction | int) -> Row:
    support = tuple(compress(range(len(coeffs)), coeffs))
    nonzero = tuple(compress(coeffs, coeffs))
    if Fraction not in set(map(type, nonzero)):
        # int coefficients: the lcm of the denominators is the rhs's own
        den = rhs.denominator
        nums = nonzero if den == 1 else tuple(map(den.__mul__, nonzero))
        return Row(coeffs, rel, rhs, support, nums, rhs.numerator, den)
    ints, den = _scaled((*nonzero, rhs))
    rnum = ints.pop()
    return Row(coeffs, rel, rhs, support, tuple(ints), rnum, den)


class LinearSystem:
    """Immutable constraint system over named-by-index rational variables.

    ``objective``, when given, holds one coefficient per variable of the
    linear form to minimize.  Coefficients and right-hand sides pass the
    `exact` gate: a Fraction or an int, never a float, bool or string.
    ``rows`` and ``objective`` keep each value as given, an int or a
    Fraction; see `Row` for the integer form that arithmetic reads.
    """

    def __init__(
        self,
        num_vars: int,
        rows: Iterable[tuple],
        objective: Sequence | None = None,
        nonneg: Sequence[bool] | bool = False,
    ):
        if num_vars < 1:
            raise ValueError("a system needs at least one variable")
        self.num_vars = int(num_vars)
        packed = []
        for coeffs, rel, rhs in rows:
            coeffs = _gated(coeffs)
            if len(coeffs) != self.num_vars:
                raise ValueError("row length does not match variable count")
            if rel not in _RELS:
                raise ValueError(f"unknown relation {rel!r}")
            packed.append(_row(coeffs, rel, rhs if type(rhs) in _EXACT_TYPES else exact(rhs)))
        self.rows: tuple[Row, ...] = tuple(packed)
        if objective is not None:
            objective = _gated(objective)
            if len(objective) != self.num_vars:
                raise ValueError("objective length does not match variable count")
        self.objective: tuple[Fraction | int, ...] | None = objective
        if isinstance(nonneg, bool):
            nonneg = [nonneg] * self.num_vars
        self.nonneg: tuple[bool, ...] = tuple(bool(b) for b in nonneg)
        if len(self.nonneg) != self.num_vars:
            raise ValueError("nonneg flags do not match variable count")


class FeasibilityOutcome(NamedTuple):
    feasible: bool
    point: tuple[Fraction, ...] | None = None
    farkas: tuple[Fraction, ...] | None = None

    def to_json(self) -> dict:
        if self.feasible:
            return {"status": "feasible", "point": [fmt_q(x) for x in self.point]}
        return {"status": "infeasible", "farkas": [fmt_q(x) for x in self.farkas]}


class Optimum(NamedTuple):
    value: Fraction
    point: tuple[Fraction, ...]
    duals: tuple[Fraction, ...]

    def to_json(self) -> dict:
        return {
            "status": "optimal",
            "value": fmt_q(self.value),
            "point": [fmt_q(x) for x in self.point],
            "duals": [fmt_q(y) for y in self.duals],
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "Optimum":
        if obj.get("status") != "optimal":
            raise ValueError(f"not an optimum: status {obj.get('status')!r}")
        return cls(
            parse_q(obj["value"]),
            tuple(parse_q(x) for x in obj["point"]),
            tuple(parse_q(x) for x in obj["duals"]),
        )


class _Simplex:
    """Two-phase dense tableau working on the standard equality form.

    Free variables are split into positive/negative parts; every row gets
    a slack or artificial basic column after sign-normalizing the right
    hand side.  Artificial columns are kept (ineligible) through phase 2
    so dual values can be read off the final reduced costs.

    Row i is the ints ``T[i]`` over its positive basic entry
    ``T[i][basis[i]]``; the cost row ``zrow`` is over ``zrow[ncols]``, the
    entry of a basic column of its own just before the rhs.  So each row
    holds a Fraction tableau's row times a positive factor, and Bland's
    rule, which reads only signs and ratios, pivots alike.  Each row starts
    as the system's own integer row.  A pivot lists the pivot row's nonzero
    columns once and divides them by their gcd before reading the pivot
    entry p; `_eliminate` then makes each other row p·row − f·prow.  It
    subtracts f·prow on those columns alone, after scaling the row by p
    into a new list when p is not 1 and in place when p is 1, so no two
    rows may share a list.  No other row is ever divided.  Points, duals
    and values are each read as one ``Fraction(int, int)``.
    """

    def __init__(self, system: LinearSystem):
        self.system = system
        self.var_cols: list[tuple[int, int]] = []  # (original var, sign)
        first_col = []  # the column of each original variable's positive part
        for j in range(system.num_vars):
            first_col.append(len(self.var_cols))
            self.var_cols.append((j, 1))
            if not system.nonneg[j]:
                self.var_cols.append((j, -1))
        rows = system.rows
        m = len(rows)
        self.sigma = [1 if row.rnum >= 0 else -1 for row in rows]
        # the slack's sign once the rhs is nonnegative; a +1 slack starts basic
        slack = [sigma * {LE: 1, GE: -1, EQ: 0}[row.rel] for sigma, row in zip(self.sigma, rows)]
        ncols = len(self.var_cols)
        slack_col = [None] * m
        for i in range(m):
            if slack[i]:
                slack_col[i], ncols = ncols, ncols + 1
        self.reader_is_artificial = [s != 1 for s in slack]
        self.basis = []
        for i in range(m):
            if self.reader_is_artificial[i]:
                self.basis.append(ncols)
                ncols += 1
            else:
                self.basis.append(slack_col[i])
        self.reader_col = list(self.basis)
        self.art_set = frozenset(b for b, art in zip(self.basis, self.reader_is_artificial) if art)
        self.ncols = ncols
        self.T: list[list[int]] = []
        nonneg = system.nonneg
        for i, row in enumerate(rows):
            sigma = self.sigma[i]
            body = [0] * (ncols + 2)
            for j, a in zip(row.support, row.nums):
                col = first_col[j]
                body[col] = sigma * a
                if not nonneg[j]:
                    body[col + 1] = -sigma * a
            if slack[i]:
                body[slack_col[i]] = slack[i] * row.den
            body[self.basis[i]] = row.den
            body[-1] = sigma * row.rnum
            self.T.append(body)
        self.pivots = 0
        # Bland's rule terminates within the number of distinct bases.
        self.pivot_cap = comb(ncols, m) if m else 1
        self.zrow: list[int] = []

    def _build_zrow(self, costs: dict[int, Fraction]):
        """Reduced costs: `costs` with each basic row's cost priced out."""
        d = lcm(*(q.denominator for q in costs.values()))
        z = [0] * (self.ncols + 2)
        for j, q in costs.items():
            z[j] = q.numerator * (d // q.denominator)
        z[self.ncols] = d
        for b, row in zip(self.basis, self.T):
            # basic columns are unit columns, so pricing out one row keeps
            # the cost of every other basic column as given
            if z[b]:
                z = _eliminate(z, z[b], row, row[b], _support(row))
        self.zrow = z

    def _pivot(self, r: int, c: int):
        T = self.T
        rowr = T[r]
        support = _support(rowr)
        # the gcd divides the basic entry, so a row over 1 is in lowest terms;
        # reduce, not gcd(*row): a row-sized argument tuple per call raised peak RSS
        if rowr[self.basis[r]] != 1:
            g = reduce(gcd, map(rowr.__getitem__, support))
            if g != 1:
                for j in support:
                    rowr[j] //= g
        p = rowr[c]
        if p < 0:
            p = -p
            rowr = [-x for x in rowr]
        T[r] = rowr  # row r now reads rowr / p, with 1 in column c
        for i, row in enumerate(T):
            f = row[c]
            if f and i != r:
                T[i] = _eliminate(row, f, rowr, p, support)
        f = self.zrow[c]
        if f:
            self.zrow = _eliminate(self.zrow, f, rowr, p, support)
        self.basis[r] = c
        self.pivots += 1
        if self.pivots > self.pivot_cap:
            raise RuntimeError("pivot safety cap exceeded; anti-cycling violated")

    def _iterate(self, *, forbid_enter=frozenset()) -> bool:
        """Pivot to optimality (True), or stop at an unbounded column (False)."""
        T = self.T
        basis = self.basis
        while True:
            z = self.zrow
            enter = -1
            for j in range(self.ncols):
                if z[j] < 0 and j not in forbid_enter:
                    enter = j
                    break
            if enter < 0:
                return True
            # a row's ratio is rhs / entry: the row denominator cancels
            best_rhs = best_t = 0
            best_row = -1
            best_basic = -1
            for i, row in enumerate(T):
                t = row[enter]
                if t > 0:
                    if best_row >= 0:
                        lhs = row[-1] * best_t
                        rhs = best_rhs * t
                        if lhs > rhs or (lhs == rhs and basis[i] > best_basic):
                            continue
                    best_rhs = row[-1]
                    best_t = t
                    best_row = i
                    best_basic = basis[i]
            if best_row < 0:
                return False
            self._pivot(best_row, enter)

    def run_phase1(self) -> bool:
        costs = {c: _F1 for c in self.art_set}
        self._build_zrow(costs)
        bounded = self._iterate()
        assert bounded, "phase 1 is always bounded below by 0"
        return self.zrow[-1] == 0

    def value(self) -> Fraction:
        """The objective value at the current basis."""
        return Fraction(-self.zrow[-1], self.zrow[self.ncols])

    def duals(self, phase1: bool) -> tuple[Fraction, ...]:
        """Row duals read off the reduced costs, in the rows' own orientation."""
        z = self.zrow
        d = z[self.ncols]
        out = []
        for i, col in enumerate(self.reader_col):
            # the reader's cost (1 on a phase-1 artificial, else 0) minus its reduced cost
            cost = d if phase1 and self.reader_is_artificial[i] else 0
            out.append(Fraction(self.sigma[i] * (cost - z[col]), d))
        return tuple(out)

    def farkas_multipliers(self) -> tuple[Fraction, ...]:
        y = self.duals(phase1=True)
        return tuple(m_i if row.rel == GE else -m_i for m_i, row in zip(y, self.system.rows))

    def _drive_out_artificials(self):
        for i in range(len(self.T)):
            if self.basis[i] in self.art_set:
                row = self.T[i]
                for c in range(self.ncols):
                    if c not in self.art_set and row[c]:
                        self._pivot(i, c)
                        break
                # otherwise the row is identically zero outside artificial
                # columns (redundant) and can never change again

    def run_phase2(self, objective: Sequence[Fraction]) -> bool:
        """Minimize `objective` from phase 1's basis; False when unbounded below."""
        self._drive_out_artificials()
        costs = {}
        for col, (j, sign) in enumerate(self.var_cols):
            c = objective[j]
            if c:
                costs[col] = Fraction(sign) * c
        self._build_zrow(costs)
        return self._iterate(forbid_enter=self.art_set)

    def primal_point(self) -> tuple[Fraction, ...]:
        x = [_F0] * self.system.num_vars
        nvar = len(self.var_cols)
        for i, col in enumerate(self.basis):
            # a free variable's two parts are opposite columns, so at most one is basic
            if col < nvar:
                j, sign = self.var_cols[col]
                row = self.T[i]
                x[j] = Fraction(sign * row[-1], row[col])
        return tuple(x)


def _support(row: list[int]) -> list[int]:
    """The columns of the row's nonzero entries, the right-hand side included."""
    return [j for j, a in enumerate(row) if a]


def _eliminate(row: list[int], f: int, prow: list[int], p: int, support: list[int]) -> list[int]:
    """p*row - f*prow: row minus f/p times prow, over p times row's basic entry.

    `support` lists the columns where prow is nonzero, and only those
    entries take f*prow off: in `row` itself when p is 1, and otherwise in
    a new row that first scales every entry by p.  Nothing is divided out
    either way.
    """
    if p != 1:
        row = [p * a for a in row]
    for j in support:
        row[j] -= f * prow[j]
    return row


def solve_feasibility(system: LinearSystem) -> FeasibilityOutcome:
    """Decide feasibility; the outcome always passes `verify_certificate`."""
    sx = _Simplex(system)
    if sx.run_phase1():
        out = FeasibilityOutcome(True, point=sx.primal_point())
    else:
        out = FeasibilityOutcome(False, farkas=sx.farkas_multipliers())
    if not verify_certificate(system, out):
        raise RuntimeError("internal error: certificate failed self-verification")
    return out


def minimize(system: LinearSystem) -> Optimum:
    """Minimize the system's objective exactly.

    Raises `ValueError` when the system has no objective, is infeasible
    or is unbounded below.
    """
    if system.objective is None:
        raise ValueError("system has no objective")
    sx = _Simplex(system)
    if not sx.run_phase1():
        raise ValueError("linear system is infeasible")
    if not sx.run_phase2(system.objective):
        raise ValueError("objective is unbounded below over the feasible region")
    out = Optimum(sx.value(), sx.primal_point(), sx.duals(phase1=False))
    if not verify_certificate(system, out):
        raise RuntimeError("internal error: optimality certificate failed")
    return out


def _feasible_point(system: LinearSystem, point: Sequence[Fraction]) -> tuple[list[int], int] | None:
    """The point as `_scaled` integers when it satisfies every constraint, else None."""
    if len(point) != system.num_vars:
        return None
    scaled = _scaled(point)
    if scaled is None:
        return None
    x, d = scaled
    if any(xj < 0 for xj, flag in zip(x, system.nonneg) if flag):
        return None
    # row · point rel rhs, both sides times row.den * d > 0
    for row in system.rows:
        lhs = sum(map(mul, row.nums, map(x.__getitem__, row.support)))
        if not _HOLDS[row.rel](lhs, row.rnum * d):
            return None
    return scaled


def _combine(system: LinearSystem, multipliers: Sequence[int]) -> tuple[list[int], int, int]:
    """Σ yᵢ·rowᵢ and Σ yᵢ·bᵢ over the rows for integer yᵢ, each times the
    returned positive scale: the lcm of the row denominators with yᵢ ≠ 0."""
    rows = system.rows
    scale = lcm(*(row.den for y, row in zip(multipliers, rows) if y))
    g = [0] * system.num_vars
    h = 0
    for y, row in zip(multipliers, rows):
        if y:
            f = y * (scale // row.den)
            for j, a in zip(row.support, row.nums):
                g[j] += f * a
            h += f * row.rnum
    return g, h, scale


def _farkas_valid(system: LinearSystem, lam: Sequence[Fraction]) -> bool:
    if len(lam) != len(system.rows):
        return False
    scaled = _scaled(lam)
    if scaled is None:
        return False
    y = scaled[0]  # only signs are compared, so the positive scale drops out
    for yi, row in zip(y, system.rows):
        if row.rel != EQ and yi < 0:
            return False
    # multiplier i scales row i oriented as "<=", so a ">=" row flips
    g, h, _ = _combine(system, [-yi if row.rel == GE else yi for yi, row in zip(y, system.rows)])
    if h >= 0:
        return False
    for gj, flag in zip(g, system.nonneg):
        if gj < 0 if flag else gj != 0:
            return False
    return True


def _optimum_valid(system: LinearSystem, opt: Optimum) -> bool:
    if system.objective is None or len(opt.duals) != len(system.rows):
        return False
    point = _feasible_point(system, opt.point)
    value = _scaled((opt.value,))
    duals = _scaled(opt.duals)
    if point is None or value is None or duals is None:
        return False
    x, xden = point
    (vnum,), vden = value
    c, cden = _scaled(system.objective)
    # c · x == value, both sides times cden * xden * vden
    if sum(map(mul, c, x)) * vden != vnum * cden * xden:
        return False
    y, yden = duals
    # dual feasibility for a minimization
    for yi, row in zip(y, system.rows):
        if (row.rel == LE and yi > 0) or (row.rel == GE and yi < 0):
            return False
    # the duals combine to g / (yden * scale) and dual_value / (yden * scale)
    g, dual_value, scale = _combine(system, y)
    gden = yden * scale
    for cj, gj, flag in zip(c, g, system.nonneg):
        reduced = cj * gden - gj * cden  # (c_j - g_j) times cden * gden
        if reduced < 0 if flag else reduced != 0:
            return False
    return dual_value * vden == vnum * gden


def verify_certificate(system: LinearSystem, outcome) -> bool:
    """Recheck a solver outcome by exact integer arithmetic alone.

    It reads the system's integer rows and the certificate, never a
    tableau, so no pivoting step is trusted.
    """
    if isinstance(outcome, FeasibilityOutcome):
        if outcome.feasible:
            return outcome.point is not None and _feasible_point(system, outcome.point) is not None
        return outcome.farkas is not None and _farkas_valid(system, outcome.farkas)
    if isinstance(outcome, Optimum):
        return _optimum_valid(system, outcome)
    raise TypeError(f"unknown certificate type: {type(outcome).__name__}")
