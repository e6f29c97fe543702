"""Test oracles for the simplex: a minimal-face feasibility check, a
Fraction tableau and a Fraction certificate checker.

`FractionSimplex` is the simplex over `fractions.Fraction` that the
integer-row tableau in `amenlab.linprog` replaced; both must take the same
pivots and return the same results.  `fraction_verify_certificate` is the
certificate check over Fractions and dense rows that the integer
`verify_certificate` replaced; both must accept the same outcomes.  The
rest of this module is solver-independent.

Feasibility is decided by enumerating candidate active sets: a polyhedron
is nonempty exactly when some subset of at most `n` inequality rows,
turned into equalities together with all equality rows, has a solution
set that is entirely contained in the polyhedron (the minimal-face
criterion).  That oracle is exact Gaussian elimination over Fractions and
shares no pivoting rule or tableau with the solver under test.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Sequence

from amenlab.linprog import EQ, GE, LE, FeasibilityOutcome, LinearSystem, Optimum

_F0 = Fraction(0)
_F1 = Fraction(1)


def rref_solve(eqs, n):
    """Solve a rational linear equation system.

    Returns None when inconsistent, else (particular solution with free
    variables set to 0, nullspace basis vectors).
    """
    M = [[Fraction(c) for c in coeffs] + [Fraction(rhs)] for coeffs, rhs in eqs]
    pivot_cols = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, len(M)) if M[i][c]), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        piv = M[r][c]
        M[r] = [x / piv for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivot_cols.append(c)
        r += 1
        if r == len(M):
            break
    for i in range(r, len(M)):
        if M[i][n]:
            return None
    x0 = [_F0] * n
    for i, c in enumerate(pivot_cols):
        x0[c] = M[i][n]
    free_cols = [c for c in range(n) if c not in pivot_cols]
    null_basis = []
    for f in free_cols:
        v = [_F0] * n
        v[f] = Fraction(1)
        for i, c in enumerate(pivot_cols):
            v[c] = -M[i][f]
        null_basis.append(v)
    return x0, null_basis


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v) if a), _F0)


def oracle_feasible(system: LinearSystem) -> bool:
    """Minimal-face enumeration over all inequality sub-bases of size <= n."""
    n = system.num_vars
    eq_rows = [(list(r.coeffs), r.rhs) for r in system.rows if r.rel == EQ]
    ineq = []
    for r in system.rows:
        if r.rel == LE:
            ineq.append((list(r.coeffs), r.rhs))
        elif r.rel == GE:
            ineq.append(([-c for c in r.coeffs], -r.rhs))
    for j, flag in enumerate(system.nonneg):
        if flag:
            v = [_F0] * n
            v[j] = Fraction(-1)
            ineq.append((v, _F0))
    for size in range(0, n + 1):
        for T in combinations(range(len(ineq)), size):
            sol = rref_solve(eq_rows + [ineq[t] for t in T], n)
            if sol is None:
                continue
            x0, null_basis = sol
            contained = True
            for g, h in ineq:
                if any(_dot(g, v) for v in null_basis) or _dot(g, x0) > h:
                    contained = False
                    break
            if contained:
                return True
    return False


def random_system(rng: random.Random, max_vars: int = 6, max_rows: int = 10) -> LinearSystem:
    """Small random system with coefficients in {-3..3}."""
    n = rng.randint(1, max_vars)
    m = rng.randint(1, max_rows)
    rows = []
    for _ in range(m):
        coeffs = [rng.randint(-3, 3) for _ in range(n)]
        rel = rng.choice([LE, EQ, GE])
        rows.append((coeffs, rel, rng.randint(-3, 3)))
    nonneg = [rng.random() < 0.5 for _ in range(n)]
    return LinearSystem(n, rows, nonneg=nonneg)


class FractionSimplex:
    """Reference two-phase dense tableau over Fractions, for tests only.

    The tableau that `amenlab.linprog._Simplex`'s integer rows replaced,
    kept as the oracle they are checked against: the same column layout,
    Bland's rule and tie-breaks, so both must pivot alike.

    Free variables are split into positive/negative parts; every row gets
    a slack or artificial basic column after sign-normalizing the right
    hand side.  Artificial columns are kept (ineligible) through phase 2
    so dual values can be read off the final reduced costs.
    """

    def __init__(self, system: LinearSystem):
        self.system = system
        n = system.num_vars
        self.var_cols: list[tuple[int, int]] = []  # (original var, sign)
        for j in range(n):
            self.var_cols.append((j, 1))
            if not system.nonneg[j]:
                self.var_cols.append((j, -1))
        nv = len(self.var_cols)
        m = len(system.rows)
        slack_col = [None] * m
        reader_col = [0] * m
        reader_is_artificial = [False] * m
        self.sigma = [1] * m
        ncols = nv
        for i, row in enumerate(system.rows):
            if row.rel != EQ:
                slack_col[i] = ncols
                ncols += 1
        art_col = [None] * m
        basis = [0] * m
        tableau: list[list[Fraction]] = []
        for i, row in enumerate(system.rows):
            sigma = 1 if row.rhs >= 0 else -1
            self.sigma[i] = sigma
            body = [_F0] * ncols
            for col, (j, sign) in enumerate(self.var_cols):
                c = row.coeffs[j]
                if c:
                    body[col] = sigma * sign * Fraction(c)
            s = 1 if row.rel == LE else (-1 if row.rel == GE else 0)
            if s:
                body[slack_col[i]] = Fraction(sigma * s)
            tableau.append(body + [sigma * Fraction(row.rhs)])
            if s and sigma * s == 1:
                basis[i] = slack_col[i]
                reader_col[i] = slack_col[i]
            else:
                art_col[i] = -1  # placeholder, assigned below
        for i in range(m):
            if art_col[i] is not None:
                art_col[i] = ncols
                reader_col[i] = ncols
                reader_is_artificial[i] = True
                basis[i] = ncols
                ncols += 1
        for i, body in enumerate(tableau):
            rhs = body.pop()
            body.extend([_F0] * (ncols - len(body)))
            if art_col[i] is not None:
                body[art_col[i]] = _F1
            body.append(rhs)
        self.T = tableau
        self.basis = basis
        self.reader_col = reader_col
        self.reader_is_artificial = reader_is_artificial
        self.ncols = ncols
        self.art_set = frozenset(c for c in art_col if c is not None)
        self.pivots = 0
        # Bland's rule terminates within the number of distinct bases.
        self.pivot_cap = comb(ncols, m) if m else 1
        self.zrow: list[Fraction] = []

    def _build_zrow(self, costs: dict[int, Fraction]):
        z = [costs.get(j, _F0) for j in range(self.ncols)] + [_F0]
        for i, brow in enumerate(self.T):
            cb = costs.get(self.basis[i], _F0)
            if cb:
                for k in range(self.ncols):
                    if brow[k]:
                        z[k] -= cb * brow[k]
                z[-1] -= cb * brow[-1]
        self.zrow = z

    def _pivot(self, r: int, c: int):
        T = self.T
        rowr = T[r]
        piv = rowr[c]
        if piv != 1:
            inv = _F1 / piv
            T[r] = rowr = [x * inv for x in rowr]
        hot = [k for k, v in enumerate(rowr) if v]
        for row in T:
            if row is rowr:
                continue
            f = row[c]
            if f:
                for k in hot:
                    row[k] -= f * rowr[k]
        f = self.zrow[c]
        if f:
            for k in hot:
                self.zrow[k] -= f * rowr[k]
        self.basis[r] = c
        self.pivots += 1
        if self.pivots > self.pivot_cap:
            raise RuntimeError("pivot safety cap exceeded; anti-cycling violated")

    def _iterate(self, *, forbid_enter=frozenset()) -> bool:
        """Pivot to optimality (True), or stop at an unbounded column (False)."""
        z = self.zrow
        T = self.T
        while True:
            enter = -1
            for j in range(self.ncols):
                if z[j] < 0 and j not in forbid_enter:
                    enter = j
                    break
            if enter < 0:
                return True
            best_ratio = None
            best_row = -1
            best_basic = -1
            for i, row in enumerate(T):
                t = row[enter]
                if t > 0:
                    ratio = row[-1] / t
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and self.basis[i] < best_basic)
                    ):
                        best_ratio = ratio
                        best_row = i
                        best_basic = self.basis[i]
            if best_row < 0:
                return False
            self._pivot(best_row, enter)

    def run_phase1(self) -> bool:
        costs = {c: _F1 for c in self.art_set}
        self._build_zrow(costs)
        bounded = self._iterate()
        assert bounded, "phase 1 is always bounded below by 0"
        return -self.zrow[-1] == 0

    def value(self) -> Fraction:
        """The objective value at the current basis."""
        return -self.zrow[-1]

    def duals(self, phase1: bool) -> tuple[Fraction, ...]:
        """Row duals read off the reduced costs, in the rows' own orientation."""
        out = []
        for i in range(len(self.T)):
            col = self.reader_col[i]
            cost = _F1 if (phase1 and self.reader_is_artificial[i]) else _F0
            out.append(self.sigma[i] * (cost - self.zrow[col]))
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
        vals = [_F0] * self.ncols
        for i, col in enumerate(self.basis):
            vals[col] = self.T[i][-1]
        x = [_F0] * self.system.num_vars
        for col, (j, sign) in enumerate(self.var_cols):
            if vals[col]:
                x[j] += sign * vals[col]
        return tuple(x)


# ------------------------------------------------ the Fraction certificate check


def _point_feasible(system: LinearSystem, point: Sequence[Fraction]) -> bool:
    if len(point) != system.num_vars:
        return False
    for j, flag in enumerate(system.nonneg):
        if flag and point[j] < 0:
            return False
    for row in system.rows:
        v = sum((c * x for c, x in zip(row.coeffs, point) if c), _F0)
        if row.rel == LE and not v <= row.rhs:
            return False
        if row.rel == GE and not v >= row.rhs:
            return False
        if row.rel == EQ and v != row.rhs:
            return False
    return True


def _combine(system: LinearSystem, multipliers: Sequence[Fraction]) -> tuple[list, Fraction]:
    """Σ yᵢ·rowᵢ and Σ yᵢ·bᵢ over the rows, skipping zero multipliers yᵢ."""
    g = [_F0] * system.num_vars
    h = _F0
    for y, row in zip(multipliers, system.rows):
        if y:
            for j, c in enumerate(row.coeffs):
                if c:
                    g[j] += y * c
            h += y * row.rhs
    return g, h


def _farkas_valid(system: LinearSystem, lam: Sequence[Fraction]) -> bool:
    if len(lam) != len(system.rows):
        return False
    for coef, row in zip(lam, system.rows):
        if row.rel != EQ and coef < 0:
            return False
    # multiplier i scales row i oriented as "<=", so a ">=" row flips
    g, h = _combine(system, [-y if row.rel == GE else y for y, row in zip(lam, system.rows)])
    if h >= 0:
        return False
    for j, flag in enumerate(system.nonneg):
        if flag:
            if g[j] < 0:
                return False
        elif g[j] != 0:
            return False
    return True


def _optimum_valid(system: LinearSystem, opt: Optimum) -> bool:
    if system.objective is None:
        return False
    if not _point_feasible(system, opt.point):
        return False
    if len(opt.duals) != len(system.rows):
        return False
    c = system.objective
    primal = sum((cj * xj for cj, xj in zip(c, opt.point) if cj), _F0)
    if primal != opt.value:
        return False
    # dual feasibility for a minimization
    for y, row in zip(opt.duals, system.rows):
        if (row.rel == LE and y > 0) or (row.rel == GE and y < 0):
            return False
    g, dual_value = _combine(system, opt.duals)
    for j in range(system.num_vars):
        reduced = c[j] - g[j]
        if system.nonneg[j]:
            if reduced < 0:
                return False
        elif reduced != 0:
            return False
    return dual_value == opt.value


def fraction_verify_certificate(system: LinearSystem, outcome) -> bool:
    """`verify_certificate` over Fractions and dense rows, for tests only."""
    if isinstance(outcome, FeasibilityOutcome):
        if outcome.feasible:
            return outcome.point is not None and _point_feasible(system, outcome.point)
        return outcome.farkas is not None and _farkas_valid(system, outcome.farkas)
    if isinstance(outcome, Optimum):
        return _optimum_valid(system, outcome)
    raise TypeError(f"unknown certificate type: {type(outcome).__name__}")
