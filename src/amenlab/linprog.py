"""Exact rational linear feasibility and optimization with certificates.

A dense two-phase simplex over `fractions.Fraction` with Bland's
anti-cycling rule, so pivoting terminates and identical systems produce
identical answers bit for bit.  Every result is accompanied by data that
can be re-checked by plain arithmetic, independent of the solver:

* Feasible     -> a rational point satisfying every constraint exactly.
* Infeasible   -> Farkas multipliers, one per constraint row, that
                  combine the rows into the contradiction 0 <= h < 0.
* Optimal      -> the attaining point plus a dual vector whose objective
                  matches the primal value exactly (strong duality).
* Unbounded    -> a feasible point plus an improving recession ray.

Farkas convention: multiplier i scales row i oriented as "<=" (so a ">="
row contributes with flipped sign).  Multipliers on inequality rows must
be nonnegative; equality rows are unrestricted.  The combined coefficient
vector must vanish on free variables, be nonnegative on variables flagged
nonnegative, and have a negative combined right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Mapping, Sequence

from .rationals import fmt_q, parse_q

LE, EQ, GE = "<=", "=", ">="
_RELS = (LE, EQ, GE)

_F0 = Fraction(0)
_F1 = Fraction(1)


def _frac(x) -> Fraction:
    if isinstance(x, float):
        raise ValueError("LP data must be exact rationals, not floats")
    return Fraction(x)


@dataclass(frozen=True)
class Row:
    coeffs: tuple[Fraction, ...]
    rel: str
    rhs: Fraction


@dataclass(frozen=True)
class Objective:
    coeffs: tuple[Fraction, ...]
    direction: str  # "min" | "max"


class LinearSystem:
    """Immutable constraint system over named-by-index rational variables."""

    def __init__(
        self,
        num_vars: int,
        rows: Iterable[tuple],
        objective: Objective | tuple | None = None,
        nonneg: Sequence[bool] | bool | None = None,
    ):
        if num_vars < 1:
            raise ValueError("a system needs at least one variable")
        self.num_vars = int(num_vars)
        packed = []
        for coeffs, rel, rhs in rows:
            coeffs = tuple(_frac(c) for c in coeffs)
            if len(coeffs) != self.num_vars:
                raise ValueError("row length does not match variable count")
            if rel not in _RELS:
                raise ValueError(f"unknown relation {rel!r}")
            packed.append(Row(coeffs, rel, _frac(rhs)))
        self.rows: tuple[Row, ...] = tuple(packed)
        if objective is not None and not isinstance(objective, Objective):
            coeffs, direction = objective
            objective = Objective(tuple(_frac(c) for c in coeffs), direction)
        if objective is not None:
            if len(objective.coeffs) != self.num_vars:
                raise ValueError("objective length does not match variable count")
            if objective.direction not in ("min", "max"):
                raise ValueError("objective direction must be 'min' or 'max'")
        self.objective = objective
        if nonneg is None:
            nonneg = False
        if isinstance(nonneg, bool):
            nonneg = [nonneg] * self.num_vars
        self.nonneg: tuple[bool, ...] = tuple(bool(b) for b in nonneg)
        if len(self.nonneg) != self.num_vars:
            raise ValueError("nonneg flags do not match variable count")


@dataclass(frozen=True)
class FeasibilityOutcome:
    feasible: bool
    point: tuple[Fraction, ...] | None = None
    farkas: tuple[Fraction, ...] | None = None

    def to_json(self) -> dict:
        if self.feasible:
            return {"status": "feasible", "point": [fmt_q(x) for x in self.point]}
        return {"status": "infeasible", "farkas": [fmt_q(x) for x in self.farkas]}


@dataclass(frozen=True)
class Optimum:
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


@dataclass(frozen=True)
class UnboundedWitness:
    point: tuple[Fraction, ...]
    ray: tuple[Fraction, ...]

    def to_json(self) -> dict:
        return {
            "status": "unbounded",
            "point": [fmt_q(x) for x in self.point],
            "ray": [fmt_q(x) for x in self.ray],
        }


def outcome_from_json(obj: Mapping):
    status = obj.get("status")
    if status == "feasible":
        return FeasibilityOutcome(True, tuple(parse_q(x) for x in obj["point"]))
    if status == "infeasible":
        return FeasibilityOutcome(False, None, tuple(parse_q(x) for x in obj["farkas"]))
    if status == "optimal":
        return Optimum(
            parse_q(obj["value"]),
            tuple(parse_q(x) for x in obj["point"]),
            tuple(parse_q(x) for x in obj["duals"]),
        )
    if status == "unbounded":
        return UnboundedWitness(
            tuple(parse_q(x) for x in obj["point"]),
            tuple(parse_q(x) for x in obj["ray"]),
        )
    raise ValueError(f"unknown outcome status {status!r}")


class InfeasibleProblem(Exception):
    def __init__(self, certificate: FeasibilityOutcome):
        super().__init__("linear system is infeasible")
        self.certificate = certificate


class UnboundedProblem(Exception):
    def __init__(self, witness: UnboundedWitness):
        super().__init__("objective is unbounded over the feasible region")
        self.witness = witness


class _Simplex:
    """Two-phase dense tableau working on the standard equality form.

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
                    body[col] = sigma * sign * c
            s = 1 if row.rel == LE else (-1 if row.rel == GE else 0)
            if s:
                body[slack_col[i]] = Fraction(sigma * s)
            tableau.append(body + [sigma * row.rhs])
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
        self.slack_col = slack_col
        self.art_col = art_col
        self.reader_col = reader_col
        self.reader_is_artificial = reader_is_artificial
        self.ncols = ncols
        self.art_set = frozenset(c for c in art_col if c is not None)
        self.pivots = 0
        # Bland's rule terminates within the number of distinct bases.
        self.pivot_cap = comb(ncols, m) if m else 1
        self.zrow: list[Fraction] = []
        self._enter_col: int | None = None

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

    def _iterate(self, *, forbid_enter=frozenset()) -> str:
        z = self.zrow
        T = self.T
        while True:
            enter = -1
            for j in range(self.ncols):
                if z[j] < 0 and j not in forbid_enter:
                    enter = j
                    break
            if enter < 0:
                return "optimal"
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
                self._enter_col = enter
                return "unbounded"
            self._pivot(best_row, enter)

    def run_phase1(self) -> bool:
        costs = {c: _F1 for c in self.art_set}
        self._build_zrow(costs)
        status = self._iterate()
        assert status == "optimal", "phase 1 is always bounded below by 0"
        return -self.zrow[-1] == 0

    def _duals(self, phase1: bool) -> list[Fraction]:
        out = []
        for i in range(len(self.T)):
            col = self.reader_col[i]
            cost = _F1 if (phase1 and self.reader_is_artificial[i]) else _F0
            out.append(cost - self.zrow[col])
        return out

    def farkas_multipliers(self) -> tuple[Fraction, ...]:
        y = self._duals(phase1=True)
        lam = []
        for i, row in enumerate(self.system.rows):
            m_i = self.sigma[i] * y[i]
            lam.append(m_i if row.rel == GE else -m_i)
        return tuple(lam)

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

    def run_phase2(self) -> str:
        self._drive_out_artificials()
        costs = dict(self._phase2_costs)
        self._build_zrow(costs)
        return self._iterate(forbid_enter=self.art_set)

    def set_phase2_costs(self, minimize_coeffs: Sequence[Fraction]):
        costs = {}
        for col, (j, sign) in enumerate(self.var_cols):
            c = minimize_coeffs[j]
            if c:
                costs[col] = Fraction(sign) * c
        self._phase2_costs = costs

    def primal_point(self) -> tuple[Fraction, ...]:
        vals = [_F0] * self.ncols
        for i, col in enumerate(self.basis):
            vals[col] = self.T[i][-1]
        x = [_F0] * self.system.num_vars
        for col, (j, sign) in enumerate(self.var_cols):
            if vals[col]:
                x[j] += sign * vals[col]
        return tuple(x)

    def objective_value(self) -> Fraction:
        return -self.zrow[-1]

    def dual_point(self) -> tuple[Fraction, ...]:
        y = self._duals(phase1=False)
        return tuple(self.sigma[i] * y[i] for i in range(len(y)))

    def ray(self) -> tuple[Fraction, ...]:
        enter = self._enter_col
        d = [_F0] * self.ncols
        d[enter] = _F1
        for i, col in enumerate(self.basis):
            t = self.T[i][enter]
            if t:
                d[col] = -t
        dx = [_F0] * self.system.num_vars
        for col, (j, sign) in enumerate(self.var_cols):
            if d[col]:
                dx[j] += sign * d[col]
        return tuple(dx)


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
    """Solve the system's stated objective (either direction) exactly.

    Raises `InfeasibleProblem` (with a Farkas certificate) or
    `UnboundedProblem` (with a feasible point and improving ray).
    """
    if system.objective is None:
        raise ValueError("system has no objective")
    flip = system.objective.direction == "max"
    coeffs = system.objective.coeffs
    mincoeffs = tuple(-c for c in coeffs) if flip else coeffs
    sx = _Simplex(system)
    sx.set_phase2_costs(mincoeffs)
    if not sx.run_phase1():
        cert = FeasibilityOutcome(False, farkas=sx.farkas_multipliers())
        if not verify_certificate(system, cert):
            raise RuntimeError("internal error: Farkas certificate failed")
        raise InfeasibleProblem(cert)
    status = sx.run_phase2()
    if status == "unbounded":
        witness = UnboundedWitness(sx.primal_point(), sx.ray())
        if not verify_certificate(system, witness):
            raise RuntimeError("internal error: unbounded witness failed")
        raise UnboundedProblem(witness)
    value = sx.objective_value()
    duals = sx.dual_point()
    if flip:
        value = -value
        duals = tuple(-y for y in duals)
    out = Optimum(value, sx.primal_point(), duals)
    if not verify_certificate(system, out):
        raise RuntimeError("internal error: optimality certificate failed")
    return out


def _row_value(row: Row, point: Sequence[Fraction]) -> Fraction:
    return sum((c * x for c, x in zip(row.coeffs, point) if c), _F0)


def _point_feasible(system: LinearSystem, point: Sequence[Fraction]) -> bool:
    if len(point) != system.num_vars:
        return False
    for j, flag in enumerate(system.nonneg):
        if flag and point[j] < 0:
            return False
    for row in system.rows:
        v = _row_value(row, point)
        if row.rel == LE and not v <= row.rhs:
            return False
        if row.rel == GE and not v >= row.rhs:
            return False
        if row.rel == EQ and v != row.rhs:
            return False
    return True


def _farkas_valid(system: LinearSystem, lam: Sequence[Fraction]) -> bool:
    if len(lam) != len(system.rows):
        return False
    g = [_F0] * system.num_vars
    h = _F0
    for coef, row in zip(lam, system.rows):
        if row.rel != EQ and coef < 0:
            return False
        if not coef:
            continue
        sign = -1 if row.rel == GE else 1
        f = sign * coef
        for j, c in enumerate(row.coeffs):
            if c:
                g[j] += f * c
        h += f * row.rhs
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
    c = system.objective.coeffs
    maximizing = system.objective.direction == "max"
    primal = sum((cj * xj for cj, xj in zip(c, opt.point) if cj), _F0)
    if primal != opt.value:
        return False
    # dual feasibility, oriented by optimization direction
    for y, row in zip(opt.duals, system.rows):
        if row.rel == LE and ((y > 0) if not maximizing else (y < 0)):
            return False
        if row.rel == GE and ((y < 0) if not maximizing else (y > 0)):
            return False
    for j in range(system.num_vars):
        reduced = c[j] - sum(
            (y * row.coeffs[j] for y, row in zip(opt.duals, system.rows) if y and row.coeffs[j]),
            _F0,
        )
        if system.nonneg[j]:
            if (reduced < 0) if not maximizing else (reduced > 0):
                return False
        elif reduced != 0:
            return False
    dual_value = sum((y * row.rhs for y, row in zip(opt.duals, system.rows) if y), _F0)
    return dual_value == opt.value


def _unbounded_valid(system: LinearSystem, witness: UnboundedWitness) -> bool:
    if system.objective is None:
        return False
    if not _point_feasible(system, witness.point):
        return False
    if len(witness.ray) != system.num_vars:
        return False
    for j, flag in enumerate(system.nonneg):
        if flag and witness.ray[j] < 0:
            return False
    for row in system.rows:
        v = _row_value(row, witness.ray)
        if row.rel == LE and v > 0:
            return False
        if row.rel == GE and v < 0:
            return False
        if row.rel == EQ and v != 0:
            return False
    drift = sum(
        (cj * dj for cj, dj in zip(system.objective.coeffs, witness.ray) if cj), _F0
    )
    return drift < 0 if system.objective.direction == "min" else drift > 0


def verify_certificate(system: LinearSystem, outcome) -> bool:
    """Recheck a solver outcome by exact arithmetic alone (no pivoting)."""
    if isinstance(outcome, FeasibilityOutcome):
        if outcome.feasible:
            return outcome.point is not None and _point_feasible(system, outcome.point)
        return outcome.farkas is not None and _farkas_valid(system, outcome.farkas)
    if isinstance(outcome, Optimum):
        return _optimum_valid(system, outcome)
    if isinstance(outcome, UnboundedWitness):
        return _unbounded_valid(system, outcome)
    raise TypeError(f"unknown certificate type: {type(outcome).__name__}")
