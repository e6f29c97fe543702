"""Per-layer tracing of amenlab from outside the package.

A layer is one module of ``amenlab``.  `install` wraps every public
module-level function at every import site (``from .linprog import
minimize`` copies the name, so each module's binding is replaced), plus
the hot entry points that are not module functions: each group class's
``multiply``, ``LinearSystem.__init__`` and the membership predicates that
``SetSpec.compile`` returns.

Every call is a span.  Spans are folded in memory into one aggregate per
(parent, child) edge — calls, total time, self time — and written when
the job ends.  Self time is the span's duration minus the time its child
spans cover.  The hot leaves (``multiply`` and predicates, millions of
calls per job) are aggregated per function without a parent, to keep the
overhead down.  A few spans also feed counters from their arguments or
results (subsets enumerated, LP sizes, ball sizes, ...); a hook runs after
its span closes, so its cost lands in the caller's self time.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter

ROOT = "job"
LEAF = "leaf"
PREDICATE = "pictures.predicate"


def _max_bits(values) -> int:
    best = 0
    for x in values:
        best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
    return best


class Tracer:
    def __init__(self):
        self.stack = [[ROOT, 0]]
        self.edges: dict[tuple[str, str], list[int]] = {}
        self.counters: Counter = Counter()
        self.balance_families: set = set()

    def wrap(self, key, fn, hook=None):
        """`fn` recorded as span `key`; `hook(tracer, args, result, exc)` runs after."""
        stack = self.stack
        edges = self.edges
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [key, 0]
            stack.append(frame)
            start = clock()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[1] += elapsed
                stat = edges.get((parent[0], key))
                if stat is None:
                    stat = edges[(parent[0], key)] = [0, 0, 0]
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[1]
                if exc is not None:
                    self.counters[f"{key}!{type(exc).__name__}"] += 1
                if hook is not None:
                    hook(self, args, result, exc)

        traced.__wrapped__ = fn
        return traced

    def leaf(self, key, fn):
        """A lighter `wrap` for hot calls that call no traced function.

        A leaf called inside another leaf is counted but not timed, so its
        time stays with the outer leaf.
        """
        stack = self.stack
        clock = time.perf_counter_ns
        stat = self.edges.setdefault((LEAF, key), [0, 0, 0])
        inside = [False]

        def traced(*args):
            stat[0] += 1
            if inside[0]:
                return fn(*args)
            inside[0] = True
            start = clock()
            try:
                return fn(*args)
            finally:
                elapsed = clock() - start
                inside[0] = False
                stack[-1][1] += elapsed
                stat[1] += elapsed
                stat[2] += elapsed

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict:
        return {
            "edges": [[p, k, *stat] for (p, k), stat in sorted(self.edges.items())],
            "counters": dict(sorted(self.counters.items())),
        }


# ------------------------------------------------------------------ hooks


def _count_subsets(tr, args, verdict, exc):
    if verdict is not None:
        tr.counters["ramsey.subsets"] += verdict.subsets_checked


def _count_lp(tr, args, outcome, exc):
    system = args[0]
    tr.counters["linprog.rows"] += len(system.rows)
    tr.counters["linprog.cols"] += system.num_vars
    if exc is not None:
        outcome = getattr(exc, "certificate", None)
    if outcome is None:
        return
    bits = 0
    for name in ("value", "point", "duals", "farkas"):
        value = getattr(outcome, name, None)
        if value is not None:
            bits = max(bits, _max_bits(value if isinstance(value, tuple) else (value,)))
    tr.counters["linprog.max_bits"] = max(tr.counters["linprog.max_bits"], bits)


def _count_nonzeros(tr, args, result, exc):
    if exc is None:
        tr.counters["linprog.nonzeros"] += sum(
            1 for row in args[0].rows for c in row.coeffs if c
        )


def _count_family(tr, args, result, exc):
    family = args[0]
    key = (tuple(family.ground), tuple(family.members))
    if key in tr.balance_families:
        tr.counters["balance.repeats"] += 1
    tr.balance_families.add(key)
    tr.counters["balance.families"] += 1


def _count_ball(tr, args, elements, exc):
    if elements is not None:
        tr.counters["groups.ball_elements"] += len(elements)


def _count_scan(tr, args, report, exc):
    if report is not None:
        tr.counters["f2.scan_words"] += sum(c.checked for c in report.checks)


def _count_candidates(tr, args, result, exc):
    if result is not None:
        tr.counters["folner.candidates"] += result.candidates_checked


HOOKS = {
    "ramsey.is_epsilon_ramsey": _count_subsets,
    "linprog.minimize": _count_lp,
    "linprog.solve_feasibility": _count_lp,
    "balance.balance_deficiency": _count_family,
    "balance.unbalance_witness": _count_family,
    "groups.ball": _count_ball,
    "f2.verify_identities": _count_scan,
    "f2.verify_disjoint_translates": _count_scan,
    "folner.folner_function": _count_candidates,
}


def install(tracer: Tracer) -> None:
    """Wrap the imported amenlab modules in place."""
    modules = {
        name: mod
        for name, mod in sys.modules.items()
        if name.startswith("amenlab.") and mod is not None
    }
    wrapped = {}
    for name, mod in modules.items():
        layer = name.rpartition(".")[2]
        for attr, value in vars(mod).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == name
            ):
                key = f"{layer}.{attr}"
                wrapped[value] = tracer.wrap(key, value, HOOKS.get(key))
    for mod in list(modules.values()) + [sys.modules["amenlab"]]:
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(mod, attr, wrapped[value])

    groups = modules["amenlab.groups"]
    for cls in vars(groups).values():
        if inspect.isclass(cls) and "multiply" in vars(cls):
            cls.multiply = tracer.leaf("groups.multiply", vars(cls)["multiply"])

    linear_system = modules["amenlab.linprog"].LinearSystem
    linear_system.__init__ = tracer.wrap(
        "linprog.LinearSystem", linear_system.__init__, _count_nonzeros
    )

    set_spec = modules["amenlab.pictures"].SetSpec
    compile_spec = set_spec.compile
    depth = [0]

    def compile(self, group):
        # parts of a union or complement stay inside the outer predicate's span
        depth[0] += 1
        try:
            test = compile_spec(self, group)
        finally:
            depth[0] -= 1
        return test if depth[0] else tracer.leaf(PREDICATE, test)

    set_spec.compile = compile
