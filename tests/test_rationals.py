"""The exact-rational gate: `rationals.exact`, `parse_q`, and every library
entry point that takes a rational from its caller."""

from fractions import Fraction as Q

import pytest

from amenlab.balance import (
    BalanceWitness,
    SetFamily,
    family_of_positive_sets,
    verify_balance_witness,
)
from amenlab.f2 import invariance_system, simultaneous_invariance
from amenlab.folner import folner_from_weighted, is_epsilon_folner, weighted_folner_function
from amenlab.groups import FreeAbelianGroup, GroupError, Measure, ball
from amenlab.linprog import LE, LinearSystem
from amenlab.pictures import realization_search
from amenlab.ramsey import (
    binary_to_unit,
    boost,
    boost_steps_needed,
    is_epsilon_ramsey,
    ramsey_function,
    subset_measure,
)
from amenlab.rationals import exact, fmt_q, parse_q, typed

Z = FreeAbelianGroup(1)
WINDOW = ball(Z, 1)  # (-1, 0, 1)
BSET = ball(Z, 2)
UNIFORM = Measure(Z, {x: Q(1, 5) for x in BSET})  # invariance defect 4/5 over WINDOW
PAIR = SetFamily("xy", [["x"], ["y"]])
HALVES = BalanceWitness((Q(1, 2), Q(1, 2)), (Q(1, 2), Q(1, 2)), Q(0))

INEXACT = [0.5, True, "1/2"]
EXACT = [1, Q(1)]

# entry point -> a call placing x where the caller's rational goes; each
# call succeeds at x = 1
ENTRY_POINTS = {
    "is_epsilon_ramsey": lambda x: is_epsilon_ramsey(WINDOW, BSET, x),
    "subset_measure": lambda x: subset_measure(WINDOW, BSET, [], x),
    "boost_steps_needed": lambda x: boost_steps_needed(x),
    "boost": lambda x: boost(WINDOW, lambda g: 0, x),
    "ramsey_function": lambda x: ramsey_function(Z, 1, x, 2),
    "binary_to_unit": lambda x: binary_to_unit(WINDOW, BSET, {b: x for b in BSET}),
    "is_epsilon_folner": lambda x: is_epsilon_folner(WINDOW, BSET, x),
    "weighted_folner_function": lambda x: weighted_folner_function(Z, 1, x, 2),
    "folner_from_weighted": lambda x: folner_from_weighted(UNIFORM, WINDOW, x),
    "invariance_system": lambda x: invariance_system(2, x, 1),
    "simultaneous_invariance": lambda x: simultaneous_invariance(2, x, 1),
    "family_of_positive_sets": lambda x: family_of_positive_sets([x, -1], "xy"),
    "verify_balance_witness": lambda x: verify_balance_witness(PAIR, HALVES, x),
    "realization_search_mapping": lambda x: realization_search(
        Z, WINDOW, dict(zip(WINDOW, (x, 0, -1))), 1
    ),
    "LinearSystem": lambda x: LinearSystem(1, [((x,), LE, 1)]),
    "Measure": lambda x: Measure(Z, {Z.identity(): x}),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_points_take_only_exact_rationals(name):
    call = ENTRY_POINTS[name]
    error = GroupError if name == "Measure" else ValueError
    for x in INEXACT:
        with pytest.raises(error, match="exact rational expected"):
            call(x)
    for x in EXACT:
        call(x)


def test_exact_gate():
    half = Q(1, 2)
    assert exact(half) is half
    assert exact(3) == Q(3) and type(exact(3)) is Q
    for x, kind in [(0.5, "float"), (True, "bool"), ("1/2", "str"), (None, "NoneType")]:
        with pytest.raises(ValueError, match=f"got {kind}$"):
            exact(x)


def test_parse_q_reads_strings_only():
    assert parse_q(" -3/6 ") == Q(-1, 2)
    assert parse_q("4") == 4
    for x in (4, Q(1, 3), 0.5, True, None):
        with pytest.raises(ValueError, match="must be a JSON string"):
            parse_q(x)
    assert fmt_q(2) == "2/1" and fmt_q(Q(-2, 4)) == "-1/2"
    with pytest.raises(ValueError):
        fmt_q(0.5)


def test_typed_tells_booleans_from_integers():
    assert typed(True, bool, "flag") is True
    assert typed(7, int, "count") == 7
    for value, json_type, kind in [(1, bool, "boolean"), (True, int, "integer"),
                                   (128.0, int, "integer"), ("8", int, "integer")]:
        with pytest.raises(ValueError, match=f"^field must be a JSON {kind}$"):
            typed(value, json_type, "field")
