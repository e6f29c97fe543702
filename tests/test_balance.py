import json
import random
from fractions import Fraction as Q

import pytest

from amenlab import balance
from amenlab.balance import (
    BalanceWitness,
    SetFamily,
    UnbalanceWitness,
    balance_deficiency,
    deficiency_optimum,
    empty_member_witness,
    family_of_positive_sets,
    unbalance_witness,
    verify_balance_witness,
    verify_unbalance_witness,
)
from amenlab.groups import CapExceeded


def fam(ground, members):
    return SetFamily(ground, members)


def test_full_member_is_balanced():
    f = fam("xyz", ["xyz"])
    eps, w = balance_deficiency(f)
    assert eps == 0
    assert w.vector == (1, 1, 1)


def test_two_disjoint_singletons():
    f = fam("01", [["0"], ["1"]])
    eps, w = balance_deficiency(f)
    assert eps == 0
    assert w.weights == (Q(1, 2), Q(1, 2))
    assert unbalance_witness(f) is None


def test_single_proper_member():
    f = fam("01", [["0"]])
    eps, w = balance_deficiency(f)
    assert eps == 1  # v is forced to (1, 0)
    assert w.vector == (1, 0)
    witness = unbalance_witness(f)
    assert witness is not None
    assert sum(witness.values) == 0
    assert witness.margin >= 1


def test_empty_family_rejected():
    f = fam("01", [])
    with pytest.raises(ValueError):
        balance_deficiency(f)
    with pytest.raises(ValueError):
        unbalance_witness(f)


def test_family_with_empty_member_is_balanced():
    # all the weight may sit on the empty member, pinning v at 0
    f = fam("01", [[], ["0"]])
    eps, w = balance_deficiency(f)
    assert eps == 0
    assert w == BalanceWitness((Q(1), Q(0)), (Q(0), Q(0)), Q(0))
    assert w.to_json() == {"weights": ["1/1", "0/1"], "vector": ["0/1", "0/1"], "gap": "0/1"}


@pytest.mark.parametrize("width", range(1, 7))
def test_empty_member_witness_is_the_lp_witness(monkeypatch, width):
    # Bland's rule stops at the point mass on the empty member, so the LP's
    # witness is known without solving it
    rng = random.Random(f"empty-member:{width}")
    nonempty = range(1, 1 << width)
    for _ in range(25):
        others = rng.sample(nonempty, rng.randint(0, min(19, len(nonempty))))
        family = SetFamily(range(width), [0, *others])
        optimum, lp_witness = deficiency_optimum(family)
        assert optimum.value == 0
        assert optimum.point[: len(family)] == (1,) + (0,) * len(others)
        witness = empty_member_witness(family)
        assert json.dumps(witness.to_json()) == json.dumps(lp_witness.to_json())
        assert witness == lp_witness
        assert empty_member_witness(SetFamily(range(width), others or [1])) is None
    # and balance_deficiency runs no LP for such a family
    monkeypatch.setattr(balance, "minimize", None)
    assert balance_deficiency(family) == (0, witness)


def test_unbalance_witness_definitional_example():
    # weighting (2, -1, -1): every positive-sum subset keeps f-sum > 0
    values = (Q(2), Q(-1), Q(-1))
    f = family_of_positive_sets(values, "xyz")
    assert set(map(frozenset, f.member_labels())) == {
        frozenset("x"),
        frozenset("xy"),
        frozenset("xz"),
    }
    witness = unbalance_witness(f)
    assert witness is not None
    assert verify_unbalance_witness(f, witness)


def test_family_of_positive_sets_small():
    f = family_of_positive_sets((1, -1), "01")
    assert f.member_labels() == [("0",)]
    single = family_of_positive_sets((0,), "x")
    assert len(single) == 0


def test_family_of_positive_sets_validation():
    with pytest.raises(ValueError):
        family_of_positive_sets((1, 1), "01")  # sum != 0
    with pytest.raises(CapExceeded):
        family_of_positive_sets((0,) * 21, range(21))


def _all_families_on(ground):
    width = len(ground)
    subsets = list(range(1 << width))
    for member_selector in range(1, 1 << len(subsets)):
        members = [subsets[i] for i in range(len(subsets)) if member_selector >> i & 1]
        yield SetFamily(ground, members)


def test_exact_duality_on_two_point_ground():
    # exhaustive over all 15 nonempty families on two points
    for family in _all_families_on("01"):
        eps, witness = balance_deficiency(family)
        dual = unbalance_witness(family)
        assert (eps == 0) != (dual is not None)
        assert verify_balance_witness(family, witness)
        if dual is not None:
            assert verify_unbalance_witness(family, dual)


def test_monotone_in_eps_and_superfamily_closure():
    rng = random.Random(11)
    ground = "abcd"
    for _ in range(40):
        members = rng.sample(range(1, 16), rng.randint(1, 6))
        family = SetFamily(ground, members)
        eps, witness = balance_deficiency(family)
        # the witness at eps proves balance at every larger threshold
        for bump in (0, Q(1, 7), Q(1, 2)):
            assert verify_balance_witness(family, witness, eps + bump)
        # adding members can only help: witnesses may put weight 0 on them
        extra = rng.randint(0, 15)
        superfamily = SetFamily(ground, list(members) + [extra])
        super_eps, _ = balance_deficiency(superfamily)
        assert super_eps <= eps


def test_balance_witness_tampering_detected():
    f = fam("01", [["0"], ["1"]])
    _, w = balance_deficiency(f)
    bad = BalanceWitness(w.weights, w.vector, w.gap + 1)
    assert not verify_balance_witness(f, bad)
    bad2 = BalanceWitness((Q(2), Q(-1)), w.vector, w.gap)
    assert not verify_balance_witness(f, bad2)
    good_dual = UnbalanceWitness((Q(1), Q(-1)), Q(1))
    assert verify_unbalance_witness(fam("01", [["0"]]), good_dual)
    assert not verify_unbalance_witness(fam("01", [["0"]]), UnbalanceWitness((Q(1), Q(-1)), Q(2)))


def test_deficiency_bounds():
    rng = random.Random(12)
    for _ in range(30):
        members = rng.sample(range(8), rng.randint(1, 8))
        family = SetFamily("pqr", members)
        eps, _ = balance_deficiency(family)
        assert 0 <= eps <= 1


def test_family_json_roundtrip():
    f = fam("xy", [["x"], ["x", "y"]])
    assert SetFamily.from_json(f.to_json()) == f
