import random
from fractions import Fraction as Q

import pytest

from amenlab.balance import BalanceWitness, SetFamily, balance_deficiency, verify_balance_witness
from amenlab.groups import (
    FreeAbelianGroup,
    FreeGroup,
    GroupError,
    Measure,
    ball,
    sort_elements,
)
from amenlab.pictures import (
    SetSpec,
    candidate_pool,
    height,
    picture,
    realization_search,
    realized_family,
    verify_nonamenability_certificate,
)

Z = FreeAbelianGroup(1)
F2 = FreeGroup(["a", "b"])


def zel(k):
    return Z.parse_element(str(k))


def w(text):
    return F2.parse_element(text)


def spec(kind, **fields):
    return SetSpec.from_json({"kind": kind, **fields})


EVENS = spec("progression", axis=0, modulus=2, residues=[0])
NONE = {"kind": "progression", "axis": 0, "modulus": 2, "residues": []}
WINDOW01 = (zel(0), zel(1))  # canonical order: bit 0 <-> element 0


def test_picture_parity():
    evens = EVENS.compile(Z)
    assert picture(WINDOW01, evens, zel(0)) == 0b01
    assert picture(WINDOW01, evens, zel(4)) == 0b01
    assert picture(WINDOW01, evens, zel(3)) == 0b10


def test_picture_full_and_empty():
    full = spec("complement", of=NONE).compile(Z)
    assert picture(ball(Z, 1), full, zel(5)) == 0b111
    assert picture(ball(Z, 1), SetSpec.from_json(NONE).compile(Z), zel(5)) == 0


def test_realized_family_parity():
    fam = realized_family(WINDOW01, EVENS.compile(Z), ball(Z, 3))
    assert set(fam.members) == {0b01, 0b10}


def test_realized_family_empty_target():
    fam = realized_family(ball(Z, 1), SetSpec.from_json(NONE).compile(Z), ball(Z, 2))
    assert fam.members == (0,)


def test_realized_family_f2_first_letter_against_bruteforce():
    window = ball(F2, 1)
    first = spec("first_letter", letters=["a", "A"]).compile(F2)
    fam = realized_family(window, first, ball(F2, 2))
    # independent enumeration: first letter read from the formatted word
    expected = set()
    for g in ball(F2, 2):
        mask = 0
        for i, a in enumerate(window):
            if repr(a * g)[0] in "aA":
                mask |= 1 << i
        expected.add(mask)
    assert set(fam.members) == expected
    # frozen shape: six pictures, as pinned by the search fixture
    labels = {frozenset(repr(x) for x in member) for member in fam.member_labels()}
    assert labels == {
        frozenset({"e", "a"}),
        frozenset({"e", "A"}),
        frozenset({"a", "A"}),
        frozenset({"e", "a", "A"}),
        frozenset({"a", "A", "b"}),
        frozenset({"a", "A", "B"}),
    }


def test_picture_locality():
    rng = random.Random(3)
    window = ball(Z, 1)
    for _ in range(25):
        g = zel(rng.randint(-5, 5))
        near = [zel(g.value[0] + d) for d in (-1, 0, 1)]
        inside = [x for x in near if rng.random() < 0.5]
        far = zel(g.value[0] + 17)
        near_only = frozenset(inside).__contains__
        explicit = {"kind": "explicit", "elements": [repr(x) for x in inside + [far]]}
        with_far = SetSpec.from_json(explicit, Z).compile(Z)
        assert picture(window, near_only, g) == picture(window, with_far, g)


def _random_measure(rng, pool):
    support = rng.sample(pool, rng.randint(1, 4))
    cuts = sorted(rng.randint(0, 12) for _ in range(len(support) - 1))
    weights = []
    prev = 0
    for c in cuts + [12]:
        weights.append(Q(c - prev, 12))
        prev = c
    return Measure(pool[0].group, {s: wt for s, wt in zip(support, weights) if wt})


def _picture_distribution(window, test, nu):
    """Pushforward of a measure under the picture map: mask -> total mass."""
    out = {}
    for g, wt in nu.weights.items():
        mask = picture(window, test, g)
        out[mask] = out.get(mask, Q(0)) + wt
    return out


def _measure_from_family_weights(window, test, domain, family, weights):
    """Lift convex member weights to a measure on the probe domain, each
    member's weight on the canonically least vantage with that picture."""
    first_with = {}
    for g in sort_elements(domain):
        first_with.setdefault(picture(window, test, g), g)
    out = {}
    for mask, lam in zip(family.members, weights):
        if lam:
            g = first_with[mask]
            out[g] = out.get(g, Q(0)) + lam
    return Measure(domain[0].group, out)


def test_measure_to_balanced_consistency():
    # a measure with small translate gaps induces a balanced picture family
    rng = random.Random(4)
    window = ball(Z, 1)
    for _ in range(30):
        nu = _random_measure(rng, list(ball(Z, 2)))
        E = frozenset(rng.sample(list(ball(Z, 4)), rng.randint(0, 6)))
        gaps = []
        for a in window:
            gaps.append(nu.average(lambda x, _a=a: (_a * x) in E))
        eps = max(gaps) - min(gaps)
        dist = _picture_distribution(window, E.__contains__, nu)
        family = SetFamily(window, dist.keys())
        assert balance_deficiency(family)[0] <= eps
        # the pushforward weights themselves witness the balance
        weights = tuple(dist[m] for m in family.members)
        vector = []
        for i in range(len(window)):
            vector.append(sum((dist[m] for m in family.members if m >> i & 1), Q(0)))
        witness = BalanceWitness(weights, tuple(vector), max(vector) - min(vector))
        assert verify_balance_witness(family, witness, eps)


def test_balanced_to_measure_consistency():
    rng = random.Random(5)
    window = ball(Z, 1)
    domain = list(ball(Z, 3))
    for _ in range(30):
        E = frozenset(rng.sample(list(ball(Z, 4)), rng.randint(1, 7)))
        family = realized_family(window, E.__contains__, domain)
        eps_star, witness = balance_deficiency(family)
        nu = _measure_from_family_weights(window, E.__contains__, domain, family, witness.weights)
        gaps = [nu.average(lambda x, _a=a: (_a * x) in E) for a in window]
        assert max(gaps) - min(gaps) == eps_star


def test_measure_from_family_weights_merges_on_least():
    evens = EVENS.compile(Z)
    domain = list(ball(Z, 3))
    family = realized_family(WINDOW01, evens, domain)
    nu = _measure_from_family_weights(WINDOW01, evens, domain, family, (Q(1, 2), Q(1, 2)))
    # canonical-least vantage with each parity picture: -3 (odd), -2 (even)
    assert set(nu.support()) == {zel(-3), zel(-2)}


def test_realization_search_f2_finds_first_letter():
    window = ball(F2, 1)
    f = {x: Q(0) if repr(x) == "e" else (Q(1) if repr(x) in ("a", "A") else Q(-1)) for x in window}
    cert = realization_search(F2, window, f, 3)
    assert cert is not None
    assert cert.target.to_json() == {"kind": "first_letter", "letters": ["A", "a"]}
    assert verify_nonamenability_certificate(cert)
    assert cert.witness.margin >= 1
    # every family member has strictly positive f-sum
    for member in cert.family.member_labels():
        assert sum((f[x] for x in member), Q(0)) > 0


def test_realization_search_z_exhausts():
    window = ball(Z, 1)
    assert realization_search(Z, window, dict(zip(window, [Q(1), Q(0), Q(-1)])), 4) is None


def test_realization_search_rejects_degenerate_weights():
    window = ball(Z, 1)
    with pytest.raises(ValueError):
        realization_search(Z, window, dict.fromkeys(window, Q(0)), 3)
    with pytest.raises(ValueError):
        realization_search(Z, window, dict.fromkeys(window, Q(1)), 3)


def test_candidate_pools_are_deterministic():
    p1 = [s.to_json() for s in candidate_pool(F2)]
    p2 = [s.to_json() for s in candidate_pool(F2)]
    assert p1 == p2
    assert len(p1) == len({str(x) for x in p1})  # no duplicates
    zpool = candidate_pool(Z)
    assert all(s.to_json()["kind"] == "progression" for s in zpool)


def test_height():
    assert height(F2.identity()) == 0
    assert height(w("aB")) == 2
    assert height(w("ba")) == 0
    rng = random.Random(6)
    pool = list(ball(F2, 4))
    for _ in range(100):
        u, v = rng.choice(pool), rng.choice(pool)
        assert height(u * v) == height(u) + height(v)
    with pytest.raises(GroupError):
        height(zel(1))


def test_height_is_the_letter_weight_sum():
    weight = {"a": 1, "A": -1, "b": -1, "B": 1}
    for k in (-2, 0, 3):
        h_above = SetSpec.from_json({"kind": "h_above", "k": k}, F2).compile(F2)
        for x in ball(F2, 6):
            h = sum(weight[ch] for ch in repr(x).strip("e"))
            assert height(x) == h
            assert h_above(x) == (h > k)


def test_setspec_json_roundtrip():
    h0 = {"kind": "h_above", "k": 0}
    specs = [
        spec("first_letter", letters=["a", "B"]),
        spec("h_above", k=-1),
        spec("progression", axis=0, modulus=3, residues=[0, 2]),
        spec("complement", of=h0),
        spec("union", of=[{"kind": "first_letter", "letters": ["a"]}, {"kind": "h_above", "k": 1}]),
        spec("intersection", of=[{"kind": "first_letter", "letters": ["b"]}, h0]),
    ]
    for s in specs:
        assert SetSpec.from_json(s.to_json()).to_json() == s.to_json()
    expl = SetSpec.from_json({"kind": "explicit", "elements": ["ab", "e", "ab"]}, F2)
    assert expl.to_json() == {"kind": "explicit", "elements": ["e", "ab"]}
    assert SetSpec.from_json(expl.to_json(), F2).to_json() == expl.to_json()
    # letters, residues and elements are sorted and deduplicated
    assert spec("first_letter", letters=["a", "A", "a"]).to_json()["letters"] == ["A", "a"]
    residues = spec("progression", axis=0, modulus=3, residues=[5, -1, 0]).to_json()["residues"]
    assert residues == [0, 2]


@pytest.mark.parametrize("obj", [
    {"kind": "h_above"},
    {"kind": "h_above", "k": 0, "junk": 1},
    {"kind": "first_letter", "letters": "aA"},
    {"kind": "progression", "axis": 0, "modulus": 2, "residues": 0},
    {"kind": "union", "of": {"kind": "h_above", "k": 0}},
    {"kind": "h_above", "k": "0"},
    ["h_above", 0],
    {"kind": "explicit", "elements": [1]},
])
def test_setspec_rejects_malformed_json(obj):
    with pytest.raises(ValueError):
        SetSpec.from_json(obj, F2)


def test_setspec_group_mismatch():
    with pytest.raises(GroupError):
        spec("h_above", k=0).compile(Z)
    with pytest.raises(GroupError):
        EVENS.compile(F2)
    with pytest.raises(GroupError):
        spec("first_letter", letters=["z"]).compile(F2)


def test_setspec_compile_respects_group():
    # one spec compiled for two groups: each closure answers for its own group
    x_first = spec("first_letter", letters=["x"])
    xy, ax = FreeGroup(["x", "y"]), FreeGroup(["a", "x"])
    assert x_first.compile(xy)(xy.parse_element("x"))
    test = x_first.compile(ax)
    assert test(ax.parse_element("x")) and not test(ax.parse_element("a"))
    evens = spec("progression", axis=1, modulus=2, residues=[0])
    assert evens.compile(FreeAbelianGroup(2))(FreeAbelianGroup(2).parse_element("(1,2)"))
    with pytest.raises(GroupError):
        evens.compile(Z)
    assert not hasattr(evens, "_test")


def test_window_nonempty():
    with pytest.raises(ValueError):
        realized_family((), EVENS.compile(Z), ball(Z, 1))
