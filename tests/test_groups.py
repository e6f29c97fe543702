import random
import time
from fractions import Fraction as Q

import pytest

from amenlab.groups import (
    ASSOCIATIVITY_CHECK_LIMIT,
    CapExceeded,
    CyclicGroup,
    FreeAbelianGroup,
    FreeGroup,
    GroupError,
    Measure,
    TableGroup,
    ball,
    group_from_json,
    sort_elements,
    translate_set,
)

F2 = FreeGroup(["a", "b"])
Z = FreeAbelianGroup(1)
Z5 = CyclicGroup(5)


def w(text):
    return F2.parse_element(text)


def zel(k):
    return Z.parse_element(str(k))


# S3 as a multiplication table (permutations of 3 points, index order:
# id, (01), (02), (12), (012), (021))
_S3_PERMS = [
    (0, 1, 2),
    (1, 0, 2),
    (2, 1, 0),
    (0, 2, 1),
    (1, 2, 0),
    (2, 0, 1),
]


def s3_table():
    def compose(p, q):  # apply q first, then p
        return tuple(p[q[i]] for i in range(3))

    idx = {p: i for i, p in enumerate(_S3_PERMS)}
    return [[idx[compose(p, q)] for q in _S3_PERMS] for p in _S3_PERMS]


def test_free_reduction_examples():
    a, b = F2.generators()
    assert a * a.inverse() == F2.identity()
    assert (a * b) * (b.inverse() * a) == w("aa")
    assert w("aB") * w("ba") == w("aa")


def test_abelian_addition():
    assert zel(3) * zel(4) == zel(7)
    assert zel(3).inverse() == zel(-3)


def test_inverse_examples():
    assert F2.identity().inverse() == F2.identity()
    assert w("aB").inverse() == w("bA")
    assert Z5.parse_element(2).inverse() == Z5.parse_element(3)


def test_word_parse_format_roundtrip():
    rng = random.Random(0)
    letters = "aAbB"
    for _ in range(200):
        raw = "".join(rng.choice(letters) for _ in range(rng.randint(0, 10)))
        el = F2.parse_element(raw or "e")
        assert F2.parse_element(repr(el)) == el  # canonical form is stable


def test_parse_rejects_unknown_letters():
    with pytest.raises(GroupError):
        F2.parse_element("axb")


def test_ball_interval():
    b3 = ball(Z, 3)
    assert [e.value[0] for e in b3] == [-3, -2, -1, 0, 1, 2, 3]


def test_ball_f2_sizes():
    assert len(ball(F2, 0)) == 1
    assert len(ball(F2, 1)) == 5
    assert [repr(e) for e in ball(F2, 1)] == ["e", "a", "A", "b", "B"]
    for n in range(6):
        assert len(ball(F2, n)) == 2 * 3**n - 1
    # a word hashes by its letter codes alone, and no two words of ball(8) share a hash
    words = ball(F2, 8)
    assert len({hash(x) for x in words}) == len(words) == 13121


def test_ball_growth_bound_all_kinds():
    groups = [F2, Z, FreeAbelianGroup(2), Z5, TableGroup(s3_table())]
    for g in groups:
        s = len(g.generators())
        prev = set()
        for n in range(6):
            bn = ball(g, n)
            assert len(bn) <= (2 * s + 1) ** n or n == 0
            assert prev <= set(bn)  # monotone
            assert all(x.inverse() in set(bn) for x in bn)  # symmetric metric
            prev = set(bn)


def test_ball_cap():
    with pytest.raises(CapExceeded):
        ball(F2, 5, cap=100)


def test_translate_examples():
    E = {zel(0), zel(1)}
    assert translate_set(Z.identity(), E) == frozenset(E)
    assert translate_set(zel(2), E) == {zel(2), zel(3)}
    a = w("a")
    assert translate_set(a, {F2.identity(), w("A")}) == {a, F2.identity()}
    assert len(translate_set(a, ball(F2, 2))) == 17


def test_convolve_point_masses():
    rng = random.Random(1)
    b2 = ball(F2, 2)
    for _ in range(30):
        g, h = rng.choice(b2), rng.choice(b2)
        assert Measure.point_mass(g).convolve(Measure.point_mass(h)) == Measure.point_mass(g * h)


def test_convolve_uniform_no_collision():
    mu = Measure(F2, {F2.identity(): Q(1, 2), w("a"): Q(1, 2)})
    nu = Measure(F2, {F2.identity(): Q(1, 2), w("b"): Q(1, 2)})
    out = mu.convolve(nu)
    assert out.weights == {
        F2.identity(): Q(1, 4),
        w("a"): Q(1, 4),
        w("b"): Q(1, 4),
        w("ab"): Q(1, 4),
    }


def test_convolve_with_collisions_matches_bruteforce():
    z2 = CyclicGroup(2)
    u = Measure(z2, {z2.parse_element(0): Q(1, 2), z2.parse_element(1): Q(1, 2)})
    out = u.convolve(u)
    # brute force over the four product terms
    expect = {}
    for x, wx in u.weights.items():
        for y, wy in u.weights.items():
            z = x * y
            expect[z] = expect.get(z, Q(0)) + wx * wy
    assert out.weights == expect
    assert out == u  # uniform is idempotent under convolution on Z_2


def _random_measure(rng, pool):
    support = rng.sample(pool, rng.randint(1, min(4, len(pool))))
    cuts = sorted(rng.randint(0, 12) for _ in range(len(support) - 1))
    weights = []
    prev = 0
    for c in cuts + [12]:
        weights.append(Q(c - prev, 12))
        prev = c
    return Measure(
        pool[0].group,
        {s: wt for s, wt in zip(support, weights) if wt},
    )


def _mix(m1, alpha, m2):
    """The convex combination alpha*m1 + (1-alpha)*m2."""
    out = {el: alpha * wt for el, wt in m1.weights.items()}
    for el, wt in m2.weights.items():
        out[el] = out.get(el, Q(0)) + (1 - alpha) * wt
    return Measure(m1.group, out)


def test_convolution_bilinearity():
    rng = random.Random(2)
    pool = list(ball(Z, 3))
    for _ in range(25):
        m1, m2, nu = (_random_measure(rng, pool) for _ in range(3))
        alpha = Q(rng.randint(0, 6), 6)
        left = _mix(m1, alpha, m2).convolve(nu)
        right = _mix(m1.convolve(nu), alpha, m2.convolve(nu))
        assert left == right


def test_convolution_associative_and_identity():
    rng = random.Random(3)
    pool = list(ball(F2, 2))
    delta_e = Measure.point_mass(F2.identity())
    for _ in range(10):
        m1, m2, m3 = (_random_measure(rng, pool) for _ in range(3))
        assert m1.convolve(m2).convolve(m3) == m1.convolve(m2.convolve(m3))
        assert delta_e.convolve(m1) == m1
        assert m1.convolve(delta_e) == m1


@pytest.mark.parametrize("group", [Z, F2])
def test_translation_identity(group):
    rng = random.Random(4)
    pool = list(ball(group, 3))
    for _ in range(40):
        g = rng.choice(pool)
        nu = _random_measure(rng, pool)
        E = frozenset(rng.sample(pool, rng.randint(0, 5)))
        lhs = Measure.point_mass(g).convolve(nu).average(E.__contains__)
        rhs = nu.average(translate_set(g.inverse(), E).__contains__)
        assert lhs == rhs


def test_measure_average_examples():
    nu = Measure(Z, {zel(-1): Q(1, 3), zel(0): Q(1, 3), zel(1): Q(1, 3)})
    assert nu.average(lambda e: False) == 0
    assert nu.average(lambda e: True) == 1
    assert nu.average(lambda e: e.value[0] % 2 == 0) == Q(1, 3)
    # a translate: (g nu)(f) = sum of nu(x) f(g x), here the mean of x + 1
    g = zel(1)
    assert nu.average(lambda e: e.value[0], g) == 1
    f = lambda e: Q(e.value[0] ** 2, 4)
    assert nu.average(f, g) == Measure.point_mass(g).convolve(nu).average(f) == Q(5, 12)
    # (a nu)(x >= 1) over a in ball(1) is 0, 1/3, 2/3
    assert nu.gap(ball(Z, 1), lambda e: e.value[0] >= 1) == Q(2, 3)
    with pytest.raises(ValueError):
        nu.average(lambda e: 0.5)


def test_measure_validation():
    with pytest.raises(GroupError):
        Measure(Z, {zel(0): Q(1, 2)})  # does not sum to 1
    with pytest.raises(GroupError):
        Measure(Z, {zel(0): Q(3, 2), zel(1): Q(-1, 2)})  # negative weight
    with pytest.raises(GroupError):
        Measure(Z, {zel(0): 0.5, zel(1): 0.5})  # floats rejected


def test_measure_json_roundtrip():
    nu = Measure(F2, {w("aB"): Q(1, 3), F2.identity(): Q(2, 3)})
    assert Measure.from_json(F2, nu.to_json()) == nu


def _reduce_letter_by_letter(u, v):
    # on formatted words: "e" is the empty word and swapcase inverts a letter
    word = list(u.strip("e"))
    for letter in v.strip("e"):
        if word and word[-1] == letter.swapcase():
            word.pop()
        else:
            word.append(letter)
    return "".join(word) or "e"


def test_free_multiply_matches_letter_by_letter_reduction():
    pool = ball(F2, 3)
    for u in pool:
        for v in pool:
            assert repr(u * v) == _reduce_letter_by_letter(repr(u), repr(v))


def test_free_multiply_across_equal_group_objects():
    other = FreeGroup(["a", "b"])
    assert other is not F2 and other == F2
    x = other.parse_element("bA")
    assert F2.multiply(w("aB"), x) == F2.identity()
    assert other.multiply(w("ab"), other.parse_element("Ba")) == w("aa")
    assert hash(other) == hash(F2)
    for pair in ((w("a"), zel(1)), (zel(1), w("a"))):
        with pytest.raises(GroupError):
            other.multiply(*pair)


def test_cross_group_operations_rejected():
    with pytest.raises(GroupError):
        F2.multiply(w("a"), zel(1))
    with pytest.raises(GroupError):
        Measure(Z, {w("a"): Q(1)})


def test_table_group_s3():
    table = s3_table()
    # the same group relabelled by i -> 5 - i, so its identity is index 5
    relabelled = [[5 - table[5 - i][5 - j] for j in range(6)] for i in range(6)]
    for g in (TableGroup(table), TableGroup(relabelled)):
        assert g.order == 6
        e = g.identity()
        for x in ball(g, 3):
            assert x * x.inverse() == e and x.inverse() * x == e
    assert TableGroup(relabelled).identity().value == 5
    # transposition generators reach everything in <= 3 steps
    gsub = TableGroup(s3_table(), generators=[1, 2])
    assert len(ball(gsub, 3)) == 6


def test_table_group_rejections():
    with pytest.raises(GroupError):
        TableGroup([[0, 1], [0, 1]])  # rows not permutations
    with pytest.raises(GroupError):
        # Latin square with a left identity but no two-sided identity
        TableGroup([[0, 1, 2], [2, 0, 1], [1, 2, 0]])
    nonassoc = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(GroupError):
        TableGroup(nonassoc)
    with pytest.raises(GroupError):
        TableGroup(s3_table(), generators=[4])  # 3-cycle alone is not generating


def test_large_table_exceeds_cap():
    n = ASSOCIATIVITY_CHECK_LIMIT + 1  # too large to check associativity
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    with pytest.raises(CapExceeded):
        TableGroup(table, generators=[1])


def test_group_json_roundtrip():
    for g in [F2, FreeAbelianGroup(2), Z5, TableGroup(s3_table())]:
        assert group_from_json(g.to_json()) == g
    # the descriptor format is strict: unknown kinds or fields and missing fields are errors
    for bad in ({"kind": "free_abelian", "rank": 1, "x": 2}, {"kind": "free"}, {"kind": "torus"},
                ["free"],
                # each field has one JSON type: no traceback and no silent coercion
                {"kind": "free", "generators": [1]}, {"kind": "cyclic", "order": [5]},
                {"kind": "finite_table", "table": 5},
                {"kind": "finite_table", "table": [[0]], "generators": 5},
                {"kind": "free", "generators": "ab"}, {"kind": "free_abelian", "rank": 2.5},
                {"kind": "free_abelian", "rank": True}):
        with pytest.raises(GroupError):
            group_from_json(bad)


def test_sort_elements_shortlex():
    elems = sort_elements(ball(F2, 2))
    names = [repr(e) for e in elems[:9]]
    assert names == ["e", "a", "A", "b", "B", "aa", "ab", "aB", "AA"]
    # length is the primary key
    assert all(len(e.value) <= len(f.value) for e, f in zip(elems, elems[1:]))
    # all of ball(3) is shortlex on the formatted words, with a < A < b < B
    words = [repr(e) for e in ball(F2, 3)]
    rank = {ch: i for i, ch in enumerate("aAbB")}
    expected = sorted(words, key=lambda s: (len(s.strip("e")), [rank[ch] for ch in s.strip("e")]))
    assert [repr(e) for e in sort_elements(ball(F2, 3)[::-1])] == words == expected


def bfs_ball(group, radius, cap=None):
    """The closure of {e} under left multiplication by S ∪ S⁻¹, then sorted:
    the construction `ball` used for every group before free groups were
    listed by extension."""
    steps = {s for g in group.generators() for s in (g, g.inverse())}
    seen = {group.identity()}
    frontier = list(seen)
    for _ in range(radius):
        nxt = []
        for x in frontier:
            for s in steps:
                y = s * x
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        if cap is not None and len(seen) > cap:
            raise CapExceeded(f"ball exceeded cap of {cap} elements")
        if not nxt:
            break
        frontier = nxt
    return tuple(sort_elements(seen))


FREE_GROUPS = [FreeGroup(["a"]), F2, FreeGroup(["a", "b", "c"])]


@pytest.mark.parametrize("group", FREE_GROUPS, ids=lambda g: f"rank{g.rank}")
def test_free_ball_lists_the_bfs_ball_in_order(group):
    for radius in range(7):
        listed = ball(group, radius)
        assert [x.value for x in listed] == [x.value for x in bfs_ball(group, radius)]
        assert all(x.group is group for x in listed)


def _outcome(build, group, radius, cap):
    try:
        return [x.value for x in build(group, radius, cap=cap)]
    except CapExceeded as exc:
        return str(exc)


@pytest.mark.parametrize("group", FREE_GROUPS, ids=lambda g: f"rank{g.rank}")
def test_free_ball_cap_raises_or_returns_as_the_bfs(group):
    outcomes = set()
    for radius in range(6):
        size = len(bfs_ball(group, radius))
        for cap in (size - 1, size):
            expected = _outcome(bfs_ball, group, radius, cap)
            assert _outcome(ball, group, radius, cap) == expected
            outcomes.add(isinstance(expected, str))
    assert outcomes == {True, False}


def test_free_balls_are_prefixes_of_larger_ones():
    words = ball(F2, 7)
    for radius in range(7):
        assert words[: len(ball(F2, radius))] == ball(F2, radius)


def test_free_ball_cap_raises_before_building_the_ball():
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="ball exceeded cap of 1000 elements"):
        ball(F2, 10**6, cap=1000)
    assert time.perf_counter() - start < 1
