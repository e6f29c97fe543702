"""Group arithmetic over canonical element forms.

Supported groups: free groups on lettered generators (freely reduced
words), free abelian groups (integer exponent vectors), cyclic groups,
and finite groups given by a multiplication table.  Element forms are
canonical and unique, so equality is structural; everything downstream
(balls, translations, finitely supported measures and convolution) is
exact rational arithmetic with no floating point anywhere.

Conventions fixed here and relied on by the rest of the package:

* The word metric counts letters from ``S ∪ S⁻¹`` even when the
  generating set ``S`` is not closed under inversion, so `ball` always
  satisfies ``|B_n| <= (2|S|+1)**n``.  A free group's ball is listed
  by extension (each reduced word followed by the letters that do not
  cancel its last one) and comes out in canonical order with no group
  products; every other kind's ball is a breadth-first closure, sorted.
* The canonical total order is shortlex on reduced words (a generator
  precedes its own inverse, which precedes the next generator),
  lexicographic on exponent vectors, and index order on finite groups.
  A free word stores letter codes whose tuple order is this letter
  order, so every sort key is the stored value, or ``(length, word)``
  for free words.  Elements hash by value alone.
* Free-group words serialize as compact strings with uppercase meaning
  inverse ("aBa" is a·b⁻¹·a) and "e" for the identity, which is why
  free-group generator names must be single lowercase letters.
* In JSON an element is its string form, never a number or an array,
  and only the canonical spelling that `format_element` writes:
  `Group.read_element` reads one ("01", "aA" and " 1" are errors),
  `parse_elements` an array of them and `parse_weights` an
  element → "p/q" object.
"""

from __future__ import annotations

import string
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .rationals import exact, fmt_q, items, parse_q, typed


class CapExceeded(Exception):
    """A configurable resource cap (ball size, enumeration count) was hit."""


class GroupError(ValueError):
    """Invalid descriptor data or mismatched group membership."""


class Element:
    """Canonical-form group element; treat as immutable."""

    __slots__ = ("group", "value")

    def __init__(self, group: "Group", value):
        self.group = group
        self.value = value

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.group == other.group
            and self.value == other.value
        )

    def __hash__(self):
        return hash(self.value)

    def __mul__(self, other: "Element") -> "Element":
        return self.group.multiply(self, other)

    def __pow__(self, n: int) -> "Element":
        g = self.group
        if n < 0:
            return g.inverse(self) ** (-n)
        out = g.identity()
        base = self
        while n:
            if n & 1:
                out = g.multiply(out, base)
            base = g.multiply(base, base)
            n >>= 1
        return out

    def inverse(self) -> "Element":
        return self.group.inverse(self)

    def key(self):
        """Sort key realizing the group's canonical total order."""
        return self.group.sort_key(self.value)

    def __repr__(self):
        return self.group.format_element(self)


def sort_elements(elems: Iterable[Element]) -> list[Element]:
    return sorted(elems, key=lambda e: e.key())


class Group:
    """Base descriptor; concrete kinds implement the group law."""

    kind = "?"
    _desc: tuple

    def __eq__(self, other):
        return isinstance(other, Group) and self._desc == other._desc

    def __hash__(self):
        return hash(self._desc)

    def _check(self, g: Element) -> Element:
        if g.group is not self and g.group != self:
            raise GroupError("element does not belong to this group")
        return g

    def sort_key(self, value):
        return value

    def read_element(self, text: str) -> Element:
        """The element whose canonical string is text; any other spelling is a GroupError."""
        el = self.parse_element(text)
        canonical = self.format_element(el)
        if canonical != text:
            raise GroupError(f"element {text!r} is not in its canonical form {canonical!r}")
        return el

    # concrete kinds supply: identity, multiply, inverse, generators,
    # format_element, parse_element, to_json

    def __repr__(self):
        import json

        return f"{type(self).__name__}({json.dumps(self.to_json())})"


class FreeGroup(Group):
    """Free group on named generators; elements are freely reduced words.

    Words are tuples of letter codes: the i-th generator is ``2i`` and
    its inverse ``2i+1``, so ``code ^ 1`` inverts a letter and the tuple
    order of equal-length words is shortlex.  Reduction (no adjacent
    cancelling pair) is maintained by construction.
    """

    kind = "free"

    def __init__(self, generators: Iterable[str]):
        names = tuple(generators)
        if len(names) < 1:
            raise GroupError("free group needs rank >= 1")
        if len(set(names)) != len(names):
            raise GroupError("generator names must be distinct")
        for name in names:
            if len(name) != 1 or name not in string.ascii_lowercase or name == "e":
                raise GroupError(
                    f"free-group generator must be a single lowercase letter other than 'e': {name!r}"
                )
        self.gen_names = names
        self._desc = ("free", names)

    @property
    def rank(self) -> int:
        return len(self.gen_names)

    def identity(self) -> Element:
        return Element(self, ())

    def generators(self) -> tuple[Element, ...]:
        return tuple(Element(self, (2 * i,)) for i in range(self.rank))

    def multiply(self, g: Element, h: Element) -> Element:
        self._check(g)
        self._check(h)
        u, v = g.value, h.value
        # both words are reduced, so only a suffix of u can cancel a prefix of v
        n, most = 0, min(len(u), len(v))
        while n < most and u[-1 - n] == v[n] ^ 1:
            n += 1
        return Element(self, u[: len(u) - n] + v[n:])

    def inverse(self, g: Element) -> Element:
        self._check(g)
        return Element(self, tuple(code ^ 1 for code in reversed(g.value)))

    def sort_key(self, value):
        return (len(value), value)

    def letter(self, ch: str) -> int:
        """The code of a letter: a generator name, or its upper case for the inverse."""
        low = ch.lower()
        if low not in self.gen_names:
            raise GroupError(f"unknown generator letter {ch!r}")
        return 2 * self.gen_names.index(low) + (ch != low)

    def format_element(self, g: Element) -> str:
        names = self.gen_names
        word = "".join(names[c >> 1].upper() if c & 1 else names[c >> 1] for c in g.value)
        return word or "e"

    def parse_element(self, text: str) -> Element:
        s = text.strip()
        if s == "e":
            return self.identity()
        word: list[int] = []
        for ch in s:
            code = self.letter(ch)
            if word and word[-1] == code ^ 1:
                word.pop()
            else:
                word.append(code)
        return Element(self, tuple(word))

    def to_json(self) -> dict:
        return {"kind": "free", "generators": list(self.gen_names)}


class FreeAbelianGroup(Group):
    """Z^d with the standard basis as generating set; elements are vectors."""

    kind = "free_abelian"

    def __init__(self, rank: int):
        if rank < 1:
            raise GroupError("free abelian group needs rank >= 1")
        self.rank = rank
        self._desc = ("free_abelian", rank)

    def identity(self) -> Element:
        return Element(self, (0,) * self.rank)

    def generators(self) -> tuple[Element, ...]:
        gens = []
        for i in range(self.rank):
            v = [0] * self.rank
            v[i] = 1
            gens.append(Element(self, tuple(v)))
        return tuple(gens)

    def multiply(self, g: Element, h: Element) -> Element:
        self._check(g)
        self._check(h)
        return Element(self, tuple(a + b for a, b in zip(g.value, h.value)))

    def inverse(self, g: Element) -> Element:
        self._check(g)
        return Element(self, tuple(-a for a in g.value))

    def format_element(self, g: Element) -> str:
        if self.rank == 1:
            return str(g.value[0])
        return "(" + ",".join(str(a) for a in g.value) + ")"

    def parse_element(self, text: str) -> Element:
        s = text.strip().strip("()")
        vec = tuple(int(part) for part in s.split(",")) if s else ()
        if len(vec) != self.rank:
            raise GroupError(f"expected {self.rank} coordinates, got {vec!r}")
        return Element(self, vec)

    def to_json(self) -> dict:
        return {"kind": "free_abelian", "rank": self.rank}


class CyclicGroup(Group):
    """Z_n written additively, generated by 1; elements are residues."""

    kind = "cyclic"

    def __init__(self, order: int):
        if order < 1:
            raise GroupError("cyclic group needs order >= 1")
        self.order = order
        self._desc = ("cyclic", order)

    def identity(self) -> Element:
        return Element(self, 0)

    def generators(self) -> tuple[Element, ...]:
        return (Element(self, 1 % self.order),)

    def multiply(self, g: Element, h: Element) -> Element:
        self._check(g)
        self._check(h)
        return Element(self, (g.value + h.value) % self.order)

    def inverse(self, g: Element) -> Element:
        self._check(g)
        return Element(self, (-g.value) % self.order)

    def format_element(self, g: Element) -> str:
        return str(g.value)

    def parse_element(self, text) -> Element:
        v = int(text)
        if not 0 <= v < self.order:
            raise GroupError(f"residue out of range: {v}")
        return Element(self, v)

    def to_json(self) -> dict:
        return {"kind": "cyclic", "order": self.order}


# The largest multiplication table accepted: its associativity check takes
# order^3 lookups, so larger tables raise `CapExceeded`.
ASSOCIATIVITY_CHECK_LIMIT = 256


class TableGroup(Group):
    """Finite group given by an explicit multiplication table.

    ``table[i][j]`` is the index of the product of elements i and j.  The
    table must be a Latin square with a two-sided identity, and it must be
    associative, which is checked at construction.  Orders past
    `ASSOCIATIVITY_CHECK_LIMIT` raise `CapExceeded`.
    """

    kind = "finite_table"

    def __init__(self, table, generators: Iterable[int] | None = None):
        rows = tuple(tuple(int(x) for x in row) for row in table)
        n = len(rows)
        if n < 1:
            raise GroupError("empty multiplication table")
        if n > ASSOCIATIVITY_CHECK_LIMIT:
            raise CapExceeded(f"table of order {n} is past the limit {ASSOCIATIVITY_CHECK_LIMIT}")
        for row in rows:
            if len(row) != n or any(not 0 <= x < n for x in row):
                raise GroupError("multiplication table must be square with entries in range")
        full = frozenset(range(n))
        for i in range(n):
            if frozenset(rows[i]) != full:
                raise GroupError(f"row {i} is not a permutation")
            if frozenset(rows[j][i] for j in range(n)) != full:
                raise GroupError(f"column {i} is not a permutation")
        ident = None
        for ecand in range(n):
            if all(rows[ecand][x] == x and rows[x][ecand] == x for x in range(n)):
                ident = ecand
                break
        if ident is None:
            raise GroupError("table has no two-sided identity")
        self.table = rows
        self.order = n
        self._identity_index = ident
        rng = range(n)
        for a in rng:
            ra = rows[a]
            for b in rng:
                rab = rows[ra[b]]
                rb = rows[b]
                for c in rng:
                    if rab[c] != ra[rb[c]]:
                        raise GroupError("table is not associative")
        # each Latin row holds ident once; by associativity a right inverse is two-sided
        self._inverse_index = tuple(row.index(ident) for row in rows)
        if generators is None:
            gens = tuple(i for i in range(n) if i != ident) or (ident,)
        else:
            gens = tuple(int(i) for i in generators)
            if len(gens) < 1 or any(not 0 <= i < n for i in gens):
                raise GroupError("generator indices out of range")
        self._gen_indices = gens
        self._desc = ("finite_table", rows, gens)
        if len(ball(self, n)) != n:
            raise GroupError("the given generators do not generate the group")

    def identity(self) -> Element:
        return Element(self, self._identity_index)

    def generators(self) -> tuple[Element, ...]:
        return tuple(Element(self, i) for i in self._gen_indices)

    def multiply(self, g: Element, h: Element) -> Element:
        self._check(g)
        self._check(h)
        return Element(self, self.table[g.value][h.value])

    def inverse(self, g: Element) -> Element:
        self._check(g)
        return Element(self, self._inverse_index[g.value])

    def format_element(self, g: Element) -> str:
        return str(g.value)

    def parse_element(self, text) -> Element:
        v = int(text)
        if not 0 <= v < self.order:
            raise GroupError(f"table index out of range: {v}")
        return Element(self, v)

    def to_json(self) -> dict:
        out = {"kind": "finite_table", "table": [list(r) for r in self.table]}
        if self._gen_indices != tuple(
            i for i in range(self.order) if i != self._identity_index
        ):
            out["generators"] = list(self._gen_indices)
        return out


# descriptor fields per kind: (required, optional)
_DESCRIPTOR_FIELDS = {
    "free": ({"generators"}, set()),
    "free_abelian": ({"rank"}, set()),
    "cyclic": ({"order"}, set()),
    "finite_table": ({"table"}, {"generators"}),
}


def group_from_json(obj: Mapping) -> Group:
    """Build a group from its descriptor JSON; unknown or missing fields are errors."""
    if not isinstance(obj, Mapping) or "kind" not in obj:
        raise GroupError("group descriptor must be a JSON object with a 'kind'")
    kind = obj["kind"]
    if kind not in _DESCRIPTOR_FIELDS:
        raise GroupError(f"unknown group kind: {kind!r}")
    required, optional = _DESCRIPTOR_FIELDS[kind]
    fields = set(obj) - {"kind"}
    if fields - required - optional:
        raise GroupError(f"unknown group fields: {sorted(fields - required - optional)}")
    if required - fields:
        raise GroupError(f"missing group fields: {sorted(required - fields)}")
    try:
        if kind == "free":
            return FreeGroup(items(obj["generators"], str, "generators"))
        if kind == "free_abelian":
            return FreeAbelianGroup(typed(obj["rank"], int, "rank"))
        if kind == "cyclic":
            return CyclicGroup(typed(obj["order"], int, "order"))
        table = [items(row, int, "a table row") for row in items(obj["table"], list, "table")]
        gens = obj.get("generators")
        return TableGroup(table, None if gens is None else items(gens, int, "generators"))
    except ValueError as exc:  # a mistyped field is bad descriptor data
        raise GroupError(str(exc)) from None


def parse_elements(group: Group, texts) -> tuple[Element, ...]:
    """Elements from a JSON array of their canonical string forms."""
    return tuple(group.read_element(t) for t in items(texts, str, "an element list"))


def parse_weights(group: Group, obj: Mapping) -> dict[Element, Fraction]:
    """A JSON object mapping canonical element strings to "p/q" rationals, keyed
    by element; one spelling per element means no two keys name one element."""
    return {group.read_element(text): parse_q(q) for text, q in obj.items()}


def ball(group: Group, radius: int, *, cap: int | None = None) -> tuple[Element, ...]:
    """Word-metric ball B_radius, canonically ordered.

    A free group's ball is listed one sphere at a time, in shortlex order
    and with no products: the words of length k + 1 are those of length k,
    in order, each followed by every letter that does not cancel its last
    one, in code order.  Every other group's ball is the breadth-first
    closure of {e} under left multiplication by S ∪ S⁻¹, sorted at the end.
    So B_0 = {e} and |B_n| <= (2|S|+1)**n.  Raises `CapExceeded` if the
    ball grows past ``cap`` elements; a free group's spheres have known
    sizes, so it raises before building the sphere that would pass it.
    """
    if radius < 0:
        raise GroupError("ball radius must be >= 0")
    if isinstance(group, FreeGroup):
        return _free_ball(group, radius, cap)
    steps = set()
    for g in group.generators():
        steps.add(g)
        steps.add(g.inverse())
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


def _free_ball(group: FreeGroup, radius: int, cap: int | None) -> tuple[Element, ...]:
    letters = 2 * group.rank
    # the one-letter tails that may follow a word ending in each letter code
    tails = [tuple((c,) for c in range(letters) if c != last ^ 1) for last in range(letters)]
    words = [()]
    sphere = [()]
    for k in range(radius):
        # sphere k + 1 has 2r·(2r−1)^k words
        if cap is not None and len(words) + letters * (letters - 1) ** k > cap:
            raise CapExceeded(f"ball exceeded cap of {cap} elements")
        if k:
            sphere = [w + t for w in sphere for t in tails[w[-1]]]
        else:
            sphere = [(c,) for c in range(letters)]
        words += sphere
    return tuple([Element(group, w) for w in words])


def translate_set(g: Element, elems: Iterable[Element]) -> frozenset[Element]:
    """Left translate g·E = {g·x : x in E}."""
    return frozenset(g * x for x in elems)


class Measure:
    """Finitely supported probability measure with exact rational weights.

    Only nonzero weights are stored; weights must pass `exact` (else
    GroupError), be nonnegative and sum to exactly 1.
    """

    __slots__ = ("group", "weights")

    def __init__(self, group: Group, weights: Mapping[Element, Fraction]):
        clean: dict[Element, Fraction] = {}
        total = Fraction(0)
        for el, w in weights.items():
            if el.group != group:
                raise GroupError("measure support must live in the stated group")
            try:
                f = exact(w)
            except ValueError as exc:
                raise GroupError(f"measure weights: {exc}") from None
            if f < 0:
                raise GroupError("measure weights must be nonnegative")
            if f:
                clean[el] = f
                total += f
        if total != 1:
            raise GroupError(f"measure weights must sum to 1, got {total}")
        self.group = group
        self.weights = {el: clean[el] for el in sort_elements(clean)}

    @classmethod
    def point_mass(cls, g: Element) -> "Measure":
        return cls(g.group, {g: Fraction(1)})

    def support(self) -> tuple[Element, ...]:
        return tuple(self.weights)

    def __eq__(self, other):
        return (
            isinstance(other, Measure)
            and self.group == other.group
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((self.group, tuple(self.weights.items())))

    def convolve(self, other: "Measure") -> "Measure":
        """Convolution: weight at z is the sum of μ(x)·ν(y) over xy = z."""
        if other.group != self.group:
            raise GroupError("cannot convolve measures on different groups")
        out: dict[Element, Fraction] = {}
        for x, wx in self.weights.items():
            for y, wy in other.weights.items():
                z = x * y
                out[z] = out.get(z, Fraction(0)) + wx * wy
        return Measure(self.group, out)

    def average(self, f: Callable[[Element], object], g: Element | None = None) -> Fraction:
        """(gν)(f) = Σ ν(x)·f(g·x), or ν(f) when g is None; a bool value of f
        counts as 0 or 1 (ν(E) is ``average(test)``), any other passes `exact`."""
        total = Fraction(0)
        for x, w in self.weights.items():
            v = f(x if g is None else g * x)
            if v is True:
                total += w
            elif v:
                total += w * (v if type(v) is Fraction else exact(v))
        return total

    def gap(self, window: Iterable[Element], f: Callable[[Element], object]) -> Fraction:
        """max - min of (aν)(f) over a in the window."""
        values = [self.average(f, a) for a in window]
        return max(values) - min(values)

    def to_json(self) -> dict:
        return {
            self.group.format_element(el): fmt_q(w)
            for el, w in self.weights.items()
        }

    @classmethod
    def from_json(cls, group: Group, obj: Mapping) -> "Measure":
        """The measure of a `to_json` object, read by `parse_weights`."""
        return cls(group, parse_weights(group, obj))

    def __repr__(self):
        parts = ", ".join(f"{el!r}: {w}" for el, w in self.weights.items())
        return f"Measure({{{parts}}})"

