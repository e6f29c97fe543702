"""Pictures of a subset through a finite window, and realization search.

Fix a finite ordered window ``A`` inside a group and a target set ``E``,
given by a membership predicate: a compiled `SetSpec`, or
``frozenset(E).__contains__`` for a finite E.  The picture of ``E`` at vantage
``g`` is the bitmask ``{a in A : a*g in E}``; collecting pictures over a
finite probe domain yields a `SetFamily` over the window.  A probe-domain
family is always a subfamily of the full picture family, so it can
certify unbalancedness but never balancedness; reports therefore carry
the domain used and make no completeness claim.

`realization_search` looks for a target whose pictures over a ball all
have strictly positive sum under a supplied zero-sum window weighting.
The candidate pool is finite and documented:

* free groups: first-letter sets (per letter and per generator pair) and
  height-level sets, closed under complement and then under pairwise
  union/intersection (Boolean depth two);
* free abelian and cyclic groups: coordinate arithmetic progressions,
  i.e. residue-set constraints on one axis for moduli 2..4 (these are
  already closed under Boolean combinations with a fixed axis and
  modulus, so no extra combination layer is added).

The height function sends the first generator of a rank-2 free group to
+1 and the second to -1, extended multiplicatively.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .balance import SetFamily, UnbalanceWitness, member_sums, verify_unbalance_witness
from .groups import (
    CyclicGroup,
    Element,
    FreeAbelianGroup,
    FreeGroup,
    Group,
    GroupError,
    ball,
    group_from_json,
    parse_elements,
    sort_elements,
)
from .rationals import exact, fmt_q, items, parse_q, typed

_F0 = Fraction(0)

PROBE_BALL_CAP = 100_000  # largest probe ball a picture family is taken over


def _height(word: tuple) -> int:
    # letter codes 0, 1, 2, 3 (a, A, b, B) weigh 1, -1, -1, 1
    return word.count(0) - word.count(1) - word.count(2) + word.count(3)


def height(el: Element) -> int:
    """Signed letter count: first generator weighs +1, second -1."""
    if not isinstance(el.group, FreeGroup) or el.group.rank != 2:
        raise GroupError("height is defined on rank-2 free groups")
    return _height(el.value)


def _explicit(obj: Mapping, group: Group | None) -> dict:
    if group is None:
        raise ValueError("explicit sets need a group for parsing")
    elements = set(parse_elements(group, obj["elements"]))
    return {"elements": [repr(e) for e in sort_elements(elements)]}


def _progression(obj: Mapping, group: Group | None) -> dict:
    modulus = typed(obj["modulus"], int, "modulus")
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    residues = sorted({r % modulus for r in items(obj["residues"], int, "residues")})
    return {"axis": typed(obj["axis"], int, "axis"), "modulus": modulus, "residues": residues}


def _parts(obj: Mapping, group: Group | None) -> dict:
    return {"of": [_canonical(part, group) for part in typed(obj["of"], list, "of")]}


# kind -> (its fields, their canonical values from a JSON object that has exactly them)
_KINDS = {
    "explicit": (("elements",), _explicit),
    "first_letter": (
        ("letters",),
        lambda obj, group: {"letters": sorted(set(items(obj["letters"], str, "letters")))},
    ),
    "h_above": (("k",), lambda obj, group: {"k": typed(obj["k"], int, "k")}),
    "progression": (("axis", "modulus", "residues"), _progression),
    "complement": (("of",), lambda obj, group: {"of": _canonical(obj["of"], group)}),
    "union": (("of",), _parts),
    "intersection": (("of",), _parts),
}


def _canonical(obj, group: Group | None) -> dict:
    """The canonical JSON of a set construction; ValueError when it is malformed."""
    kind = obj.get("kind") if isinstance(obj, Mapping) else None
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"unknown set kind {kind!r}")
    fields, normalize = _KINDS[kind]
    if set(obj) != {"kind", *fields}:
        raise ValueError(f"a {kind} set has exactly the fields kind, {', '.join(fields)}")
    return {"kind": kind, **normalize(obj, group)}


def _compile(spec: Mapping, group: Group) -> Callable[[Element], bool]:
    """The membership closure of a canonical construction, bound to one group."""
    kind = spec["kind"]
    if kind == "explicit":
        test = frozenset(parse_elements(group, spec["elements"])).__contains__
    elif kind == "first_letter":
        if not isinstance(group, FreeGroup):
            raise GroupError("first_letter sets live in free groups")
        lset = frozenset(group.letter(ch) for ch in spec["letters"])

        def test(el, _l=lset):
            return bool(el.value) and el.value[0] in _l

    elif kind == "h_above":
        if not isinstance(group, FreeGroup) or group.rank != 2:
            raise GroupError("h_above sets live in rank-2 free groups")
        k = spec["k"]

        def test(el, _k=k):
            return _height(el.value) > _k

    elif kind == "progression":
        axis = spec["axis"]
        modulus = spec["modulus"]
        residues = frozenset(spec["residues"])
        if isinstance(group, FreeAbelianGroup):
            if not 0 <= axis < group.rank:
                raise GroupError("progression axis out of range")

            def test(el, _a=axis, _m=modulus, _r=residues):
                return el.value[_a] % _m in _r

        elif isinstance(group, CyclicGroup):

            def test(el, _m=modulus, _r=residues):
                return el.value % _m in _r

        else:
            raise GroupError("progression sets live in abelian groups")
    elif kind == "complement":
        inner = _compile(spec["of"], group)

        def test(el, _inner=inner):
            return not _inner(el)

    else:  # union or intersection
        parts = [_compile(p, group) for p in spec["of"]]
        agg = any if kind == "union" else all

        def test(el, _parts=tuple(parts), _agg=agg):
            return _agg(p(el) for p in _parts)

    return test


class SetSpec:
    """A set construction, held as its canonical JSON.

    `from_json` is the one way to build one: it validates the JSON and
    normalizes it (sorted letters, residues and explicit elements).
    `compile` turns it into a membership predicate for one group.
    """

    def __init__(self, canonical: dict):
        self._json = canonical

    @classmethod
    def from_json(cls, obj: Mapping, group: Group | None = None) -> "SetSpec":
        """Explicit element lists need the group to parse them."""
        return cls(_canonical(obj, group))

    def to_json(self) -> dict:
        return self._json

    def compile(self, group: Group) -> Callable[[Element], bool]:
        """A fast membership closure bound to one group."""
        return _compile(self._json, group)


def picture(window: Sequence[Element], test: Callable[[Element], bool], g: Element) -> int:
    """Bitmask over the canonically ordered window: bit i set when test(window[i] * g)."""
    mask = 0
    for i, a in enumerate(window):
        if test(a * g):
            mask |= 1 << i
    return mask


def realized_family(
    window: Sequence[Element], test: Callable[[Element], bool], domain: Iterable[Element]
) -> SetFamily:
    """Deduplicated pictures over a finite probe domain.

    This is a subfamily of the full picture family; sound for exhibiting
    unbalanced members, silent about members outside the probe.
    """
    masks = {picture(window, test, g) for g in domain}
    if not masks:
        raise ValueError("probe domain must be nonempty")
    return SetFamily(window, masks)


class NonAmenabilityCertificate(NamedTuple):
    """A probe-domain picture family sitting inside a positive-sum cone.

    Every picture of the target over the probe ball has strictly positive
    sum under the stored zero-sum window weighting; the unbalance witness
    is that weighting rescaled to margin >= 1.
    """

    group: Group
    window: tuple[Element, ...]
    f_values: tuple[Fraction, ...]  # aligned with window
    radius: int
    target: SetSpec
    family: SetFamily
    witness: UnbalanceWitness

    def to_json(self) -> dict:
        return {
            "group": self.group.to_json(),
            "window": [repr(a) for a in self.window],
            "f": [fmt_q(x) for x in self.f_values],
            "radius": self.radius,
            "target": self.target.to_json(),
            "family": self.family.to_json(),
            "witness": self.witness.to_json(),
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "NonAmenabilityCertificate":
        group = group_from_json(obj["group"])
        return cls(
            group,
            parse_elements(group, obj["window"]),
            tuple(parse_q(x) for x in obj["f"]),
            typed(obj["radius"], int, "radius"),
            SetSpec.from_json(obj["target"], group),
            SetFamily.from_json(obj["family"], parse=group.read_element),
            UnbalanceWitness.from_json(obj["witness"]),
        )


def verify_nonamenability_certificate(cert: NonAmenabilityCertificate) -> bool:
    """Recompute the family from scratch and recheck both positivity claims."""
    domain = ball(cert.group, cert.radius, cap=PROBE_BALL_CAP)
    family = realized_family(cert.window, cert.target.compile(cert.group), domain)
    if family != cert.family:
        return False
    if sum(cert.f_values, _F0) != 0 or min(member_sums(family, cert.f_values)) <= 0:
        return False
    return verify_unbalance_witness(family, cert.witness)


def candidate_pool(group: Group) -> list[SetSpec]:
    """The finite, deterministically ordered target pool for searches."""
    if isinstance(group, FreeGroup):
        letters = [[ch] for name in group.gen_names for ch in (name, name.upper())]
        letters += [[name, name.upper()] for name in group.gen_names]
        base = [{"kind": "first_letter", "letters": ls} for ls in letters]
        if group.rank == 2:
            base += [{"kind": "h_above", "k": k} for k in range(-2, 3)]
        depth1 = base + [{"kind": "complement", "of": s} for s in base]
        pool = list(depth1)
        for i, s in enumerate(depth1):
            for t in depth1[i + 1 :]:
                pool += [{"kind": kind, "of": [s, t]} for kind in ("union", "intersection")]
        return [SetSpec.from_json(obj) for obj in pool]
    if isinstance(group, (FreeAbelianGroup, CyclicGroup)):
        rank = group.rank if isinstance(group, FreeAbelianGroup) else 1
        pool = []
        for axis in range(rank):
            for modulus in (2, 3, 4):
                for rmask in range(1, (1 << modulus) - 1):
                    residues = [r for r in range(modulus) if rmask >> r & 1]
                    pool.append({"kind": "progression", "axis": axis, "modulus": modulus,
                                 "residues": residues})
        return [SetSpec.from_json(obj) for obj in pool]
    raise GroupError(f"no documented candidate pool for group kind {group.kind!r}")


def realization_search(
    group: Group,
    window: Iterable[Element],
    f: Mapping[Element, Fraction],
    radius: int,
) -> NonAmenabilityCertificate | None:
    """Search the candidate pool for a target realizing only positive pictures.

    ``f`` maps each window element to a rational; the values sum to zero
    and are not all zero.  Returns the first certificate in pool order, or
    None when the pool is exhausted; None is not evidence that no
    certificate exists elsewhere.
    """
    window = tuple(sort_elements(window))
    values = tuple(exact(f[a]) for a in window)
    if sum(values, _F0) != 0:
        raise ValueError("window weighting must sum to zero")
    if not any(values):
        raise ValueError("zero weighting is vacuous: no subset has positive sum")
    domain = ball(group, radius, cap=PROBE_BALL_CAP)
    for spec in candidate_pool(group):
        family = realized_family(window, spec.compile(group), domain)
        margin = min(member_sums(family, values))
        if margin <= 0:
            continue
        witness = UnbalanceWitness(tuple(v / margin for v in values), Fraction(1))
        return NonAmenabilityCertificate(group, window, values, radius, spec, family, witness)
    return None
