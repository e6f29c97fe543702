"""Pictures of a subset through a finite window, and realization search.

Fix a finite ordered window ``A`` inside a group and a target set ``E``
(given by a membership predicate).  The picture of ``E`` at vantage
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

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

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
    sort_elements,
)
from .rationals import fmt_q, parse_q

_F0 = Fraction(0)

REALIZATION_BALL_CAP = 100_000  # largest probe domain realization_search takes

_HEIGHT_WEIGHTS = {1: 1, -1: -1, 2: -1, -2: 1}


def height(el: Element) -> int:
    """Signed letter count: first generator weighs +1, second -1."""
    if not isinstance(el.group, FreeGroup) or el.group.rank != 2:
        raise GroupError("height is defined on rank-2 free groups")
    return sum(_HEIGHT_WEIGHTS[l] for l in el.value)


class SetSpec:
    """A named, JSON-serializable membership predicate for group subsets."""

    def __init__(self, kind: str, **params):
        self.kind = kind
        self.params = params

    # constructors

    @classmethod
    def explicit(cls, elements: Iterable[Element]) -> "SetSpec":
        return cls("explicit", elements=frozenset(elements))

    @classmethod
    def first_letter(cls, letters: Iterable[str]) -> "SetSpec":
        return cls("first_letter", letters=tuple(sorted(set(letters))))

    @classmethod
    def h_above(cls, k: int) -> "SetSpec":
        return cls("h_above", k=int(k))

    @classmethod
    def progression(cls, axis: int, modulus: int, residues: Iterable[int]) -> "SetSpec":
        modulus = int(modulus)
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        residues = tuple(sorted({int(r) % modulus for r in residues}))
        return cls("progression", axis=int(axis), modulus=modulus, residues=residues)

    @classmethod
    def complement(cls, inner: "SetSpec") -> "SetSpec":
        return cls("complement", of=inner)

    @classmethod
    def union(cls, parts: Iterable["SetSpec"]) -> "SetSpec":
        return cls("union", of=tuple(parts))

    @classmethod
    def intersection(cls, parts: Iterable["SetSpec"]) -> "SetSpec":
        return cls("intersection", of=tuple(parts))

    def compile(self, group: Group) -> Callable[[Element], bool]:
        """A fast membership closure bound to one group."""
        kind = self.kind
        if kind == "explicit":
            pool = self.params["elements"]
            test = pool.__contains__
        elif kind == "first_letter":
            if not isinstance(group, FreeGroup):
                raise GroupError("first_letter sets live in free groups")
            letters = set()
            for ch in self.params["letters"]:
                low = ch.lower()
                if low not in group.gen_names:
                    raise GroupError(f"unknown generator letter {ch!r}")
                idx = group.gen_names.index(low) + 1
                letters.add(idx if ch.islower() else -idx)
            lset = frozenset(letters)

            def test(el, _l=lset):
                return bool(el.value) and el.value[0] in _l

        elif kind == "h_above":
            if not isinstance(group, FreeGroup) or group.rank != 2:
                raise GroupError("h_above sets live in rank-2 free groups")
            k = self.params["k"]

            def test(el, _k=k, _w=_HEIGHT_WEIGHTS):
                return sum(_w[l] for l in el.value) > _k

        elif kind == "progression":
            axis = self.params["axis"]
            modulus = self.params["modulus"]
            residues = frozenset(self.params["residues"])
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
            inner = self.params["of"].compile(group)

            def test(el, _inner=inner):
                return not _inner(el)

        elif kind in ("union", "intersection"):
            parts = [p.compile(group) for p in self.params["of"]]
            agg = any if kind == "union" else all

            def test(el, _parts=tuple(parts), _agg=agg):
                return _agg(p(el) for p in _parts)

        else:
            raise ValueError(f"unknown set kind {kind!r}")
        return test

    def to_json(self) -> dict:
        kind = self.kind
        if kind == "explicit":
            elems = sort_elements(self.params["elements"])
            return {"kind": kind, "elements": [repr(e) for e in elems]}
        if kind == "first_letter":
            return {"kind": kind, "letters": list(self.params["letters"])}
        if kind == "h_above":
            return {"kind": kind, "k": self.params["k"]}
        if kind == "progression":
            return {
                "kind": kind,
                "axis": self.params["axis"],
                "modulus": self.params["modulus"],
                "residues": list(self.params["residues"]),
            }
        if kind == "complement":
            return {"kind": kind, "of": self.params["of"].to_json()}
        return {"kind": kind, "of": [p.to_json() for p in self.params["of"]]}

    @classmethod
    def from_json(cls, obj: Mapping, group: Group | None = None) -> "SetSpec":
        kind = obj["kind"]
        if kind == "explicit":
            if group is None:
                raise ValueError("explicit sets need a group for parsing")
            return cls.explicit(group.parse_element(t) for t in obj["elements"])
        if kind == "first_letter":
            return cls.first_letter(obj["letters"])
        if kind == "h_above":
            return cls.h_above(obj["k"])
        if kind == "progression":
            return cls.progression(obj["axis"], obj["modulus"], obj["residues"])
        if kind == "complement":
            return cls.complement(cls.from_json(obj["of"], group))
        if kind in ("union", "intersection"):
            parts = [cls.from_json(p, group) for p in obj["of"]]
            return cls.union(parts) if kind == "union" else cls.intersection(parts)
        raise ValueError(f"unknown set kind {kind!r}")

    def __repr__(self):
        import json

        return f"SetSpec({json.dumps(self.to_json(), sort_keys=True)})"


class PictureContext:
    """A window (canonically ordered) plus a target compiled for the group.

    ``target`` is a `SetSpec` or a collection of elements.
    """

    def __init__(self, group: Group, window: Iterable[Element], target):
        self.group = group
        self.window = tuple(sort_elements(window))
        if not self.window:
            raise ValueError("window must be nonempty")
        self.target = target if isinstance(target, SetSpec) else SetSpec.explicit(target)
        self.test = self.target.compile(group)


def picture(ctx: PictureContext, g: Element) -> int:
    """Bitmask over the window: bit i set when window[i] * g is in the target."""
    test = ctx.test
    mask = 0
    for i, a in enumerate(ctx.window):
        if test(a * g):
            mask |= 1 << i
    return mask


def realized_family(ctx: PictureContext, domain: Iterable[Element]) -> SetFamily:
    """Deduplicated pictures over a finite probe domain.

    This is a subfamily of the full picture family; sound for exhibiting
    unbalanced members, silent about members outside the probe.
    """
    masks = {picture(ctx, g) for g in domain}
    if not masks:
        raise ValueError("probe domain must be nonempty")
    return SetFamily(ctx.window, masks)


@dataclass
class NonAmenabilityCertificate:
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
            tuple(group.parse_element(a) for a in obj["window"]),
            tuple(parse_q(x) for x in obj["f"]),
            obj["radius"],
            SetSpec.from_json(obj["target"], group),
            SetFamily.from_json(obj["family"], parse=group.parse_element),
            UnbalanceWitness.from_json(obj["witness"]),
        )


def verify_nonamenability_certificate(cert: NonAmenabilityCertificate) -> bool:
    """Recompute the family from scratch and recheck both positivity claims."""
    ctx = PictureContext(cert.group, cert.window, cert.target)
    domain = ball(cert.group, cert.radius)
    family = realized_family(ctx, domain)
    if family != cert.family:
        return False
    if sum(cert.f_values, _F0) != 0 or min(member_sums(family, cert.f_values)) <= 0:
        return False
    return verify_unbalance_witness(family, cert.witness)


def candidate_pool(group: Group) -> list[SetSpec]:
    """The finite, deterministically ordered target pool for searches."""
    if isinstance(group, FreeGroup):
        base: list[SetSpec] = []
        for name in group.gen_names:
            base.append(SetSpec.first_letter([name]))
            base.append(SetSpec.first_letter([name.upper()]))
        for name in group.gen_names:
            base.append(SetSpec.first_letter([name, name.upper()]))
        if group.rank == 2:
            for k in range(-2, 3):
                base.append(SetSpec.h_above(k))
        depth1 = list(base) + [SetSpec.complement(s) for s in base]
        pool = list(depth1)
        for i in range(len(depth1)):
            for j in range(i + 1, len(depth1)):
                pool.append(SetSpec.union([depth1[i], depth1[j]]))
                pool.append(SetSpec.intersection([depth1[i], depth1[j]]))
        return pool
    if isinstance(group, (FreeAbelianGroup, CyclicGroup)):
        rank = group.rank if isinstance(group, FreeAbelianGroup) else 1
        pool = []
        for axis in range(rank):
            for modulus in (2, 3, 4):
                for rmask in range(1, (1 << modulus) - 1):
                    residues = [r for r in range(modulus) if rmask >> r & 1]
                    pool.append(SetSpec.progression(axis, modulus, residues))
        return pool
    raise GroupError(f"no documented candidate pool for group kind {group.kind!r}")


def realization_search(
    group: Group,
    window: Iterable[Element],
    f,
    radius: int,
) -> NonAmenabilityCertificate | None:
    """Search the candidate pool for a target realizing only positive pictures.

    ``f`` maps window elements to rationals summing to zero (mapping or
    sequence aligned with the canonical window order).  Returns the first
    certificate in pool order, or None when the pool is exhausted; None
    is not evidence that no certificate exists elsewhere.
    """
    window = tuple(sort_elements(window))
    if isinstance(f, Mapping):
        values = tuple(Fraction(f[a]) for a in window)
    else:
        values = tuple(Fraction(x) for x in f)
        if len(values) != len(window):
            raise ValueError("weight vector must align with the window")
    if sum(values, _F0) != 0:
        raise ValueError("window weighting must sum to zero")
    if not any(values):
        raise ValueError("zero weighting is vacuous: no subset has positive sum")
    domain = ball(group, radius, cap=REALIZATION_BALL_CAP)
    for spec in candidate_pool(group):
        ctx = PictureContext(group, window, spec)
        family = realized_family(ctx, domain)
        margin = min(member_sums(family, values))
        if margin <= 0:
            continue
        witness = UnbalanceWitness(tuple(v / margin for v in values), Fraction(1))
        cert = NonAmenabilityCertificate(
            group, window, values, radius, spec, family, witness
        )
        if not verify_nonamenability_certificate(cert):
            raise RuntimeError("internal error: certificate failed verification")
        return cert
    return None
