"""The exact-rational gate, serialization and JSON type checks.

`exact` decides what every library entry point accepts as a rational: a
Fraction or an int, never a float, bool or string.  Rationals cross
serialization boundaries as "p/q" strings, so certificates round-trip
losslessly and digests are stable.  JSON input read as an integer, a
string or an array is checked to have that JSON type first, so a
mistyped field is a ValueError naming it, never a silent coercion.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction


def exact(x) -> Fraction:
    """x as a Fraction when it is a Fraction or an int; a ValueError naming any other type."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise ValueError(f"exact rational expected (Fraction or int), got {type(x).__name__}")


def fmt_q(x: Fraction | int) -> str:
    """Render a rational as a canonical "p/q" string (gcd-reduced, q > 0)."""
    f = exact(x)
    return f"{f.numerator}/{f.denominator}"


def parse_q(text: str) -> Fraction:
    """Parse a "p/q" (or bare integer) string into an exact Fraction.

    It reads CLI and envelope text, where every rational is a string, so
    any other JSON type (a number, a boolean) is a ValueError.
    """
    num, slash, den = typed(text, str, "a rational").strip().partition("/")
    try:
        return Fraction(int(num), int(den) if slash else 1)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational {text!r}") from None
    except ValueError:
        raise ValueError(f"rational expected as p/q or an integer, got {text!r}") from None


_JSON_TYPES = {bool: "boolean", int: "integer", str: "string", list: "array"}


def typed(value, json_type: type, name: str):
    """value, when it has the JSON type json_type (a bool is no integer, an integer no bool)."""
    if not isinstance(value, json_type) or (json_type is not bool and isinstance(value, bool)):
        raise ValueError(f"{name} must be a JSON {_JSON_TYPES[json_type]}")
    return value


def items(value, json_type: type, name: str) -> list:
    """value, when it is a JSON array whose items all have the JSON type json_type."""
    return [typed(x, json_type, f"each item of {name}") for x in typed(value, list, name)]


def canonical_dumps(obj) -> str:
    """JSON with sorted keys and fixed separators; byte-stable across runs."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def sha256_digest(obj) -> str:
    """Content digest of an object's canonical JSON form."""
    raw = canonical_dumps(obj).encode("utf-8")
    return "sha256:" + hashlib.sha256(raw).hexdigest()
