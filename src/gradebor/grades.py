"""Grade and permission algebras.

Grades are elements of a pluggable pre-ordered semiring and annotate the box
modality; permissions grade the borrowing modality and are either whole
ownership (star) or an exact rational fraction in (0, 1].
"""

from __future__ import annotations

import weakref
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from typing import Optional, Union


class GradeError(Exception):
    """Base class for algebra-level failures."""


class InstanceMismatch(GradeError):
    pass


class BadGrade(GradeError):
    pass


class BadPermission(GradeError):
    pass


class StarNotDivisible(GradeError):
    pass


class StarNotAddable(GradeError):
    pass


class PermissionOverflow(GradeError):
    pass


NatPayload = int
IntervalPayload = tuple[int, int]
Payload = Union[NatPayload, IntervalPayload]


class Semiring:
    """A pre-ordered semiring: (elements, *, 1, +, 0, leq).

    Addition and multiplication must be monotone with respect to leq; the
    shipped instances are property-tested for this. `zero` and `one` are
    built once per ring and shared, as grades are never changed.
    """

    name: str
    zero: "Grade"
    one: "Grade"

    def add(self, a: Payload, b: Payload) -> Payload:
        raise NotImplementedError

    def mul(self, a: Payload, b: Payload) -> Payload:
        raise NotImplementedError

    def leq(self, a: Payload, b: Payload) -> bool:
        raise NotImplementedError

    def literal(self, lo: int, hi: Optional[int] = None) -> "Grade":
        """Build a grade from a surface literal `lo` or `lo..hi`."""
        raise NotImplementedError

    def residual(self, r: Payload, s: Payload) -> Optional[Payload]:
        """Solve s + r' = r for r', or None when no residual exists."""
        raise NotImplementedError

    def show(self, a: Payload) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<semiring {self.name}>"


class _NatBase(Semiring):
    def __init__(self):
        self.zero, self.one = Grade(self, 0), Grade(self, 1)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def literal(self, lo, hi=None):
        if hi is not None:
            raise BadGrade(f"interval literal {lo}..{hi} not valid in semiring {self.name}")
        if lo < 0:
            raise BadGrade(f"negative grade {lo}")
        return Grade(self, lo)

    def residual(self, r, s):
        return r - s if r >= s else None

    def show(self, a):
        return str(a)


class NatDiscrete(_NatBase):
    """Natural numbers with the discrete ordering: no approximation."""

    name = "nat"

    def leq(self, a, b):
        return a == b


class NatOrdered(_NatBase):
    """Natural numbers under <=, so grades are upper bounds on usage."""

    name = "nat-leq"

    def leq(self, a, b):
        return a <= b


class NatInterval(Semiring):
    """Intervals lo..hi of naturals; leq is interval inclusion."""

    name = "interval"

    def __init__(self):
        self.zero, self.one = Grade(self, (0, 0)), Grade(self, (1, 1))

    def add(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def mul(self, a, b):
        return (a[0] * b[0], a[1] * b[1])

    def leq(self, a, b):
        # a included in b
        return b[0] <= a[0] and a[1] <= b[1]

    def literal(self, lo, hi=None):
        if hi is None:
            hi = lo
        if lo < 0 or hi < lo:
            raise BadGrade(f"malformed interval {lo}..{hi}")
        return Grade(self, (lo, hi))

    def residual(self, r, s):
        # interval subtraction, clamping the lower end at zero
        hi = r[1] - s[1]
        if hi < 0:
            return None
        lo = max(r[0] - s[0], 0)
        if lo > hi:
            return None
        return (lo, hi)

    def show(self, a):
        return f"{a[0]}..{a[1]}"


@dataclass(frozen=True)
class Grade:
    """An element of a specific semiring instance."""

    ring: Semiring
    payload: Payload

    def __str__(self) -> str:
        return self.ring.show(self.payload)

    def __repr__(self) -> str:
        return f"Grade({self.ring.name}, {self})"


NAT = NatDiscrete()
NAT_LEQ = NatOrdered()
INTERVAL = NatInterval()

SEMIRINGS: dict[str, Semiring] = {r.name: r for r in (NAT, NAT_LEQ, INTERVAL)}


def _same_ring(a: Grade, b: Grade) -> Semiring:
    if a.ring is not b.ring:
        raise InstanceMismatch(f"grade instances differ: {a.ring.name} vs {b.ring.name}")
    return a.ring


def grade_add(a: Grade, b: Grade) -> Grade:
    ring = _same_ring(a, b)
    return Grade(ring, ring.add(a.payload, b.payload))


def grade_mul(a: Grade, b: Grade) -> Grade:
    ring = _same_ring(a, b)
    return Grade(ring, ring.mul(a.payload, b.payload))


def grade_leq(a: Grade, b: Grade) -> bool:
    ring = _same_ring(a, b)
    return ring.leq(a.payload, b.payload)


def grade_residual(r: Grade, s: Grade) -> Optional[Grade]:
    """The grade r' with s + r' = r (clamped for intervals), if any."""
    ring = _same_ring(r, s)
    out = ring.residual(r.payload, s.payload)
    return None if out is None else Grade(ring, out)


def grade_minus_one(g: Grade) -> Optional[Grade]:
    return grade_residual(g, g.ring.one)


class Permission:
    """Star (unique ownership) or an exact fraction in (0, 1].

    The fraction is stored as an arbitrary-precision rational in lowest
    terms; zero is not representable here (heap annotations, which admit
    zero, are plain Fractions on the interpreter side).

    There is one object per value (hash-consing: Filliâtre & Conchon,
    "Type-safe modular hash-consing", ML Workshop 2006): `Permission(f)`
    returns the object already made for a value equal to f while that object
    is alive, so equality tests identity first. Each value computes its hash
    and text once and keeps the results of `perm_half`, `perm_add` (with
    the last addend) and `perm_is_writable`, so a repeated split or join is a
    lookup; errors are never kept, so they are raised on every call. The
    intern table holds its objects weakly and a value holds at most its half
    and one sum, so repeating an operation keeps nothing more. Values are
    immutable, as they are shared.
    """

    __slots__ = ("frac", "is_star", "writable", "_hash", "_text", "_half", "_addend", "_sum", "__weakref__")

    def __new__(cls, frac: Optional[Fraction] = None) -> Permission:
        if frac is not None and not isinstance(frac, Fraction):
            frac = Fraction(frac)
        self = _INTERNED.get(frac)
        if self is not None:
            return self
        if frac is not None and not (0 < frac <= 1):
            raise BadPermission(f"fraction {frac} outside (0, 1]")
        self = object.__new__(cls)
        if frac is None:
            text = "*"
        elif frac.denominator == 1:
            text = str(frac.numerator)
        else:
            text = f"{frac.numerator}/{frac.denominator}"
        fields = {
            "frac": frac, "is_star": frac is None, "writable": frac is None or frac == 1,
            "_hash": hash(frac), "_text": text, "_half": None, "_addend": None, "_sum": None,
        }
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        _INTERNED[frac] = self
        return self

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not Permission:
            return NotImplemented
        return self.frac == other.frac

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Permission, (self.frac,)

    def __str__(self) -> str:
        return self._text

    def __repr__(self) -> str:
        return f"Permission({self._text})"


# The live permissions by value (None for star).
_INTERNED: weakref.WeakValueDictionary[Optional[Fraction], Permission] = weakref.WeakValueDictionary()

STAR = Permission(None)
WHOLE = Permission(Fraction(1))


def frac_perm(num: int, den: int = 1) -> Permission:
    return Permission(Fraction(num, den))


def perm_half(p: Permission) -> Permission:
    half = p._half
    if half is None:
        if p.is_star:
            raise StarNotDivisible("the star permission cannot be split")
        half = Permission(p.frac / 2)
        object.__setattr__(p, "_half", half)
    return half


def perm_add(p: Permission, q: Permission) -> Permission:
    if q is p._addend:
        return p._sum
    if p.is_star or q.is_star:
        raise StarNotAddable("the star permission cannot be joined")
    total = p.frac + q.frac
    if total > 1:
        raise PermissionOverflow(f"joined permissions sum to {total} > 1")
    out = Permission(total)
    object.__setattr__(p, "_addend", q)
    object.__setattr__(p, "_sum", out)
    return out


def perm_is_writable(p: Permission) -> bool:
    return p.writable
