"""Exact arithmetic in O = Z[sqrt(d)] and its fraction field K = Q(sqrt(d)).

d is a negative squarefree integer with d = 2 or 3 (mod 4), so {1, sqrt(d)}
is an integral basis, every ring element is x + y*sqrt(d) with x, y in Z,
and the unit group is finite.
Field elements carry Fraction coordinates, always in lowest terms.
"""

import math
import re
from fractions import Fraction
from operator import attrgetter


class NotDivisibleError(ArithmeticError):
    """Exact division requested between elements with no quotient in O."""


class UnsupportedRingError(ValueError):
    """A well-formed real quadratic d > 0: every context has d < 0, so that
    the unit group is finite and the principality search ends."""


class CheckFailedError(RuntimeError):
    """An internal cross-check failed; ``check``, set by each subclass, names it."""

    check = "check"

    def __init__(self, message):
        super().__init__(f"{self.check} check failed: {message}")


class ValidationError(Exception):
    """Input data does not define a valid Frobenius algebra."""


class ClosureError(ValidationError):
    """A product escaped the lattice O*1 + mu*X (possible only for algebras
    built with the relaxed a_bar precondition)."""


_JSON_DECIMAL_RE = re.compile(r"-?[0-9]+")


def json_key(obj, key):
    """obj[key] for a JSON object read from input; ValueError naming the
    key when it is missing."""
    try:
        return obj[key]
    except KeyError:
        raise ValueError(f"missing key {key!r}") from None


def json_int(value, *, text=False):
    """An integer read from JSON: an int, not a bool or a float, or with
    ``text`` also the ASCII decimal string that ``to_json`` writes."""
    if text and isinstance(value, str) and _JSON_DECIMAL_RE.fullmatch(value):
        return int(value)
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


TRIAL_DIVISION_BOUND = 1 << 16


def _prime_factors(n):
    """(primes found, cofactor left unfactored) for n, by trial division up
    to TRIAL_DIVISION_BOUND.  A cofactor below the next divisor's square is
    prime; a larger one is returned unfactored, 1 when there is none."""
    out = set()
    p = 2
    while p <= TRIAL_DIVISION_BOUND and p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1 if p == 2 else 2
    if p * p <= n:
        return out, n
    if n > 1:
        out.add(n)
    return out, 1


_set = object.__setattr__


class Value:
    """Base of the immutable value types.

    A subclass lists its fields, in constructor order, as its ``__slots__``
    and sets them in ``__init__`` with ``_set``.  Equality and hashing go by
    the tuple of fields, between objects of the same class only; fields
    cannot be assigned or deleted; copies and pickles are rebuilt through
    ``__init__``.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        get = attrgetter(*cls.__slots__)
        # the tuple of fields; an attrgetter of one name gives the bare value
        cls._fields = staticmethod(get if len(cls.__slots__) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields(self)


class RingContext(Value):
    """Fixes the discriminant parameter d of O = Z[sqrt(d)]; a d that
    defines no such basis raises ValueError, then d > 0 raises
    UnsupportedRingError."""

    __slots__ = ("d",)

    def __init__(self, d):
        if d in (0, 1):
            raise ValueError("d must not be 0 or 1")
        if d % 4 == 1:
            raise ValueError("d = 1 (mod 4) not supported: {1, sqrt(d)} must be an integral basis")
        if abs(d) >= 1 << 32:
            raise ValueError("|d| must be below 2**32")
        # below 2**32 = TRIAL_DIVISION_BOUND**2, |d| factors fully
        if math.prod(_prime_factors(abs(d))[0]) != abs(d):
            raise ValueError("d must be squarefree")
        if d > 0:
            raise UnsupportedRingError(f"real quadratic d = {d}: only imaginary quadratic rings (d < 0) are supported")
        _set(self, "d", d)

    def __call__(self, x, y=0):
        return RingElement(self, int(x), int(y))

    @property
    def zero(self):
        return RingElement(self, 0, 0)

    @property
    def one(self):
        return RingElement(self, 1, 0)

    @property
    def sqrt_d(self):
        return RingElement(self, 0, 1)

    def units(self):
        """All units of O, finite since d < 0."""
        out = [self.one, self(-1)]
        if self.d == -1:
            out += [self.sqrt_d, self(0, -1)]
        return tuple(out)

    def field(self, p, q=0):
        return FieldElement(self, Fraction(p), Fraction(q))

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise ValueError(f"expected a JSON object with the ring parameter d, got {obj!r}")
        return cls(json_int(json_key(obj, "d")))


class RingElement(Value):
    """x + y*sqrt(d), exactly."""

    __slots__ = ("ctx", "x", "y")

    def __init__(self, ctx, x, y):
        _set(self, "ctx", ctx)
        _set(self, "x", x)
        _set(self, "y", y)

    def _check(self, other):
        if not isinstance(other, RingElement):
            raise TypeError(f"expected RingElement, got {type(other).__name__}")
        if other.ctx.d != self.ctx.d:
            raise ValueError("mixed ring contexts")
        return other

    def __add__(self, other):
        if isinstance(other, int):
            return RingElement(self.ctx, self.x + other, self.y)
        self._check(other)
        return RingElement(self.ctx, self.x + other.x, self.y + other.y)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            return RingElement(self.ctx, self.x - other, self.y)
        self._check(other)
        return RingElement(self.ctx, self.x - other.x, self.y - other.y)

    def __neg__(self):
        return RingElement(self.ctx, -self.x, -self.y)

    def __mul__(self, other):
        if isinstance(other, int):
            return RingElement(self.ctx, self.x * other, self.y * other)
        self._check(other)
        d = self.ctx.d
        return RingElement(
            self.ctx,
            self.x * other.x + d * self.y * other.y,
            self.x * other.y + self.y * other.x,
        )

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = self.ctx.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self):
        return RingElement(self.ctx, self.x, -self.y)

    def norm(self):
        """Field norm N(x + y sqrt(d)) = x^2 - d y^2; multiplicative."""
        return self.x * self.x - self.ctx.d * self.y * self.y

    def is_zero(self):
        return self.x == 0 and self.y == 0

    def is_unit(self):
        """|N| = 1 test; N(x + y sqrt(d)) = x^2 - d y^2 >= 0, as d < 0."""
        return abs(self.norm()) == 1

    def unit_inverse(self):
        if not self.is_unit():
            raise NotDivisibleError(f"{self} is not a unit")
        n = self.norm()
        conj = self.conjugate()
        return conj if n == 1 else -conj

    def exact_div(self, other):
        """Quotient in O, or NotDivisibleError; conjugate-over-norm route."""
        other = self._check(other)
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in O")
        num = self * other.conjugate()
        if num.x % n or num.y % n:
            raise NotDivisibleError(f"{other} does not divide {self}")
        return RingElement(self.ctx, num.x // n, num.y // n)

    def field_quotient(self, other):
        """self / other in K: the conjugate over the norm, one Fraction per
        coordinate (no inverse taken in K)."""
        other = self._check(other)
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in K")
        num = self * other.conjugate()
        return FieldElement(self.ctx, Fraction(num.x, n), Fraction(num.y, n))

    def divides(self, other):
        try:
            other.exact_div(self)
            return True
        except (NotDivisibleError, ZeroDivisionError):
            return False

    def to_field(self):
        return FieldElement(self.ctx, Fraction(self.x), Fraction(self.y))

    def __str__(self):
        if self.y == 0:
            return str(self.x)
        w = "w" if self.y in (1, -1) else f"{abs(self.y)}w"
        sign = "-" if self.y < 0 else "+"
        if self.x == 0:
            return f"-{w}" if self.y < 0 else w
        return f"{self.x}{sign}{w}"

    def to_json(self):
        return {"x": str(self.x), "y": str(self.y)}

    @classmethod
    def from_json(cls, ctx, obj):
        if not isinstance(obj, dict):
            raise ValueError(f"expected a ring element {{x, y}}, got {obj!r}")
        return cls(ctx, json_int(json_key(obj, "x"), text=True), json_int(json_key(obj, "y"), text=True))


class FieldElement(Value):
    """p + q*sqrt(d) with rational p, q."""

    __slots__ = ("ctx", "p", "q")

    def __init__(self, ctx, p, q):
        _set(self, "ctx", ctx)
        _set(self, "p", p)
        _set(self, "q", q)

    def _check(self, other):
        if isinstance(other, RingElement):
            other = other.to_field()
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if other.ctx.d != self.ctx.d:
            raise ValueError("mixed ring contexts")
        return other

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return FieldElement(self.ctx, self.p + other, self.q)
        other = self._check(other)
        return FieldElement(self.ctx, self.p + other.p, self.q + other.q)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return FieldElement(self.ctx, self.p - other, self.q)
        other = self._check(other)
        return FieldElement(self.ctx, self.p - other.p, self.q - other.q)

    def __neg__(self):
        return FieldElement(self.ctx, -self.p, -self.q)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FieldElement(self.ctx, self.p * other, self.q * other)
        other = self._check(other)
        d = self.ctx.d
        return FieldElement(
            self.ctx,
            self.p * other.p + d * self.q * other.q,
            self.p * other.q + self.q * other.p,
        )

    __rmul__ = __mul__

    def norm(self):
        return self.p * self.p - self.ctx.d * self.q * self.q

    def is_zero(self):
        return self.p == 0 and self.q == 0

    def inverse(self):
        """Conjugate over norm; norm is nonzero for nonzero elements since
        sqrt(d) is irrational."""
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero in K")
        return FieldElement(self.ctx, self.p / n, -self.q / n)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return FieldElement(self.ctx, self.p / other, self.q / other)
        other = self._check(other)
        return self * other.inverse()

    def is_integral(self):
        return self.p.denominator == 1 and self.q.denominator == 1

    def __str__(self):
        if self.q == 0:
            return str(self.p)
        w = "w" if abs(self.q) == 1 else f"{abs(self.q)}*w"
        sign = "-" if self.q < 0 else "+"
        if self.p == 0:
            return f"-{w}" if self.q < 0 else w
        return f"{self.p}{sign}{w}"

    def to_json(self):
        return {
            "x": {"num": str(self.p.numerator), "den": str(self.p.denominator)},
            "y": {"num": str(self.q.numerator), "den": str(self.q.denominator)},
        }


_TERM = r"([0-9]+w?|w)"
_ELEMENT_RE = re.compile(rf"[+-]?{_TERM}([+-]{_TERM})*")
_SIGNED_TERM_RE = re.compile(rf"([+-]?){_TERM}")


def parse_element(ctx, text):
    """Parses 'a+bw' shorthand, with w standing for sqrt(d).

    Accepts forms like '2', '-3', 'w', '-w', '2w', '1+w', '3-2w', with
    spaces only at the ends and around signs, so '1 2' is an error.
    """
    s = re.sub(r"\s*([+-])\s*", r"\1", text.strip())
    if not _ELEMENT_RE.fullmatch(s):
        raise ValueError(f"cannot parse element {text!r}")
    x = y = 0
    for sign, term in _SIGNED_TERM_RE.findall(s):
        c = int(sign + (term.rstrip("w") or "1"))
        if term.endswith("w"):
            y += c
        else:
            x += c
    return RingElement(ctx, x, y)
