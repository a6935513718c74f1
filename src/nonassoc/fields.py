"""Exact coefficient arithmetic over the rationals and over prime fields F_p.

Scalars are plain Python values: `fractions.Fraction` over Q and `int`
residues in [0, p) over F_p.  Field objects mediate all arithmetic so the
hot loops stay close to native int/Fraction speed.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import UsageError

# Primes must fit a machine word; enumeration only ever uses tiny ones.
MAX_PRIME = 2**61 - 1

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field Q.  Elements are Fractions in lowest terms (Fraction reduces on construction)."""

    characteristic = 0
    is_finite = False

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        if isinstance(x, str):
            return self.parse(x)
        try:
            return Fraction(x)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"not a rational scalar: {x!r}") from exc

    def validate(self, x):
        if not isinstance(x, (Fraction, int)):
            raise UsageError(f"not a rational scalar: {x!r}")
        return Fraction(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero in Q")
        return 1 / Fraction(a)

    def parse(self, text: str):
        # Fraction expands exponent notation, so "1e999999999" would build a
        # billion-digit integer
        if "e" in text or "E" in text:
            raise UsageError(f"cannot parse rational scalar {text!r}: no exponents")
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"cannot parse rational scalar {text!r}") from exc

    def render(self, x) -> str:
        return str(Fraction(x))

    def elements(self):
        raise UsageError("Q is infinite; element enumeration is not available")

    @property
    def order(self):
        return None

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")


class PrimeField:
    """The prime field F_p.  Elements are int residues in [0, p)."""

    is_finite = True

    def __init__(self, p: int):
        if not isinstance(p, int) or not _is_prime(p):
            raise UsageError(f"field order must be prime, got {p!r}")
        if p > MAX_PRIME:
            raise UsageError(f"prime {p} exceeds the machine-word bound {MAX_PRIME}")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    @property
    def characteristic(self):
        return self.p

    @property
    def order(self):
        return self.p

    def coerce(self, x):
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator vanishes in F_{self.p}")
            return x.numerator * pow(x.denominator, self.p - 2, self.p) % self.p
        try:
            return int(x) % self.p
        except (TypeError, ValueError) as exc:
            raise UsageError(f"not an F_{self.p} scalar: {x!r}") from exc

    def validate(self, x):
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < self.p:
            raise UsageError(f"not a canonical F_{self.p} residue: {x!r}")
        return x

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def parse(self, text: str):
        try:
            return int(text.strip(), 10) % self.p
        except ValueError as exc:
            raise UsageError(f"cannot parse F_{self.p} scalar {text!r}") from exc

    def render(self, x) -> str:
        return str(x % self.p)

    def elements(self):
        return range(self.p)

    def __repr__(self):
        return f"F_{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))


QQ = RationalField()

_prime_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    """Return the prime field F_p (cached, so field objects compare fast)."""
    field = _prime_cache.get(p)
    if field is None:
        field = _prime_cache[p] = PrimeField(p)
    return field
