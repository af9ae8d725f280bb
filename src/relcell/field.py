"""Exact scalar arithmetic over Q and over prime fields F_p.

Scalars are plain Python values (ints and Fractions for Q, int residues in
[0, p) for F_p); all operations go through a field object so that
structures built on top (matrices, algebra elements) can carry a single
field reference and stay exact.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction


class UnsupportedBinomial(Exception):
    """Raised for binomial_mod with k >= p over F_p (k! not invertible)."""


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class Field:
    """Common interface; concrete fields below."""

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def from_int(self, n: int):
        raise NotImplementedError

    # zero/one are cached per instance; scalar truthiness equals nonzeroness
    # for both Fraction and int, which the hot loops rely on
    zero = None
    one = None

    # serialization of scalars (exact)
    def scalar_to_str(self, a) -> str:
        raise NotImplementedError


class Rationals(Field):
    """The field Q; scalars are ints and fractions.Fraction (arbitrary
    precision).  Only inv and div make a Fraction, so integral values stay
    ints: they add, multiply, test and hash in C."""

    def __init__(self):
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return 1 / Fraction(a)

    def from_int(self, n: int):
        return n

    def scalar_to_str(self, a) -> str:
        return str(Fraction(a))

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField(Field):
    """F_p for a prime p < 2**31; scalars are ints in [0, p)."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p >= 2**31:
            raise ValueError("p too large")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"inverse of 0 in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def from_int(self, n: int):
        return n % self.p

    def scalar_to_str(self, a) -> str:
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def __repr__(self):
        return f"F_{self.p}"


QQ = Rationals()


def field_to_str(field: Field) -> str:
    return "Q" if isinstance(field, Rationals) else f"F{field.p}"


def factorial_mod(k: int, field: Field):
    """k! as an element of the field (0 in F_p once k >= p)."""
    if k < 0:
        raise ValueError("factorial of negative integer")
    acc = field.one
    for i in range(2, k + 1):
        acc = field.mul(acc, field.from_int(i))
    return acc


def binomial_mod(top, k: int, field: Field):
    """Generalized binomial prod_{i<k} (top - i) / k! in the field.

    top may be any integer (interpreted by from_int); for 0 <= top < p this
    agrees with the integer binomial reduced mod p.  Over F_p the case
    k >= p is rejected since k! is not invertible.
    """
    if k < 0:
        raise ValueError("binomial with negative k")
    if isinstance(field, PrimeField) and k >= field.p:
        raise UnsupportedBinomial(f"binomial with k={k} >= p={field.p}")
    t = field.from_int(top) if isinstance(top, int) else top
    num = field.one
    for i in range(k):
        num = field.mul(num, field.sub(t, field.from_int(i)))
    return field.div(num, factorial_mod(k, field))
