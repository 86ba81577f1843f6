"""Univariate polynomials and rational functions in the weight variable.

These scalars flow through the same polynomial/operator code as Fractions,
which is how the quantization solve is carried out symbolically in delta:
matrix entries become degree-one polynomials, determinants become small
polynomials, and coefficient solutions become reduced rational functions
whose denominators locate the resonances.
"""

from __future__ import annotations

from fractions import Fraction


def _coerce(value) -> "DPoly | None":
    if isinstance(value, DPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return DPoly((Fraction(value),))
    return None


class DPoly:
    """Dense univariate polynomial over Fraction, low degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, value) -> "DPoly":
        return cls((Fraction(value),))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return DPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return DPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return DPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return DPoly(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        other = _coerce(other)
        if other is None or not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        den = other.coeffs
        quot = [Fraction(0)] * max(0, len(rem) - len(den) + 1)
        lead = den[-1]
        for i in range(len(rem) - len(den), -1, -1):
            factor = rem[i + len(den) - 1] / lead
            if factor:
                quot[i] = factor
                for j, c in enumerate(den):
                    rem[i + j] -= factor * c
        return DPoly(quot), DPoly(rem)

    def eval(self, x) -> Fraction:
        x = Fraction(x)
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def monic(self) -> "DPoly":
        if not self.coeffs:
            return self
        lead = self.coeffs[-1]
        return DPoly(tuple(c / lead for c in self.coeffs))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "DPoly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                parts.append(f"{c}" if i == 0 else f"{c}*d^{i}" if i > 1 else f"{c}*d")
        return "DPoly(" + " + ".join(parts) + ")"


def poly_gcd(a: DPoly, b: DPoly) -> DPoly:
    while b:
        _, r = divmod(a, b)
        a, b = b, r
    return a.monic() if a else a


def rational_roots(poly: DPoly) -> list[tuple[Fraction, int]]:
    """All rational roots with multiplicities, by root-candidate deflation."""
    if not poly:
        raise ValueError("zero polynomial has every root")
    # clear denominators to integers
    from math import gcd, lcm

    den = lcm(*(c.denominator for c in poly.coeffs))
    roots: list[tuple[Fraction, int]] = []
    work = DPoly(poly.coeffs)
    # strip factors of delta
    zero_mult = 0
    while work.coeffs and work.coeffs[0] == 0:
        work = DPoly(work.coeffs[1:])
        zero_mult += 1
    if zero_mult:
        roots.append((Fraction(0), zero_mult))
    if work.degree < 1:
        return roots

    def divisors(n: int) -> list[int]:
        n = abs(n)
        out = set()
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.add(d)
                out.add(n // d)
            d += 1
        return sorted(out)

    ints = [int(c * den) for c in work.coeffs]
    g = 0
    for c in ints:
        g = gcd(g, c)
    if g:
        ints = [c // g for c in ints]
    candidates = set()
    for p in divisors(ints[0]):
        for q in divisors(ints[-1]):
            candidates.add(Fraction(p, q))
            candidates.add(Fraction(-p, q))
    for cand in sorted(candidates):
        mult = 0
        while work.degree >= 1 and work.eval(cand) == 0:
            work, _ = divmod(work, DPoly((-cand, Fraction(1))))
            mult += 1
        if mult:
            roots.append((cand, mult))
        if work.degree < 1:
            break
    return roots


class RatFunc:
    """Reduced rational function num/den over DPoly with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: DPoly, den: DPoly = DPoly((Fraction(1),))):
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if num:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, _ = divmod(num, g)
                den, _ = divmod(den, g)
            lead = den.coeffs[-1]
            if lead != 1:
                num = num * DPoly((1 / lead,))
                den = den * DPoly((1 / lead,))
        else:
            den = DPoly((Fraction(1),))
        self.num = num
        self.den = den

    @classmethod
    def const(cls, value) -> "RatFunc":
        return cls(DPoly.const(value))

    @staticmethod
    def _coerce(value) -> "RatFunc | None":
        if isinstance(value, RatFunc):
            return value
        if isinstance(value, DPoly):
            return RatFunc(value)
        if isinstance(value, (int, Fraction)):
            return RatFunc(DPoly.const(value))
        return None

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def eval(self, x) -> Fraction:
        den = self.den.eval(x)
        if den == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return self.num.eval(x) / den

    def __repr__(self) -> str:
        if self.den == DPoly((Fraction(1),)):
            return f"RatFunc({self.num!r})"
        return f"RatFunc({self.num!r} / {self.den!r})"
