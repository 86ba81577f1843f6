"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial stores its content num/den apart from its primitive part: a
dict of integer coefficients whose gcd is 1 and whose coefficient at the
largest monomial key is positive, with gcd(num, den) = 1 and den > 0.  The
zero polynomial is no terms over 0/1.  Equal polynomials therefore have
equal representations and compare equal.  `Poly(nvars, coeffs)` returns the
canonical object itself, so `Poly(n)` is `Poly.zero(n)`.

A scaled copy (`scale`, negation, a one-term combination) changes only
the content, so it costs O(1) and shares the original's terms dict, which
no operation mutates.  A product needs no gcd pass either: by Gauss's
lemma a product of primitive polynomials is primitive, and since adding
keys is a monomial order its largest key is the sum of the two largest
keys, whose coefficient is the product of two positive ones.  A sum and a
derivative take one C-level gcd over the coefficients and one `max` over
the keys, and a division pass only when the gcd is not 1 or the largest
coefficient is negative.

Each monomial is one packed int.  With a field width w that depends only on
the number of variables, the exponent of variable i occupies bits
[i*w, (i+1)*w) and the total degree occupies the field above the last
exponent.  Keys therefore order monomials by total degree first, the
product of two monomials is the sum of their keys, and differentiating in
x_i subtracts one key, computed on first use.  The largest key of a
polynomial carries its total degree, so one check per product, on the two
largest keys, raises OverflowError before any exponent could carry into its
neighbour.  A key has about 8 bits per variable, so a layout keeps no
per-variable key until it is needed, and packing skips zero exponents.

`coeffs` is a view rebuilt on every access: {exponent tuple: int or
Fraction}.  Code that reads it in a loop should read it once.
Coefficients must be ints or Fractions; anything else raises TypeError.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

Monomial = tuple[int, ...]


class _Layout:
    """Packing of exponent tuples of one length into ints."""

    __slots__ = ("nvars", "mask", "shifts", "degree_shift", "limit", "steps", "zero")

    def __init__(self, nvars: int):
        if nvars < 0:
            raise ValueError(f"number of variables must be non-negative, got {nvars}")
        # nvars exponent fields and the degree field share 60 bits (two
        # 30-bit int digits) up to nvars = 6; past that each field keeps 8 bits
        width = max(8, 60 // (nvars + 1))
        self.nvars = nvars
        self.mask = (1 << width) - 1
        self.shifts = tuple(i * width for i in range(nvars))
        self.degree_shift = nvars * width
        self.limit = 1 << (self.degree_shift + width)  # keys of degree 2**w and up
        # (shift, key of x_i, mask) per variable: what diff needs, filled on
        # first use, since each key has as many bits as the layout's keys
        self.steps = [None] * nvars
        self.zero = _make(self, {}, 0, 1)

    def pack(self, exps: Iterable[int]) -> int:
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise ValueError(f"monomial {exps} does not have {self.nvars} exponents")
        if any(e < 0 for e in exps):
            raise ValueError(f"monomial {exps} has a negative exponent")
        key = sum(exps) << self.degree_shift
        if key >= self.limit:
            raise OverflowError(
                f"monomial {exps} exceeds total degree {self.mask} for {self.nvars} variables"
            )
        for e, s in zip(exps, self.shifts):
            if e:  # each addition copies the whole key
                key += e << s
        return key

    def step(self, index: int) -> tuple[int, int, int]:
        s = self.shifts[index]
        step = self.steps[index] = (s, (1 << s) + (1 << self.degree_shift), self.mask)
        return step

    def unpack(self, key: int) -> Monomial:
        mask = self.mask
        return tuple((key >> s) & mask for s in self.shifts)

    def require(self, poly: "Poly") -> None:
        if poly._layout is not self:
            raise ValueError(
                f"polynomials in {poly.nvars} and {self.nvars} variables do not combine"
            )


_layout = lru_cache(maxsize=None)(_Layout)


def _make(layout: _Layout, terms: dict[int, int], num: int, den: int) -> "Poly":
    """Poly of num/den times terms, which must already be canonical."""
    result = object.__new__(Poly)
    result._layout = layout
    result._terms = terms
    result._num = num
    result._den = den
    return result


def _poly(layout: _Layout, terms: dict[int, int], num: int = 1, den: int = 1) -> "Poly":
    """num/den times packed terms with nonzero integer coefficients, for
    den > 0: the terms' content, signed like the coefficient at the largest
    key, moves into num, and num/den is reduced."""
    if not terms or not num:
        return layout.zero
    g = gcd(*terms.values())
    if terms[max(terms)] < 0:
        g = -g
    if g != 1:
        terms = {k: v // g for k, v in terms.items()}
        num *= g
    g = gcd(num, den)
    return _make(layout, terms, num // g, den // g)


def poly_sum(nvars: int, polys: Iterable["Poly"]) -> "Poly":
    """Sum of polynomials in nvars variables, merged into one dict."""
    return _combine(_layout(nvars), [(1, p) for p in polys])


def poly_combination(nvars: int, terms: Iterable[tuple[int, "Poly"]], den: int = 1) -> "Poly":
    """sum c * p over the (int c, Poly p) terms, divided by den > 0."""
    return _combine(_layout(nvars), list(terms), den)


def _scaled(layout: _Layout, c: int, p: "Poly", den: int = 1) -> "Poly":
    """c * p / den for an int c and den > 0 in O(1): only the content
    changes, so the result shares p's terms."""
    if not c or not p._terms:
        return layout.zero
    num, den = c * p._num, den * p._den
    g = gcd(num, den)
    return _make(layout, p._terms, num // g, den // g)


def _combine(layout: _Layout, terms: list[tuple[int, "Poly"]], den: int = 1) -> "Poly":
    """The one merge loop: every c * p scaled to a common denominator and
    summed into one dict of integers, then put in canonical form over that
    denominator times den.  One term is a scaled copy."""
    if len(terms) == 1:
        (c, p), = terms
        layout.require(p)
        return _scaled(layout, c, p, den)
    if not terms:
        return layout.zero
    common = 1
    for _, p in terms:
        layout.require(p)
        if p._den != common:
            common = lcm(common, p._den)
    out: dict[int, int] = {}
    get = out.get
    for c, p in terms:
        f = c * p._num * (common // p._den)
        if not f:
            continue
        for k, v in p._terms.items():
            s = get(k, 0) + v * f
            if s:
                out[k] = s
            else:
                del out[k]
    return _poly(layout, out, 1, common * den)


class Poly:
    __slots__ = ("_layout", "_terms", "_num", "_den")

    def __new__(cls, nvars: int, coeffs: Mapping[Monomial, object] | None = None) -> "Poly":
        layout = _layout(nvars)
        values = {}
        den = 1
        for exps, value in (coeffs or {}).items():
            if not isinstance(value, (int, Fraction)):
                raise TypeError(
                    f"coefficient {value!r} of {tuple(exps)} is not an int or a Fraction"
                )
            if value:
                values[layout.pack(exps)] = value
                den = lcm(den, value.denominator)
        terms = {k: v.numerator * (den // v.denominator) for k, v in values.items()}
        return _poly(layout, terms, 1, den)

    @property
    def nvars(self) -> int:
        return self._layout.nvars

    @property
    def max_degree(self) -> int:
        """Largest total degree a polynomial in nvars variables can reach."""
        return self._layout.mask

    @property
    def coeffs(self) -> dict[Monomial, int | Fraction]:
        """{exponent tuple: int or Fraction}, rebuilt on every access."""
        unpack = self._layout.unpack
        num, den = self._num, self._den
        if den == 1:
            return {unpack(k): num * v for k, v in self._terms.items()}
        out = {}
        for k, v in self._terms.items():
            q = Fraction(num * v, den)
            out[unpack(k)] = q.numerator if q.denominator == 1 else q
        return out

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return _layout(nvars).zero

    @classmethod
    def constant(cls, nvars: int, value) -> "Poly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): 1})

    @classmethod
    def monomial(cls, nvars: int, exps: Iterable[int], value=1) -> "Poly":
        return cls(nvars, {tuple(exps): value})

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            self._layout is other._layout
            and self._num == other._num
            and self._den == other._den
            and (self._terms is other._terms or self._terms == other._terms)
        )

    def __hash__(self):
        return hash((self.nvars, self._num, self._den, frozenset(self._terms.items())))

    def __reduce__(self):  # a copy shares the cached layout, so it combines
        return Poly, (self.nvars, self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return _combine(self._layout, [(1, self), (1, other)])

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return _combine(self._layout, [(1, self), (-1, other)])

    def __neg__(self) -> "Poly":
        return _scaled(self._layout, -1, self)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return self.scale(other)
        self._layout.require(other)
        a, b = self._terms, other._terms
        if not a or not b:
            return self._layout.zero
        if max(a) + max(b) >= self._layout.limit:
            raise OverflowError(
                f"product of degrees {self.total_degree()} and {other.total_degree()} "
                f"exceeds {self._layout.mask} for {self.nvars} variables"
            )
        if len(a) < len(b):
            a, b = b, a
        # the first row of the product cannot collide with itself
        rows = iter(b.items())
        kb, vb = next(rows)
        out = {ka + kb: va * vb for ka, va in a.items()}
        get = out.get
        for kb, vb in rows:
            for ka, va in a.items():
                k = ka + kb
                s = get(k, 0) + va * vb
                if s:
                    out[k] = s
                else:
                    del out[k]
        # primitive with a positive lead, as both factors are
        num, den = self._num * other._num, self._den * other._den
        g = gcd(num, den)
        return _make(self._layout, out, num // g, den // g)

    __rmul__ = __mul__

    def scale(self, factor) -> "Poly":
        if not isinstance(factor, (int, Fraction)):
            raise TypeError(f"scale factor {factor!r} is not an int or a Fraction")
        return _scaled(self._layout, factor.numerator, self, factor.denominator)

    def diff(self, index: int) -> "Poly":
        layout = self._layout
        shift, unit, mask = layout.steps[index] or layout.step(index)
        out = {
            k - unit: v * e
            for k, v in self._terms.items()
            if (e := (k >> shift) & mask)
        }
        return _poly(layout, out, self._num, self._den)

    def total_degree(self) -> int:
        """Largest monomial degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(self._terms) >> self._layout.degree_shift

    def eval(self, point) -> Fraction:
        unpack = self._layout.unpack
        total = Fraction(0)
        for k, v in self._terms.items():
            term = Fraction(v)
            for x, e in zip(point, unpack(k)):
                if e:
                    term *= Fraction(x) ** e
            total += term
        return total * self._num / self._den

    def __repr__(self) -> str:
        coeffs = self.coeffs
        if not coeffs:
            return "Poly(0)"
        parts = []
        for k in sorted(coeffs):
            factors = [f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(k) if e]
            mono = "*".join(factors) if factors else "1"
            parts.append(f"{coeffs[k]}*{mono}")
        return "Poly(" + " + ".join(parts) + ")"
