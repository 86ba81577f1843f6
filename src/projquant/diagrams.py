"""Young diagrams and the classification of GL(m) irreducibles.

A finite-dimensional continuous irreducible representation of GL(m) is
classified by a triple: a Young diagram of depth at most m-1, an integer
power of the determinant character (the *twist*), and a rational power of
|det| (the *weight*).  A diagram with a full column of m boxes is the
determinant character in disguise, so full columns are stripped and folded
into the twist; that normal form makes the triple a unique key.

Weights are exact rationals throughout: every downstream formula is
polynomial with rational coefficients, and exactness keeps resonance
detection decidable.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable
from fractions import Fraction
from math import comb

from .records import Record

Rows = tuple[int, ...]


def parse_rational(text: str) -> Fraction:
    """Fraction(text), with ValueError for any text it does not read.

    Fraction computes 10**exponent with no bound, so "1e1000000000" would
    build a number of about 400 MB.  Text whose digits and exponent together
    pass the interpreter's integer-string limit is refused before any
    arithmetic, as a plain numeral of that many digits already is.
    """
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    mantissa, _, exponent = text.strip().lower().partition("e")
    try:
        size = sum(map(str.isdigit, mantissa)) + abs(int(exponent or 0))
    except ValueError:
        size = 0  # an exponent int() does not read: Fraction rejects it too
    if size > limit:
        raise ValueError(f"{text!r} spans more than {limit} digits with its exponent")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:  # Fraction("1/0") divides
        raise ValueError(f"not a rational number: {text!r}") from exc


class YoungDiagram(Record):
    """Non-increasing row lengths; trailing zeros are trimmed on construction."""

    __slots__ = ("rows",)

    def __init__(self, rows: Rows = ()) -> None:
        rows = tuple(int(r) for r in rows)
        if any(r < 0 for r in rows):
            raise ValueError(f"negative row length in {rows}")
        if any(a < b for a, b in zip(rows, rows[1:])):
            raise ValueError(f"row lengths must be non-increasing: {rows}")
        if rows and not rows[-1]:  # non-increasing, so the zeros are one tail: one slice
            rows = rows[: rows.index(0)]
        object.__setattr__(self, "rows", rows)

    @property
    def size(self) -> int:
        return sum(self.rows)

    @property
    def depth(self) -> int:
        return len(self.rows)

    def padded(self, length: int) -> Rows:
        if length < self.depth:
            raise ValueError(f"cannot pad depth-{self.depth} diagram to length {length}")
        return self.rows + (0,) * (length - self.depth)

    def __str__(self) -> str:
        return ",".join(str(r) for r in self.rows) if self.rows else "0"

    @classmethod
    def parse(cls, text: str) -> "YoungDiagram":
        """Parse comma-separated row lengths, e.g. ``"3,2,2"``; ``"0"`` is empty."""
        parts = [chunk.strip() for chunk in text.split(",")]
        try:
            rows = tuple(int(p) for p in parts)
        except ValueError as exc:
            raise ValueError(f"invalid diagram text {text!r}") from exc
        return cls(rows)


class IrrepLabel(Record):
    """Classifier (diagram, rank m, twist n, weight delta) of a GL(m) irreducible.

    The label must be canonical: diagram depth at most rank - 1.  Use
    :func:`canonicalize` to build labels from raw row data.
    """

    __slots__ = ("diagram", "rank", "twist", "weight")

    def __init__(
        self, diagram: YoungDiagram, rank: int, twist: int = 0, weight: Fraction = Fraction(0)
    ) -> None:
        if rank < 2:
            raise ValueError(f"rank must be at least 2, got {rank}")
        if diagram.depth > rank - 1:
            raise ValueError(
                f"diagram depth {diagram.depth} exceeds rank {rank} - 1; canonicalize first"
            )
        object.__setattr__(self, "diagram", diagram)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "twist", int(twist))
        object.__setattr__(
            self, "weight", weight if weight.__class__ is Fraction else Fraction(weight)
        )

    @property
    def size(self) -> int:
        return self.diagram.size

    def __str__(self) -> str:
        return f"D={self.diagram}; m={self.rank}; n={self.twist}; delta={self.weight}"

    @classmethod
    def parse(cls, text: str) -> "IrrepLabel":
        """Parse ``"D=3,2,2; m=4; n=0; delta=1/2"`` (fields in any order, each once)."""
        names = ("d", "m", "n", "delta")
        fields: dict[str, str] = {}
        for chunk in filter(str.strip, text.split(";")):
            key, _, value = (part.strip() for part in chunk.partition("="))
            name = key.lower()
            if name not in names or name in fields:
                problem = "repeated" if name in fields else "unknown"
                raise ValueError(f"{problem} field {key!r} in label text {text!r}")
            fields[name] = value
        missing = set(names) - fields.keys()
        if missing:
            raise ValueError(f"label text {text!r} is missing fields {sorted(missing)}")
        try:
            weight = parse_rational(fields["delta"])
        except ValueError as exc:
            raise ValueError(
                f"invalid weight {fields['delta']!r} in label text {text!r}: {exc}"
            ) from exc
        return cls(YoungDiagram.parse(fields["d"]), int(fields["m"]), int(fields["n"]), weight)


def canonicalize(
    rows: Iterable[int],
    rank: int,
    twist: int = 0,
    weight: Fraction | int = 0,
) -> IrrepLabel:
    """Normal form of (rows, rank, twist, weight).

    A full column of `rank` boxes is the determinant character, so if every
    row is positive the minimal row length r is subtracted throughout and r
    is added to the twist.  Rejects a rank below 2, non-monotone rows and
    depth > rank, in that order.
    """
    if rank < 2:
        raise ValueError(f"rank must be at least 2, got {rank}")
    diagram = YoungDiagram(tuple(rows))
    if diagram.depth > rank:
        raise ValueError(f"diagram depth {diagram.depth} exceeds rank {rank}")
    if diagram.rows and diagram.depth == rank:
        strip = diagram.rows[-1]
        diagram = YoungDiagram(tuple(r - strip for r in diagram.rows))
        twist += strip
    return IrrepLabel(diagram, rank, twist, weight)


def dual(label: IrrepLabel) -> IrrepLabel:
    """Contragredient label: complemented diagram, twist -n-d1, weight -delta.

    The diagram is complemented inside the rank x d1 rectangle (rows read
    bottom-up).  Involution on canonical labels.
    """
    m = label.rank
    d = label.diagram.padded(m)
    d1 = d[0]
    complement = tuple(d1 - d[m - 1 - i] for i in range(m))
    return canonicalize(complement, m, -label.twist - d1, -label.weight)


def extend_rank(label: IrrepLabel) -> IrrepLabel:
    """Rank m+1 label with the same diagram and twist and weight zero."""
    return IrrepLabel(label.diagram, label.rank + 1, label.twist, Fraction(0))


def extend_rank_dual(label: IrrepLabel) -> IrrepLabel:
    """Dual of the rank extension of the dual.

    On diagrams this prepends a copy of the first row; the twist survives
    the double complement unchanged and the weight is zeroed.
    """
    return dual(extend_rank(dual(label)))


def dimension(label: IrrepLabel) -> int:
    """Dimension of the irreducible by the Weyl product formula.

    prod_{i<j} (lam_i - lam_j + j - i)/(j - i) over rows padded to the rank;
    independent of twist and weight.  For each of the d nonzero rows i, the zero
    rows j = d..m-1 telescope to C(lam_i + m-1-i, lam_i) / C(lam_i + d-1-i, lam_i).
    """
    lam, m, d = label.diagram.rows, label.rank, label.diagram.depth
    num = den = 1
    for i, a in enumerate(lam):
        for j in range(i + 1, d):
            num *= a - lam[j] + j - i
            den *= j - i
        num *= comb(a + m - 1 - i, a)
        den *= comb(a + d - 1 - i, a)
    return num // den
