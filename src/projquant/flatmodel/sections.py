"""Polynomial vector fields and weighted tensor fields on flat space.

A section of twist n and weight delta with k contravariant slots is stored
as a map from full index tuples to polynomial coefficients.  The Lie
derivative along a polynomial vector field X is

    (L_X T)^I = X . T^I  -  sum_slots (DX acting on the slot)  +  (delta - n) div(X) T^I

which reproduces the classical bracket on vector fields and makes the trace
coupling of twist and weight opposite in sign; that relative sign is pinned
by the Casimir eigenvalue checks and by the location of the first
quantization resonance.

Every diagram's sections come from one constructor, `young_section`, the
Young symmetrizer of coefficients keyed by index tuples read row by row.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping
from functools import lru_cache
from itertools import chain, combinations, combinations_with_replacement, permutations, product

from ..diagrams import YoungDiagram
from ..records import Record
from .poly import Poly, _layout, _poly, poly_combination, poly_sum

Index = tuple[int, ...]


class PolyVectorField(Record):
    """Vector field with polynomial components; derives only div = sum_i d_i X^i.

    Equality, hashing and the repr cover the components alone.
    """

    __slots__ = ("components", "div")
    _fields = ("components",)

    def __init__(self, components: tuple[Poly, ...]) -> None:
        div = poly_sum(len(components), (c.diff(i) for i, c in enumerate(components)))
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "div", div)

    @property
    def rank(self) -> int:
        return len(self.components)


class TensorSection(Record):
    """Weighted polynomial tensor field: full index tuples -> nonzero coefficients."""

    __slots__ = ("rank", "degree", "twist", "weight", "coeffs")

    def __init__(self, rank, degree, twist, weight, coeffs: Mapping[Index, Poly] | None = None):
        coeffs = {k: v for k, v in (coeffs or {}).items() if v}
        super().__init__(rank, degree, twist, weight, coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def component(self, index: Index) -> Poly:
        return self.coeffs.get(tuple(index), Poly.zero(self.rank))

    def __add__(self, other: "TensorSection") -> "TensorSection":
        bundle = self._key(self)[:4]  # rank, degree, twist, weight
        if self._key(other)[:4] != bundle:
            raise ValueError("sections live in different bundles")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            s = out.get(k)
            out[k] = v if s is None else s + v
        return TensorSection(*bundle, out)

    def __sub__(self, other: "TensorSection") -> "TensorSection":
        return self + other.scale(-1)

    def scale(self, factor) -> "TensorSection":
        coeffs = {k: v.scale(factor) for k, v in self.coeffs.items()}
        return TensorSection(*self._key(self)[:4], coeffs)

    def __repr__(self) -> str:
        return (
            f"TensorSection(rank={self.rank}, degree={self.degree}, "
            f"twist={self.twist}, weight={self.weight}, {len(self.coeffs)} coeffs)"
        )


def young_section(
    rank: int, rows: tuple[int, ...], twist: int, weight, data: Mapping[Index, Poly]
) -> TensorSection:
    """Young-symmetrized section of the diagram's bundle (Fulton-Harris, Lecture 4).

    data maps index tuples, read row by row, to coefficients.  Each one is
    spread once over each distinct rearrangement of its key within every
    row, then every column is antisymmetrized with signs: one row with
    sorted keys gives the symmetric section, one column with i < j the
    alternating one.
    """
    rows = YoungDiagram(rows).rows  # non-increasing, or ValueError
    degree = sum(rows)
    starts = [sum(rows[:r]) for r in range(len(rows))]
    columns = [[s + c for s, r in zip(starts, rows) if r > c] for c in range(max(rows, default=0))]
    moves = []  # (slot order, sign) of every permutation within the columns
    for perms in product(*map(permutations, columns)):
        order = [source for _, source in sorted(zip(chain(*columns), chain(*perms)))]
        moves.append((order, -1 if _odd(order) else 1))
    parts: dict[Index, list[tuple[int, Poly]]] = defaultdict(list)
    for index, p in data.items():
        if len(index) != degree or not all(0 <= i < rank for i in index):
            raise ValueError(f"key {index} is not {degree} indices below {rank}")
        segments = (_rearrangements(tuple(sorted(index[s : s + r]))) for s, r in zip(starts, rows))
        for spread in product(*segments):
            spread = sum(spread, ())
            for order, sign in moves:
                parts[tuple(spread[o] for o in order)].append((sign, p))
    out = {index: poly_combination(rank, terms) for index, terms in parts.items()}
    return TensorSection(rank, degree, twist, weight, out)


def _odd(index: Index) -> bool:
    """Whether a tuple is an odd rearrangement of its sorted order."""
    return sum(a > b for a, b in combinations(index, 2)) % 2 == 1


def _rearrangements(segment: Index) -> list[Index]:
    """Distinct rearrangements of a sorted tuple, in lexicographic order."""
    if not segment:
        return [()]
    return [
        (v,) + rest
        for i, v in enumerate(segment)
        if i == 0 or v != segment[i - 1]
        for rest in _rearrangements(segment[:i] + segment[i + 1 :])
    ]


def _exponents(rank: int, max_degree: int) -> tuple[Index, ...]:
    """Exponent tuples of total degree <= max_degree, in lexicographic order.

    The successor of a tuple raises its last exponent while the degree
    allows; at full degree it moves the last nonzero exponent's unit one
    place left and zeroes that place, and (max_degree, 0, ..., 0) is last.
    """
    if max_degree < 0:
        return ()
    if rank == 0:
        return ((),)
    exps = [0] * rank
    out = []
    total = 0
    while True:
        out.append(tuple(exps))
        if total < max_degree:
            exps[-1] += 1
            total += 1
            continue
        j = rank - 1
        while j and not exps[j]:
            j -= 1
        if not j:
            break
        total -= exps[j] - 1
        exps[j - 1] += 1
        exps[j] = 0
    return tuple(out)


@lru_cache(maxsize=None)
def _monomial_keys(rank: int, max_degree: int) -> tuple[int, ...]:
    """The packed `Poly` keys of `_exponents(rank, max_degree)`, in its order."""
    pack = _layout(rank).pack
    return tuple(pack(exps) for exps in _exponents(rank, max_degree))


# index tuples per random section: (3,3) at m = 6 stores 46,656, and its
# casimir-check takes 2.9 s at one trial, 16 s at five (2-vCPU x86_64)
_SECTION_BUDGET = 10**5
_MONOMIAL_BUDGET = 10**6
# tuples times monomials: (1) at m = 1000, degree 1, draws 1,001,000 in 1.5 s
_DRAW_BUDGET = 10**7


def _monomial_count(rank: int, max_degree: int) -> int:
    """C(max_degree + rank, rank), the monomials of degree <= max_degree; 0 below degree 0.

    The binomial is built factor by factor, C(high + i, i) for i up to the
    smaller argument, and ValueError is raised as soon as it passes
    _MONOMIAL_BUDGET, so no huge binomial is ever formed.
    """
    if max_degree < 0:
        return 0
    low, high = sorted((rank, max_degree))
    count = 1
    for i in range(1, low + 1):
        count = count * (high + i) // i
        if count > _MONOMIAL_BUDGET:
            bound = "" if i == low else "at least "
            raise ValueError(
                f"{bound}{count} monomials of degree <= {max_degree} in {rank} variables "
                f"exceed the budget of {_MONOMIAL_BUDGET}"
            )
    return count


def random_polynomial(rank: int, max_degree: int, rng) -> Poly:
    """Coefficients drawn from -3..3 for every monomial of degree <= max_degree.

    A negative max_degree, or more than _MONOMIAL_BUDGET monomials, raises
    ValueError before any is listed.
    """
    if max_degree < 0:  # the draw would be zero
        raise ValueError(f"max_degree {max_degree} leaves only the zero polynomial")
    _monomial_count(rank, max_degree)
    keys = _monomial_keys(rank, max_degree)
    return _poly(_layout(rank), {key: c for key in keys if (c := rng.randint(-3, 3))})


def random_section(
    rank: int,
    diagram_rows: tuple[int, ...],
    twist: int,
    weight,
    max_degree: int,
    rng,
) -> TensorSection:
    """Random nonzero section of the bundle labelled by (diagram, twist, weight).

    One random polynomial per semistandard filling with entries below the
    rank, in lexicographic order of the reading word, Young-symmetrized, and
    all drawn again while the section is zero.  Before any draw, ValueError
    is raised past _SECTION_BUDGET, _MONOMIAL_BUDGET or _DRAW_BUDGET, and
    for a diagram with no filling.
    """
    if max_degree < 0:  # every draw would be zero
        raise ValueError(f"max_degree {max_degree} leaves only the zero section")
    diagram = YoungDiagram(diagram_rows)
    count = 1  # rank^|D|, built factor by factor and left unfinished past the budget
    for power in range(1, diagram.size + 1):
        count *= rank
        if count > _SECTION_BUDGET:
            bound = "up to" if power == diagram.size else "at least"
            raise ValueError(
                f"a section of diagram {diagram} at m = {rank} stores {bound} "
                f"{rank}^{power} = {count} index tuples, over the budget of {_SECTION_BUDGET}"
            )
    monomials = _monomial_count(rank, max_degree)
    if (draws := count * monomials) > _DRAW_BUDGET:
        raise ValueError(
            f"a section of diagram {diagram} at m = {rank} draws up to {count} x "
            f"{monomials} = {draws} coefficients of degree <= {max_degree}, "
            f"over the budget of {_DRAW_BUDGET}"
        )
    keys = [
        sum(word, ())
        for word in product(*(combinations_with_replacement(range(rank), r) for r in diagram.rows))
        if all(a < b for upper, lower in zip(word, word[1:]) for a, b in zip(upper, lower))
    ]
    if not keys:
        raise ValueError(f"diagram {diagram_rows} has no filling with entries below rank {rank}")
    while True:  # the zero section passes every eigenvalue check
        data = {key: random_polynomial(rank, max_degree, rng) for key in keys}
        if section := young_section(rank, diagram.rows, twist, weight, data):
            return section


def lie_derivative(field: PolyVectorField, section: TensorSection) -> TensorSection:
    """Lie derivative of a weighted tensor section along a polynomial field.

    Exact; output coefficient degree is bounded by
    max_degree(section) + deg(field) - 1.
    """
    m = section.rank
    if field.rank != m:
        raise ValueError("field and section rank differ")
    components = field.components
    columns: dict[int, list[tuple[int, Poly]]] = {}  # j -> nonzero (i, -d_j X^i)
    trace_factor = section.weight - section.twist
    weighted_div = field.div.scale(trace_factor)
    parts: dict[Index, list[Poly]] = defaultdict(list)
    for index, p in section.coeffs.items():
        # transport along the field, and the weight term
        own = parts[index]
        own.extend(c * p.diff(j) for j, c in enumerate(components) if c)
        if weighted_div:
            own.append(weighted_div * p)
        # slot action scatters from source slot value j to target value i
        for slot in range(section.degree):
            j = index[slot]
            if j not in columns:
                columns[j] = [(i, -g) for i, c in enumerate(components) if (g := c.diff(j))]
            for i, g in columns[j]:
                target = list(index)
                target[slot] = i
                parts[tuple(target)].append(g * p)
    out = {index: poly_sum(m, terms) for index, terms in parts.items()}
    return TensorSection(m, section.degree, section.twist, section.weight, out)


def divergence(section: TensorSection) -> TensorSection:
    """Contract the first slot with a derivative: (Div T)^I = sum_j d_j T^{jI}.

    Intended for symmetric sections, where the slot choice is immaterial.
    """
    if section.degree < 1:
        raise ValueError("divergence needs at least one slot")
    m = section.rank
    parts: dict[Index, list[Poly]] = defaultdict(list)
    for index, p in section.coeffs.items():
        parts[index[1:]].append(p.diff(index[0]))
    out = {index: poly_sum(m, terms) for index, terms in parts.items()}
    return TensorSection(m, section.degree - 1, section.twist, section.weight, out)
