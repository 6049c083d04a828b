"""Shared exact-arithmetic primitives: sets of integers/rationals, binomial
coefficients with the vanishing convention, and composition enumeration.

Everything here is arbitrary precision. No floats enter any code path.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator

# Hard ceiling on how many composition vectors a single enumeration may
# materialize; protects careless CLI inputs from exhausting memory.
DEFAULT_COMPOSITION_CAP = 10_000_000


class CapExceeded(RuntimeError):
    """A budget would be exceeded. Every budget is a module constant that
    its check reads at call time; the README's Budgets section lists them."""


def _integral(value) -> int:
    try:
        as_int = int(value)
    except (OverflowError, ValueError):  # infinities, NaN, bad strings
        as_int = None
    if as_int != value:
        raise ValueError(f"IntegerSet needs integral values, got {value!r}")
    return as_int


class _ElementSet:
    """A finite nonempty set stored as a strictly increasing tuple.

    Each subclass names its element type `_exact`, a coercion `_coerce`
    for values of any other type, and a token parser `_parse`. Input
    values are coerced, deduplicated and sorted, so the increasing
    invariant holds by construction. Instances are immutable, and a set
    only equals a set of its own class.
    """

    __slots__ = ("elements",)

    def __init__(self, values: Iterable):
        exact, coerce = self._exact, self._coerce
        elems = tuple(sorted({v if type(v) is exact else coerce(v) for v in values}))
        if not elems:
            raise ValueError(f"{type(self).__name__} needs at least one element")
        object.__setattr__(self, "elements", elems)

    @classmethod
    def from_text(cls, text: str):
        """Parse a comma-separated list such as ``0,2,18,25``."""
        return cls(cls._parse(tok) for tok in text.split(","))

    @property
    def k(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator:
        return iter(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.elements == other.elements

    def __hash__(self) -> int:
        return hash(self.elements)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # Rebuild through the constructor: the default protocol restores
        # the slot with setattr, which immutability blocks.
        return type(self), (self.elements,)


class IntegerSet(_ElementSet):
    """A finite set of integers, stored as a strictly increasing tuple.

    Values must be integral (3, 3.0 and Fraction(6, 2) all give 3); any
    other value, infinities and NaN too, raises ValueError.
    """

    __slots__ = ()
    _exact = _parse = int
    _coerce = staticmethod(_integral)

    @property
    def diam(self) -> int:
        return self.elements[-1] - self.elements[0]

    def __contains__(self, value) -> bool:
        return value in self.elements

    def __repr__(self) -> str:
        return f"IntegerSet({list(self.elements)!r})"


class RationalSet(_ElementSet):
    """A finite set of exact rationals, strictly increasing. Accepts ints,
    Fractions, finite floats and strings like ``1/2``; others raise ValueError."""

    __slots__ = ()
    _exact = _parse = Fraction

    @staticmethod
    def _coerce(value) -> Fraction:
        try:
            return Fraction(value)
        except (OverflowError, ValueError):  # infinities, NaN, bad strings
            raise ValueError(f"RationalSet needs finite rational values, got {value!r}") from None

    def __repr__(self) -> str:
        return f"RationalSet({[str(e) for e in self.elements]!r})"


def binomial(n: int, r: int) -> int:
    """C(n, r) with the convention that it is 0 whenever n < r (or n < 0).

    r must be nonnegative.
    """
    if r < 0:
        raise ValueError("binomial: r must be nonnegative")
    if n < 0 or n < r:
        return 0
    return math.comb(n, r)


def composition_count(t: int, k: int) -> int:
    """Number of k-vectors of nonnegative integers summing to t."""
    return binomial(t + k - 1, k - 1)


def enumerate_compositions(t: int, k: int) -> list[tuple[int, ...]]:
    """All nonnegative integer k-vectors with coordinate sum t, ascending
    lexicographic.

    The order is part of the contract: type partitions are canonical only
    because every caller sees compositions in this exact order. Raises
    CapExceeded when the count would pass DEFAULT_COMPOSITION_CAP.
    """
    if t < 0:
        raise ValueError("composition sum must be nonnegative")
    if k < 1:
        raise ValueError("composition length must be positive")
    total = composition_count(t, k)
    if total > DEFAULT_COMPOSITION_CAP:
        raise CapExceeded(f"{total} compositions exceed the cap of {DEFAULT_COMPOSITION_CAP}")

    # Lexicographic successor: with c_i the last nonzero coordinate, add 1
    # to c_{i-1} and move c_i - 1 to the last coordinate. No recursion.
    vec = [0] * (k - 1) + [t]
    out = [tuple(vec)]
    while vec[0] != t:
        i = k - 1
        while not vec[i]:
            i -= 1
        c = vec[i]
        vec[i] = 0
        vec[i - 1] += 1
        vec[-1] = c - 1
        out.append(tuple(vec))
    return out


def normalize(A: IntegerSet) -> IntegerSet:
    """Translate so min is 0 and divide by the gcd of the elements.

    Sumset sizes and type partitions are invariant under this map, so the
    result is the canonical representative of A's affine class.
    """
    if A.k < 2:
        raise ValueError("normalize requires at least two elements")
    base = A.elements[0]
    shifted = [a - base for a in A.elements]
    g = math.gcd(*shifted)
    return IntegerSet(s // g for s in shifted)
