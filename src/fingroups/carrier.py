"""Enumerated finite universes and indicator-set algebra.

A Carrier is a universe of ``size`` points; a point is nothing but its
index in 0..size-1.  Subsets are ElemSets: immutable indicator vectors
packed into a single Python int (bit i set means point i is a member), so
intersection, union and cardinality are word-parallel bit operations and
set equality is plain indicator equality.  Everything here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import CarrierMismatch, PointOutOfRange


@dataclass(frozen=True)
class Carrier:
    """A finite enumerated universe."""

    size: int

    def __post_init__(self):
        if self.size < 0:
            raise ValueError(f"carrier size must be nonnegative, got {self.size}")

    def check_point(self, i: int) -> None:
        if not 0 <= i < self.size:
            raise PointOutOfRange(f"point {i} outside carrier of size {self.size}")


@dataclass(frozen=True)
class ElemSet:
    """Immutable subset of a carrier, stored as an indicator bit-vector."""

    carrier: Carrier
    bits: int

    def __post_init__(self):
        if self.bits < 0 or self.bits >> self.carrier.size:
            raise PointOutOfRange("indicator bits outside the carrier")

    # ---- queries ------------------------------------------------------

    @property
    def card(self) -> int:
        return self.bits.bit_count()

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.carrier.size and (self.bits >> i) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def indices(self) -> tuple[int, ...]:
        """Members in ascending index order."""
        return tuple(self)

    def as_array(self) -> np.ndarray:
        """Members as an int64 numpy vector (ascending)."""
        return np.fromiter(self, dtype=np.int64, count=self.card)

    def mask(self) -> np.ndarray:
        """Boolean membership vector over the whole carrier."""
        out = np.zeros(self.carrier.size, dtype=bool)
        if self.bits:
            out[self.as_array()] = True
        return out

    def issubset(self, other: "ElemSet") -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    # ---- algebra ------------------------------------------------------

    def _check(self, other: "ElemSet") -> None:
        if self.carrier != other.carrier:
            raise CarrierMismatch(
                f"carriers of size {self.carrier.size} and {other.carrier.size}"
            )

    def __and__(self, other: "ElemSet") -> "ElemSet":
        self._check(other)
        return ElemSet(self.carrier, self.bits & other.bits)

    def __or__(self, other: "ElemSet") -> "ElemSet":
        self._check(other)
        return ElemSet(self.carrier, self.bits | other.bits)

    def __sub__(self, other: "ElemSet") -> "ElemSet":
        self._check(other)
        return ElemSet(self.carrier, self.bits & ~other.bits)

    def __xor__(self, other: "ElemSet") -> "ElemSet":
        self._check(other)
        return ElemSet(self.carrier, self.bits ^ other.bits)

    def complement(self) -> "ElemSet":
        full = (1 << self.carrier.size) - 1
        return ElemSet(self.carrier, full ^ self.bits)

    def __repr__(self) -> str:
        inner = ",".join(str(i) for i in self)
        return f"ElemSet{{{inner}}}/{self.carrier.size}"


def empty_set(carrier: Carrier) -> ElemSet:
    return ElemSet(carrier, 0)


def full_set(carrier: Carrier) -> ElemSet:
    return ElemSet(carrier, (1 << carrier.size) - 1)


def singleton(carrier: Carrier, i: int) -> ElemSet:
    carrier.check_point(i)
    return ElemSet(carrier, 1 << i)


def set_of(carrier: Carrier, points: Iterable[int]) -> ElemSet:
    bits = 0
    for i in points:
        carrier.check_point(i)
        bits |= 1 << i
    return ElemSet(carrier, bits)
