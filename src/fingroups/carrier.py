"""Enumerated finite universes and indicator-set algebra.

A Carrier is a universe of ``size`` points; a point is nothing but its
index in 0..size-1.  Subsets are ElemSets: immutable indicator vectors
packed into a single Python int (bit i set means point i is a member), so
inclusion and cardinality are word-parallel bit operations and set
equality is plain indicator equality.  Everything here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import CarrierMismatch, PointOutOfRange, quote_input


@dataclass(frozen=True)
class Carrier:
    """A finite enumerated universe."""

    size: int

    def __post_init__(self):
        if self.size < 0:
            raise ValueError(f"carrier size must be nonnegative, got {self.size}")

    def check_point(self, i: int) -> None:
        if not 0 <= i < self.size:
            raise PointOutOfRange(f"point {quote_input(i)} outside carrier of size {self.size}")


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

    def _keep(self, name: str, view: np.ndarray) -> None:
        # The set is immutable, so a view of it is computed once, kept
        # beside the fields (not one of them) and made read-only.
        view.setflags(write=False)
        object.__setattr__(self, name, view)

    def as_array(self) -> np.ndarray:
        """Members as a read-only int64 numpy vector (ascending)."""
        if "_array" not in self.__dict__:
            self._keep("_array", np.fromiter(self, dtype=np.int64, count=self.card))
        return self.__dict__["_array"]

    def mask(self) -> np.ndarray:
        """Read-only boolean membership vector over the whole carrier."""
        if "_mask" not in self.__dict__:
            out = np.zeros(self.carrier.size, dtype=bool)
            out[self.as_array()] = True
            self._keep("_mask", out)
        return self.__dict__["_mask"]

    def issubset(self, other: "ElemSet") -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    def _check(self, other: "ElemSet") -> None:
        if self.carrier != other.carrier:
            raise CarrierMismatch(
                f"carriers of size {self.carrier.size} and {other.carrier.size}"
            )

    def __repr__(self) -> str:
        inner = ",".join(str(i) for i in self)
        return f"ElemSet{{{inner}}}/{self.carrier.size}"


def full_set(carrier: Carrier) -> ElemSet:
    return ElemSet(carrier, (1 << carrier.size) - 1)


def singleton(carrier: Carrier, i: int) -> ElemSet:
    carrier.check_point(i)
    return ElemSet(carrier, 1 << i)


def membership_grid(bits: Iterable[int], size: int) -> np.ndarray:
    """The boolean grid of members: one row per set of indicator bits in
    ``bits``, one column per point of a carrier of ``size`` points."""
    width = (size + 7) // 8
    packed = np.frombuffer(b"".join(b.to_bytes(width, "little") for b in bits), np.uint8)
    return np.unpackbits(packed.reshape(-1, width), axis=1, count=size,
                         bitorder="little").view(bool)


def set_of(carrier: Carrier, points: Iterable[int]) -> ElemSet:
    bits = 0
    for i in points:
        carrier.check_point(i)
        bits |= 1 << i
    return ElemSet(carrier, bits)
