"""Exception taxonomy shared by all modules.

Every domain error derives from GroupTheoryError so callers (and the CLI)
can distinguish bad input from genuine bugs.  InternalInvariant is reserved
for facts the theory guarantees: it firing means the library is wrong, not
the caller.
"""

from __future__ import annotations


def quote_input(text: str | int) -> str:
    """Outside input quoted for an error message: a string's repr or a
    number's digits, cut to the first 40 characters and its length when
    longer."""
    s, quote = str(text), repr if isinstance(text, str) else str
    if len(s) <= 40:
        return quote(text)
    return f"{quote(s[:40])}... ({len(s)} characters)"


class GroupTheoryError(Exception):
    """Base class for every error raised by this package."""


class CarrierMismatch(GroupTheoryError):
    """Two sets (or a set and a group) live on different carriers."""


class PointOutOfRange(GroupTheoryError):
    """An index fell outside its carrier."""


class MalformedTable(GroupTheoryError):
    """A Cayley table has the wrong shape or out-of-range entries."""


class NoIdentity(GroupTheoryError):
    """No element acts as a two-sided identity for the table."""


class NoInverse(GroupTheoryError):
    def __init__(self, x: int):
        super().__init__(f"element {x} has no inverse")
        self.x = x


class NonAssociative(GroupTheoryError):
    """Carries the first violating triple in lexicographic order."""

    def __init__(self, x1: int, x2: int, x3: int):
        super().__init__(f"({x1}*{x2})*{x3} != {x1}*({x2}*{x3})")
        self.triple = (x1, x2, x3)


class UnsupportedSpec(GroupTheoryError):
    """A group description outside the supported parameter range."""


class InvalidSubgroup(GroupTheoryError):
    """A set handed to a subgroup-expecting operation is not a subgroup
    (or violates a required containment)."""


class NotNormal(GroupTheoryError):
    """Quotient construction attempted over a non-normal subgroup."""


class NotBijective(GroupTheoryError):
    def __init__(self, x: int):
        super().__init__(f"action of element {x} is not a bijection")
        self.x = x


class NotMorphism(GroupTheoryError):
    def __init__(self, x: int, y: int, z: int):
        super().__init__(f"to({x}*{y}, {z}) != to({x}, to({y}, {z}))")
        self.triple = (x, y, z)


class FamilyNotClosed(GroupTheoryError):
    """Conjugation by an acting element left the indexed set family."""

    def __init__(self, x: int, index: int):
        super().__init__(f"conjugating family member {index} by {x} leaves the family")
        self.x = x
        self.index = index


class NotPrime(GroupTheoryError):
    """An argument required to be prime is not."""


class NotPPower(GroupTheoryError):
    """The acting subgroup order is not a power of the given prime."""


class BadBase(GroupTheoryError):
    """Valuation base must be at least 2."""


class BadArg(GroupTheoryError):
    """Valuation argument must be at least 1."""


class DoesNotDivide(GroupTheoryError):
    """The prime does not divide the subgroup order."""


class PDoesNotDivide(GroupTheoryError):
    """The prime does not divide the ambient group order at all."""


class InternalInvariant(GroupTheoryError):
    """An intermediate fact guaranteed by the theory failed.  A bug."""


class ParseError(GroupTheoryError):
    """Cayley-table file rejected; carries 1-based line and column."""

    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.detail = message
