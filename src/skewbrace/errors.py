"""Exception types for table validation, brace laws, and resource caps."""

from __future__ import annotations


class ValidationFailure(Exception):
    """Base class for inputs that violate a structural axiom."""


class NotClosed(ValidationFailure):
    def __init__(self, row: int, col: int, value: object):
        self.witness = (row, col, value)
        super().__init__(
            f"table entry ({row},{col}) = {value!r} is not a valid element index"
        )


class NoIdentity(ValidationFailure):
    def __init__(self) -> None:
        super().__init__("table has no two-sided identity element")


class NoInverse(ValidationFailure):
    def __init__(self, element: int):
        self.witness = element
        super().__init__(f"element {element} has no two-sided inverse")


class NotAssociative(ValidationFailure):
    def __init__(self, triple: tuple[int, int, int]):
        self.witness = tuple(triple)
        a, b, c = self.witness
        super().__init__(f"associativity fails at ({a},{b},{c})")


class InvalidAction(ValidationFailure):
    """The twisting parameter of a semidirect product is not a valid action."""


class IdentityMismatch(ValidationFailure):
    def __init__(self, star_identity: int, circ_identity: int):
        self.witness = (star_identity, circ_identity)
        super().__init__(
            f"the two group tables have different identities "
            f"({star_identity} vs {circ_identity})"
        )


class BraceLawViolation(ValidationFailure):
    def __init__(self, triple: tuple[int, int, int]):
        self.witness = tuple(triple)
        a, b, c = self.witness
        super().__init__(f"left brace law fails at ({a},{b},{c})")


class NotComplementary(ValidationFailure):
    """Two subgroups do not form an exact factorization of the parent group."""


class NotNilpotent(ValidationFailure):
    def __init__(self, power: int, dimension: int):
        self.witness = (power, dimension)
        super().__init__(
            f"power chain stabilizes at a nonzero subspace "
            f"(A^{power} has dimension {dimension})"
        )


class NilpotencyTooDeep(ValidationFailure):
    def __init__(self, index: int):
        self.witness = index
        super().__init__(
            f"construction requires the cube of the algebra to vanish "
            f"(nilpotency index {index} > 3)"
        )


class DimensionMismatch(ValidationFailure):
    """A vector does not match the algebra's prime or dimension."""


class WrongParent(ValidationFailure):
    def __init__(self, expected: int, got: int):
        self.witness = (expected, got)
        super().__init__(f"subgroup parent order {got} does not match {expected}")


class NonIntegralQuotient(RuntimeError):
    """Automorphism count quotient failed to be integral; signals a bug."""

    def __init__(self, total: int, sub: int):
        self.witness = (total, sub)
        super().__init__(f"{total} is not divisible by {sub}")


class CapExceeded(Exception):
    """Base class for configured resource caps."""


class OrderCapExceeded(CapExceeded):
    def __init__(self, order: int | str, cap: int, what: str = "group order"):
        self.order = order
        self.cap = cap
        super().__init__(f"{what} {order} exceeds the configured cap {cap}")


class ClosureCapExceeded(CapExceeded):
    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"permutation closure exceeds the configured cap {cap}")


class BudgetExceeded(CapExceeded):
    def __init__(self, size: int | str, budget: int, what: str = "point count"):
        self.size = size
        self.budget = budget
        super().__init__(f"{what} {size} exceeds the enumeration budget {budget}")


class ParseError(Exception):
    def __init__(self, message: str, position: str | None = None):
        self.position = position
        super().__init__(message if position is None else f"{position}: {message}")
