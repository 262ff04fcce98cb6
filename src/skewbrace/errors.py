"""Exception types for table validation, brace laws, and resource caps.

A failure whose class has a ``message`` template keeps the values that the
template names as its ``witness``: one value alone, None for none.  A failure
without a template is raised with its whole message and keeps witness None.
"""

from __future__ import annotations


class ValidationFailure(Exception):
    """Base class for inputs that violate a structural axiom."""

    message: str | None = None
    witness: object = None

    def __init__(self, *values) -> None:
        if self.message is not None:
            self.witness = values[0] if len(values) == 1 else values or None
            values = (self.message.format(*values),)
        # Exception by name, not super(): NonIntegralQuotient shares this constructor
        Exception.__init__(self, *values)


class NotClosed(ValidationFailure):
    message = "table entry ({},{}) = {!r} is not a valid element index"


class NoIdentity(ValidationFailure):
    message = "table has no two-sided identity element"


class NoInverse(ValidationFailure):
    message = "element {} has no two-sided inverse"


class NotAssociative(ValidationFailure):
    message = "associativity fails at ({0[0]},{0[1]},{0[2]})"


class InvalidAction(ValidationFailure):
    """The twisting parameter of a semidirect product is not a valid action."""


class IdentityMismatch(ValidationFailure):
    message = "the two group tables have different identities ({} vs {})"


class BraceLawViolation(ValidationFailure):
    message = "left brace law fails at ({0[0]},{0[1]},{0[2]})"


class NotComplementary(ValidationFailure):
    """Two subgroups do not form an exact factorization of the parent group."""


class NotNilpotent(ValidationFailure):
    message = "power chain stabilizes at a nonzero subspace (A^{} has dimension {})"


class NilpotencyTooDeep(ValidationFailure):
    message = "construction requires the cube of the algebra to vanish (nilpotency index {} > 3)"


class DimensionMismatch(ValidationFailure):
    """A vector does not match the algebra's prime or dimension."""


class WrongParent(ValidationFailure):
    message = "subgroup parent order {1} does not match {0}"


class NonIntegralQuotient(RuntimeError):
    """Automorphism count quotient failed to be integral; signals a bug."""

    message = "{} is not divisible by {}"
    __init__ = ValidationFailure.__init__


class CapExceeded(Exception):
    """Base class for configured resource caps."""


class OrderCapExceeded(CapExceeded):
    def __init__(self, order: int | str, cap: int, what: str = "group order"):
        self.order, self.cap = order, cap
        super().__init__(f"{what} {order} exceeds the configured cap {cap}")


class ClosureCapExceeded(CapExceeded):
    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"permutation closure exceeds the configured cap {cap}")


class BudgetExceeded(CapExceeded):
    def __init__(self, size: int | str, budget: int, what: str = "point count"):
        self.size, self.budget = size, budget
        super().__init__(f"{what} {size} exceeds the enumeration budget {budget}")


class ParseError(Exception):
    def __init__(self, message: str, position: str | None = None):
        self.position = position
        super().__init__(message if position is None else f"{position}: {message}")
