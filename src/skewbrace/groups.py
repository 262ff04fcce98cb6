"""Finite groups as dense operation tables.

Groups live on element indices 0..n-1.  A ``FiniteGroup`` checks its own
table on construction, and there is no other way to make one: closure,
identity and inverses are checked with vectorized operations, and
associativity by Light's test on a magma-generating set, which the group
keeps as ``gens`` for every later check on generators.  Its table is one
read-only small-int array.

This module holds what checking a table needs: ``FiniteGroup``,
``SubgroupSet``, the table checks and ``_respects``, with the one closure
routine (``_closure``, which validation and the lattice share) and the
number theory the other modules read (``_prime_factors``, ``_unit_action``).
The rest of the group API lives in modules of its own, resolved on first
access (PEP 562): the constructors (``semidirect_product_cyclic``,
``closure_from_permutations``) in ``skewbrace.constructions``, the
subgroup lattice (``generated_subgroup``, ``enumerate_subgroups``) in
``skewbrace.lattice`` and the automorphism search (``automorphism_group``)
in ``skewbrace.automorphisms``.  So a command that only checks tables,
such as a brace ``verify``, loads none of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import InvalidAction, NoIdentity, NoInverse, NotAssociative, NotClosed

DEFAULT_ORDER_CAP = 2000
DEFAULT_AUT_CAP = 200
# the work size of every blockwise pass: cells of a table, bytes of a file
ASSOC_BLOCK_CELLS = 1 << 16

# the public names defined in a module of their own, which groups loads
# only when one of them is first read
_MODULE_OF = {
    "semidirect_product_cyclic": "constructions",
    "closure_from_permutations": "constructions",
    "generated_subgroup": "lattice",
    "enumerate_subgroups": "lattice",
    "automorphism_group": "automorphisms",
}


def __getattr__(name: str):
    # read through the module each time, so a name replaced there (the
    # benchmark tracer's wrapper, a test's counter) is replaced here too;
    # -X importtime lists a module loaded by __import__, unlike by importlib
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(__import__(f"{__package__}.{_MODULE_OF[name]}", fromlist=[name]), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group given by its full n-by-n operation table, checked on
    construction.

    ``table`` is a square sequence of rows of integers or a 2-d integer
    array; any other shape or entry raises ValueError.  The checks then raise
    NotClosed, NoIdentity, NoInverse or NotAssociative with a witness, in
    that order.  The group keeps a read-only copy of the table, the least
    identity, the read-only array of inverses ``inv`` and the generators
    ``gens`` that Light's test used.  Groups with equal tables are equal.
    """

    table: np.ndarray = field(repr=False)
    identity: int = field(init=False)
    inv: np.ndarray = field(init=False, repr=False)
    gens: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        arr = _table_array(self.table)
        identity = _least_identity(arr)
        inv = _inverses(arr, identity)
        gens = _magma_generators(arr, identity)
        witness = _assoc_witness(arr, gens)
        if witness is not None:
            raise NotAssociative(witness)
        inv.flags.writeable = False
        for name, value in [("table", arr), ("identity", identity), ("inv", inv), ("gens", gens)]:
            object.__setattr__(self, name, value)

    @property
    def order(self) -> int:
        return len(self.table)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return np.array_equal(self.table, other.table)

    def __hash__(self) -> int:
        # the dtype is a function of the order, so equal tables have equal bytes
        return hash((self.order, self.table.tobytes()))


@dataclass(frozen=True)
class SubgroupSet:
    """A subgroup as its membership: element i of the parent is in it when
    bit i of ``mask`` is set.  The set keeps bits 0..n-1 of the mask it is
    given, so a mask with bits outside that range holds no more elements,
    and two sets with the same members are equal."""

    parent_order: int
    mask: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "mask", self.mask & ((1 << self.parent_order) - 1))

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def elements(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.members).tolist())

    @property
    def members(self) -> np.ndarray:
        """Membership array over 0..n-1."""
        n = self.parent_order
        bits = np.frombuffer(self.mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
        return np.unpackbits(bits, count=n, bitorder="little").view(bool)


def _integral(t: type) -> bool:
    return issubclass(t, (int, np.integer)) and t is not bool


def _first_non_integer(values) -> int | None:
    """Index of the first entry of ``values`` that is not an integer (bools
    and floats are not), or None."""
    if all(map(_integral, set(map(type, values)))):
        return None
    return next(k for k, v in enumerate(values) if not _integral(type(v)))


def _integer(x, what: str) -> int:
    """``x`` as an int, or a ValueError naming ``what`` if it is not an integer."""
    if not _integral(type(x)):
        raise ValueError(f"{what} {x!r} is not an integer")
    return int(x)


def _element(n: int, x, what: str = "element") -> int:
    """``x`` as an int once it is an integer in 0..n-1; ValueError otherwise."""
    x = _integer(x, what)
    if not 0 <= x < n:
        raise ValueError(f"{what} {x} out of range")
    return x


def _exact_int_array(rows) -> np.ndarray:
    """Integer rows as an int64 array, or as an object array when an entry
    is beyond int64: np.asarray would round it through float64."""
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)


def _length(x, what: str) -> int:
    """len(x), or a ValueError that names ``what`` when x has no length."""
    try:
        return len(x)
    except TypeError:
        raise ValueError(f"{what} is not a sequence: {x!r}") from None


def _table_array(op_table) -> np.ndarray:
    """The square table as a read-only array of the smallest signed dtype
    that holds its indices.  An integer array of any shape but (n, n), a row
    of the wrong length or an entry that is not an integer raises
    ValueError; the first entry outside 0..n-1 in row-major order raises
    NotClosed."""
    n = _length(op_table, "operation table")
    if n == 0:
        raise ValueError("operation table is empty")
    typed = isinstance(op_table, np.ndarray) and op_table.dtype.kind in "iu"
    if typed:
        if op_table.ndim != 2:
            raise ValueError(f"operation table has shape {op_table.shape}, not (n, n)")
        if op_table.shape[1] != n:
            raise ValueError(f"table is not square: row 0 has length {op_table.shape[1]}")
        raw = op_table
    else:
        for i, row in enumerate(op_table):
            if _length(row, f"table row {i}") != n:
                raise ValueError(f"table is not square: row {i} has length {len(row)}")
            j = _first_non_integer(row)
            if j is not None:
                raise ValueError(f"table entry ({i}, {j}) is not an integer: {row[j]!r}")
        raw = _exact_int_array(op_table)
    if raw.min() < 0 or raw.max() >= n:
        # the n-by-n mask is built only to name the witness
        i, j = np.argwhere((raw < 0) | (raw >= n))[0]
        raise NotClosed(int(i), int(j), int(raw[i, j]))
    # a copy, also of an array already in this dtype: a group never aliases
    # its caller's array
    arr = raw.astype(np.min_scalar_type(-n))
    arr.flags.writeable = False
    return arr


def _mask(members: np.ndarray) -> int:
    return int.from_bytes(np.packbits(members, bitorder="little").tobytes(), "little")


def _closure(table: np.ndarray, identity: int, candidates, columns=None, limit=None):
    """Membership array of everything reached from the identity by right
    multiplication with ``candidates`` (in a group, the subgroup they
    generate), and the candidates outside the closure of those before them,
    in order.  ``columns`` caches ``table[:, g].tolist()`` by g, so callers
    that close many small sets can share one dict.  Given a ``limit``, the
    walk multiplies only the first ``limit`` elements it reaches, and stops
    once it has reached more."""
    columns = {} if columns is None else columns
    limit = len(table) if limit is None else limit
    seen = bytearray(len(table))
    seen[identity] = 1
    reached, used, done = [identity], [], []
    for g in candidates:
        if seen[g]:
            continue
        if g not in columns:
            columns[g] = table[:, g].tolist()
        used.append(g)
        done.append(0)
        # column used[k] has multiplied reached[:done[k]], read while it grows;
        # the rest is closed under the earlier columns, so the walk starts at g
        while min(done) < len(reached) <= limit:
            for k, h in enumerate(used):
                for y in map(columns[h].__getitem__, islice(reached, done[k], limit)):
                    if not seen[y]:
                        seen[y] = 1
                        reached.append(y)
                done[k] = len(reached)
    return np.frombuffer(seen, dtype=bool), used


def _magma_generators(arr: np.ndarray, identity: int) -> tuple[int, ...]:
    """Greedy magma generators: each is the least element not yet reached."""
    return tuple(_closure(arr, identity, range(len(arr)))[1])


def _assoc_witness(arr: np.ndarray, gens) -> tuple[int, int, int] | None:
    """First (x,g,y) with (x g) y != x (g y), g running over magma generators.

    Light's test: the middle elements g that associate with every x and y
    form a submagma, so checking generators covers the whole table.  Each
    generator is checked one block of about ASSOC_BLOCK_CELLS cells at a
    time, so no n-by-n temporary is built.
    """
    n = len(arr)
    step = max(1, ASSOC_BLOCK_CELLS // n)
    for g in gens:
        xg, gy = arr[:, g], arr[g]
        for lo in range(0, n, step):
            lhs = arr[xg[lo : lo + step]]  # lhs[x, y] = op[op[lo + x][g]][y]
            rhs = arr[lo : lo + step].take(gy, axis=1)  # rhs[x, y] = op[lo + x][op[g][y]]
            if not (lhs == rhs).all():
                x, y = np.argwhere(lhs != rhs)[0]
                return lo + int(x), g, int(y)
    return None


def _inverses(arr: np.ndarray, e: int) -> np.ndarray:
    """Each element's least right inverse under the identity e, read one row
    block of about ASSOC_BLOCK_CELLS cells at a time; NoInverse names the
    least element with no two-sided one.  That is enough: in a monoid a right
    inverse equals any two-sided one, so a row whose least right inverse is
    not a left one has no two-sided inverse or fails Light's test."""
    n = len(arr)
    step = max(1, ASSOC_BLOCK_CELLS // n)
    inv = np.concatenate([(arr[lo : lo + step] == e).argmax(axis=1) for lo in range(0, n, step)])
    ar = np.arange(n)
    for x in np.flatnonzero((arr[ar, inv] != e) | (arr[inv, ar] != e)).tolist():
        if not ((arr[x] == e) & (arr[:, x] == e)).any():
            raise NoInverse(x)
    return inv


def _least_identity(arr: np.ndarray) -> int:
    """The least e whose row and column of the table are 0..n-1, or
    NoIdentity.  Only an e with e 0 = 0 e = 0 can be one, so the full row
    and column are compared for those alone."""
    ar = np.arange(len(arr))
    for e in np.flatnonzero((arr[:, 0] == 0) & (arr[0] == 0)).tolist():
        if np.array_equal(arr[e], ar) and np.array_equal(arr[:, e], ar):
            return e
    raise NoIdentity()


def build_from_table(op_table) -> FiniteGroup:
    """FiniteGroup(op_table), as a function of its own: wrapping it to count
    or time table builds leaves the class alone."""
    return FiniteGroup(op_table)


# no caller factors an integer above this: trial division to its square root
# tries 10^5 divisors, about 0.01 s
FACTOR_BOUND = 10**10


def _prime_factors(m: int) -> tuple[int, ...]:
    """The primes of m with multiplicity, ascending, by trial division."""
    out, d = [], 2
    while d * d <= m:
        if m % d:
            d += 1
        else:
            out.append(d)
            m //= d
    return (*out, m) if m > 1 else tuple(out)


def _unit_action(m: int, n: int, b: int) -> int:
    """b modulo m, once b^n = 1 (mod m) for an n >= 1, which makes b a unit;
    InvalidAction otherwise."""
    b %= m
    # 1 % m, not 1: modulo m = 1 every residue is 0
    if pow(b, n, m) != 1 % m:
        raise InvalidAction(f"b={b} must be a unit modulo {m} with b^{n} = 1 (mod {m})")
    return b


def _respects(G: FiniteGroup, maps: np.ndarray) -> np.ndarray:
    """Whether each row phi of ``maps`` (images of 0..n-1 in G) respects G's
    table on G.gens: phi(x g) = phi(x) phi(g) for every x, which covers every
    g, as the g for which it holds are closed under products."""
    T, ok = G.table, np.ones(len(maps), dtype=bool)
    for g in G.gens:
        ok &= (maps[:, T[:, g]] == T[maps, maps[:, g, None]]).all(axis=1)
    return ok


def is_automorphism(G: FiniteGroup, perm) -> bool:
    """True iff ``perm``, the images of 0..n-1, is a bijection that respects
    the table of G; an image that is not an integer (a float, a bool) is not."""
    ok = _first_non_integer(perm) is None and sorted(perm) == list(range(G.order))
    return ok and bool(_respects(G, np.asarray(perm, dtype=np.int64)[None])[0])
