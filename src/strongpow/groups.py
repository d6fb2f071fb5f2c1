"""Finite groups with elements indexed 0..n-1, of order at most
MAX_TABLE_ORDER.

Z_n is addition mod n and stores no table. Every other group stores one
n x n integer array, validated on construction and then made read-only.
This is the only module that reads that array: the power closures, element
orders, inverses and quotients the other modules need are computed here.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

MAX_TABLE_ORDER = 4096
# Holds every index below MAX_TABLE_ORDER: a table group's array, and the
# gathers that validate it, are a quarter of their int64 size.
_INDEX_DTYPE = np.int16


class GroupError(ValueError):
    """Base class for group construction and validation failures."""


class InvalidOrderError(GroupError):
    """Order is nonpositive or exceeds a representation bound."""


class NotLatinSquareError(GroupError):
    """Table is malformed or some row/column is not a permutation of 0..n-1."""


class NoIdentityError(GroupError):
    """No element acts as a two-sided identity."""


class NotAssociativeError(GroupError):
    """A triple (a, b, c) violates associativity."""


class MissingInverseError(GroupError):
    """Some element has no two-sided inverse."""


class GroupSpecError(ValueError):
    """A group spec string failed to parse; `pos` is the failing offset."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (position {pos})")
        self.pos = pos


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group on element indices 0..n-1.

    table is None for Z_n, whose operation is addition mod n; otherwise it
    is the read-only n x n int16 array with table[a, b] = a * b. identity is
    the index of the neutral element. Groups compare and hash as objects.
    """

    n: int
    identity: int
    table: np.ndarray | None

    def op(self, a: int, b: int) -> int:
        if self.table is None:
            return (a + b) % self.n
        return int(self.table[a, b])

    def inverse(self, x: int) -> int:
        if self.table is None:
            return (-x) % self.n
        # validation leaves one identity entry per row, at a two-sided inverse
        return int(np.argmax(self.table[x] == self.identity))

    def elements(self) -> range:
        return range(self.n)


def make_cyclic(n: int) -> FiniteGroup:
    """Cyclic group Z_n under addition mod n, for 1 <= n <= MAX_TABLE_ORDER."""
    if n < 1:
        raise InvalidOrderError(f"cyclic group order must be >= 1, got {n}")
    if n > MAX_TABLE_ORDER:
        raise InvalidOrderError(f"cyclic order {n} exceeds bound {MAX_TABLE_ORDER}")
    return FiniteGroup(n=n, identity=0, table=None)


def _check_latin(t: np.ndarray, n: int) -> None:
    full = np.arange(n, dtype=t.dtype)
    rows = np.flatnonzero((np.sort(t, axis=1) != full).any(axis=1))
    if rows.size:
        raise NotLatinSquareError(f"row {rows[0]} is not a permutation of 0..{n - 1}")
    cols = np.flatnonzero((np.sort(t, axis=0) != full[:, None]).any(axis=0))
    if cols.size:
        raise NotLatinSquareError(f"column {cols[0]} is not a permutation of 0..{n - 1}")


def _find_identity(t: np.ndarray, n: int) -> int:
    full = np.arange(n)
    found = np.flatnonzero((t == full).all(axis=1) & (t == full[:, None]).all(axis=0))
    if not found.size:
        raise NoIdentityError("no two-sided identity element")
    return int(found[0])


def _check_inverses(t: np.ndarray, n: int, e: int) -> None:
    left = t == e
    bad = np.flatnonzero(~(left & left.T).any(axis=1))
    if bad.size:
        raise MissingInverseError(f"element {bad[0]} has no two-sided inverse")


def _check_associativity(t: np.ndarray, n: int, e: int) -> None:
    """Light's associativity test over a generating set built greedily.

    Call it after the Latin-square and identity checks. The elements b with
    (ab)c = a(bc) for all a, c are closed under products: for two such b, b',
    (a(bb'))c = ((ab)b')c = (ab)(b'c) = a(b(b'c)) = a((bb')c). The identity
    is one of them, so every element reached from it by right products with
    checked generators is one too, and once those cover the table every b
    passes. Each generator is the least element not yet reached, and it is
    checked before it is used. The reached set is then a subgroup whose left
    cosets split the table into equal parts, so each new generator at least
    doubles it and at most log2(n) generators are checked, O(n^2) each.
    """
    reached = np.zeros(n, dtype=bool)
    reached[e] = True
    gens: list[int] = []
    while not reached.all():
        b = int(np.argmin(reached))
        # [a, c] holds (a*b)*c on the left and a*(b*c) on the right
        bad = t[t[:, b]] != t[:, t[b]]
        if bad.any():
            a, c = (int(i) for i in np.argwhere(bad)[0])
            raise NotAssociativeError(f"(a*b)*c != a*(b*c) for a={a}, b={b}, c={c}")
        gens.append(b)
        frontier = np.flatnonzero(reached)
        while frontier.size:
            hit = np.zeros(n, dtype=bool)
            hit[t[np.ix_(frontier, gens)]] = True
            frontier = np.flatnonzero(hit & ~reached)
            reached |= hit


def _integer_row(row, i: int) -> np.ndarray:
    """Row i of a table as a flat integer array, of dtype object when an
    entry is past the machine range; an entry that is not an integer, such
    as a float, a string or a list, raises NotLatinSquareError naming the
    row and the entry."""
    a = np.asarray(row)
    if a.ndim == 1 and a.dtype.kind in "iu":
        return a
    values = row.tolist() if isinstance(row, np.ndarray) else list(row)
    for v in values:
        if not isinstance(v, (int, np.integer)):
            raise NotLatinSquareError(f"row {i} has non-integer entry {v!r}")
    return np.array([int(v) for v in values], dtype=object)


def make_from_table(table) -> FiniteGroup:
    """Group from an explicit n x n multiplication table, given as rows of
    integers or as an array; the group keeps a read-only copy of it.

    Validates: integer entries in 0..n-1, rows of length n, Latin square,
    two-sided identity, two-sided inverses, and associativity, exactly at
    every order (Light's test over a generating set, see
    _check_associativity). Rows are read one at a time, so a ragged row, a
    float or string entry, or an entry past the machine integer range is
    reported by name rather than truncated, parsed or raised by numpy.
    """
    rows = list(table)
    n = len(rows)
    if n < 1:
        raise InvalidOrderError("table must have at least one row")
    if n > MAX_TABLE_ORDER:
        raise InvalidOrderError(f"table order {n} exceeds bound {MAX_TABLE_ORDER}")
    for i, row in enumerate(rows):
        row = _integer_row(row, i)
        bad = np.flatnonzero((row < 0) | (row >= n))
        if bad.size:
            raise NotLatinSquareError(f"row {i} has out-of-range entry {row[bad[0]]}")
        rows[i] = row.astype(_INDEX_DTYPE)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise NotLatinSquareError(f"row {i} has length {len(row)}, expected {n}")
    t = np.array(rows, dtype=_INDEX_DTYPE)
    del rows  # free the row copies before the validating gathers
    _check_latin(t, n)
    e = _find_identity(t, n)
    _check_inverses(t, n, e)
    _check_associativity(t, n, e)
    t.flags.writeable = False
    return FiniteGroup(n=n, identity=e, table=t)


def make_klein() -> FiniteGroup:
    """Klein four-group: xor on {0, 1, 2, 3}."""
    return make_from_table(tuple(tuple(a ^ b for b in range(4)) for a in range(4)))


def make_dihedral(k: int) -> FiniteGroup:
    """Dihedral group of order 2k: indices 0..k-1 are rotations r^i,
    k..2k-1 are reflections s*r^i."""
    if k < 1:
        raise InvalidOrderError(f"dihedral parameter must be >= 1, got {k}")
    if 2 * k > MAX_TABLE_ORDER:
        raise InvalidOrderError(f"dihedral order {2 * k} exceeds bound {MAX_TABLE_ORDER}")
    # r^i * r^j = r^(i+j), r^i * s*r^j = s*r^(j-i), s*r^i * r^j = s*r^(i+j)
    # and s*r^i * s*r^j = r^(j-i): b's rotation counts against a's when b is
    # a reflection, and the product is a reflection when exactly one is.
    r = np.arange(2 * k, dtype=_INDEX_DTYPE) % k
    s = np.arange(2 * k) >= k
    table = np.where(s[None, :], r[None, :] - r[:, None], r[:, None] + r[None, :]) % k
    table[s[:, None] ^ s[None, :]] += k
    return make_from_table(table)


def _table_array(g: FiniteGroup) -> np.ndarray:
    """The n x n multiplication table of g, built for Z_n."""
    if g.table is None:
        return np.add.outer(np.arange(g.n), np.arange(g.n)) % g.n
    return g.table


def make_direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Direct product; element (x, y) is packed as x * b.n + y."""
    n = a.n * b.n
    if n > MAX_TABLE_ORDER:
        raise InvalidOrderError(f"product order {n} exceeds bound {MAX_TABLE_ORDER}")
    # [xa, xb, ya, yb] holds (xa * ya) * b.n + (xb * yb)
    ta, tb = _table_array(a), _table_array(b)
    table = ta[:, None, :, None] * b.n + tb[None, :, None, :]
    return make_from_table(table.reshape(n, n))


def make_symmetric(k: int) -> FiniteGroup:
    """Symmetric group S_k for k in [1, 5]; elements are the permutations of
    range(k) in lexicographic order, composed right-to-left."""
    if not 1 <= k <= 5:
        raise InvalidOrderError(f"symmetric group parameter must be in [1, 5], got {k}")
    perms = np.array(list(itertools.permutations(range(k))))
    # perms[:, perms][p, q, i] is p[q[i]]; read as base-k numbers the
    # permutations are sorted, so searchsorted finds each product's index
    weights = k ** np.arange(k - 1, -1, -1)
    return make_from_table(np.searchsorted(perms @ weights, perms[:, perms] @ weights))


def element_order(g: FiniteGroup, x: int) -> int:
    """Least m >= 1 with x^m = identity."""
    if not 0 <= x < g.n:
        raise ValueError(f"element index {x} out of range for order {g.n}")
    if g.table is None:
        return g.n // math.gcd(g.n, x)
    times_x = g.table[:, x].tolist()
    y = x
    m = 1
    while y != g.identity:
        y = times_x[y]
        m += 1
    return m


def is_cyclic(g: FiniteGroup) -> bool:
    """True when some element generates the whole group, that is when some
    element's power closure is every element but the identity."""
    if g.table is None:
        return True
    return ((1 << g.n) - 1) ^ (1 << g.identity) in _closure_classes(g)


@functools.lru_cache(maxsize=1)
def _closure_classes(g: FiniteGroup) -> dict[int, int]:
    """Each power-closure mask, the bitmask of x^1, ..., x^(n-1), mapped to
    the bitmask of the elements that have it. The closure of x is <x>, less
    the identity when x generates the whole group. In Z_n, <x> is the
    multiples of gcd(x, n); a table group walks the powers of all its
    elements at once. Equal closures are found by their packed bytes. The
    last group's result is cached for is_cyclic and strong_power_graph to
    share (groups hash by identity); callers must not change it."""
    n = g.n
    ar = np.arange(n)
    hit = np.zeros((n, n), dtype=bool)  # hit[x, y]: y is one of x^1, ..., x^(n-1)
    if g.table is None:
        gcds = np.gcd(ar, n)
        for d in set(gcds.tolist()):
            hit[gcds == d] = ar % d == 0
        hit[gcds == 1, 0] = False  # a generator's powers stop short of x^n = e
    else:
        xs = ys = ar  # the elements still walking and their powers x^m
        for _ in range(n - 1):
            hit[xs, ys] = True
            live = ys != g.identity  # once x^m = e, the powers of x repeat
            if not live.any():
                break
            xs = xs[live]
            ys = g.table[ys[live], xs]
    members: dict[bytes, list[int]] = {}
    for x, row in enumerate(np.packbits(hit, axis=1, bitorder="little")):
        members.setdefault(row.tobytes(), []).append(x)
    return {
        int.from_bytes(key, "little"): sum(1 << x for x in elements)
        for key, elements in members.items()
    }


def _quotient_table(g: FiniteGroup) -> np.ndarray:
    """The n x n array whose [x, y] entry is x * y^(-1)."""
    t = _table_array(g)
    inverses = np.argmax(t == g.identity, axis=1)
    return t[:, inverses]


def load_cayley_table_csv(path: str) -> FiniteGroup:
    """Read an n x n multiplication table from CSV (n rows of n integers)."""
    rows = []
    with open(path, newline="") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(tuple(int(cell) for cell in line.split(",")))
            except ValueError as exc:
                raise NotLatinSquareError(f"non-integer cell in {path}: {exc}") from exc
    return make_from_table(tuple(rows))


def parse_group_spec(text: str) -> FiniteGroup:
    """Parse a group spec string.

    Grammar: zn:<n> | klein | dihedral:<k> | sym:<k> | product:<spec>+<spec>
    | table:<path>. A table: form consumes the rest of the string, so inside
    a product it can only appear as the final operand.
    """
    g, pos = _parse_spec(text, 0)
    if pos != len(text):
        raise GroupSpecError(f"trailing text {text[pos:]!r}", pos)
    return g


def _parse_int(text: str, pos: int) -> tuple[int, int]:
    end = pos
    while end < len(text) and text[end].isdigit():
        end += 1
    if end == pos:
        raise GroupSpecError("expected an integer", pos)
    return int(text[pos:end]), end


def _parse_spec(text: str, pos: int) -> tuple[FiniteGroup, int]:
    if text.startswith("zn:", pos):
        n, pos = _parse_int(text, pos + 3)
        return make_cyclic(n), pos
    if text.startswith("klein", pos):
        return make_klein(), pos + 5
    if text.startswith("dihedral:", pos):
        k, pos = _parse_int(text, pos + 9)
        return make_dihedral(k), pos
    if text.startswith("sym:", pos):
        k, pos = _parse_int(text, pos + 4)
        return make_symmetric(k), pos
    if text.startswith("product:", pos):
        a, pos = _parse_spec(text, pos + 8)
        if pos >= len(text) or text[pos] != "+":
            raise GroupSpecError("expected '+' between product operands", pos)
        b, pos = _parse_spec(text, pos + 1)
        return make_direct_product(a, b), pos
    if text.startswith("table:", pos):
        path = text[pos + 6 :]
        if not path:
            raise GroupSpecError("expected a file path after 'table:'", pos + 6)
        return load_cayley_table_csv(path), len(text)
    raise GroupSpecError(f"unrecognized group spec {text[pos:]!r}", pos)


# Noncyclic groups used throughout the verification suites, keyed by the spec
# string that rebuilds them. Orders cover 4..24.
_CORPUS_SPECS = (
    "klein",
    "dihedral:3",
    "dihedral:4",
    "product:zn:2+zn:4",
    "product:zn:2+product:zn:2+zn:2",
    "product:zn:3+zn:3",
    "dihedral:5",
    "dihedral:6",
    "product:zn:2+zn:6",
    "dihedral:7",
    "product:zn:4+zn:4",
    "product:zn:2+zn:8",
    "dihedral:9",
    "product:zn:3+zn:6",
    "product:zn:2+zn:10",
    "dihedral:11",
    "sym:4",
    "product:zn:2+zn:12",
)


def noncyclic_corpus(max_order: int = 24) -> list[tuple[str, FiniteGroup]]:
    """The standard noncyclic test corpus: (spec string, group) pairs sorted
    by order, restricted to orders <= max_order."""
    groups = [(spec, parse_group_spec(spec)) for spec in _CORPUS_SPECS]
    groups = [(s, g) for s, g in groups if g.n <= max_order]
    groups.sort(key=lambda item: (item[1].n, item[0]))
    return groups
