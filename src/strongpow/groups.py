"""Finite groups with elements indexed 0..n-1, of order at most
MAX_TABLE_ORDER.

Z_n is addition mod n and stores no table. Every other group stores its
table as a tuple of n rows, each a tuple of n ints, validated on
construction. All the entries are the int objects of one shared
tuple(range(n)), so a row costs one pointer per entry. This is the only
module that reads the table: the power closures, element orders and
inverses the other modules need are computed here.
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import index, itemgetter

from .formulas import _Frozen

MAX_TABLE_ORDER = 4096


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


Table = tuple[tuple[int, ...], ...]


class FiniteGroup(_Frozen):
    """A finite group on element indices 0..n-1.

    table is None for Z_n, whose operation is addition mod n; otherwise it
    holds the rows of the table, table[a][b] = a * b. identity is the index
    of the neutral element. Groups compare and hash as objects.
    """

    __slots__ = ("n", "identity", "table")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, n: int, identity: int, table: Table | None):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "table", table)

    def op(self, a: int, b: int) -> int:
        if self.table is None:
            return (a + b) % self.n
        return self.table[a][b]

    def inverse(self, x: int) -> int:
        if self.table is None:
            return (-x) % self.n
        # validation leaves one identity entry per row, at a two-sided inverse
        return self.table[x].index(self.identity)

    def elements(self) -> range:
        return range(self.n)


def make_cyclic(n: int) -> FiniteGroup:
    """Cyclic group Z_n under addition mod n, for 1 <= n <= MAX_TABLE_ORDER."""
    if n < 1:
        raise InvalidOrderError(f"cyclic group order must be >= 1, got {n}")
    if n > MAX_TABLE_ORDER:
        raise InvalidOrderError(f"cyclic order {n} exceeds bound {MAX_TABLE_ORDER}")
    return FiniteGroup(n=n, identity=0, table=None)


def _mask(indices) -> int:
    """The bitmask with the given bits set."""
    indices = list(indices)
    bits = bytearray(max(indices, default=-1) // 8 + 1)
    for i in indices:
        bits[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(bits, "little")


def _gather(seq: tuple, indices: tuple) -> tuple:
    """seq[i] for each i in indices, in C: itemgetter gives a bare item
    for one index, so that case is read apart."""
    return itemgetter(*indices)(seq) if len(indices) > 1 else tuple(seq[i] for i in indices)


def _table_values(row, i: int) -> tuple:
    """Row i of a table as a tuple; an array's row gives its Python values."""
    try:
        return tuple(row.tolist() if hasattr(row, "tolist") else row)
    except TypeError:
        raise NotLatinSquareError(f"row {i} is {row!r}, not a sequence of integers") from None


def _table_rows(table) -> Table:
    """The rows of a table, each entry replaced by the int of tuple(range(n))
    that equals it. Each row is replaced as soon as it passes, so rows that
    only the table holds are freed one at a time. A table that any check
    below fails is passed to _first_entry_error, which names its first bad
    entry, row length or row in that order."""
    rows = list(table)
    n = len(rows)
    if n < 1:
        raise InvalidOrderError("table must have at least one row")
    if n > MAX_TABLE_ORDER:
        raise InvalidOrderError(f"table order {n} exceeds bound {MAX_TABLE_ORDER}")
    rows = [_table_values(row, i) for i, row in enumerate(rows)]
    full = tuple(range(n))
    total = n * (n - 1) // 2
    try:
        # indexing full refuses a non-integer and an entry >= n, and turns an
        # entry -n <= v < 0 into v + n; a row is then a permutation exactly
        # when its entries are n distinct residues and sum to 0 + ... + n-1
        for i, row in enumerate(rows):
            shared = _gather(full, row)
            if not len(shared) == n == len(set(shared)) or sum(row) != total:
                break
            rows[i] = shared
        else:
            return tuple(rows)
    except (TypeError, IndexError):
        pass
    _first_entry_error(rows, n)
    raise AssertionError("a table that failed its row checks passed them")


def _first_entry_error(rows: list[tuple], n: int) -> None:
    """Raise NotLatinSquareError for the first failure among: a non-integer
    entry, an entry outside 0..n-1 (each row in turn), a row of the wrong
    length, and a row that is not a permutation of 0..n-1."""
    for i, row in enumerate(rows):
        for v in row:
            try:
                index(v)
            except TypeError:
                raise NotLatinSquareError(f"row {i} has non-integer entry {v!r}") from None
        for v in row:
            if not 0 <= v < n:
                raise NotLatinSquareError(f"row {i} has out-of-range entry {index(v)}")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise NotLatinSquareError(f"row {i} has length {len(row)}, expected {n}")
    for i, row in enumerate(rows):
        if len(set(row)) != n:
            raise NotLatinSquareError(f"row {i} is not a permutation of 0..{n - 1}")


def _check_columns(t: Table, n: int) -> None:
    """Raise NotLatinSquareError naming the first column that is not a
    permutation of 0..n-1; the columns are read in blocks of 256."""
    for lo in range(0, n, 256):
        for j, col in enumerate(zip(*(row[lo:lo + 256] for row in t)), lo):
            if len(set(col)) != n:
                raise NotLatinSquareError(f"column {j} is not a permutation of 0..{n - 1}")


def _find_identity(t: Table, n: int) -> int:
    full = tuple(range(n))
    for e in range(n):
        if t[e] == full and all(row[e] == x for x, row in enumerate(t)):
            return e
    raise NoIdentityError("no two-sided identity element")


def _check_inverses(t: Table, n: int, e: int) -> None:
    # each row holds e once, at x's one candidate for a two-sided inverse
    for x, row in enumerate(t):
        if t[row.index(e)][x] != e:
            raise MissingInverseError(f"element {x} has no two-sided inverse")


def _check_associativity(t: Table, n: int, e: int) -> None:
    """Light's associativity test over a generating set built greedily.

    Call it after the identity check. The elements b with
    (ab)c = a(bc) for all a, c are closed under products: for two such b, b',
    (a(bb'))c = ((ab)b')c = (ab)(b'c) = a(b(b'c)) = a((bb')c). The identity
    is one of them, so every element reached from it by right products with
    checked generators is one too, and once those cover the table every b
    passes. Each generator is the least element not yet reached, and it is
    checked before it is used. In a group the reached set is a subgroup
    whose left cosets split the table into equal parts, so each new
    generator at least doubles it and at most log2(n) generators are
    checked, O(n^2) each.
    """
    reached = bytearray(n)
    reached[e] = 1
    gens: list[int] = []
    left = n - 1
    while left:
        b = reached.index(0)
        # a*(b*c) for all c, read off row a through row b; n > 1 here
        through_b = itemgetter(*t[b])
        for a, row in enumerate(t):
            if through_b(row) != t[row[b]]:
                c = next(c for c in range(n) if t[row[b]][c] != row[t[b][c]])
                raise NotAssociativeError(f"(a*b)*c != a*(b*c) for a={a}, b={b}, c={c}")
        gens.append(b)
        frontier = [x for x in range(n) if reached[x]]
        while frontier:
            found = []
            for x in frontier:
                row = t[x]
                for g in gens:
                    y = row[g]
                    if not reached[y]:
                        reached[y] = 1
                        found.append(y)
            left -= len(found)
            frontier = found


def make_from_table(table) -> FiniteGroup:
    """Group from an explicit n x n multiplication table, given as rows of
    integers (an array's rows are read as lists); the group keeps its own
    copy of it, as a tuple of rows.

    Validates: integer entries in 0..n-1, rows of length n, Latin square,
    two-sided identity, two-sided inverses, and associativity, exactly at
    every order (Light's test over a generating set, see
    _check_associativity). A ragged row, a float or string entry, or an
    entry past the machine integer range is reported by name. A table that
    passes every other check is a group, and a group cancels on the right,
    so its columns are permutations: they are read only to name a failure
    in the order above.
    """
    t = _table_rows(table)
    n = len(t)
    try:
        e = _find_identity(t, n)
        _check_inverses(t, n, e)
        _check_associativity(t, n, e)
    except GroupError:
        _check_columns(t, n)
        raise
    return FiniteGroup(n=n, identity=e, table=t)


def make_klein() -> FiniteGroup:
    """Klein four-group: xor on {0, 1, 2, 3}."""
    return make_from_table(tuple(tuple(a ^ b for b in range(4)) for a in range(4)))


def _rotated(full: tuple, lo: int, hi: int, shift: int) -> tuple:
    """full[lo:hi] rotated left by shift."""
    cut = lo + shift % (hi - lo)
    return full[cut:hi] + full[lo:cut]


def make_dihedral(k: int) -> FiniteGroup:
    """Dihedral group of order 2k: indices 0..k-1 are rotations r^i,
    k..2k-1 are reflections s*r^i."""
    if k < 1:
        raise InvalidOrderError(f"dihedral parameter must be >= 1, got {k}")
    if 2 * k > MAX_TABLE_ORDER:
        raise InvalidOrderError(f"dihedral order {2 * k} exceeds bound {MAX_TABLE_ORDER}")
    # r^i * r^j = r^(i+j), r^i * s*r^j = s*r^(j-i), s*r^i * r^j = s*r^(i+j)
    # and s*r^i * s*r^j = r^(j-i): each half of a row is a rotation of the
    # rotations or of the reflections.
    full = tuple(range(2 * k))
    rot = (_rotated(full, 0, k, i) + _rotated(full, k, 2 * k, -i) for i in range(k))
    ref = (_rotated(full, k, 2 * k, i) + _rotated(full, 0, k, -i) for i in range(k))
    return make_from_table(itertools.chain(rot, ref))


def _rows_of(g: FiniteGroup) -> Table:
    """The rows of g's multiplication table, built for Z_n."""
    if g.table is None:
        full = tuple(range(g.n))
        return tuple(_rotated(full, 0, g.n, x) for x in full)
    return g.table


def make_direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Direct product; element (x, y) is packed as x * b.n + y."""
    n = a.n * b.n
    if n > MAX_TABLE_ORDER:
        raise InvalidOrderError(f"product order {n} exceeds bound {MAX_TABLE_ORDER}")
    # Row (xa, xb) holds (xa * ya) * b.n + (xb * yb) at column ya * b.n + yb.
    # With through_b[xb][z * b.n + yb] = z * b.n + xb * yb and
    # through_a[ya * b.n + yb] = (xa * ya) * b.n + yb, it is through_b[xb]
    # read at through_a.
    full = tuple(range(n))
    blocks = [full[z * b.n:(z + 1) * b.n] for z in range(a.n)]
    through_b = [tuple(itertools.chain.from_iterable(_gather(block, row_b) for block in blocks))
                 for row_b in _rows_of(b)]
    through_a = (tuple(itertools.chain.from_iterable(_gather(blocks, row_a)))
                 for row_a in _rows_of(a))
    return make_from_table(_gather(row, ta) for ta in through_a for row in through_b)


def make_symmetric(k: int) -> FiniteGroup:
    """Symmetric group S_k for k in [1, 5]; elements are the permutations of
    range(k) in lexicographic order, composed right-to-left."""
    if not 1 <= k <= 5:
        raise InvalidOrderError(f"symmetric group parameter must be in [1, 5], got {k}")
    perms = list(itertools.permutations(range(k)))
    position = {p: i for i, p in enumerate(perms)}
    # the product p*q maps i to p[q[i]]
    return make_from_table([[position[tuple(p[j] for j in q)] for q in perms] for p in perms])


def element_order(g: FiniteGroup, x: int) -> int:
    """Least m >= 1 with x^m = identity."""
    if not 0 <= x < g.n:
        raise ValueError(f"element index {x} out of range for order {g.n}")
    if g.table is None:
        return g.n // math.gcd(g.n, x)
    y = x
    m = 1
    while y != g.identity:
        y = g.table[y][x]
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
    the identity when x generates the whole group. Each cyclic subgroup is
    walked once, from its least element x: its generators x^k, gcd(k, m) = 1
    for m the order of x, share x's closure, and no other element has it.
    The classes come in the order of their least elements. The last group's
    result is cached for is_cyclic and strong_power_graph to share (groups
    hash by identity); callers must not change it."""
    n = g.n
    done = bytearray(n)
    classes: dict[int, int] = {}
    for x in range(n):
        if done[x]:
            continue
        powers = [x]  # x^1, ..., x^m = e
        while powers[-1] != g.identity:
            powers.append(g.op(powers[-1], x))
        m = len(powers)
        closure = _mask(powers) ^ (1 << g.identity if m == n else 0)
        generators = [powers[k - 1] for k in range(1, m + 1) if math.gcd(k, m) == 1]
        for y in generators:
            done[y] = 1
        classes[closure] = _mask(generators)
    return classes


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
    # ASCII digits only: int() rejects superscripts but reads other
    # scripts' decimal digits, which the spec would then echo
    while end < len(text) and "0" <= text[end] <= "9":
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
