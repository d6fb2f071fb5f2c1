"""Laplacian and adjacency assembly, and the spectral oracles: exact
characteristic polynomials, spanning-tree counts read off them, and the
numeric eigensolver. Their closed-form counterparts live in `formulas`, and
the verify harness compares the two; neither is substituted for the other.
"""

from __future__ import annotations

import functools
import math
import struct
from itertools import chain, compress, repeat
from operator import index

from .errors import SizeGuardError
from .formulas import CharPoly
from .graphs import _BLOCK_ROWS, Graph, _bit_bytes

CHAR_POLY_LIMIT = 256


class IntMatrix:
    """Square integer matrix, held as `rows`: a tuple of n rows, each a
    tuple of n Python ints, so every entry is exact whatever its size.
    Equality and hash go by value."""

    __slots__ = ("rows", "_symmetric", "_hash")

    def __init__(self, rows):
        rows = tuple(tuple(map(index, row)) for row in rows)
        for i, row in enumerate(rows):
            if len(row) != len(rows):
                raise ValueError(
                    f"expected a square matrix, got row {i} of length {len(row)} "
                    f"in {len(rows)} rows")
        self.rows, self._symmetric, self._hash = rows, None, None

    @classmethod
    def _of(cls, rows: tuple[tuple[int, ...], ...], symmetric: bool | None = None):
        """A matrix on rows that are already square tuples of ints."""
        m = cls.__new__(cls)
        m.rows, m._symmetric, m._hash = rows, symmetric, None
        return m

    @property
    def n(self) -> int:
        return len(self.rows)

    def trace(self) -> int:
        return sum(row[i] for i, row in enumerate(self.rows))

    def is_symmetric(self) -> bool:
        if self._symmetric is None:
            # zip(*rows) yields the columns one at a time
            self._symmetric = all(map(tuple.__eq__, self.rows, zip(*self.rows)))
        return self._symmetric

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        # the memos hash a matrix on every lookup
        if self._hash is None:
            self._hash = hash(self.rows)
        return self._hash

    def __repr__(self) -> str:
        return f"IntMatrix({list(map(list, self.rows))!r})"


def twin_classes(m: IntMatrix) -> list[list[int]]:
    """The indices split into classes of twins, each class ascending and
    the classes in the order of their least index. Indices i and j are twins
    when M_ii = M_jj, M_ij = M_ji, and their rows and their columns agree
    outside {i, j}. Twinship is an equivalence, and a class holds one value
    c_aa off its diagonal and one value c_ab towards each other class b
    (an equitable partition). Any partition into classes of twins, all
    singletons included, gives the exact char poly and permanent."""
    rows = m.rows
    # the columns matter only where they are not the rows
    lines = (rows,) if m.is_symmetric() else (rows, tuple(zip(*rows)))
    # Twins share their diagonal entry, and each one's row (and column) is
    # the other's with two entries swapped, so their sorted rows and sorted
    # columns agree: group by those first.
    coarse: dict[tuple, list[int]] = {}
    for i, row in enumerate(rows):
        key = (row[i], *(tuple(sorted(line[i])) for line in lines))
        coarse.setdefault(key, []).append(i)
    classes = []
    for group in coarse.values():
        # i and j are twins with M_ij = v exactly when their rows, and their
        # columns, are equal once both diagonal entries are set to v; v is
        # in row i, and so in every row of the group
        left = group
        for v in sorted(set(rows[group[0]])):
            if len(left) < 2:
                break
            fine: dict[tuple, list[int]] = {}
            for i in left:
                key = tuple(line[i][:i] + (v,) + line[i][i + 1:] for line in lines)
                fine.setdefault(key, []).append(i)
            classes += [f for f in fine.values() if len(f) > 1]
            left = [f[0] for f in fine.values() if len(f) == 1]
        classes += [[i] for i in left]
    return sorted(classes)


def _twin_quotient(m: IntMatrix, classes: list[list[int]]):
    """(sizes, c, diag) for a partition of m's indices into classes of
    twins: the class sizes m_a; the k x k list c of the value each class a
    holds towards class b, with c_aa its value off the diagonal (for a
    singleton, its diagonal entry); and each class's diagonal entry M_ii.
    Eigenvectors that sum to zero on one class have the eigenvalue
    d_a = M_ii - c_aa (m_a - 1 of them per class), and class-constant
    vectors see the quotient c_ab m_b, whose diagonal is
    M_ii + c_aa (m_a - 1)."""
    rows = m.rows
    firsts = [cls[0] for cls in classes]
    c = [[rows[i][j] for j in firsts] for i in firsts]
    for a, cls in enumerate(classes):
        c[a][a] = rows[cls[0]][cls[-1]]
    return [len(cls) for cls in classes], c, [rows[i][i] for i in firsts]


# Byte 1 to byte 255, which reads as -1 when signed.
_NEGATED = bytes.maketrans(b"\x01", b"\xff")


def laplacian(graph: Graph) -> IntMatrix:
    """L = D - A; rows sum to zero."""
    n = graph.n
    rows = []
    for v, mask in enumerate(graph.adj):
        row = memoryview(_bit_bytes(mask, n).translate(_NEGATED)).cast("b").tolist()
        row[v] = mask.bit_count()
        rows.append(tuple(row))
    return IntMatrix._of(tuple(rows), symmetric=True)


def adjacency(graph: Graph) -> IntMatrix:
    n = graph.n
    return IntMatrix._of(tuple(tuple(_bit_bytes(mask, n)) for mask in graph.adj), symmetric=True)


# --- exact characteristic polynomial -------------------------------------

# The quotient's polynomial takes O(k^4) Python integer products for k twin
# classes: about 0.2 s at this bound, 2.4 s at 64 (2-vCPU host).
TWIN_CLASS_LIMIT = 32


def char_poly_exact(m: IntMatrix) -> CharPoly:
    """Monic characteristic polynomial det(xI - M) with exact integer
    coefficients, evaluated over the twin classes of M (see twin_classes).
    Bounded at order 256, where the polynomial already takes about 93 KB
    of text, and at TWIN_CLASS_LIMIT twin classes. Results are memoized
    per process on the matrix entries."""
    n = m.n
    if n > CHAR_POLY_LIMIT:
        raise SizeGuardError(
            f"char_poly_exact is bounded at order {CHAR_POLY_LIMIT}, got {n}"
        )
    return _char_poly(m)


@functools.lru_cache(maxsize=8)
def _char_poly(m: IntMatrix) -> CharPoly:
    """The factors of _twin_factors, multiplied out."""
    if m.n == 0:
        return CharPoly((1,))
    shifts, coeffs = _twin_factors(m)
    for d, e in shifts:
        for _ in range(e):
            # times (x - d), one small factor at a time
            coeffs = [a - d * b for a, b in zip([0, *coeffs], [*coeffs, 0])]
    assert coeffs[-1] == 1, "leading coefficient must be 1 for a monic result"
    return CharPoly(tuple(coeffs))


@functools.lru_cache(maxsize=8)
def _twin_factors(m: IntMatrix) -> tuple[list[tuple[int, int]], list[int]]:
    """The characteristic polynomial factored over twin classes (see
    _twin_quotient): det(xI - M) = prod_a (x - d_a)^(m_a - 1) * det(xI - Q),
    where Q is the quotient and d_a = M_ii - c_aa (Godsil & Royle, Algebraic
    Graph Theory, 9.3). Returns the pairs (d_a, m_a - 1) and the ascending
    coefficients of det(xI - Q). With every class a singleton, Q is M and
    the product is empty. The quotient is bounded at TWIN_CLASS_LIMIT
    classes, for char_poly_exact and spanning_tree_count_kirchhoff alike."""
    classes = twin_classes(m)
    if len(classes) > TWIN_CLASS_LIMIT:
        raise SizeGuardError(
            f"the exact char poly is bounded at {TWIN_CLASS_LIMIT} twin classes, "
            f"got {len(classes)}"
        )
    sizes, c, diag = _twin_quotient(m, classes)
    q = [[c_ab * size for c_ab, size in zip(row, sizes)] for row in c]
    shifts = []
    for a, (m_ii, size) in enumerate(zip(diag, sizes)):
        c_aa = c[a][a]
        q[a][a] = m_ii + c_aa * (size - 1)
        shifts.append((m_ii - c_aa, size - 1))
    return shifts, _char_poly_faddeev(q)


def _char_poly_faddeev(a: list[list[int]]) -> list[int]:
    """Ascending coefficients c_j of det(xI - A) by Faddeev-LeVerrier, in
    Python integers: M_1 = I, c_(n-k) = -tr(A M_k) / k and
    M_(k+1) = A M_k + c_(n-k) I. Each M_k is an integer combination of
    powers of A and each c_j an integer, so every division is exact."""
    n = len(a)
    coeffs = [0] * n + [1]
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        cols = list(zip(*m))
        m = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]
        trace = sum(m[i][i] for i in range(n))
        c, rest = divmod(-trace, k)
        assert rest == 0, f"trace {trace} of A M_{k} is not a multiple of {k}"
        coeffs[n - k] = c
        for i in range(n):
            m[i][i] += c
    return coeffs


def eigenvalues_numeric(m: IntMatrix) -> list[float]:
    """All eigenvalues of a symmetric integer matrix, ascending, via a dense
    symmetric eigensolver (LAPACK). The one use of numpy in the package,
    imported here, so that only the commands that call this load it."""
    import numpy as np

    if not m.is_symmetric():
        raise ValueError("eigenvalues_numeric requires a symmetric matrix")
    n = m.n
    if n == 0:
        return []
    # each row packed as n doubles straight into a C-order float64 array
    a = np.empty((n, n), dtype=np.float64)
    pack_row, out = struct.Struct(f"{n}d").pack_into, memoryview(a).cast("B")
    for i, row in enumerate(m.rows):
        pack_row(out, 8 * n * i, *row)
    return np.linalg.eigvalsh(a).tolist()


def spanning_tree_count_kirchhoff(lap: IntMatrix) -> int:
    """Spanning trees of a graph from its Laplacian L, by the all-minors
    matrix-tree theorem: the coefficient of x in det(xI - L) is (-1)^(n-1)
    times the sum of the n principal (n-1)-minors of L, each of which
    equals the count, so c_1 = (-1)^(n-1) n tau. c_1 is read off the
    memoized twin-class factors that char_poly_exact multiplies out, as the
    x-coefficient of det(xI - Q) times the constant terms of the others, so
    this is bounded by TWIN_CLASS_LIMIT twin classes, not by the order."""
    n = lap.n
    if n == 0:
        raise ValueError("spanning trees of the empty graph are undefined")
    if not lap.is_symmetric() or any(map(sum, lap.rows)):
        raise ValueError("expected a Laplacian: symmetric, with rows summing to zero")
    # the memo holds its matrices, so only those char_poly_exact can share
    # it for are kept
    factors = _twin_factors if n <= CHAR_POLY_LIMIT else _twin_factors.__wrapped__
    shifts, quotient = factors(lap)
    # Q's rows sum to zero as L's do, so det(xI - Q) vanishes at 0 and the
    # x-coefficient of the product is its own times prod_a (-d_a)^(m_a - 1)
    assert quotient[0] == 0, "the quotient of a Laplacian must be singular"
    c1 = quotient[1] * math.prod((-d) ** e for d, e in shifts)
    tau, rest = divmod((-1) ** (n - 1) * c1, n)
    assert rest == 0, f"x-coefficient {c1} of the Laplacian is not a multiple of {n}"
    return tau


# --- exports ---------------------------------------------------------------


def to_matrix_market(m: IntMatrix):
    """Yield Matrix Market coordinate text (integer field, 1-based indices)
    in chunks of rows; emits the lower triangle with the 'symmetric'
    qualifier when applicable."""
    rows, n = m.rows, m.n
    symmetric = m.is_symmetric()
    count = sum(n - row.count(0) for row in rows)
    if symmetric:
        # the lower triangle: the diagonal and half of the rest
        count = (count + sum(1 for i, row in enumerate(rows) if row[i])) // 2
    kind = "symmetric" if symmetric else "general"
    yield f"%%MatrixMarket matrix coordinate integer {kind}\n{n} {n} {count}\n"
    columns = range(1, n + 1)
    for lo in range(0, n, _BLOCK_ROWS):
        entries: list[int] = []
        for i in range(lo, min(lo + _BLOCK_ROWS, n)):
            row = rows[i][:i + 1] if symmetric else rows[i]
            # one "i j v" line per nonzero entry; %d writes an int as str() does
            entries += chain.from_iterable(zip(repeat(i + 1), compress(columns, row), compress(row, row)))
        yield "%d %d %d\n" * (len(entries) // 3) % tuple(entries)
