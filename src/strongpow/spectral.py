"""Laplacian and adjacency assembly, and the spectral oracles: exact
characteristic polynomials, spanning-tree counts read off them, and the
numeric eigensolver. Their closed-form counterparts live in `formulas`, and
the verify harness compares the two; neither is substituted for the other.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import SizeGuardError
from .formulas import CharPoly
from .graphs import _BLOCK_ROWS, Graph, _bit_matrix

CHAR_POLY_LIMIT = 256


class IntMatrix:
    """Square integer matrix in one read-only 2-D numpy array, `array`: int64
    when every entry is at most (2^63 - 1) // n in size, so that no row's
    absolute sum can overflow, else Python ints (dtype object). An array
    passed in becomes the matrix's own, and an object array keeps its dtype.
    Equality and hash go by value, whatever the dtype."""

    __slots__ = ("array",)

    def __init__(self, rows):
        given = isinstance(rows, np.ndarray)
        a = rows if given else np.array(rows, dtype=object)
        if len(a) == 0:
            a = a.reshape(0, 0)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not (given and a.dtype == object):
            limit = np.iinfo(np.int64).max // max(len(a), 1)
            fits = a.size == 0 or bool(a.min() >= -limit and a.max() <= limit)
            a = a.astype(np.int64 if fits else object, copy=False)
        a.flags.writeable = False
        self.array = a

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The entries as tuples of Python ints, for the reference oracles."""
        return tuple(map(tuple, self.array.tolist()))

    @property
    def n(self) -> int:
        return len(self.array)

    def trace(self) -> int:
        return int(self.array.trace())

    def is_symmetric(self) -> bool:
        return bool((self.array == self.array.T).all())

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and np.array_equal(self.array, other.array)

    def __hash__(self) -> int:
        a = self.array
        if a.dtype == object:
            try:
                a = a.astype(np.int64)
            except OverflowError:
                return hash(tuple(a.ravel().tolist()))
        return hash((a.shape, _narrowest(a).tobytes()))

    def __repr__(self) -> str:
        return f"IntMatrix({self.array.tolist()!r})"


def _narrowest(a: np.ndarray) -> np.ndarray:
    """An int64 array in the narrowest signed integer dtype that holds its
    entries, so equal values give equal bytes; a Laplacian of up to 32767
    vertices fits int16, a quarter of the bytes to sort, hash and compare."""
    lo, hi = (int(a.min()), int(a.max())) if a.size else (0, 0)
    for dtype in (np.int8, np.int16, np.int32):
        info = np.iinfo(dtype)
        if info.min <= lo and hi <= info.max:
            return a.astype(dtype)
    return a


def twin_classes(m: IntMatrix) -> list[list[int]]:
    """The indices split into classes of twins, each class ascending and
    the classes in the order of their least index. Indices i and j are twins
    when M_ii = M_jj, M_ij = M_ji, and their rows and their columns agree
    outside {i, j}. Twinship is an equivalence, and a class holds one value
    c_aa off its diagonal and one value c_ab towards each other class b
    (an equitable partition). Any partition into classes of twins, all
    singletons included, gives the exact char poly and permanent; an
    object array, whose entries have no fixed-width bytes, is left as
    singletons."""
    a = m.array
    n = len(a)
    if a.dtype == object:
        return [[i] for i in range(n)]
    a = _narrowest(a)
    # Twins share their diagonal entry, and each one's row (and column) is
    # the other's with two entries swapped, so their sorted rows and sorted
    # columns agree: group by those first.
    sorted_rows = np.sort(a, axis=1), np.sort(a.T, axis=1)
    coarse = _equal_rows(np.column_stack((a.diagonal(), *sorted_rows)), range(n))
    classes = []
    for group in coarse:
        # i and j are twins with M_ij = v exactly when their rows, and their
        # columns, are equal once both diagonal entries are set to v; v is
        # in row i, and so in every row of the group
        left = group
        for v in sorted(set(a[group[0]].tolist())):
            if len(left) < 2:
                break
            at = (np.arange(len(left)), left)
            row_v, col_v = a[left], a.T[left]
            row_v[at] = col_v[at] = v
            fine = _equal_rows(np.column_stack((row_v, col_v)), left)
            classes += [f for f in fine if len(f) > 1]
            left = [f[0] for f in fine if len(f) == 1]
        classes += [[i] for i in left]
    return sorted(classes)


def _equal_rows(rows: np.ndarray, labels) -> list[list[int]]:
    """The labels of a 2-D array's rows, grouped by equal rows, through the
    rows' bytes in a dict."""
    data = rows.tobytes()
    width = rows.shape[1] * rows.itemsize
    groups: dict[bytes, list[int]] = {}
    for k, label in enumerate(labels):
        groups.setdefault(data[k * width:(k + 1) * width], []).append(label)
    return list(groups.values())


def _twin_quotient(m: IntMatrix, classes: list[list[int]]):
    """(sizes, c, diag) for a partition of m's indices into classes of
    twins: the class sizes m_a; the k x k array c of the value each class a
    holds towards class b, with c_aa its value off the diagonal (for a
    singleton, its diagonal entry); and each class's diagonal entry M_ii.
    The arrays keep m's dtype. Eigenvectors that sum to zero on one class
    have the eigenvalue d_a = M_ii - c_aa (m_a - 1 of them per class), and
    class-constant vectors see the quotient c_ab m_b, whose diagonal is
    M_ii + c_aa (m_a - 1)."""
    a = m.array
    firsts = [cls[0] for cls in classes]
    c = a[np.ix_(firsts, firsts)]
    c[np.diag_indices(len(classes))] = a[firsts, [cls[-1] for cls in classes]]
    sizes = np.array([len(cls) for cls in classes], dtype=np.int64)
    return sizes, c, a[firsts, firsts]


def laplacian(graph: Graph) -> IntMatrix:
    """L = D - A; rows sum to zero."""
    lap = np.negative(_bit_matrix(graph), dtype=np.int64)
    np.fill_diagonal(lap, -lap.sum(axis=1))
    return IntMatrix(lap)


def adjacency(graph: Graph) -> IntMatrix:
    return IntMatrix(_bit_matrix(graph).astype(np.int64))


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
    shifts, quotient = _twin_factors(m)
    coeffs = np.array(quotient, dtype=object)
    for d, e in shifts:
        # times (x - d)^e, expanded by the binomial theorem
        power = [math.comb(e, k) * (-d) ** (e - k) for k in range(e + 1)]
        coeffs = np.convolve(coeffs, np.array(power, dtype=object))
    assert coeffs[-1] == 1, "leading coefficient must be 1 for a monic result"
    return CharPoly(tuple(coeffs.tolist()))


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
    q = c * sizes
    np.fill_diagonal(q, diag + c.diagonal() * (sizes - 1))
    shifts = [(m_ii - c_aa, size - 1) for c_aa, m_ii, size
              in zip(c.diagonal().tolist(), diag.tolist(), sizes.tolist())]
    return shifts, _char_poly_faddeev(q)


def _char_poly_faddeev(a: np.ndarray) -> list[int]:
    """Ascending coefficients c_j of det(xI - A) by Faddeev-LeVerrier, in
    Python integers: M_1 = I, c_(n-k) = -tr(A M_k) / k and
    M_(k+1) = A M_k + c_(n-k) I. Each M_k is an integer combination of
    powers of A and each c_j an integer, so every division is exact."""
    n = len(a)
    a = a.tolist()
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
    symmetric eigensolver (LAPACK)."""
    if not m.is_symmetric():
        raise ValueError("eigenvalues_numeric requires a symmetric matrix")
    if m.n == 0:
        return []
    return np.linalg.eigvalsh(m.array.astype(np.float64)).tolist()


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
    if not lap.is_symmetric() or lap.array.sum(axis=1).any():
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
    a = m.array
    symmetric = m.is_symmetric()

    def written(lo: int) -> np.ndarray:
        # rows lo.. of the entries written; row i keeps j <= lo + i if symmetric
        nonzero = a[lo:lo + _BLOCK_ROWS] != 0
        return np.tril(nonzero, k=lo) if symmetric else nonzero

    starts = range(0, m.n, _BLOCK_ROWS)
    count = sum(np.count_nonzero(written(lo)) for lo in starts)
    kind = "symmetric" if symmetric else "general"
    yield f"%%MatrixMarket matrix coordinate integer {kind}\n{m.n} {m.n} {count}\n"
    for lo in starts:
        rows, cols = np.nonzero(written(lo))
        rows += lo
        # one "i j v" line per entry; %d writes an int as str() does
        entries = np.column_stack((rows + 1, cols + 1, a[rows, cols])).ravel().tolist()
        yield "%d %d %d\n" * len(rows) % tuple(entries)
