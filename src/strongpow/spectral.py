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
        return hash(tuple(self.array.ravel().tolist()))

    def __repr__(self) -> str:
        return f"IntMatrix({self.array.tolist()!r})"


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
#
# Hessenberg reduction modulo a set of word-sized primes, recombined by CRT.
# Per prime the matrix is brought to upper Hessenberg form by similarity
# (O(n^3)), and the polynomial follows from the Hessenberg recurrence; the
# result is exact because the product of the primes exceeds twice an
# a-priori coefficient bound. Primes sit just below 2^27, so a product of two
# residues is below 2^54 and a dot product of up to 512 such products stays
# below 2^63 in int64; at order CHAR_POLY_LIMIT = 256 none has more than 256.

_PRIME_HIGH = (1 << 27) - 1
_prime_cache: list[int] = []


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin for n < 3.2e9
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes(count: int) -> list[int]:
    candidate = _prime_cache[-1] - 2 if _prime_cache else _PRIME_HIGH
    while len(_prime_cache) < count:
        if _is_prime(candidate):
            _prime_cache.append(candidate)
        candidate -= 2
    return _prime_cache[:count]


def _crt_lift(residues: list[list[int]], moduli: list[int]) -> list[int]:
    """For each position k, the x in (-M/2, M/2] with x = residues[i][k]
    modulo moduli[i], where M is the product of the (coprime) moduli."""
    prod = math.prod(moduli)
    weights = [(prod // q) * pow(prod // q, -1, q) % prod for q in moduli]
    lifted = []
    for column in zip(*residues):
        x = sum(r * w for r, w in zip(column, weights)) % prod
        lifted.append(x - prod if x > prod // 2 else x)
    return lifted


def _primes_above(bound: int) -> list[int]:
    """The fewest cached primes whose product exceeds bound. Each prime is
    above 2^26, so bit_length // 26 + 1 of them always suffice."""
    chosen = []
    prod = 1
    for p in _primes(bound.bit_length() // 26 + 1):
        if prod > bound:
            break
        chosen.append(p)
        prod *= p
    return chosen


# 2^18 eight-byte words per block of primes: a block's stack of reduced
# matrices and its recurrence polynomials then add a few MB to peak RSS at
# order 256, while each numpy call still covers every prime of the block.
_BLOCK_WORDS = 1 << 18


def _char_poly_mod(h: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """Coefficients, ascending, of det(xI - M) modulo each of the primes, one
    row per prime, for M given by its residues h[i] in [0, primes[i]), a
    (P, n, n) int64 stack that is reduced in place: Hessenberg reduction by
    similarity, then the Hessenberg recurrence (Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 2.2.9), each step taken for
    every prime at once."""
    count, n, _ = h.shape
    p = primes[:, None]
    moduli = primes.tolist()
    for k in range(n - 2):
        nonzero = h[:, k + 1:, k] != 0
        if not nonzero.any():
            continue  # column k is already reduced modulo every prime
        # pivot per prime: the first nonzero below the subdiagonal, or row
        # k+1 when column k is already reduced modulo that prime
        first = nonzero.argmax(axis=1)
        lanes = np.flatnonzero(first)
        if lanes.size:
            r = k + 1 + first[lanes]
            h[lanes, k + 1], h[lanes, r] = h[lanes, r], h[lanes, k + 1]
            h[lanes, :, k + 1], h[lanes, :, r] = h[lanes, :, r], h[lanes, :, k + 1]
        # rows k+2.. -= u * row k+1, then column k+1 += columns k+2.. @ u;
        # rows below k+1 are already zero left of column k. Where column k
        # is reduced, u is zero and both updates leave h as it is.
        inverse = [pow(a or 1, -1, q) for a, q in zip(h[:, k + 1, k].tolist(), moduli)]
        u = h[:, k + 2:, k] * np.array(inverse, dtype=np.int64)[:, None] % p
        h[:, k + 2:, k:] -= u[:, :, None] * h[:, k + 1, None, k:]
        h[:, k + 2:, k:] %= p[:, :, None]
        h[:, :, k + 1] += (h[:, :, k + 2:] @ u[:, :, None])[:, :, 0]
        h[:, :, k + 1] %= p
    # polys[:, k] is the char poly of the leading k x k block:
    # p_k = (x - h_kk) p_{k-1} - sum_{i<k} h_ik (prod_{j=i+1..k} h_{j,j-1}) p_{i-1}
    polys = np.zeros((count, n + 1, n + 1), dtype=np.int64)
    polys[:, 0, 0] = 1
    # prod_{j=i+1..k} h_{j,j-1} for lo <= i < k. It is zero for every i < lo:
    # where a subdiagonal entry is zero modulo every prime, the sum restarts.
    lo = 0
    sub = np.zeros((count, 0), dtype=np.int64)
    one = np.ones((count, 1), dtype=np.int64)
    for k in range(1, n + 1):
        prev = polys[:, k - 1]
        cur = -h[:, k - 1, k - 1, None] * prev
        cur[:, 1:] += prev[:, :-1]
        if k > 1:
            link = h[:, k - 1, k - 2, None]
            if link.any():
                sub = np.concatenate([sub, one], axis=1) * link % p
            else:
                lo, sub = k - 1, sub[:, :0]
            w = h[:, lo : k - 1, k - 1] * sub % p
            # p_{i-1} has degree i - 1 < k - 1
            cur[:, : k - 1] -= (w[:, None, :] @ polys[:, lo : k - 1, : k - 1])[:, 0]
        polys[:, k] = cur % p
    return polys[:, n]


def char_poly_exact(m: IntMatrix) -> CharPoly:
    """Monic characteristic polynomial det(xI - M) with exact integer
    coefficients, evaluated over the twin classes of M (see twin_classes).
    Bounded at order 256. Results are memoized per process on the matrix
    entries."""
    n = m.n
    if n > CHAR_POLY_LIMIT:
        raise SizeGuardError(
            f"char_poly_exact is bounded at order {CHAR_POLY_LIMIT}, got {n}"
        )
    return _char_poly(m)


@functools.lru_cache(maxsize=8)
def _char_poly(m: IntMatrix) -> CharPoly:
    """Characteristic polynomial over twin classes (see _twin_quotient):
    det(xI - M) = prod_a (x - d_a)^(m_a - 1) * det(xI - Q), where Q is the
    quotient and d_a = M_ii - c_aa (Godsil & Royle, Algebraic Graph Theory,
    9.3). With every class a singleton, Q is M and the product is empty."""
    if m.n == 0:
        return CharPoly((1,))
    sizes, c, diag = _twin_quotient(m, twin_classes(m))
    q = c * sizes
    np.fill_diagonal(q, diag + c.diagonal() * (sizes - 1))
    coeffs = np.array(_char_poly_crt(q), dtype=object)
    for c_aa, m_ii, size in zip(c.diagonal().tolist(), diag.tolist(), sizes.tolist()):
        # times (x - d)^e, expanded by the binomial theorem
        d, e = m_ii - c_aa, size - 1
        power = [math.comb(e, k) * (-d) ** (e - k) for k in range(e + 1)]
        coeffs = np.convolve(coeffs, np.array(power, dtype=object))
    assert coeffs[-1] == 1, "leading coefficient must be 1 for a monic result"
    return CharPoly(tuple(coeffs.tolist()))


def _char_poly_crt(a: np.ndarray) -> list[int]:
    """Ascending coefficients of det(xI - A) from its residues modulo enough
    primes that their product exceeds twice a bound on its coefficients,
    the primes taken in blocks of about _BLOCK_WORDS words. No row's
    absolute sum may overflow A's dtype."""
    n = len(a)
    # |coeff of x^(n-k)| <= C(n,k) * rho^k with rho >= spectral radius.
    rho = int(np.abs(a).sum(axis=1).max())
    bits = n * max(rho, 2).bit_length() + n + 4
    primes = _primes_above(1 << (bits + 1))
    per_block = max(1, _BLOCK_WORDS // (n * n))
    residues = []
    for start in range(0, len(primes), per_block):
        block = np.array(primes[start:start + per_block], dtype=np.int64)
        # an object array's residues are Python ints below 2^27
        stack = (a % block[:, None, None]).astype(np.int64, copy=False)
        residues.extend(_char_poly_mod(stack, block).tolist())
    return _crt_lift(residues, primes)


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
    equals the count, so c_1 = (-1)^(n-1) n tau. Read off char_poly_exact(L),
    which is memoized, so this shares its bound of 256 vertices."""
    n = lap.n
    if n == 0:
        raise ValueError("spanning trees of the empty graph are undefined")
    if not lap.is_symmetric() or lap.array.sum(axis=1).any():
        raise ValueError("expected a Laplacian: symmetric, with rows summing to zero")
    c1 = char_poly_exact(lap).coeffs[1]
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
