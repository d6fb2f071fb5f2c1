"""Exact matrix permanents and the closed-form permanent expressions for
strong power graphs.

Ryser's inclusion-exclusion is the oracle that pins down ground truth; the
closed forms are transcribed exactly as displayed in their sources, sign
conventions and all, and the verify harness records where each matches the
oracle. Nothing here "fixes" a closed form.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeGuardError
from .formulas import euler_phi
from .spectral import IntMatrix, _crt_lift, _primes_above, _twin_quotient, twin_classes

RYSER_LIMIT = 24


def _comb(a: int, b: int) -> int:
    """Binomial coefficient with the vanishing convention: 0 whenever a < 0,
    b < 0, or b > a. The closed-form sums rely on out-of-range terms dying."""
    if a < 0 or b < 0 or b > a:
        return 0
    return math.comb(a, b)


def _ryser_guard(n: int) -> None:
    """Ryser's size guard; callers that build a matrix only for Ryser run it
    first, so a matrix past RYSER_LIMIT is never built."""
    if n > RYSER_LIMIT:
        raise SizeGuardError(f"permanent_ryser is bounded at order {RYSER_LIMIT}, got {n}")


def permanent_ryser(m: IntMatrix) -> int:
    """Exact permanent by Ryser's inclusion-exclusion over column subsets,

        per(A) = (-1)^n sum_S (-1)^|S| prod_i sum_{j in S} a_ij,

    evaluated in numpy modulo 2^64 (uint64 wraparound) and modulo as many
    ~27-bit primes as the row-sum bound 2 * prod_i sum_j |a_ij| needs, then
    recombined by CRT and lifted to the symmetric range. Entries are reduced
    before any summation, so arbitrary Python ints stay exact. The subsets
    of the low k columns form one table, and each subset of the other n - k
    columns adds its row sums to the whole table at once, k chosen so that
    a block holds about 2^15 words. O(2^n * n) per modulus; bounded at
    order 24. A matrix with few twin classes (see twin_classes) takes the
    exact sum grouped over them instead, when that costs less.
    Results are memoized per process on the matrix entries."""
    n = m.n
    _ryser_guard(n)
    if n == 0:
        return 1
    nonzero = m.array != 0
    if not (nonzero.any(axis=0).all() and nonzero.any(axis=1).all()):
        return 0
    return _permanent(m)


# 2^15 eight-byte words: the table, a block and its scratch stay cache-sized
# and add about 1 MB to a process's peak RSS, while each numpy call still
# covers enough elements to hide its fixed cost.
_BLOCK_ELEMENTS = 1 << 15
_WORD = 1 << 64
# The grouped Ryser sum costs about 2 us per term and class in Python, the
# numpy kernel about 13 ns per subset and row over all its moduli (2-vCPU
# x86 host, n = 12..20), so a term and class weigh about 128 subset rows.
_GROUPED_COST = 128


@functools.lru_cache(maxsize=64)
def _permanent(m: IntMatrix) -> int:
    """Permanent of a matrix with no zero row or column: Ryser's sum over
    twin classes when its terms cost less than the numpy kernel's 2^n
    subsets, else the numpy kernel."""
    n = m.n
    classes = twin_classes(m)
    terms = math.prod(len(cls) + 1 for cls in classes)
    if terms * len(classes) * _GROUPED_COST <= n << n:
        return _ryser_grouped(*_twin_quotient(m, classes))
    return _ryser_numpy(m.array)


def _ryser_numpy(a: np.ndarray) -> int:
    """Ryser's sum over all 2^n column subsets, from its residues modulo
    2^64 and enough primes that their product exceeds twice the row-sum
    bound on its absolute value."""
    bound = 2 * math.prod(np.abs(a).sum(axis=1).tolist())
    moduli = [_WORD, *_primes_above(bound >> 64)]
    residues = [_ryser_mod(a, q) for q in moduli]
    return _crt_lift([[r] for r in residues], moduli)[0]


def _ryser_grouped(sizes: np.ndarray, c: np.ndarray, diag: np.ndarray) -> int:
    """Ryser's sum with the subsets grouped by how many columns r_a they
    take from each twin class a (Ryser 1963): a row of class a sums to
    R_a = sum_b c_ab r_b when its own column is left out and to R_a + d_a,
    d_a = M_ii - c_aa, when it is taken, so

        per(M) = (-1)^n sum_r (-1)^(sum r) prod_a C(m_a, r_a)
                     (R_a + d_a)^(r_a) R_a^(m_a - r_a),

    in exact integers over the prod_a (m_a + 1) vectors r."""
    sizes, c, diag = sizes.tolist(), c.tolist(), diag.tolist()
    shifts = [m_ii - row[a] for a, (m_ii, row) in enumerate(zip(diag, c))]
    total = 0
    for r in itertools.product(*(range(size + 1) for size in sizes)):
        term = 1
        for row, size, shift, taken in zip(c, sizes, shifts, r):
            sums = sum(c_ab * r_b for c_ab, r_b in zip(row, r))
            term *= math.comb(size, taken) * (sums + shift) ** taken * sums ** (size - taken)
            if not term:
                break
        total += -term if sum(r) & 1 else term
    return -total if sum(sizes) & 1 else total


def _subset_sums(cols: np.ndarray, q: int) -> tuple[np.ndarray, int]:
    """Row sums modulo q of every subset of the columns of `cols`, one
    subset per column of the result, the even-sized subsets first. Returns
    the table and the number of even-sized subsets."""
    even = np.zeros((cols.shape[0], 1), dtype=cols.dtype)
    odd = even[:, :0]
    for j in range(cols.shape[1]):
        col = cols[:, j:j + 1]
        even, odd = (
            np.concatenate([even, odd + col], axis=1),
            np.concatenate([odd, even + col], axis=1),
        )
        if q != _WORD:
            even %= q
            odd %= q
    return np.concatenate([even, odd], axis=1), even.shape[1]


def _ryser_mod(entries: np.ndarray, q: int) -> int:
    """Ryser's sum modulo q, which is 2^64 (wrapping uint64 arithmetic) or a
    prime below 2^27 (int64). Table entries are below q, so a row sum is
    below 2q < 2^28 and every product of two stays below 2^56."""
    n = len(entries)
    prime = q != _WORD
    dtype = np.int64 if prime else np.uint64
    # reduced as Python ints, where 2^64 and entries of any size are exact
    a = (entries.astype(object) % q).astype(dtype)
    k = min(n, (_BLOCK_ELEMENTS // n).bit_length() - 1)
    low, low_even = _subset_sums(a[:, :k], q)
    high, high_even = _subset_sums(a[:, k:], q)
    block = np.empty_like(low)
    scratch = np.empty_like(low[: n // 2])
    total = 0
    for index, sums in enumerate(high.T):
        np.add(low, sums[:, None], out=block)
        # multiply the rows together pairwise, halving the rows left each time
        left = n
        while left > 1:
            half = left // 2
            head = block[:half]
            np.multiply(head, block[left - half:left], out=head)
            if prime:
                # head -= (head // q) * q: numpy divides by a scalar much
                # faster than it takes a remainder
                quot = scratch[:half]
                np.floor_divide(head, q, out=quot)
                quot *= q
                head -= quot
            left -= half
        prods = block[0]
        signed = int(prods[:low_even].sum()) - int(prods[low_even:].sum())
        total += signed if index < high_even else -signed
    return (-total if n % 2 else total) % q


@dataclass(frozen=True)
class CliqueParams:
    """Shape parameters of a clique-plus-one-vertex graph: a clique on m+n
    vertices whose extra vertex is adjacent to n of them and non-adjacent to
    the other m. Total m+n+1 vertices; d = m+n-1.

    The strong power graph of every finite group has this shape; see
    for_group.
    """

    m: int
    n: int

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise ValueError("clique parameters must be nonnegative")

    @property
    def d(self) -> int:
        return self.m + self.n - 1

    @classmethod
    def for_group(cls, order: int, cyclic: bool) -> "CliqueParams":
        """The shape of the strong power graph of a group of the given order:
        (phi(N), N - phi(N) - 1) for Z_N, (0, N - 1) for a noncyclic group,
        whose graph is the complete graph K_N."""
        if order < 2:
            raise ValueError(f"group order must be >= 2, got {order}")
        if not cyclic:
            return cls(m=0, n=order - 1)
        phi = euler_phi(order)
        return cls(m=phi, n=order - phi - 1)


def clique_plus_vertex_adjacency_permanent(p: CliqueParams) -> int:
    """Adjacency permanent of a clique-plus-one-vertex graph:

        n * sum_{r=1}^{m+n} (-1)^{r-1} (m+n-r)! *
            [C(m+n-1, r-1) + (n-1) C(m+n-2, r-1)]

    At m = phi(N), n = N-phi-1 this is the source's display for Z_N:

        (N-phi-1) * sum_{r=1}^{N-1} (-1)^{r-1} (N-1-r)! *
            [C(N-2, r-1) + (N-2-phi) C(N-3, r-1)]
    """
    m, n = p.m, p.n
    total = 0
    for r in range(1, m + n + 1):
        term = math.factorial(m + n - r) * (
            _comb(m + n - 1, r - 1) + (n - 1) * _comb(m + n - 2, r - 1)
        )
        total += -term if (r - 1) & 1 else term
    return n * total


def clique_plus_vertex_laplacian_permanent(p: CliqueParams) -> int:
    """Laplacian permanent of a clique-plus-one-vertex graph, transcribed
    from its source's final displayed expression:

        sum_{r=1}^{m+n} (-1)^{m+n-r} (m+n-r)! F_r(d)
          + (d-m+1) * sum_{i+j=m+n} C(m,i) C(n,j) (d+2)^j (d+1)^i

    with d = m+n-1 and

        F_r(d) = sum_{i+j=r-1} C(m,i) (d+2)^j (d+1)^i *
            [n C(n-1,j) + n(n-1) C(n-2,j) - (d-m+1)(m+n-r+1) C(n,j)]

    At m = phi(N), n = c = N-phi-1 (so d+2 = N, d+1 = N-1, d-m+1 = c) this
    is the source's display for Z_N:

        sum_{r=1}^{N-1} (-1)^{N-r-1} (N-r-1)! F_r
          + c * sum_{i+j=N-1} C(phi,i) C(c,j) N^j (N-1)^i

        F_r = sum_{i+j=r-1} C(phi,i) N^j (N-1)^i *
            [c C(c-1,j) + c(c-1) C(c-2,j) - c(N-r) C(c,j)]
    """
    m, n = p.m, p.n
    d = p.d
    # Each factor of a term depends on i or on j alone, so it is tabulated
    # once over 0..m+n; the bracket splits into a part free of r and a
    # multiple of C(n, j). Terms with i > m or j > n vanish.
    top = m + n
    by_i = [_comb(m, i) * (d + 1) ** i for i in range(top + 1)]
    by_j = [
        (d + 2) ** j * (n * _comb(n - 1, j) + n * (n - 1) * _comb(n - 2, j))
        for j in range(top + 1)
    ]
    by_j_c = [(d + 2) ** j * _comb(n, j) for j in range(top + 1)]

    def convolve(table: list[int], s: int) -> int:
        # sum over i + j = s of by_i[i] * table[j]
        return sum(by_i[i] * table[s - i] for i in range(max(0, s - n), min(s, m) + 1))

    def f_r(r: int) -> int:
        return convolve(by_j, r - 1) - (d - m + 1) * (m + n - r + 1) * convolve(by_j_c, r - 1)

    total = 0
    for r in range(1, m + n + 1):
        term = math.factorial(m + n - r) * f_r(r)
        total += -term if (m + n - r) & 1 else term
    return total + (d - m + 1) * convolve(by_j_c, top)


def complete_graph_laplacian_permanent(n: int) -> int:
    """per(L(K_n)) via the alternating factorial sum

        (-1)^n n! (1 - n/1! + n^2/2! - ... + (-1)^n n^n/n!)

    evaluated over the common denominator n!, so every intermediate value is
    an exact integer: sum_{k=0}^{n} (-1)^{n-k} n^k (n!/k!)."""
    if n < 1:
        raise ValueError(f"complete_graph_laplacian_permanent requires n >= 1, got {n}")
    total = 0
    for k in range(n + 1):
        term = n ** k * (math.factorial(n) // math.factorial(k))
        total += -term if (n - k) & 1 else term
    return total
