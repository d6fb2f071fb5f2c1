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

from .errors import SizeGuardError
from .formulas import _Frozen, euler_phi

# No permanent is computed past this order, whatever its twin classes. The
# grouped sum for L(K_1024), one class, takes 0.1-0.25 s, for L(K_4096)
# about 5.6 s (2-vCPU host).
RYSER_LIMIT = 1024
# The grouped sum runs for at most this many terms prod_a (m_a + 1). Z_N's
# three classes give 2 (phi + 1) (N - phi) terms: at most 33,024 up to
# N = 256 (at N = 256), while Z_320's 49,536 take 0.6-0.9 s per permanent
# on a 2-vCPU host. A matrix without twins fits up to order 15: 2^15 terms
# in about 0.6-1.4 s.
_TERM_BUDGET = 40_000


def _comb(a: int, b: int) -> int:
    """Binomial coefficient with the vanishing convention: 0 whenever a < 0,
    b < 0, or b > a. The closed-form sums rely on out-of-range terms dying."""
    if a < 0 or b < 0 or b > a:
        return 0
    return math.comb(a, b)


def permanent_ryser(quotient) -> int:
    """Exact permanent of the matrix M whose twin quotient is
    (sizes, c, diag) (see graphs.twin_quotient), by Ryser's
    inclusion-exclusion over column subsets,

        per(M) = (-1)^n sum_S (-1)^|S| prod_i sum_{j in S} m_ij,

    with the subsets grouped by how many columns they take from each twin
    class (see _ryser_grouped), in Python integers, so entries of any size
    stay exact. A quotient that lies past order RYSER_LIMIT, or whose
    grouped sum has more than 40,000 terms (without twins, one past order
    15), raises SizeGuardError. A zero row or column gives 0 at any order
    up to RYSER_LIMIT. The grouped sums are memoized per process on the
    quotient."""
    sizes, c, diag = quotient
    n = sum(sizes)
    if n > RYSER_LIMIT:
        raise SizeGuardError(f"permanent_ryser is bounded at order {RYSER_LIMIT}, got {n}")
    if n == 0:
        return 1
    # the entries of class a's rows are M_ii and c_a0, c_a1, ..., those of
    # its columns M_ii and c_0a, c_1a, ... (a singleton's c_aa is M_ii)
    rows, columns = zip(diag, *zip(*c)), zip(diag, *c)
    if not (all(map(any, rows)) and all(map(any, columns))):
        return 0
    terms = math.prod(size + 1 for size in sizes)
    if terms > _TERM_BUDGET:
        raise SizeGuardError(
            f"permanent_ryser: order {n} has {len(sizes)} twin classes, which "
            f"give {terms} grouped terms, past the budget of {_TERM_BUDGET}"
        )
    return _ryser_grouped(sizes, c, diag)


@functools.lru_cache(maxsize=64)
def _ryser_grouped(sizes, c, diag) -> int:
    """Ryser's sum over a twin quotient, with the subsets grouped by how
    many columns r_a they take from each twin class a (Ryser 1963): a row
    of class a sums to R_a = sum_b c_ab r_b when its own column is left out
    and to R_a + d_a, d_a = M_ii - c_aa, when it is taken, so

        per(M) = (-1)^n sum_r (-1)^(sum r) prod_a C(m_a, r_a)
                     (R_a + d_a)^(r_a) R_a^(m_a - r_a),

    in exact integers over the prod_a (m_a + 1) vectors r."""
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


class CliqueParams(_Frozen):
    """Shape parameters of a clique-plus-one-vertex graph: a clique on m+n
    vertices whose extra vertex is adjacent to n of them and non-adjacent to
    the other m. Total m+n+1 vertices; d = m+n-1.

    The strong power graph of every finite group has this shape; see
    for_group.
    """

    __slots__ = ("m", "n")

    def __init__(self, m: int, n: int):
        if m < 0 or n < 0:
            raise ValueError("clique parameters must be nonnegative")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)

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
