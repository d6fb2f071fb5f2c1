"""The spectral oracles: exact characteristic polynomials, Laplacian spectra
and spanning-tree counts, evaluated over a matrix's twin quotient (see
graphs.twin_quotient), and the numeric Laplacian eigensolver. Their
closed-form counterparts live in `formulas`, and the verify harness
compares the two; neither is substituted for the other.
"""

from __future__ import annotations

import math

from .errors import SizeGuardError
from .formulas import ExactSpectrum, _times_roots
from .graphs import Graph, twin_quotient

CHAR_POLY_LIMIT = 256


def laplacian(graph: Graph):
    """L = D - A, as its twin quotient (sizes, c, diag): the form in which
    char_poly_exact, spanning_tree_count_kirchhoff and permanent_ryser read
    a matrix."""
    return twin_quotient(graph, True)


# --- exact characteristic polynomial -------------------------------------

# The quotient's polynomial takes O(k^4) Python integer products for k twin
# classes: about 0.2 s at this bound, 2.4 s at 64 (2-vCPU host).
TWIN_CLASS_LIMIT = 32


def char_poly_exact(quotient) -> tuple[int, ...]:
    """Ascending integer coefficients of det(xI - M), monic, for the matrix
    M whose twin quotient is (sizes, c, diag) (see graphs.twin_quotient):
    the factors of _twin_factors, multiplied out. Bounded at order 256,
    where the polynomial already takes about 93 KB of text, and at
    TWIN_CLASS_LIMIT twin classes."""
    n = sum(quotient[0])
    if n > CHAR_POLY_LIMIT:
        raise SizeGuardError(
            f"char_poly_exact is bounded at order {CHAR_POLY_LIMIT}, got {n}"
        )
    shifts, coeffs = _twin_factors(quotient)
    return _times_roots(coeffs, shifts)


def laplacian_spectrum(lap) -> ExactSpectrum | None:
    """The exact spectrum of a graph's Laplacian L, from its twin quotient
    (see laplacian), or None when L has an eigenvalue that is not an
    integer. The factors of _twin_factors give each d_a with multiplicity
    m_a - 1; the roots of det(xI - Q) are found by exact synthetic
    division at x = 0, 1, ..., n, since a simple graph's
    Laplacian eigenvalues lie in [0, n]. Bounded by TWIN_CLASS_LIMIT twin
    classes, as spanning_tree_count_kirchhoff is."""
    shifts, coeffs = _twin_factors(lap)
    n = sum(lap[0])
    pairs = list(shifts)
    x = 0
    while len(coeffs) > 1 and x <= n:
        # synthetic division, coeffs = (X - x) quotient + rest, with the
        # quotient built from its highest coefficient down
        quotient = [coeffs[-1]]
        for a in reversed(coeffs[1:-1]):
            quotient.append(a + x * quotient[-1])
        if coeffs[0] + x * quotient[-1]:
            x += 1
        else:
            coeffs = quotient[::-1]
            pairs.append((x, 1))
    return ExactSpectrum.from_pairs(pairs) if len(coeffs) == 1 else None


def _quotient_matrix(quotient) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """The quotient Q, Q_ab = c_ab m_b with diagonal M_ii + c_aa (m_a - 1),
    and the pairs (d_a, m_a - 1), d_a = M_ii - c_aa."""
    sizes, c, diag = quotient
    q = [[c_ab * size for c_ab, size in zip(row, sizes)] for row in c]
    shifts = []
    for a, (m_ii, size) in enumerate(zip(diag, sizes)):
        c_aa = c[a][a]
        q[a][a] = m_ii + c_aa * (size - 1)
        shifts.append((m_ii - c_aa, size - 1))
    return q, shifts


def _twin_factors(quotient) -> tuple[list[tuple[int, int]], list[int]]:
    """The characteristic polynomial factored over twin classes:
    det(xI - M) = prod_a (x - d_a)^(m_a - 1) * det(xI - Q), where Q is the
    quotient and d_a = M_ii - c_aa (Godsil & Royle, Algebraic Graph Theory,
    9.3). Returns the pairs (d_a, m_a - 1) and the ascending coefficients of
    det(xI - Q). With every class a singleton, Q is M and the product is
    empty. The quotient is bounded at TWIN_CLASS_LIMIT classes, for
    char_poly_exact, laplacian_spectrum and spanning_tree_count_kirchhoff
    alike."""
    if len(quotient[0]) > TWIN_CLASS_LIMIT:
        raise SizeGuardError(
            f"the exact char poly is bounded at {TWIN_CLASS_LIMIT} twin classes, "
            f"got {len(quotient[0])}"
        )
    q, shifts = _quotient_matrix(quotient)
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


def eigenvalues_numeric(graph: Graph) -> list[float]:
    """All eigenvalues of the graph's Laplacian, ascending, via a dense
    symmetric eigensolver (LAPACK). The one use of numpy in the package,
    imported here, so that only the commands that call this load it."""
    import numpy as np

    n = graph.n
    if n == 0:
        return []
    # the masks as rows of little-endian bytes, unpacked to 0/1 entries of A
    width = (n + 7) // 8
    packed = b"".join(mask.to_bytes(width, "little") for mask in graph.adj)
    a = np.unpackbits(np.frombuffer(packed, np.uint8).reshape(n, width), axis=1,
                      count=n, bitorder="little")
    # 0.0 - A, so that the zeros are +0.0, then the degrees on the diagonal
    lap = np.zeros((n, n))
    lap -= a
    np.fill_diagonal(lap, a.sum(axis=1))
    return np.linalg.eigvalsh(lap).tolist()


def spanning_tree_count_kirchhoff(lap) -> int:
    """Spanning trees of a graph from the twin quotient (sizes, c, diag) of
    its Laplacian L (see laplacian), by the all-minors matrix-tree theorem:
    the coefficient of x in det(xI - L) is (-1)^(n-1) times the sum of the
    n principal (n-1)-minors of L, each of which equals the count, so
    c_1 = (-1)^(n-1) n tau. c_1 is read off the twin-class factors
    that char_poly_exact multiplies out, as the x-coefficient of
    det(xI - Q) times the constant terms of the others, so this is bounded
    by TWIN_CLASS_LIMIT twin classes, not by the order."""
    sizes, c, _ = lap
    n = sum(sizes)
    if n == 0:
        raise ValueError("spanning trees of the empty graph are undefined")
    q, _ = _quotient_matrix(lap)
    # L is symmetric when c is off its diagonal, and its rows sum to zero
    # when Q's do
    if any(map(sum, q)) or any(c[a][b] != c[b][a] for a in range(len(c)) for b in range(a)):
        raise ValueError("expected a Laplacian: symmetric, with rows summing to zero")
    shifts, quotient = _twin_factors(lap)
    # Q's rows sum to zero as L's do, so det(xI - Q) vanishes at 0 and the
    # x-coefficient of the product is its own times prod_a (-d_a)^(m_a - 1)
    assert quotient[0] == 0, "the quotient of a Laplacian must be singular"
    c1 = quotient[1] * math.prod((-d) ** e for d, e in shifts)
    tau, rest = divmod((-1) ** (n - 1) * c1, n)
    assert rest == 0, f"x-coefficient {c1} of the Laplacian is not a multiple of {n}"
    return tau
