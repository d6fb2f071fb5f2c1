"""Laplacian assembly, exact characteristic polynomials, closed-form spectra,
and the derived invariants: algebraic connectivity, spanning-tree counts, and
Laplacian energy.

Closed-form values and definition-based oracle values are deliberately kept in
separate functions (never substituted for one another); the verify harness
compares them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import SizeGuardError
from .graphs import Graph, _bit_matrix
from .groups import euler_phi

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
            fits = bool(((a >= -limit) & (a <= limit)).all())
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


@dataclass(frozen=True)
class CharPoly:
    """Monic integer polynomial; coeffs[k] is the coefficient of x^k."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs or self.coeffs[-1] != 1:
            raise ValueError("characteristic polynomial must be monic")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                xs = "x" if k == 1 else f"x^{k}"
                body = xs if mag == 1 else f"{mag}{xs}"
            terms.append(("-" if c < 0 else "+", body))
        if not terms:
            return "0"
        sign, body = terms[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in terms[1:]:
            out += f" {sign} {body}"
        return out


@dataclass(frozen=True)
class ExactSpectrum:
    """Integer eigenvalues with multiplicities, strictly decreasing."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for value, mult in self.pairs:
            if mult < 1:
                raise ValueError(f"multiplicity of {value} must be >= 1")
        values = [value for value, _ in self.pairs]
        if any(later >= earlier for later, earlier in zip(values[1:], values)):
            raise ValueError("eigenvalues must be strictly decreasing")

    @classmethod
    def from_pairs(cls, pairs) -> "ExactSpectrum":
        """Merge duplicate eigenvalues, drop zero multiplicities, sort."""
        acc: dict[int, int] = {}
        for value, mult in pairs:
            if mult:
                acc[value] = acc.get(value, 0) + mult
        return cls(tuple(sorted(acc.items(), reverse=True)))

    @property
    def n(self) -> int:
        return sum(mult for _, mult in self.pairs)

    def eigenvalues_desc(self) -> list[int]:
        out = []
        for value, mult in self.pairs:
            out.extend([value] * mult)
        return out

    def trace(self) -> int:
        return sum(value * mult for value, mult in self.pairs)

    def __str__(self) -> str:
        """Space-separated value^multiplicity, eigenvalues descending."""
        return " ".join(f"{value}^{mult}" for value, mult in self.pairs)


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
    coefficients. Bounded at order 256. Results are memoized per process on
    the matrix entries."""
    n = m.n
    if n > CHAR_POLY_LIMIT:
        raise SizeGuardError(
            f"char_poly_exact is bounded at order {CHAR_POLY_LIMIT}, got {n}"
        )
    return _char_poly(m)


@functools.lru_cache(maxsize=8)
def _char_poly(m: IntMatrix) -> CharPoly:
    """Characteristic polynomial from its residues modulo enough primes that
    their product exceeds twice a bound on its coefficients, the primes
    taken in blocks of about _BLOCK_WORDS words."""
    n, a = m.n, m.array
    if n == 0:
        return CharPoly((1,))
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
    coeffs = _crt_lift(residues, primes)
    assert coeffs[-1] == 1, "leading coefficient must be 1 for a monic result"
    return CharPoly(tuple(coeffs))


# --- closed forms ----------------------------------------------------------


def closed_form_spectrum(n: int, cyclic: bool) -> ExactSpectrum:
    """Exact Laplacian spectrum of the strong power graph of a group of
    order n: cyclic gives {0^1, n^{n-phi-1}, (n-phi-1)^1, (n-1)^{phi-1}},
    noncyclic gives {0^1, n^{n-1}}. Collisions are merged (prime n)."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if n == 1:
        return ExactSpectrum(((0, 1),))
    if not cyclic:
        return ExactSpectrum.from_pairs([(0, 1), (n, n - 1)])
    phi = euler_phi(n)
    return ExactSpectrum.from_pairs(
        [(0, 1), (n, n - phi - 1), (n - phi - 1, 1), (n - 1, phi - 1)]
    )


def char_poly_from_spectrum(s: ExactSpectrum) -> CharPoly:
    """Monic polynomial whose roots are the spectrum's eigenvalues with
    multiplicity, ascending coefficients. On closed_form_spectrum(n, True)
    this is the closed form x(x-n)^{n-phi-1} (x-(n-phi-1)) (x-(n-1))^{phi-1}."""
    coeffs = [1]
    for value, mult in s.pairs:
        for _ in range(mult):
            coeffs = [0] + coeffs
            if value:
                for k in range(len(coeffs) - 1):
                    coeffs[k] -= value * coeffs[k + 1]
    return CharPoly(tuple(coeffs))


def eigenvalues_numeric(m: IntMatrix) -> list[float]:
    """All eigenvalues of a symmetric integer matrix, ascending, via a dense
    symmetric eigensolver (LAPACK)."""
    if not m.is_symmetric():
        raise ValueError("eigenvalues_numeric requires a symmetric matrix")
    if m.n == 0:
        return []
    return np.linalg.eigvalsh(m.array.astype(np.float64)).tolist()


def algebraic_connectivity(s: ExactSpectrum) -> int:
    """Second-smallest Laplacian eigenvalue counting multiplicity (0 for a
    one-vertex spectrum by convention)."""
    if not s.pairs:
        raise ValueError("empty spectrum")
    if s.n == 1:
        return 0
    smallest_value, smallest_mult = s.pairs[-1]
    if smallest_mult >= 2:
        return smallest_value
    return s.pairs[-2][0]


def spanning_tree_count_formula(n: int, cyclic: bool) -> int:
    """Closed-form spanning-tree count: n^{n-phi-2} (n-phi-1) (n-1)^{phi-1}
    for cyclic orders, n^{n-2} for noncyclic. n >= 2."""
    if n < 2:
        raise ValueError(f"spanning_tree_count_formula requires n >= 2, got {n}")
    if not cyclic:
        return n ** (n - 2)
    phi = euler_phi(n)
    if n - phi - 1 == 0:
        # disconnected (prime n or n = 2); avoids the negative exponent
        return 0
    return n ** (n - phi - 2) * (n - phi - 1) * (n - 1) ** (phi - 1)


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


def laplacian_energy_from_spectrum(s: ExactSpectrum, edge_count: int, n: int) -> Fraction:
    """Definition-based Laplacian energy sum(|lambda_i - 2m/n|) in exact
    rational arithmetic."""
    if s.n != n:
        raise ValueError(f"spectrum has {s.n} eigenvalues, expected {n}")
    mean = Fraction(2 * edge_count, n)
    return sum((abs(Fraction(value) - mean) * mult for value, mult in s.pairs),
               Fraction(0))


def laplacian_energy_closed_form(n: int, cyclic: bool) -> Fraction:
    """Closed-form Laplacian energy: 2(n-1) - 4 phi(n)/n for cyclic orders,
    2(n-1) for noncyclic. Implemented verbatim; the cyclic branch is known to
    disagree with the definition-based oracle for n >= 3 (see the shipped
    known-discrepancy list), and the verify harness records that rather than
    patching it."""
    if n < 2:
        raise ValueError(f"laplacian_energy_closed_form requires n >= 2, got {n}")
    if not cyclic:
        return Fraction(2 * (n - 1))
    return Fraction(2 * (n - 1)) - Fraction(4 * euler_phi(n), n)


# --- exports ---------------------------------------------------------------


def to_matrix_market(m: IntMatrix) -> str:
    """Matrix Market coordinate text (integer field, 1-based indices); emits
    the lower triangle with the 'symmetric' qualifier when applicable."""
    a = m.array
    symmetric = m.is_symmetric()
    nonzero = a != 0
    rows, cols = np.nonzero(np.tril(nonzero) if symmetric else nonzero)
    kind = "symmetric" if symmetric else "general"
    lines = [f"%%MatrixMarket matrix coordinate integer {kind}",
             f"{m.n} {m.n} {len(rows)}"]
    entries = zip((rows + 1).tolist(), (cols + 1).tolist(), a[rows, cols].tolist())
    lines.extend(f"{i} {j} {v}" for i, j, v in entries)
    return "\n".join(lines) + "\n"

