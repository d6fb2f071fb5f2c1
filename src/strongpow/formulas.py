"""The paper's closed forms, which read only the order n, phi(n) and whether
the group is cyclic: the Laplacian spectrum and its polynomial, algebraic
connectivity, spanning trees, Laplacian energy, kappa, chi, line-graph
membership and Cayley classification. Commands that print only closed
forms (`sweep`) import this module alone.
"""

from __future__ import annotations

import sys
from fractions import Fraction

# Every check of the verify harness, in canonical record order.
CHECK_NAMES = ("spectrum", "charpoly", "tau", "le", "kappa", "chi", "linegraph",
               "cayley", "perm_adj", "perm_lap", "perm_complete")


def euler_phi(n: int) -> int:
    """Euler totient; multiplicative, computed from the prime factorization."""
    if n < 1:
        raise ValueError(f"euler_phi requires n >= 1, got {n}")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            result -= result // p
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        result -= result // m
    return result


def _text(value) -> str:
    """A value as records and tables print it: booleans in lower case, and
    integers in full however many digits they have."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return _any_digits(str, value)


def _any_digits(convert, value):
    """convert(value) with CPython's limit on the digits of an int written
    as text (4300 by default, 3.10.7+ and 3.11+) lifted, and restored
    afterwards: spanning-tree counts and permanents pass it from about
    order 1400."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is None:
        return convert(value)
    sys.set_int_max_str_digits(0)
    try:
        return convert(value)
    finally:
        sys.set_int_max_str_digits(limit)


class _Frozen:
    """Base of the package's immutable value classes. A subclass names its
    fields in __slots__ and sets each once, in its __init__, through
    object.__setattr__; instances of one class compare and hash by those
    fields. A slot whose name starts with an underscore holds a cache of
    the fields, which equality, hashing, repr and pickling skip. Plain
    slots cost far less to define and to import than a frozen dataclass."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> list[str]:
        return [name for name in self.__slots__ if name[0] != "_"]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields())

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which also validates
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields(), self._values()))
        return f"{type(self).__name__}({fields})"


class ExactSpectrum(_Frozen):
    """Integer eigenvalues with multiplicities, strictly decreasing."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: tuple[tuple[int, int], ...]):
        pairs = tuple((value, mult) for value, mult in pairs)
        for value, mult in pairs:
            if mult < 1:
                raise ValueError(f"multiplicity of {value} must be >= 1")
        values = [value for value, _ in pairs]
        if any(later >= earlier for later, earlier in zip(values[1:], values)):
            raise ValueError("eigenvalues must be strictly decreasing")
        object.__setattr__(self, "pairs", pairs)

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


def char_poly_from_spectrum(s: ExactSpectrum) -> tuple[int, ...]:
    """Ascending coefficients of the monic polynomial whose roots are the
    spectrum's eigenvalues with multiplicity. On closed_form_spectrum(n, True)
    this is the closed form x(x-n)^{n-phi-1} (x-(n-phi-1)) (x-(n-1))^{phi-1}."""
    return _times_roots([1], s.pairs)


def _times_roots(coeffs: list[int], roots) -> tuple[int, ...]:
    """The ascending coefficients of a monic polynomial times
    prod (x - d)^e over the pairs (d, e) of roots, one factor at a time."""
    for d, e in roots:
        for _ in range(e):
            coeffs = [a - d * b for a, b in zip([0, *coeffs], [*coeffs, 0])]
    assert coeffs[-1] == 1, "leading coefficient must be 1 for a monic result"
    return tuple(coeffs)


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
    for cyclic orders, n^{n-2} for noncyclic; 1 for n = 1, since the
    one-vertex graph is its own spanning tree."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if n == 1:
        return 1
    if not cyclic:
        return n ** (n - 2)
    phi = euler_phi(n)
    if n - phi - 1 == 0:
        # disconnected (prime n or n = 2); avoids the negative exponent
        return 0
    return n ** (n - phi - 2) * (n - phi - 1) * (n - 1) ** (phi - 1)


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


def kappa_formula(n: int, cyclic: bool) -> int:
    """Vertex connectivity of the strong power graph: n - phi(n) - 1 for
    cyclic groups (0 when n is prime or 1), n - 1 otherwise."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if n == 1:
        return 0
    if cyclic:
        return n - euler_phi(n) - 1
    return n - 1


def chi_formula(n: int, cyclic: bool) -> int:
    """Chromatic number of the strong power graph: n - 1 for cyclic groups
    of order >= 2, n otherwise."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if n == 1:
        return 1
    if cyclic:
        return n - 1
    return n


def cyclic_line_graph_classification(n: int, cyclic: bool = True) -> bool:
    """True iff the strong power graph of a group of order n is a line
    graph. For Z_n that happens exactly for n = 1 (the one-vertex graph is
    L(K_2)), n = 4, n = 9, and prime n; a noncyclic group's graph is
    complete, the line graph of a star."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    return not cyclic or n in (1, 4, 9) or euler_phi(n) == n - 1


def cayley_classification(n: int, cyclic: bool) -> bool:
    """True iff the strong power graph of a group of order n is a Cayley
    graph of some group, which happens exactly when the group is noncyclic
    (the witness being C(G, G without identity) = K_n). A cyclic group of
    order >= 3 yields a non-regular graph, which no Cayley graph is."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    return not cyclic


def closed_forms(n: int, cyclic: bool) -> dict[str, object]:
    """The closed-form invariants `invariants` and `sweep` print for a group
    of order n: phi, the Laplacian spectrum, its algebraic connectivity
    ("a"), tau, the Laplacian energy by definition from that spectrum
    ("le"), kappa, chi and line-graph membership."""
    spectrum = closed_form_spectrum(n, cyclic)
    return {
        "phi": euler_phi(n),
        "spectrum": spectrum,
        "a": algebraic_connectivity(spectrum),
        "tau": spanning_tree_count_formula(n, cyclic),
        # the Laplacian trace is the degree sum, 2m
        "le": laplacian_energy_from_spectrum(spectrum, spectrum.trace() // 2, n),
        "kappa": kappa_formula(n, cyclic),
        "chi": chi_formula(n, cyclic),
        "linegraph": cyclic_line_graph_classification(n, cyclic),
    }
