import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongpow.formulas import euler_phi
from strongpow.groups import (
    MAX_TABLE_ORDER,
    FiniteGroup,
    GroupSpecError,
    InvalidOrderError,
    MissingInverseError,
    NoIdentityError,
    NotAssociativeError,
    NotLatinSquareError,
    element_order,
    is_cyclic,
    load_cayley_table_csv,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    make_from_table,
    make_klein,
    make_symmetric,
    noncyclic_corpus,
    parse_group_spec,
)

# Latin square with identity 0 and all elements self-inverse, but
# (1*1)*2 = 2 while 1*(1*2) = 4.
NONASSOCIATIVE_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]

# Latin square with identity 0 where 2*3 = 0 but 3*2 = 1: inverses are
# one-sided only.
ONE_SIDED_INVERSE_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]

# Subtraction mod 3: every row is a permutation but no two-sided identity.
SUBTRACTION_MOD_3 = [
    [0, 2, 1],
    [1, 0, 2],
    [2, 1, 0],
]


def test_make_cyclic_basic():
    g = make_cyclic(6)
    assert g.n == 6
    assert g.identity == 0
    assert g.op(2, 5) == 1
    assert g.inverse(2) == 4
    assert list(g.elements()) == [0, 1, 2, 3, 4, 5]


def test_make_cyclic_rejects_nonpositive():
    with pytest.raises(InvalidOrderError):
        make_cyclic(0)
    with pytest.raises(InvalidOrderError):
        make_cyclic(-3)


def test_make_cyclic_rejects_order_past_bound():
    assert make_cyclic(MAX_TABLE_ORDER).n == MAX_TABLE_ORDER
    with pytest.raises(InvalidOrderError, match="exceeds bound 4096"):
        make_cyclic(MAX_TABLE_ORDER + 1)


def test_trivial_group():
    g = make_cyclic(1)
    assert g.n == 1
    assert g.op(0, 0) == 0
    assert is_cyclic(g)


def test_make_klein():
    g = make_klein()
    assert g.n == 4
    assert not is_cyclic(g)
    for x in g.elements():
        assert g.op(x, x) == g.identity
    assert g.op(1, 2) == 3


def test_make_dihedral():
    g = make_dihedral(3)
    assert g.n == 6
    assert not is_cyclic(g)
    orders = sorted(element_order(g, x) for x in g.elements())
    assert orders == [1, 2, 2, 2, 3, 3]


def test_dihedral_2_is_klein_like():
    g = make_dihedral(2)
    assert g.n == 4
    assert not is_cyclic(g)
    assert all(g.op(x, x) == g.identity for x in g.elements())


def test_make_symmetric():
    g = make_symmetric(3)
    assert g.n == 6
    assert not is_cyclic(g)
    assert sorted(element_order(g, x) for x in g.elements()) == [1, 2, 2, 2, 3, 3]
    with pytest.raises(InvalidOrderError):
        make_symmetric(0)
    with pytest.raises(InvalidOrderError):
        make_symmetric(6)


def test_direct_product_orders():
    g = make_direct_product(make_cyclic(2), make_cyclic(4))
    assert g.n == 8
    assert not is_cyclic(g)
    # coprime factor orders give a cyclic product
    h = make_direct_product(make_cyclic(2), make_cyclic(3))
    assert h.n == 6
    assert is_cyclic(h)


def test_element_order_divides_group_order():
    for _, g in noncyclic_corpus(16):
        for x in g.elements():
            assert g.n % element_order(g, x) == 0


def test_euler_phi_matches_gcd_count():
    for n in range(1, 21):
        brute = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert euler_phi(n) == brute
    assert euler_phi(1) == 1


def test_make_from_table_accepts_z3():
    rows = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    g = make_from_table(rows)
    assert g.n == 3
    assert g.identity == 0
    assert is_cyclic(g)


def test_make_from_table_rejects_empty():
    with pytest.raises(InvalidOrderError):
        make_from_table([])


def test_make_from_table_rejects_non_latin():
    # Each case names its first offending row, column or entry.
    cases = [
        ([[0, 1], [1, 1]], "row 1 is not a permutation of 0..1"),
        ([[0, 5], [5, 0]], "row 0 has out-of-range entry 5"),
        ([[0, 1, -1], [1, 2, 0], [2, 0, 1]], "row 0 has out-of-range entry -1"),
        # past the machine integer range, as a CSV cell can be
        ([[0, 2**64], [1, 0]], "row 0 has out-of-range entry 18446744073709551616"),
        # floats, strings and lists are refused, not truncated, parsed or
        # flattened into Z_2
        ([[0, 1.5], [1.5, 0]], "row 0 has non-integer entry 1.5"),
        ([[0, 1], [1.0, 0]], "row 1 has non-integer entry 1.0"),
        (np.array([[0.0, 1.0], [1.0, 0.0]]), "row 0 has non-integer entry 0.0"),
        ([["0", "1"], ["1", "0"]], "row 0 has non-integer entry '0'"),
        ([[0, 1], [1, "0"]], "row 1 has non-integer entry '0'"),
        ([[[0], [1]], [[1], [0]]], "row 0 has non-integer entry [0]"),
        ([[0, 1], [1]], "row 1 has length 1, expected 2"),
        ([0], "row 0 is 0, not a sequence of integers"),
        ([[0, 1, 2], [1, 2, 0], [2, 0, 0]], "row 2 is not a permutation of 0..2"),
        ([[0, 1, 2], [1, 0, 2], [2, 1, 0]], "column 1 is not a permutation of 0..2"),
    ]
    for table, message in cases:
        with pytest.raises(NotLatinSquareError) as ei:
            make_from_table(table)
        assert str(ei.value) == message


def test_make_from_table_rejects_no_identity():
    with pytest.raises(NoIdentityError, match="^no two-sided identity element$"):
        make_from_table(SUBTRACTION_MOD_3)
    # Z_3 relabelled so that its identity is 2
    assert make_from_table([[1, 2, 0], [2, 0, 1], [0, 1, 2]]).identity == 2


def test_make_from_table_rejects_one_sided_inverse():
    with pytest.raises(MissingInverseError, match="^element 2 has no two-sided inverse$"):
        make_from_table(ONE_SIDED_INVERSE_LOOP)


def test_make_from_table_rejects_nonassociative():
    with pytest.raises(NotAssociativeError, match=r"^\(a\*b\)\*c != a\*\(b\*c\) for a=1, b=1, c=2$"):
        make_from_table(NONASSOCIATIVE_LOOP)


def intercalate_perturbed_cyclic(n, a, b):
    """Z_n's table (n even) with the intercalate on rows a, a + n/2 and
    columns b, b + n/2 swapped: still a Latin square with identity 0."""
    m = n // 2
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    for i in (a, a + m):
        for j in (b, b + m):
            table[i % n][j % n] = (table[i % n][j % n] + m) % n
    return table


def test_make_from_table_rejects_perturbed_z128():
    table = intercalate_perturbed_cyclic(128, 1, 2)
    with pytest.raises(NotAssociativeError):
        make_from_table(table)


@st.composite
def perturbed_cyclic_tables(draw):
    m = draw(st.integers(3, 40))
    # rows and columns 0 and m would break the identity's row and column,
    # and a + b = 0 or m would move a 0 entry, so the inverse check fails first
    a = draw(st.integers(1, m - 1))
    b = draw(st.integers(1, m - 1).filter(lambda b: (a + b) % m))
    return intercalate_perturbed_cyclic(2 * m, a, b)


@settings(max_examples=100, deadline=None)
@given(perturbed_cyclic_tables())
def test_perturbed_tables_are_rejected(table):
    with pytest.raises(NotAssociativeError):
        make_from_table(table)


def reduced_latin_squares(n):
    """Every Latin square on 0..n-1 whose first row and column are 0..n-1."""
    def extend(rows):
        if len(rows) == n:
            yield rows
            return
        i = len(rows)
        for p in itertools.permutations(range(n)):
            if p[0] == i and all(p[j] != r[j] for r in rows for j in range(n)):
                yield from extend(rows + [p])
    yield from extend([tuple(range(n))])


def test_associativity_check_matches_all_triples():
    # Every loop of order <= 5 with identity 0; the reference tries all n^3
    # triples. A loop is accepted exactly when it is associative.
    for n in range(1, 6):
        for table in reduced_latin_squares(n):
            associative = all(
                table[table[a][b]][c] == table[a][table[b][c]]
                for a in range(n) for b in range(n) for c in range(n)
            )
            try:
                make_from_table(table)
                accepted = True
            except (MissingInverseError, NotAssociativeError):
                accepted = False
            assert accepted == associative, table


def ordered_failure(table):
    """The error, and for all but associativity its message, that the
    checks give when run in their documented order over every entry, row,
    column and triple; (None, None) for a group."""
    n = len(table)
    full = list(range(n))
    for i, row in enumerate(table):
        for v in row:
            if not 0 <= v < n:
                return NotLatinSquareError, f"row {i} has out-of-range entry {v}"
    for i, row in enumerate(table):
        if sorted(row) != full:
            return NotLatinSquareError, f"row {i} is not a permutation of 0..{n - 1}"
    for j in range(n):
        if sorted(row[j] for row in table) != full:
            return NotLatinSquareError, f"column {j} is not a permutation of 0..{n - 1}"
    ids = [e for e in range(n) if list(table[e]) == full and [r[e] for r in table] == full]
    if not ids:
        return NoIdentityError, "no two-sided identity element"
    e = ids[0]
    for x in range(n):
        if not any(table[x][y] == e == table[y][x] for y in range(n)):
            return MissingInverseError, f"element {x} has no two-sided inverse"
    if any(table[table[a][b]][c] != table[a][table[b][c]]
           for a in range(n) for b in range(n) for c in range(n)):
        return NotAssociativeError, None
    return None, None


@st.composite
def damaged_group_tables(draw):
    """A corpus group's table under a random relabeling, then changed in a
    few entries, rows or columns, or not at all."""
    _, g = draw(st.sampled_from(noncyclic_corpus(12)))
    n = g.n
    p = draw(st.permutations(range(n)))
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[p[a]][p[b]] = p[g.op(a, b)]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(("entry", "swap", "rows", "columns")))
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        k = draw(st.integers(0, n - 1))
        if kind == "entry":
            table[i][j] = draw(st.integers(-1, n))
        elif kind == "swap":
            table[i][j], table[i][k] = table[i][k], table[i][j]
        elif kind == "rows":
            table[i], table[k] = table[k], table[i]
        else:
            for row in table:
                row[j], row[k] = row[k], row[j]
    return table


@settings(max_examples=300, deadline=None)
@given(damaged_group_tables())
def test_validation_names_the_first_failure_in_order(table):
    # columns are read only once another check fails, and must still be
    # named before the identity, inverse and associativity errors
    error, message = ordered_failure(table)
    if error is None:
        g = make_from_table(table)
        assert g.table == tuple(map(tuple, table))
        return
    with pytest.raises(error) as ei:
        make_from_table(table)
    if message is not None:
        assert str(ei.value) == message


def test_every_group_table_is_accepted():
    for spec, g in noncyclic_corpus(24):
        # immutable rows of ints, every entry the int of tuple(range(n))
        # that equals it
        assert isinstance(g.table, tuple) and all(type(row) is tuple for row in g.table), spec
        assert all(type(x) is int for row in g.table for x in row), spec
        assert len({id(x) for row in g.table for x in row}) == g.n, spec
        rows = [list(row) for row in g.table]
        for table in (g.table, rows, np.array(rows)):
            assert make_from_table(table).table == g.table, spec
    for k in range(1, 101):
        assert make_dihedral(k).n == 2 * k


def test_frozen_group_is_hashable_and_immutable():
    klein = make_klein()
    for g in (make_cyclic(3), klein):
        assert isinstance(g, FiniteGroup)
        assert {g: g.n}[g] == g.n  # hashes
        with pytest.raises(AttributeError):
            g.n = 4
    with pytest.raises(TypeError):  # the table is read-only
        klein.table[0][0] = 1
    assert klein.op(0, 0) == 0


def test_parse_group_spec_valid():
    assert parse_group_spec("zn:7").n == 7
    assert parse_group_spec("klein").n == 4
    assert parse_group_spec("dihedral:4").n == 8
    assert parse_group_spec("sym:4").n == 24
    g = parse_group_spec("product:zn:2+zn:4")
    assert g.n == 8 and not is_cyclic(g)
    nested = parse_group_spec("product:zn:2+product:zn:2+zn:2")
    assert nested.n == 8
    assert all(nested.op(x, x) == nested.identity for x in nested.elements())


def test_parse_group_spec_errors_report_position():
    with pytest.raises(GroupSpecError) as ei:
        parse_group_spec("zn:x")
    assert ei.value.pos == 3
    with pytest.raises(GroupSpecError):
        parse_group_spec("")
    with pytest.raises(GroupSpecError):
        parse_group_spec("frobnicate:3")
    with pytest.raises(GroupSpecError):
        parse_group_spec("zn:5junk")
    with pytest.raises(GroupSpecError):
        parse_group_spec("product:zn:2")
    # characters that isdigit accepts but int() does not, such as "²", are
    # not read as part of an integer
    with pytest.raises(GroupSpecError, match=r"^expected an integer \(position 3\)$"):
        parse_group_spec("zn:²")
    with pytest.raises(GroupSpecError, match=r"^trailing text '²' \(position 4\)$"):
        parse_group_spec("zn:1²")
    # nor are decimal digits of other scripts, which int() would read: an
    # Arabic-Indic three is not 3
    with pytest.raises(GroupSpecError, match=r"^expected an integer \(position 3\)$"):
        parse_group_spec("zn:\u0663")


def test_load_cayley_table_csv(tmp_path):
    path = tmp_path / "z3.csv"
    path.write_text("0,1,2\n1,2,0\n2,0,1\n")
    g = load_cayley_table_csv(str(path))
    assert g.n == 3
    assert is_cyclic(g)
    spec_g = parse_group_spec(f"table:{path}")
    assert spec_g.table == g.table


def test_load_cayley_table_csv_rejects_bad_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1\nx,0\n")
    with pytest.raises(ValueError):
        load_cayley_table_csv(str(path))


def test_noncyclic_corpus_composition():
    corpus = noncyclic_corpus(24)
    assert len(corpus) >= 10
    orders = [g.n for _, g in corpus]
    assert orders == sorted(orders)
    assert all(4 <= g.n <= 24 for _, g in corpus)
    assert all(not is_cyclic(g) for _, g in corpus)
    specs = [s for s, _ in corpus]
    assert len(set(specs)) == len(specs)
    assert "klein" in specs
    small = noncyclic_corpus(8)
    assert all(g.n <= 8 for _, g in small)
