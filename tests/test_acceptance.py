"""End-to-end acceptance checks.

Each test covers one acceptance criterion, evaluates every sub-check into a
failure list, records a single PASS/FAIL line via the criteria_log fixture,
and only then asserts. The terminal summary therefore always shows one line
per criterion, even on failure.
"""

from strongpow.graphs import (
    complete_graph,
    chromatic_number_exact,
    graph_isomorphic,
    is_regular,
    strong_power_graph,
)
from strongpow.groups import make_cyclic, noncyclic_corpus, parse_group_spec
from strongpow.permanents import (
    CliqueParams,
    clique_plus_vertex_adjacency_permanent,
    clique_plus_vertex_laplacian_permanent,
    complete_graph_laplacian_permanent,
    permanent_ryser,
)
from strongpow.spectral import (
    adjacency,
    char_poly_exact,
    char_poly_from_spectrum,
    closed_form_spectrum,
    eigenvalues_numeric,
    laplacian,
    laplacian_energy_from_spectrum,
    spanning_tree_count_formula,
    spanning_tree_count_kirchhoff,
)
from strongpow.structure import (
    cayley_graph,
    chi_formula,
    cyclic_line_graph_classification,
    full_connection_set,
    is_line_graph,
    kappa_formula,
)
from strongpow.verify import CheckRecord, load_known_discrepancies, run_verify

from reference import (
    BEINEKE_PATTERNS,
    clique_plus_vertex_graph,
    cyclic_line_graph_root,
    induced_subgraph,
    line_graph_construct,
    permanent_expansion,
    root_graph_search,
    strong_power_graph_bruteforce,
    vertex_connectivity_bruteforce,
)

SPECTRUM_TOL = 1e-8
LE_TOL = 1e-7


def all_groups(max_order):
    """Cyclic orders 2..max_order plus the noncyclic corpus up to max_order."""
    members = [(f"zn:{n}", make_cyclic(n), True) for n in range(2, max_order + 1)]
    members += [(spec, g, False) for spec, g in noncyclic_corpus(max_order)]
    return members


def test_criterion_1_spectrum(criteria_log):
    failures = []
    for spec, g, cyclic in all_groups(24) + [
        (f"zn:{n}", make_cyclic(n), True) for n in range(25, 65)
    ]:
        if not cyclic and g.n > 24:
            continue
        if cyclic and g.n > 64:
            continue
        graph = strong_power_graph(g)
        lap = laplacian(graph)
        expected = closed_form_spectrum(g.n, cyclic)
        numeric = eigenvalues_numeric(lap)
        target = expected.eigenvalues_desc()[::-1]
        if len(numeric) != len(target):
            failures.append(f"{spec}: eigenvalue count mismatch")
            continue
        dev = max(abs(a - b) for a, b in zip(numeric, target))
        if dev > SPECTRUM_TOL:
            failures.append(f"{spec}: spectrum deviation {dev}")
        exact = char_poly_exact(lap)
        stated = char_poly_from_spectrum(expected)
        if exact.coeffs != stated.coeffs:
            failures.append(f"{spec}: characteristic polynomial mismatch")
    criteria_log("criterion 1 (spectrum and characteristic polynomial)", not failures)
    assert not failures, failures


def test_criterion_2_spanning_trees(criteria_log):
    failures = []
    for spec, g, cyclic in all_groups(32):
        if not cyclic and g.n > 16:
            continue
        graph = strong_power_graph(g)
        formula = spanning_tree_count_formula(g.n, cyclic)
        oracle = spanning_tree_count_kirchhoff(laplacian(graph))
        if formula != oracle:
            failures.append(f"{spec}: {formula} != {oracle}")
    if spanning_tree_count_formula(4, True) != 3:
        failures.append("spot value for the order-4 cyclic graph is not 3")
    if spanning_tree_count_kirchhoff(laplacian(complete_graph(4))) != 16:
        failures.append("spot value for K_4 is not 16")
    criteria_log("criterion 2 (spanning tree count)", not failures)
    assert not failures, failures


def test_criterion_3_laplacian_energy(criteria_log):
    failures = []
    # definition-based value from the exact spectrum vs an independent
    # floating-point recomputation from the constructed Laplacian
    for spec, g, cyclic in all_groups(16):
        graph = strong_power_graph(g)
        s = closed_form_spectrum(g.n, cyclic)
        exact = laplacian_energy_from_spectrum(s, graph.edge_count(), g.n)
        mean = 2 * graph.edge_count() / g.n
        recomputed = sum(abs(mu - mean) for mu in eigenvalues_numeric(laplacian(graph)))
        if abs(float(exact) - recomputed) > LE_TOL:
            failures.append(f"{spec}: exact {exact} vs recomputed {recomputed}")
    known = load_known_discrepancies()
    rep_cyc = run_verify("cyclic", 4, 4, checks=("le",))
    rec = rep_cyc.records[0]
    if (rec.status, rec.formula_value, rec.oracle_value) != ("disagree", "4", "6"):
        failures.append(
            f"cyclic n=4 record is ({rec.status}, {rec.formula_value}, "
            f"{rec.oracle_value}), expected (disagree, 4, 6)"
        )
    if rep_cyc.exit_code(known) != 0:
        failures.append("cyclic disagreement is not covered by the known list")
    rep_cor = run_verify("corpus", 4, 16, checks=("le",))
    if not all(r.status == "agree" for r in rep_cor.records):
        failures.append("noncyclic closed form 2(n-1) does not agree everywhere")
    if rep_cor.exit_code(known) != 0:
        failures.append("corpus laplacian energy exit code is nonzero")
    criteria_log("criterion 3 (laplacian energy)", not failures)
    assert not failures, failures


def test_criterion_4_connectivity_and_coloring(criteria_log):
    failures = []
    prime_checked = False
    for spec, g, cyclic in all_groups(12):
        graph = strong_power_graph(g)
        k_formula = kappa_formula(g.n, cyclic)
        k_oracle = vertex_connectivity_bruteforce(graph)
        if k_formula != k_oracle:
            failures.append(f"{spec}: kappa {k_formula} != {k_oracle}")
        c_formula = chi_formula(g.n, cyclic)
        c_oracle = chromatic_number_exact(graph)
        if c_formula != c_oracle:
            failures.append(f"{spec}: chi {c_formula} != {c_oracle}")
        if cyclic and g.n in (2, 3, 5, 7, 11):
            prime_checked = True
            if k_formula != 0 or k_oracle != 0:
                failures.append(f"{spec}: prime order should disconnect, kappa != 0")
    if not prime_checked:
        failures.append("no prime cyclic order was exercised")
    criteria_log("criterion 4 (connectivity and chromatic number)", not failures)
    assert not failures, failures


def test_criterion_5_line_graphs(criteria_log):
    failures = []
    for n in range(2, 31):
        g = strong_power_graph(make_cyclic(n))
        if is_line_graph(g) != cyclic_line_graph_classification(n):
            failures.append(f"n={n}: recognizer disagrees with classification")
    for i, p in enumerate(BEINEKE_PATTERNS):
        if root_graph_search(p) is not None:
            failures.append(f"pattern {i} has a root graph")
        for v in range(p.n):
            rest = [u for u in range(p.n) if u != v]
            if root_graph_search(induced_subgraph(p, rest)) is None:
                failures.append(f"pattern {i} minus vertex {v} is not a line graph")
    for n in (4, 5, 7, 9):
        root = cyclic_line_graph_root(n)
        g = strong_power_graph(make_cyclic(n))
        if not graph_isomorphic(line_graph_construct(root), g):
            failures.append(f"n={n}: root graph round trip failed")
    criteria_log("criterion 5 (line graph recognition)", not failures)
    assert not failures, failures


def test_criterion_6_cayley(criteria_log):
    failures = []
    for spec, g in noncyclic_corpus(12):
        witness = cayley_graph(g, full_connection_set(g))
        if not graph_isomorphic(strong_power_graph(g), witness):
            failures.append(f"{spec}: power graph is not the Cayley witness")
    for n in range(3, 25):
        if is_regular(strong_power_graph(make_cyclic(n))):
            failures.append(f"n={n}: cyclic power graph is unexpectedly regular")
    criteria_log("criterion 6 (cayley graph classification)", not failures)
    assert not failures, failures


def test_criterion_7_permanents(criteria_log):
    failures = []
    for spec, g, cyclic in all_groups(8):
        graph = strong_power_graph(g)
        for name, m in (("adjacency", adjacency(graph)), ("laplacian", laplacian(graph))):
            if permanent_ryser(m) != permanent_expansion(m):
                failures.append(f"{spec}: ryser != expansion on {name}")
    for n in range(2, 15):
        graph = strong_power_graph(make_cyclic(n))
        p = CliqueParams.for_group(n, True)
        if clique_plus_vertex_adjacency_permanent(p) != permanent_ryser(adjacency(graph)):
            failures.append(f"n={n}: adjacency permanent formula != ryser")
    if clique_plus_vertex_adjacency_permanent(CliqueParams.for_group(4, True)) != 1:
        failures.append("spot adjacency permanent at n=4 is not 1")
    for n in range(1, 13):
        if complete_graph_laplacian_permanent(n) != permanent_ryser(
            laplacian(complete_graph(n))
        ):
            failures.append(f"K_{n}: laplacian permanent formula != ryser")
    if complete_graph_laplacian_permanent(2) != 2:
        failures.append("spot complete-graph value at n=2 is not 2")
    if complete_graph_laplacian_permanent(4) != 120:
        failures.append("spot complete-graph value at n=4 is not 120")
    for m in range(0, 10):
        for k in range(0, 10 - m):
            if m + k == 0:
                continue
            graph = clique_plus_vertex_graph(m, k)
            p = CliqueParams(m, k)
            if clique_plus_vertex_adjacency_permanent(p) != permanent_ryser(
                adjacency(graph)
            ):
                failures.append(f"clique({m},{k}): adjacency permanent mismatch")
    # the cyclic laplacian permanent closed form, judged against Ryser; a
    # mismatch is documented, not silently fatal
    known = load_known_discrepancies()
    records = []
    for n in range(2, 13):
        graph = strong_power_graph(make_cyclic(n))
        oracle = permanent_ryser(laplacian(graph))
        value = clique_plus_vertex_laplacian_permanent(CliqueParams.for_group(n, True))
        records.append((n, value, oracle))
    if len(records) != 11:
        failures.append("laplacian permanent record is incomplete")
    for n, value, oracle in records:
        if value == oracle:
            continue
        rec = CheckRecord(
            "perm_lap", "cyclic", f"zn:{n}", n, str(value), str(oracle), "disagree"
        )
        if not any(k.matches(rec) for k in known):
            failures.append(
                f"n={n}: laplacian permanent {value} != {oracle} and is not documented"
            )
    spot = [r for r in records if r[0] == 4]
    if not spot or spot[0][2] != 22:
        failures.append("spot laplacian permanent oracle at n=4 is not 22")
    criteria_log("criterion 7 (permanent formulas)", not failures)
    assert not failures, failures


def test_criterion_8_construction_equivalence(criteria_log):
    failures = []
    # cyclic groups given as tables, so the power walk meets generators
    tables = [
        (spec, parse_group_spec(spec), True) for spec in ("product:zn:2+zn:3", "product:zn:3+zn:5")
    ]
    for spec, g, _ in all_groups(24) + [("zn:1", make_cyclic(1), True)] + tables:
        fast = strong_power_graph(g)
        slow = strong_power_graph_bruteforce(g)
        if fast.adj != slow.adj:
            failures.append(f"{spec}: constructions differ")
    criteria_log("criterion 8 (construction equivalence)", not failures)
    assert not failures, failures
