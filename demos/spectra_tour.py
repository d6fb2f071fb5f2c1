#!/usr/bin/env python3
"""
A tour of strong power graph spectra
====================================

Builds the strong power graph for a handful of groups, then walks through
the exact Laplacian invariants: spectrum, characteristic polynomial,
spanning tree count, and Laplacian energy. Every closed form is printed
next to the value recomputed from the constructed graph, so disagreements
are visible rather than assumed away.
"""

from fractions import Fraction

from strongpow import (
    char_poly_exact,
    char_poly_from_spectrum,
    closed_form_spectrum,
    eigenvalues_numeric,
    is_cyclic,
    laplacian,
    laplacian_energy_closed_form,
    laplacian_energy_from_spectrum,
    parse_group_spec,
    spanning_tree_count_formula,
    spanning_tree_count_kirchhoff,
    strong_power_graph,
)

SPECS = ["zn:4", "zn:5", "zn:6", "zn:9", "klein", "dihedral:4", "sym:4"]

for spec in SPECS:
    g = parse_group_spec(spec)
    graph = strong_power_graph(g)
    cyclic = is_cyclic(g)
    lap = laplacian(graph)
    print(f"== {spec} (order {g.n}, {'cyclic' if cyclic else 'noncyclic'}) ==")
    print(f"   edges: {graph.edge_count()}")

    # closed-form Laplacian spectrum, written value^multiplicity
    spectrum = closed_form_spectrum(g.n, cyclic)
    print(f"   spectrum: {spectrum}")

    # the numeric eigenvalues of the constructed Laplacian back this up
    numeric = eigenvalues_numeric(graph)
    target = spectrum.eigenvalues_desc()[::-1]
    dev = max(abs(a - b) for a, b in zip(numeric, target))
    print(f"   max deviation from numeric eigenvalues: {dev:.2e}")

    # exact characteristic polynomial vs the spectrum's product form
    exact = char_poly_exact(lap)
    assert exact == char_poly_from_spectrum(spectrum)
    print(f"   char poly coefficients, ascending: {exact}")

    # spanning trees: closed form vs the exact Laplacian char poly
    tau = spanning_tree_count_formula(g.n, cyclic)
    assert tau == spanning_tree_count_kirchhoff(lap)
    print(f"   spanning trees: {tau}")

    # Laplacian energy: the definition-based value, next to the stated
    # closed form, which is wrong for every cyclic order >= 3
    le = laplacian_energy_from_spectrum(spectrum, graph.edge_count(), g.n)
    stated = laplacian_energy_closed_form(g.n, cyclic)
    marker = "" if le == stated else "   <- documented discrepancy"
    print(f"   laplacian energy: {le} (closed form says {stated}){marker}")
    print()

print("cyclic laplacian energy, definition vs closed form, n = 3..12:")
for n in range(3, 13):
    g = parse_group_spec(f"zn:{n}")
    graph = strong_power_graph(g)
    s = closed_form_spectrum(n, True)
    le = laplacian_energy_from_spectrum(s, graph.edge_count(), n)
    stated = laplacian_energy_closed_form(n, True)
    gap = le - stated
    assert gap > Fraction(0)
    print(f"   n={n:2d}: definition {str(le):>6}  closed form {str(stated):>6}  gap {gap}")
