"""Strong power graphs of finite groups: exact construction, spectra,
spanning trees, Laplacian energy, permanents, line-graph and Cayley
classification, with every closed form paired against an independent oracle.

The strong power graph of a finite group G of order n joins distinct
elements a and b whenever a^i = b^j for some exponents 1 <= i, j <= n-1.

The names below are the package's public API. Each name, and each module
that holds them, is imported on first use (PEP 562), so `import strongpow`
loads neither numpy nor the command line, `strongpow.cli`.
"""

import importlib

_EXPORTS = {
    "errors": "SizeGuardError",
    "formulas": """CHECK_NAMES ExactSpectrum algebraic_connectivity
        cayley_classification char_poly_from_spectrum chi_formula
        closed_form_spectrum cyclic_line_graph_classification euler_phi
        kappa_formula laplacian_energy_closed_form
        laplacian_energy_from_spectrum spanning_tree_count_formula""",
    "groups": """FiniteGroup GroupError GroupSpecError InvalidOrderError
        MissingInverseError NoIdentityError NotAssociativeError
        NotLatinSquareError element_order is_cyclic load_cayley_table_csv
        make_cyclic make_dihedral make_direct_product make_from_table
        make_klein make_symmetric noncyclic_corpus parse_group_spec""",
    "graphs": """Graph chromatic_number_exact complete_graph degree_sequence
        graph_from_edges graph_to_dot graph_to_json graph_to_matrix_market
        is_complete is_regular strong_power_graph twin_quotient
        vertex_connectivity""",
    "spectral": """char_poly_exact eigenvalues_numeric laplacian
        laplacian_spectrum spanning_tree_count_kirchhoff""",
    "permanents": """clique_plus_vertex_adjacency_permanent
        clique_plus_vertex_laplacian_permanent clique_plus_vertex_shape
        complete_graph_laplacian_permanent permanent_ryser""",
    "structure": "is_line_graph",
    "verify": """CheckRecord KnownDiscrepancy VerifyReport
        load_known_discrepancies run_verify""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_MODULE_OF, "__version__"]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    # read from the module each time, so a name patched there is the one seen
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted([*globals(), *_MODULE_OF])
