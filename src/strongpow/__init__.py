"""Strong power graphs of finite groups: exact construction, spectra,
spanning trees, Laplacian energy, permanents, line-graph and Cayley
classification, with every closed form paired against an independent oracle.

The strong power graph of a finite group G of order n joins distinct
elements a and b whenever a^i = b^j for some exponents 1 <= i, j <= n-1.

The names below are the package's public API. The command line lives in
`strongpow.cli`, which importing the package does not load.
"""

from .errors import SizeGuardError
from .groups import (
    FiniteGroup,
    GroupError,
    GroupSpecError,
    InvalidOrderError,
    MissingInverseError,
    NoIdentityError,
    NotAssociativeError,
    NotLatinSquareError,
    element_order,
    euler_phi,
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
from .graphs import (
    Graph,
    chromatic_number_exact,
    complete_graph,
    degree_sequence,
    graph_from_edges,
    graph_isomorphic,
    graph_to_dot,
    graph_to_json,
    is_complete,
    is_regular,
    strong_power_graph,
    vertex_connectivity,
)
from .spectral import (
    CharPoly,
    ExactSpectrum,
    IntMatrix,
    adjacency,
    algebraic_connectivity,
    char_poly_exact,
    char_poly_from_spectrum,
    closed_form_spectrum,
    eigenvalues_numeric,
    laplacian,
    laplacian_energy_closed_form,
    laplacian_energy_from_spectrum,
    spanning_tree_count_formula,
    spanning_tree_count_kirchhoff,
    to_matrix_market,
)
from .permanents import (
    CliqueParams,
    clique_plus_vertex_adjacency_permanent,
    clique_plus_vertex_laplacian_permanent,
    complete_graph_laplacian_permanent,
    permanent_ryser,
)
from .structure import (
    ConnectionSet,
    cayley_classification,
    cayley_graph,
    chi_formula,
    cyclic_line_graph_classification,
    full_connection_set,
    is_line_graph,
    kappa_formula,
    line_graph_root,
)
from .verify import (
    CHECK_NAMES,
    CheckRecord,
    KnownDiscrepancy,
    VerifyReport,
    load_known_discrepancies,
    run_verify,
)

__version__ = "0.1.0"
