"""Formula-vs-oracle verification harness.

Every closed form in the library is paired here with an independent
computation on the constructed graph. Each (check, group) pair yields one
record with status agree, disagree, or skipped; checks whose oracle exceeds
its size guard auto-skip rather than fail. Disagreements are compared against
the shipped known-discrepancy list so documented formula defects are reported
without masking new ones.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Optional

from .errors import SizeGuardError
from .groups import FiniteGroup, is_cyclic, make_cyclic, noncyclic_corpus
from .graphs import (
    Graph,
    chromatic_number_exact,
    complete_graph,
    graph_isomorphic,
    is_regular,
    strong_power_graph,
    vertex_connectivity_bruteforce,
)
from .spectral import (
    adjacency,
    char_poly_exact,
    char_poly_from_spectrum,
    closed_form_spectrum,
    eigenvalues_numeric,
    laplacian,
    laplacian_energy_closed_form,
    spanning_tree_count_formula,
    spanning_tree_count_kirchhoff,
)
from .permanents import (
    CliqueParams,
    clique_plus_vertex_adjacency_permanent,
    clique_plus_vertex_laplacian_permanent,
    complete_graph_laplacian_permanent,
    permanent_ryser,
)
from .structure import (
    cayley_classification,
    cayley_graph,
    chi_formula,
    cyclic_line_graph_classification,
    full_connection_set,
    is_line_graph,
    kappa_formula,
)

FAMILIES = ("cyclic", "corpus")

AGREE = "agree"
DISAGREE = "disagree"
SKIPPED = "skipped"

NUMERIC_SPECTRUM_TOL = 1e-8
LE_RECOMPUTE_TOL = 1e-7


@dataclass(frozen=True)
class CheckRecord:
    check: str
    family: str
    spec: str
    n: int
    formula_value: str
    oracle_value: str
    status: str
    note: str = ""


@dataclass(frozen=True)
class KnownDiscrepancy:
    """One documented formula defect: a check name plus a parameter
    predicate. A disagree record matching an entry keeps exit code 0."""

    check: str
    family: Optional[str] = None
    n_min: Optional[int] = None
    n_max: Optional[int] = None
    explanation: str = ""

    def matches(self, rec: CheckRecord) -> bool:
        if rec.check != self.check:
            return False
        if self.family is not None and rec.family != self.family:
            return False
        if self.n_min is not None and rec.n < self.n_min:
            return False
        if self.n_max is not None and rec.n > self.n_max:
            return False
        return True


def load_known_discrepancies() -> tuple[KnownDiscrepancy, ...]:
    text = (
        resources.files("strongpow")
        .joinpath("known_discrepancies.json")
        .read_text(encoding="utf-8")
    )
    entries = json.loads(text)
    return tuple(
        KnownDiscrepancy(
            check=e["check"],
            family=e.get("family"),
            n_min=e.get("n_min"),
            n_max=e.get("n_max"),
            explanation=e.get("explanation", ""),
        )
        for e in entries
    )


def _bool_str(b: bool) -> str:
    return "true" if b else "false"


def _agreement(formula, oracle, note: str = "") -> tuple[str, str, str, str]:
    status = AGREE if formula == oracle else DISAGREE
    return str(formula), str(oracle), status, note


def _check_spectrum(g, graph, n, cyclic):
    exact = closed_form_spectrum(n, cyclic)
    numeric = eigenvalues_numeric(laplacian(graph), tol=NUMERIC_SPECTRUM_TOL)
    expected = list(reversed(exact.eigenvalues_desc()))
    worst = max(
        (abs(a - b) for a, b in zip(numeric, expected)), default=0.0
    )
    # Merge the numeric eigenvalues for display, rounding to 8 places.
    merged: list[tuple[float, int]] = []
    for v in sorted((round(x, 8) for x in numeric), reverse=True):
        if merged and merged[-1][0] == v:
            merged[-1] = (v, merged[-1][1] + 1)
        else:
            merged.append((v, 1))
    oracle_str = " ".join(f"{v:g}^{m}" for v, m in merged)
    status = AGREE if worst <= NUMERIC_SPECTRUM_TOL else DISAGREE
    return str(exact), oracle_str, status, f"max deviation {worst:.2e}"


def _check_charpoly(g, graph, n, cyclic):
    formula = char_poly_from_spectrum(closed_form_spectrum(n, cyclic))
    oracle = char_poly_exact(laplacian(graph))
    return _agreement(tuple(formula.coeffs), tuple(oracle.coeffs))


def _check_tau(g, graph, n, cyclic):
    formula = spanning_tree_count_formula(n, cyclic)
    oracle = spanning_tree_count_kirchhoff(graph)
    return _agreement(formula, oracle)


def _check_le(g, graph, n, cyclic):
    formula = laplacian_energy_closed_form(n, cyclic)
    numeric = eigenvalues_numeric(laplacian(graph))
    snapped = []
    for lam in numeric:
        k = round(lam)
        if abs(lam - k) > NUMERIC_SPECTRUM_TOL:
            return (
                str(formula),
                f"non-integer eigenvalue {lam!r}",
                DISAGREE,
                "definition-based recomputation expected an integer spectrum",
            )
        snapped.append(k)
    mean = Fraction(2 * graph.edge_count(), n)
    oracle = sum((abs(Fraction(k) - mean) for k in snapped), Fraction(0))
    numeric_le = sum(abs(lam - float(mean)) for lam in numeric)
    drift = abs(numeric_le - float(oracle))
    note = f"float recomputation drift {drift:.2e}"
    if drift > LE_RECOMPUTE_TOL:
        return str(formula), str(oracle), DISAGREE, note
    return _agreement(formula, oracle, note)


def _check_kappa(g, graph, n, cyclic):
    formula = kappa_formula(n, cyclic)
    oracle = vertex_connectivity_bruteforce(graph)
    return _agreement(formula, oracle)


def _check_chi(g, graph, n, cyclic):
    formula = chi_formula(n, cyclic)
    oracle = chromatic_number_exact(graph)
    return _agreement(formula, oracle)


def _check_linegraph(g, graph, n, cyclic):
    if cyclic:
        formula = cyclic_line_graph_classification(n)
    else:
        # Complete graphs are line graphs of stars.
        formula = True
    oracle = is_line_graph(graph)
    return _agreement(_bool_str(formula), _bool_str(oracle))


def _check_cayley(g, graph, n, cyclic):
    claimed = cayley_classification(g)
    if not cyclic:
        witness = cayley_graph(g, full_connection_set(g))
        ok = graph_isomorphic(graph, witness)
        return _agreement(_bool_str(claimed), _bool_str(ok), "witness C(G, G \\ {e})")
    if n < 3:
        return None, None, SKIPPED, (
            "edgeless boundary case: regularity cannot separate cyclic from "
            "Cayley at n <= 2"
        )
    regular = is_regular(graph)
    if regular:
        return _bool_str(claimed), "regular (inconclusive)", DISAGREE, ""
    return _agreement(_bool_str(claimed), _bool_str(False), "graph is non-regular")


def _check_perm_adj(g, graph, n, cyclic):
    formula = clique_plus_vertex_adjacency_permanent(CliqueParams.for_group(n, cyclic))
    oracle = permanent_ryser(adjacency(graph))
    return _agreement(formula, oracle)


def _check_perm_lap(g, graph, n, cyclic):
    formula = clique_plus_vertex_laplacian_permanent(CliqueParams.for_group(n, cyclic))
    oracle = permanent_ryser(laplacian(graph))
    return _agreement(formula, oracle)


def _check_perm_complete(g, graph, n, cyclic):
    formula = complete_graph_laplacian_permanent(n)
    oracle = permanent_ryser(laplacian(complete_graph(n)))
    return _agreement(formula, oracle, f"complete graph K_{n}")


# Every check in canonical record order, with the least order n its closed
# form is stated for; smaller orders are recorded as skipped.
_CHECKS = {
    "spectrum": (_check_spectrum, 1),
    "charpoly": (_check_charpoly, 1),
    "tau": (_check_tau, 2),
    "le": (_check_le, 2),
    "kappa": (_check_kappa, 1),
    "chi": (_check_chi, 1),
    "linegraph": (_check_linegraph, 1),
    "cayley": (_check_cayley, 1),
    "perm_adj": (_check_perm_adj, 2),
    "perm_lap": (_check_perm_lap, 2),
    "perm_complete": (_check_perm_complete, 1),
}

CHECK_NAMES = tuple(_CHECKS)


def run_one_check(check: str, family: str, spec: str, group: FiniteGroup,
                  graph: Graph) -> CheckRecord:
    n = group.n
    func, min_n = _CHECKS[check]
    if n < min_n:
        return CheckRecord(
            check, family, spec, n, "", "", SKIPPED,
            f"closed form stated for n >= {min_n}",
        )
    try:
        formula, oracle, status, note = func(group, graph, n, is_cyclic(group))
    except SizeGuardError as e:
        return CheckRecord(check, family, spec, n, "", "", SKIPPED, str(e))
    return CheckRecord(
        check, family, spec, n,
        "" if formula is None else str(formula),
        "" if oracle is None else str(oracle),
        status, note,
    )


@dataclass
class VerifyReport:
    family: str
    n_lo: int
    n_hi: int
    records: list[CheckRecord]

    def counts(self) -> dict[str, int]:
        out = {AGREE: 0, DISAGREE: 0, SKIPPED: 0}
        for r in self.records:
            out[r.status] += 1
        return out

    def undocumented_disagreements(
        self, known: tuple[KnownDiscrepancy, ...]
    ) -> list[CheckRecord]:
        return [
            r
            for r in self.records
            if r.status == DISAGREE and not any(k.matches(r) for k in known)
        ]

    def exit_code(self, known: tuple[KnownDiscrepancy, ...]) -> int:
        return 1 if self.undocumented_disagreements(known) else 0

    def to_tsv(self) -> str:
        lines = ["check\tfamily\tparam\tn\tformula\toracle\tstatus\tnote"]
        for r in self.records:
            lines.append(
                f"{r.check}\t{r.family}\t{r.spec}\t{r.n}\t"
                f"{r.formula_value}\t{r.oracle_value}\t{r.status}\t{r.note}"
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "family": self.family,
            "range": [self.n_lo, self.n_hi],
            "counts": self.counts(),
            "records": [
                {
                    "check": r.check,
                    "family": r.family,
                    "param": r.spec,
                    "n": r.n,
                    "formula": r.formula_value,
                    "oracle": r.oracle_value,
                    "status": r.status,
                    "note": r.note,
                }
                for r in self.records
            ],
        }
        return json.dumps(payload, indent=2) + "\n"


def run_verify(
    family: str,
    n_lo: int,
    n_hi: int,
    checks: tuple[str, ...] = CHECK_NAMES,
) -> VerifyReport:
    """Run the requested checks over one family and an inclusive order range.

    Records come in (group, check) order, checks in CHECK_NAMES order
    whatever the order of `checks`."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if n_lo < 1 or n_hi < n_lo:
        raise ValueError(f"invalid range {n_lo}..{n_hi}")
    bad = [c for c in checks if c not in _CHECKS]
    if bad:
        raise ValueError(f"unknown checks: {', '.join(bad)}")
    if family == "cyclic":
        members = [(f"zn:{n}", make_cyclic(n)) for n in range(n_lo, n_hi + 1)]
    else:
        members = [
            (spec, grp) for spec, grp in noncyclic_corpus(n_hi) if grp.n >= n_lo
        ]
    ordered_checks = tuple(c for c in CHECK_NAMES if c in checks)
    records = []
    for spec, grp in members:
        graph = strong_power_graph(grp)
        for check in ordered_checks:
            records.append(run_one_check(check, family, spec, grp, graph))
    return VerifyReport(family, n_lo, n_hi, records)
