"""Formula-vs-oracle verification harness.

Every closed form in the library (see `formulas`) is paired here with an
independent computation on the constructed graph, in one table, INVARIANTS,
which the verify and invariants commands read. Each (check, group) pair
yields one record with status agree, disagree, or skipped; a record below
the least order of its closed form, or past its oracle's size guard, is
skipped rather than failed. The kappa, chi and cayley oracles have no
guard: every strong power graph is K_n or a clique plus one vertex, and they
decide by that shape at every order. Disagreements are
compared against the shipped known-discrepancy list so documented formula
defects are reported without masking new ones.
"""

from __future__ import annotations

import json
import os
from functools import cached_property
from typing import Callable, NamedTuple, Optional

from .errors import SizeGuardError
from .formulas import (
    CHECK_NAMES,
    _text,
    char_poly_from_spectrum,
    chi_formula,
    closed_form_spectrum,
    cyclic_line_graph_classification,
    kappa_formula,
    laplacian_energy_closed_form,
    laplacian_energy_from_spectrum,
    spanning_tree_count_formula,
)
from .groups import FiniteGroup, is_cyclic, make_cyclic, noncyclic_corpus
from .graphs import (
    Graph,
    chromatic_number_exact,
    is_regular,
    strong_power_graph,
    twin_quotient,
    vertex_connectivity,
)
from .spectral import (
    char_poly_exact,
    eigenvalues_numeric,
    laplacian_spectrum,
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
    full_connection_set,
    is_line_graph,
)

FAMILIES = ("cyclic", "corpus")

AGREE = "agree"
DISAGREE = "disagree"
SKIPPED = "skipped"

NUMERIC_SPECTRUM_TOL = 1e-8


class CheckRecord(NamedTuple):
    """One verify record; its fields are the columns the report prints."""

    check: str
    family: str
    param: str
    n: int
    formula: str
    oracle: str
    status: str
    note: str = ""


class KnownDiscrepancy(NamedTuple):
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
    path = os.path.join(os.path.dirname(__file__), "known_discrepancies.json")
    with open(path, encoding="utf-8") as fh:
        return tuple(KnownDiscrepancy(**entry) for entry in json.load(fh))


class GroupCase:
    """One group under check: its order, whether it is cyclic, and its strong
    power graph. The graph and the twin quotients of its Laplacian and of
    its adjacency matrix (see twin_quotient) are built on first use, at most
    once each, and shared by every check of the group. The numeric Laplacian
    spectrum is not kept: the spectrum check alone reads it."""

    def __init__(self, group: FiniteGroup):
        self.group, self.n, self.cyclic = group, group.n, is_cyclic(group)

    @cached_property
    def graph(self) -> Graph:
        return strong_power_graph(self.group)

    @cached_property
    def lap_quotient(self):
        return twin_quotient(self.graph, True)

    @cached_property
    def adj_quotient(self):
        return twin_quotient(self.graph, False)

    def formula(self, check: str):
        """The check's closed form, or None below the least order it is
        stated for."""
        inv = INVARIANTS[check]
        return inv.formula(self) if self.n >= inv.min_n else None

    def oracle(self, check: str):
        """The check's oracle value, or None past the oracle's size guard."""
        try:
            return INVARIANTS[check].oracle(self)
        except SizeGuardError:
            return None


def _agreement(case, formula, oracle, note: str = "") -> tuple[str, str, str, str]:
    status = AGREE if formula == oracle else DISAGREE
    return _text(formula), _text(oracle), status, note


def _judge_spectrum(case, exact, numeric):
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


def _judge_le(case, formula, spectrum):
    """The energy by definition, sum |lambda - 2m/n| in exact Fractions,
    over the exact spectrum of the twin quotient; a spectrum that is not
    integral has no exact energy here, and its record disagrees."""
    if spectrum is None:
        return _text(formula), "", DISAGREE, "the Laplacian spectrum is not integral"
    oracle = laplacian_energy_from_spectrum(spectrum, case.graph.edge_count(), case.n)
    return _agreement(case, formula, oracle, "exact spectrum of the twin quotient")


def _judge_shape(case, formula, oracle):
    """The kappa and chi oracles read the graph's shape, K_n or a clique
    plus one vertex; a graph of neither shape is a construction defect, and
    its record disagrees at any order."""
    if oracle is None:
        return _text(formula), "", DISAGREE, (
            "graph is neither complete nor a clique plus one vertex")
    return _agreement(case, formula, oracle)


def _judge_cayley(case, claimed, oracle):
    """For a noncyclic group the oracle is equality, as labelled graphs,
    with the witness C(G, G \\ {e}) = K_n; for a cyclic one it is
    regularity, where only a non-regular graph settles the claim."""
    if not case.cyclic:
        return _agreement(case, claimed, oracle, "witness C(G, G \\ {e})")
    if oracle:
        return _text(claimed), "regular (inconclusive)", DISAGREE, ""
    return _agreement(case, claimed, False, "graph is non-regular")


def _complete_laplacian(n: int) -> tuple:
    """The twin quotient of L(K_n): one class, -1 off the diagonal and n - 1
    on it (K_1's one vertex is a singleton, whose c_aa is its 0)."""
    return (n,), ((-1 if n > 1 else 0,),), (n - 1,)


class Invariant(NamedTuple):
    """One closed form paired with its oracle. Both take a GroupCase; the
    judge turns their values into the record's formula, oracle, status and
    note. The closed form is stated for orders n >= min_n."""

    min_n: int
    formula: Callable[[GroupCase], object]
    oracle: Callable[[GroupCase], object]
    judge: Callable[[GroupCase, object, object], tuple[str, str, str, str]] = _agreement


# Every check, in the canonical record order of CHECK_NAMES. Closed forms
# and oracles are lambdas, so each call looks its function up in this module
# when it runs and a function patched onto the module after import is the
# one called.
INVARIANTS: dict[str, Invariant] = {
    "spectrum": Invariant(
        1, lambda c: closed_form_spectrum(c.n, c.cyclic),
        lambda c: eigenvalues_numeric(c.graph), _judge_spectrum),
    "charpoly": Invariant(
        1, lambda c: char_poly_from_spectrum(closed_form_spectrum(c.n, c.cyclic)),
        lambda c: char_poly_exact(c.lap_quotient)),
    "tau": Invariant(
        2, lambda c: spanning_tree_count_formula(c.n, c.cyclic),
        lambda c: spanning_tree_count_kirchhoff(c.lap_quotient)),
    "le": Invariant(
        2, lambda c: laplacian_energy_closed_form(c.n, c.cyclic),
        lambda c: laplacian_spectrum(c.lap_quotient), _judge_le),
    "kappa": Invariant(
        1, lambda c: kappa_formula(c.n, c.cyclic),
        lambda c: vertex_connectivity(c.graph), _judge_shape),
    "chi": Invariant(
        1, lambda c: chi_formula(c.n, c.cyclic),
        lambda c: chromatic_number_exact(c.graph), _judge_shape),
    "linegraph": Invariant(
        1, lambda c: cyclic_line_graph_classification(c.n, c.cyclic),
        lambda c: is_line_graph(c.graph)),
    "cayley": Invariant(
        3, lambda c: cayley_classification(c.group),
        lambda c: is_regular(c.graph) if c.cyclic
        else c.graph == cayley_graph(c.group, full_connection_set(c.group)),
        _judge_cayley),
    "perm_adj": Invariant(
        2, lambda c: clique_plus_vertex_adjacency_permanent(CliqueParams.for_group(c.n, c.cyclic)),
        lambda c: permanent_ryser(c.adj_quotient)),
    "perm_lap": Invariant(
        2, lambda c: clique_plus_vertex_laplacian_permanent(CliqueParams.for_group(c.n, c.cyclic)),
        lambda c: permanent_ryser(c.lap_quotient)),
    "perm_complete": Invariant(
        1, lambda c: complete_graph_laplacian_permanent(c.n),
        lambda c: permanent_ryser(_complete_laplacian(c.n)),
        lambda c, f, o: _agreement(c, f, o, f"complete graph K_{c.n}")),
}


def run_one_check(check: str, family: str, spec: str, case: GroupCase) -> CheckRecord:
    n = case.n
    inv = INVARIANTS[check]
    if n < inv.min_n:
        return CheckRecord(
            check, family, spec, n, "", "", SKIPPED,
            f"closed form stated for n >= {inv.min_n}",
        )
    # the oracle runs first, so a refused record computes no closed form
    try:
        oracle = inv.oracle(case)
    except SizeGuardError as e:
        return CheckRecord(check, family, spec, n, "", "", SKIPPED, str(e))
    return CheckRecord(check, family, spec, n, *inv.judge(case, inv.formula(case), oracle))


class VerifyReport:
    """The records of one run over a family and an inclusive order range."""

    def __init__(self, family: str, n_lo: int, n_hi: int, records: list[CheckRecord]):
        self.family, self.n_lo, self.n_hi, self.records = family, n_lo, n_hi, records

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

    def to_tsv(self) -> str:
        rows = [CheckRecord._fields, *self.records]
        return "".join("\t".join(map(str, row)) + "\n" for row in rows)

    def to_json(self) -> str:
        payload = {
            "family": self.family,
            "range": [self.n_lo, self.n_hi],
            "counts": self.counts(),
            "records": [r._asdict() for r in self.records],
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
    bad = [c for c in checks if c not in INVARIANTS]
    if bad:
        raise ValueError(f"unknown checks: {', '.join(bad)}")
    if not checks:
        raise ValueError(f"empty check list; expected some of: {', '.join(CHECK_NAMES)}")
    if family == "cyclic":
        members = [(f"zn:{n}", make_cyclic(n)) for n in range(n_lo, n_hi + 1)]
    else:
        corpus = noncyclic_corpus()
        members = [(spec, grp) for spec, grp in corpus if n_lo <= grp.n <= n_hi]
        if not members:
            orders = sorted({grp.n for _, grp in corpus})
            raise ValueError(
                f"no corpus group has order in {n_lo}..{n_hi}; the corpus orders "
                f"are {', '.join(map(str, orders))}"
            )
    ordered_checks = tuple(c for c in CHECK_NAMES if c in checks)
    records = []
    for spec, grp in members:
        case = GroupCase(grp)
        for check in ordered_checks:
            records.append(run_one_check(check, family, spec, case))
    return VerifyReport(family, n_lo, n_hi, records)
