"""Command-line surface: build strong power graphs, print invariant bundles,
run formula-vs-oracle verification sweeps, and export per-order CSV tables.

Exit codes: 0 success (verify: all agree or documented disagreements only),
1 undocumented disagreement from verify, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import SizeGuardError
from .groups import GroupError, GroupSpecError, parse_group_spec
from .graphs import degree_sequence, graph_to_dot, graph_to_json, strong_power_graph
from .spectral import ExactSpectrum, adjacency, laplacian, to_matrix_market
from .permanents import RYSER_LIMIT, permanent_ryser
from .verify import (
    CHECK_NAMES,
    GroupCase,
    closed_forms,
    load_known_discrepancies,
    run_verify,
)

_RANGE_RE = re.compile(r"^(\d+)\.\.(\d+)$")

SWEEP_COLUMNS = ("n", "phi", "spectrum", "a", "tau", "le", "kappa", "chi", "linegraph")


def _parse_range(text: str) -> tuple[int, int]:
    m = _RANGE_RE.match(text)
    if not m:
        raise ValueError(f"range must look like 2..24, got {text!r}")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo < 1 or hi < lo:
        raise ValueError(f"range bounds must satisfy 1 <= lo <= hi, got {text!r}")
    return lo, hi


@dataclass(frozen=True)
class InvariantBundle:
    """Every invariant the library computes for one group, with formula and
    oracle values side by side where both exist. Fields whose oracle exceeds
    its size guard hold None."""

    group: str
    n: int
    cyclic: bool
    phi: int
    edges: int
    degrees: tuple[int, ...]
    spectrum: ExactSpectrum
    algebraic_connectivity: int
    spanning_trees: int
    le_definition: Fraction
    le_closed_form: Optional[Fraction]
    kappa: int
    kappa_oracle: Optional[int]
    chi: int
    line_graph: bool
    cayley: bool
    per_adj_formula: Optional[int]
    per_adj_ryser: Optional[int]
    per_lap_formula: Optional[int]
    per_lap_ryser: Optional[int]

    def __post_init__(self):
        if self.spectrum.n != self.n:
            raise ValueError("spectrum multiplicities must sum to the order")


def compute_invariant_bundle(spec: str) -> InvariantBundle:
    case = GroupCase.of(parse_group_spec(spec))
    n, graph = case.n, case.graph
    forms = closed_forms(n, case.cyclic)
    # Past RYSER_LIMIT Ryser would refuse the matrices; skip building them.
    per_adj_ryser = per_lap_ryser = None
    if n <= RYSER_LIMIT:
        per_adj_ryser = permanent_ryser(case.adj_matrix)
        per_lap_ryser = permanent_ryser(case.lap_matrix)
    return InvariantBundle(
        group=spec,
        n=n,
        cyclic=case.cyclic,
        phi=forms["phi"],
        edges=graph.edge_count(),
        degrees=tuple(degree_sequence(graph)),
        spectrum=forms["spectrum"],
        algebraic_connectivity=forms["a"],
        spanning_trees=forms["tau"],
        le_definition=forms["le"],
        le_closed_form=case.formula("le"),
        kappa=forms["kappa"],
        kappa_oracle=case.oracle("kappa"),
        chi=forms["chi"],
        line_graph=case.oracle("linegraph"),
        cayley=case.formula("cayley"),
        per_adj_formula=case.formula("perm_adj"),
        per_adj_ryser=per_adj_ryser,
        per_lap_formula=case.formula("perm_lap"),
        per_lap_ryser=per_lap_ryser,
    )


def _bundle_rows(b: InvariantBundle) -> list[tuple[str, str]]:
    def opt(v) -> str:
        return "skipped" if v is None else str(v)

    return [
        ("group", b.group),
        ("order", str(b.n)),
        ("cyclic", "true" if b.cyclic else "false"),
        ("phi", str(b.phi)),
        ("edges", str(b.edges)),
        ("degrees", " ".join(map(str, b.degrees))),
        ("spectrum", str(b.spectrum)),
        ("algebraic_connectivity", str(b.algebraic_connectivity)),
        ("spanning_trees", str(b.spanning_trees)),
        ("laplacian_energy", str(b.le_definition)),
        ("laplacian_energy_closed_form", opt(b.le_closed_form)),
        ("kappa", str(b.kappa)),
        ("kappa_oracle", opt(b.kappa_oracle)),
        ("chi", str(b.chi)),
        ("line_graph", "true" if b.line_graph else "false"),
        ("cayley", "true" if b.cayley else "false"),
        ("per_adj_formula", opt(b.per_adj_formula)),
        ("per_adj_ryser", opt(b.per_adj_ryser)),
        ("per_lap_formula", opt(b.per_lap_formula)),
        ("per_lap_ryser", opt(b.per_lap_ryser)),
    ]


def bundle_to_table(b: InvariantBundle) -> str:
    rows = _bundle_rows(b)
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in rows) + "\n"


def bundle_to_json(b: InvariantBundle) -> str:
    payload = {
        "group": b.group,
        "n": b.n,
        "cyclic": b.cyclic,
        "phi": b.phi,
        "edges": b.edges,
        "degrees": list(b.degrees),
        "spectrum": [[v, m] for v, m in b.spectrum.pairs],
        "algebraic_connectivity": b.algebraic_connectivity,
        "spanning_trees": b.spanning_trees,
        "laplacian_energy": str(b.le_definition),
        "laplacian_energy_closed_form": (
            None if b.le_closed_form is None else str(b.le_closed_form)
        ),
        "kappa": b.kappa,
        "kappa_oracle": b.kappa_oracle,
        "chi": b.chi,
        "line_graph": b.line_graph,
        "cayley": b.cayley,
        "per_adj": {"formula": b.per_adj_formula, "ryser": b.per_adj_ryser},
        "per_lap": {"formula": b.per_lap_formula, "ryser": b.per_lap_ryser},
    }
    return json.dumps(payload, indent=2) + "\n"


def _write_output(chunks, out: Optional[str]) -> None:
    """Write each text chunk as it arrives, to stdout or to the file out."""
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def cmd_build(args) -> int:
    group = parse_group_spec(args.group)
    graph = strong_power_graph(group)
    if args.format == "json":
        chunks = itertools.chain(graph_to_json(graph), ["\n"])
    elif args.format == "dot":
        chunks = graph_to_dot(graph)
    else:
        matrix = laplacian(graph) if args.matrix == "laplacian" else adjacency(graph)
        chunks = to_matrix_market(matrix)
    _write_output(chunks, args.out)
    return 0


def cmd_invariants(args) -> int:
    bundle = compute_invariant_bundle(args.group)
    if args.format == "json":
        sys.stdout.write(bundle_to_json(bundle))
    else:
        sys.stdout.write(bundle_to_table(bundle))
    return 0


def cmd_verify(args) -> int:
    lo, hi = _parse_range(args.range)
    if args.checks is not None:
        requested = tuple(c.strip() for c in args.checks.split(",") if c.strip())
    else:
        requested = CHECK_NAMES
    report = run_verify(args.family, lo, hi, checks=requested)
    text = report.to_json() if args.format == "json" else report.to_tsv()
    _write_output([text], args.out)
    known = load_known_discrepancies()
    undocumented = report.undocumented_disagreements(known)
    for rec in undocumented:
        sys.stderr.write(
            f"undocumented disagreement: {rec.check} {rec.spec}: "
            f"formula {rec.formula_value} vs oracle {rec.oracle_value}\n"
        )
    return report.exit_code(known)


def _sweep_row(n: int) -> dict[str, str]:
    row = {"n": n, **closed_forms(n, cyclic=True)}
    row["linegraph"] = "true" if row["linegraph"] else "false"
    return {k: str(v) for k, v in row.items()}


def cmd_sweep(args) -> int:
    lo, hi = _parse_range(args.range)
    if args.columns is not None:
        requested = [c.strip() for c in args.columns.split(",") if c.strip()]
        bad = [c for c in requested if c not in SWEEP_COLUMNS]
        if bad:
            raise ValueError(f"unknown sweep columns: {', '.join(bad)}")
        if not requested:
            raise ValueError(f"empty column list; expected some of: {', '.join(SWEEP_COLUMNS)}")
        columns = [c for c in SWEEP_COLUMNS if c == "n" or c in requested]
    else:
        columns = list(SWEEP_COLUMNS)
    lines = [",".join(columns)]
    for row in map(_sweep_row, range(lo, hi + 1)):
        lines.append(",".join(row[c] for c in columns))
    _write_output(["\n".join(lines) + "\n"], args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strongpow",
        description=(
            "Strong power graphs of finite groups: exact construction, "
            "spectra, permanents, and closed-form cross-verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="write a strong power graph")
    p_build.add_argument("--group", required=True, help="group spec, e.g. zn:6")
    p_build.add_argument("--format", choices=("json", "dot", "mtx"), default="json")
    p_build.add_argument(
        "--matrix",
        choices=("laplacian", "adjacency"),
        default="laplacian",
        help="matrix to export for --format mtx",
    )
    p_build.add_argument("--out", help="output path (default: stdout)")
    p_build.set_defaults(func=cmd_build)

    p_inv = sub.add_parser("invariants", help="print the invariant bundle")
    p_inv.add_argument("--group", required=True)
    p_inv.add_argument("--format", choices=("table", "json"), default="table")
    p_inv.set_defaults(func=cmd_invariants)

    p_ver = sub.add_parser("verify", help="run formula-vs-oracle checks")
    p_ver.add_argument("--family", choices=("cyclic", "corpus"), required=True)
    p_ver.add_argument("--range", required=True, help="inclusive order range, e.g. 2..24")
    p_ver.add_argument(
        "--checks", help=f"comma-separated subset of: {','.join(CHECK_NAMES)}"
    )
    p_ver.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p_ver.add_argument("--out", help="output path (default: stdout)")
    p_ver.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="CSV of invariants per cyclic order")
    p_sweep.add_argument("--range", required=True)
    p_sweep.add_argument(
        "--columns", help=f"comma-separated subset of: {','.join(SWEEP_COLUMNS)}"
    )
    p_sweep.add_argument("--out", help="output path (default: stdout)")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    # Spanning-tree counts and permanents pass 4300 decimal digits from
    # about order 1400; lift CPython's int-to-str limit (3.10.7+, 3.11+).
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GroupSpecError, GroupError, SizeGuardError, ValueError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
