"""Command-line surface: build strong power graphs, print invariant bundles,
run formula-vs-oracle verification sweeps, and export per-order CSV tables.

Exit codes: 0 success (verify: all agree or documented disagreements only),
1 undocumented disagreement from verify, 2 usage or input errors. A reader
that closes stdout early ends the output quietly, with the same exit code.
Each command imports the modules it runs; only the spectrum check of
`verify` loads numpy, for its float eigensolve.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import sys
from fractions import Fraction

from .formulas import CHECK_NAMES, ExactSpectrum, _any_digits, _text, closed_forms

_RANGE_RE = re.compile(r"(\d+)\.\.(\d+)")

SWEEP_COLUMNS = ("n", "phi", "spectrum", "a", "tau", "le", "kappa", "chi", "linegraph")


def _parse_range(text: str) -> tuple[int, int]:
    m = _RANGE_RE.fullmatch(text)
    if not m:
        raise ValueError(f"range must look like 2..24, got {text!r}")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo < 1 or hi < lo:
        raise ValueError(f"range bounds must satisfy 1 <= lo <= hi, got {text!r}")
    return lo, hi


def compute_invariant_bundle(spec: str) -> dict[str, object]:
    """Every invariant the library computes for one group, in JSON field
    order, with formula and oracle values side by side where both exist. A
    closed form below its least order, or an oracle past its size guard,
    is None."""
    from .graphs import degree_sequence
    from .groups import parse_group_spec
    from .verify import GroupCase

    case = GroupCase(parse_group_spec(spec))
    forms = closed_forms(case.n, case.cyclic)
    return {
        "group": spec,
        "n": case.n,
        "cyclic": case.cyclic,
        "phi": forms["phi"],
        "edges": case.graph.edge_count(),
        "degrees": tuple(degree_sequence(case.graph)),
        "spectrum": forms["spectrum"],
        "algebraic_connectivity": forms["a"],
        "spanning_trees": forms["tau"],
        "laplacian_energy": forms["le"],
        "laplacian_energy_closed_form": case.formula("le"),
        "kappa": forms["kappa"],
        "kappa_oracle": case.oracle("kappa"),
        "chi": forms["chi"],
        "line_graph": case.oracle("linegraph"),
        "cayley": case.formula("cayley"),
        "per_adj": {"formula": case.formula("perm_adj"), "ryser": case.oracle("perm_adj")},
        "per_lap": {"formula": case.formula("perm_lap"), "ryser": case.oracle("perm_lap")},
    }


def _cell(value) -> str:
    """A bundle or sweep value as text: skipped for None, a tuple
    space-joined, anything else as a verify record prints it."""
    if value is None:
        return "skipped"
    if isinstance(value, tuple):
        return " ".join(map(str, value))
    return _text(value)


def bundle_to_table(bundle: dict[str, object]) -> str:
    """One aligned `name  value` row per field; n prints as order, and
    per_adj and per_lap flatten to per_adj_formula, per_adj_ryser, ..."""
    rows = []
    for key, value in bundle.items():
        if isinstance(value, dict):
            rows.extend((f"{key}_{k}", v) for k, v in value.items())
        else:
            rows.append(("order" if key == "n" else key, value))
    width = max(len(k) for k, _ in rows)
    return "".join(f"{k:<{width}}  {_cell(v)}\n" for k, v in rows)


def _json_default(value):
    if isinstance(value, ExactSpectrum):
        return value.pairs
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def bundle_to_json(bundle: dict[str, object]) -> str:
    text = _any_digits(lambda b: json.dumps(b, indent=2, default=_json_default), bundle)
    return text + "\n"


def _write_output(chunks, out: str | None) -> None:
    """Write each text chunk as it arrives, to stdout or to the file out.
    A reader that closes stdout ends the output quietly."""
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        return
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's unwritten buffer is flushed again at exit; send it nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def cmd_build(args) -> int:
    from .graphs import graph_to_dot, graph_to_json, graph_to_matrix_market, strong_power_graph
    from .groups import parse_group_spec

    group = parse_group_spec(args.group)
    graph = strong_power_graph(group)
    if args.format == "json":
        chunks = itertools.chain(graph_to_json(graph), ["\n"])
    elif args.format == "dot":
        chunks = graph_to_dot(graph)
    else:
        chunks = graph_to_matrix_market(graph, args.matrix == "laplacian")
    _write_output(chunks, args.out)
    return 0


def cmd_invariants(args) -> int:
    bundle = compute_invariant_bundle(args.group)
    render = bundle_to_json if args.format == "json" else bundle_to_table
    _write_output([render(bundle)], None)
    return 0


def cmd_verify(args) -> int:
    from .verify import load_known_discrepancies, run_verify

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
            f"undocumented disagreement: {rec.check} {rec.param}: "
            f"formula {rec.formula} vs oracle {rec.oracle}\n"
        )
    return 1 if undocumented else 0


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
    forms = ({"n": n, **closed_forms(n, cyclic=True)} for n in range(lo, hi + 1))
    rows = (",".join(_cell(row[c]) for c in columns) + "\n" for row in forms)
    _write_output(itertools.chain([",".join(columns) + "\n"], rows), args.out)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # group spec, group and size guard errors are all ValueErrors
    except (ValueError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


def __getattr__(name):
    # perfbench's tracer test reads strongpow.cli.permanent_ryser
    if name == "permanent_ryser":
        from .permanents import permanent_ryser
        return permanent_ryser
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    sys.exit(main())
