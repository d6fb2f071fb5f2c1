"""Per-layer metrics from the spans tracer.py records.

A layer is a set of public strongpow functions. Its `_s` metric is the wall
time inside its outermost calls (a call nested in another call of the same
layer is not counted twice), `_calls` counts those calls and `_guard_hits`
those that raised SizeGuardError. A span's self time is its duration minus
the part of it that its child spans cover.
"""

from __future__ import annotations

LAYERS = {
    "groups.validate": ("groups.make_from_table",),
    "graphs.construct": ("graphs.strong_power_graph",),
    "graphs.graph_validate": ("graphs.Graph.__post_init__",),
    "graphs.kappa": ("graphs.vertex_connectivity_bruteforce",),
    "spectral.charpoly": ("spectral.char_poly_exact",),
    "spectral.kirchhoff": ("spectral.spanning_tree_count_kirchhoff",),
    "spectral.eig": ("spectral.eigenvalues_numeric",),
    "spectral.assemble": ("spectral.laplacian", "spectral.adjacency"),
    "permanents.ryser": ("permanents.permanent_ryser",),
    "permanents.closed_form": (
        "permanents.adjacency_permanent_formula",
        "permanents.laplacian_permanent_formula",
        "permanents.clique_plus_vertex_adjacency_permanent",
        "permanents.clique_plus_vertex_laplacian_permanent",
        "permanents.complete_graph_laplacian_permanent",
    ),
    "structure.linegraph": ("structure.is_line_graph",),
    "verify.run": ("verify.run_verify",),
    "cli.bundle": ("cli.compute_invariant_bundle",),
    "cli.format": (
        "verify.VerifyReport.to_tsv",
        "verify.VerifyReport.to_json",
        "cli.bundle_to_json",
        "cli.bundle_to_table",
        "graphs.graph_to_json",
        "graphs.graph_to_dot",
        "spectral.to_matrix_market",
    ),
}

# Oracles whose wall time minus thread CPU time is counted as waiting.
ORACLES = (
    "permanents.permanent_ryser",
    "spectral.char_poly_exact",
    "spectral.spanning_tree_count_kirchhoff",
    "spectral.eigenvalues_numeric",
    "graphs.vertex_connectivity_bruteforce",
    "graphs.chromatic_number_exact",
    "graphs.graph_isomorphic",
    "structure.is_line_graph",
)

# Layer totals reported as per-layer metrics, named <layer>_<total>.
REPORTED = {
    "groups.validate": ("s", "calls"),
    "graphs.construct": ("s", "calls"),
    "graphs.graph_validate": ("s",),
    "graphs.kappa": ("s", "guard_hits"),
    "spectral.charpoly": ("s", "calls"),
    "spectral.kirchhoff": ("s", "guard_hits"),
    "spectral.eig": ("s",),
    "spectral.assemble": ("s", "calls"),
    "permanents.ryser": ("s", "calls", "guard_hits"),
    "permanents.closed_form": ("s",),
    "structure.linegraph": ("s", "calls", "guard_hits"),
    "verify.run": ("s",),
    "cli.bundle": ("s",),
    "cli.format": ("s",),
}

_ID, _NAME, _PARENT, _THREAD, _START, _END, _CPU, _EXC, _KEY = range(9)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


_LAYER_OF = {name: layer for layer, names in LAYERS.items() for name in names}
_ORACLES = frozenset(ORACLES)


def aggregate_command(spans: list, process_cpu_s: float) -> dict:
    """Totals of one traced command process."""
    by_id = {s[_ID]: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(s[_PARENT], []).append(s)

    functions: dict[str, dict] = {}
    layers = {layer: {"s": 0.0, "calls": 0, "guard_hits": 0, "cpu_s": 0.0} for layer in LAYERS}
    verify_self = gil_wait = 0.0
    ryser_keys = set()
    for s in spans:
        name, dur = s[_NAME], s[_END] - s[_START]
        self_s = dur - _covered(
            [(c[_START], c[_END]) for c in children.get(s[_ID], ())], s[_START], s[_END])
        ancestors = set()
        parent = by_id.get(s[_PARENT])
        while parent is not None:
            ancestors.add(parent[_NAME])
            parent = by_id.get(parent[_PARENT])
        f = functions.setdefault(name, {"calls": 0, "wall_s": 0.0, "self_s": 0.0, "cpu_s": 0.0})
        f["calls"] += 1
        f["self_s"] += self_s
        if name not in ancestors:
            f["wall_s"] += dur
            f["cpu_s"] += s[_CPU]
        layer = _LAYER_OF.get(name)
        if layer is not None and not any(_LAYER_OF.get(a) == layer for a in ancestors):
            totals = layers[layer]
            totals["s"] += dur
            totals["calls"] += 1
            totals["guard_hits"] += s[_EXC] == "SizeGuardError"
            totals["cpu_s"] += s[_CPU]
        if name in _ORACLES and not ancestors & _ORACLES:
            gil_wait += dur - s[_CPU]
        if name == "verify.run_verify":
            verify_self += self_s
        if name == "permanents.permanent_ryser":
            ryser_keys.add(s[_KEY])
    return {
        "process_cpu_s": process_cpu_s,
        "layers": layers,
        "verify_self_s": verify_self,
        "gil_wait_s": gil_wait,
        "ryser_distinct": len(ryser_keys),
        "functions": functions,
    }


def per_layer_metrics(commands: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its command processes."""
    commands = [c for c in commands if c]
    out: dict[str, float] = {}
    for layer, fields in REPORTED.items():
        for f in fields:
            out[f"{layer}_{f}"] = sum(c["layers"][layer][f] for c in commands)
    calls = out["permanents.ryser_calls"]
    out["permanents.ryser_distinct_ratio"] = (
        sum(c["ryser_distinct"] for c in commands) / calls if calls else 1.0
    )
    out["verify.self_s"] = sum(c["verify_self_s"] for c in commands)
    out["verify.gil_wait_s"] = sum(c["gil_wait_s"] for c in commands)
    cpu = sum(c["process_cpu_s"] for c in commands)
    for layer in ("permanents.ryser", "spectral.charpoly"):
        used = sum(c["layers"][layer]["cpu_s"] for c in commands)
        out[f"{layer}_cpu_share"] = used / cpu if cpu else 0.0
    return out


def self_time_table(commands: list[dict]) -> list[dict]:
    """Per-function totals over traced command processes, by self time."""
    merged: dict[str, dict] = {}
    for c in commands:
        for name, f in c.get("functions", {}).items():
            m = merged.setdefault(name, {"name": name, "calls": 0, "wall_s": 0.0,
                                         "self_s": 0.0, "cpu_s": 0.0})
            for k in ("calls", "wall_s", "self_s", "cpu_s"):
                m[k] += f[k]
    return sorted(merged.values(), key=lambda m: -m["self_s"])
