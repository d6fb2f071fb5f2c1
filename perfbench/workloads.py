"""The benchmark's workloads: fixed lists of `strongpow` CLI arguments.

Each command runs in a fresh process, one at a time (a closed loop with one
client). The run's seed only permutes the order of commands within a pass;
no output depends on it.

A pass over each workload takes about 4 to 8 s on a 2-vCPU Xeon, so a run
repeats every command several times and reports per-command medians. The
orders are chosen to cross every size guard the workload exercises, so
pushing a guard outward shows in `checks_done`.
"""

_REACH_CHECKS = "spectrum,charpoly,tau,le,kappa,chi,linegraph,cayley"

WORKLOADS: dict[str, list[list[str]]] = {
    # Ryser permanents take most of the busy time. Cyclic and complete
    # graphs are mixed, and so are verify's three permanents per group
    # (perm_complete recomputes L(K_n)) and invariants' two, so removing
    # duplicate permanents moves verify only while a faster kernel moves
    # both. Order 16 is the largest non-prime order under a second per
    # invariants command; a prime order's zero row makes Ryser return at once.
    "perm_oracles": [
        ["verify", "--family", "cyclic", "--range", "2..16"],
        ["verify", "--family", "corpus", "--range", "4..16"],
        ["invariants", "--format", "json", "--group", "zn:16"],
        ["invariants", "--format", "json", "--group", "dihedral:8"],
        ["invariants", "--format", "json", "--group", "product:zn:2+zn:8"],
    ],
    # Every oracle but the permanents: char poly takes most of the busy time
    # (orders 60 to 68) and the Beineke line-graph search much of the rest.
    # Records skip at every size guard verify has: kappa above 14, linegraph
    # above 40, tau above 64 and cayley on the corpus. The verify thread pool
    # overlaps numpy here.
    "reach_oracles": [
        ["verify", "--checks", _REACH_CHECKS, "--family", "cyclic", "--range", "2..24"],
        ["verify", "--checks", _REACH_CHECKS, "--family", "cyclic", "--range", "60..68"],
        ["verify", "--checks", _REACH_CHECKS, "--family", "corpus", "--range", "4..24"],
    ],
    # No oracle runs: table validation (dihedral:96 has 192 elements),
    # graph construction and its symmetry check, closed-form permanents at
    # n = 320, matrix assembly and export.
    "large_orders": [
        ["sweep", "--range", "2..160"],
        ["invariants", "--format", "json", "--group", "dihedral:96"],
        ["invariants", "--format", "json", "--group", "zn:320"],
        ["build", "--group", "zn:512", "--format", "mtx", "--matrix", "laplacian"],
        ["build", "--group", "dihedral:64", "--format", "json"],
        ["build", "--group", "product:zn:2+zn:64", "--format", "dot"],
    ],
}

# Known defect: a sweep that reaches an order of about 1400 or more exits 2
# with "Exceeds the limit (4300 digits) for integer string conversion".
# `invariants --group zn:2048` fails the same way but takes minutes, so it
# is not probed. The probe runs once per run, outside the timed passes; its
# expected row is built from the library's closed forms.
DEFECT_PROBES: dict[str, list[list[str]]] = {
    "large_orders": [["sweep", "--range", "1500..1500"]],
}
