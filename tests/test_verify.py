import json
from collections import Counter

import pytest

import strongpow.verify as verify
from strongpow.cli import compute_invariant_bundle, main
from strongpow.errors import SizeGuardError
from strongpow.graphs import Graph, strong_power_graph
from strongpow.groups import _closure_classes, make_cyclic, noncyclic_corpus
from strongpow.permanents import RYSER_LIMIT
from strongpow.verify import (
    AGREE,
    CHECK_NAMES,
    DISAGREE,
    SKIPPED,
    CheckRecord,
    KnownDiscrepancy,
    load_known_discrepancies,
    run_verify,
)


def find(report, check, n):
    hits = [r for r in report.records if r.check == check and r.n == n]
    assert len(hits) == 1
    return hits[0]


def test_check_names():
    # the registry holds every check, in record order
    assert tuple(verify.INVARIANTS) == CHECK_NAMES
    assert len(CHECK_NAMES) == 11
    assert len(set(CHECK_NAMES)) == 11
    for name in ("spectrum", "tau", "le", "kappa", "chi", "linegraph", "cayley"):
        assert name in CHECK_NAMES


def test_load_known_discrepancies():
    known = load_known_discrepancies()
    assert len(known) == 1
    entry = known[0]
    assert entry.check == "le"
    assert entry.family == "cyclic"
    assert entry.n_min == 3
    assert entry.explanation


def test_known_discrepancy_matching():
    rec = CheckRecord("le", "cyclic", "zn:5", 5, "a", "b", DISAGREE)
    assert KnownDiscrepancy("le").matches(rec)
    assert KnownDiscrepancy("le", family="cyclic", n_min=3).matches(rec)
    assert not KnownDiscrepancy("tau").matches(rec)
    assert not KnownDiscrepancy("le", family="corpus").matches(rec)
    assert not KnownDiscrepancy("le", n_min=6).matches(rec)
    assert not KnownDiscrepancy("le", n_max=4).matches(rec)


def test_run_verify_cyclic_range():
    report = run_verify("cyclic", 2, 14)
    counts = report.counts()
    assert counts[AGREE] == 130
    assert counts[DISAGREE] == 12
    assert counts[SKIPPED] == 1
    # the only disagreements are the laplacian energy closed form, n >= 3
    disagreeing = [r for r in report.records if r.status == DISAGREE]
    assert all(r.check == "le" and r.n >= 3 for r in disagreeing)
    known = load_known_discrepancies()
    assert report.undocumented_disagreements(known) == []


def test_run_verify_cyclic_spot_records():
    report = run_verify("cyclic", 2, 14)
    le4 = find(report, "le", 4)
    assert le4.formula == "4" and le4.oracle == "6"
    assert le4.status == DISAGREE
    tau4 = find(report, "tau", 4)
    assert tau4.formula == "3" and tau4.status == AGREE
    perm_lap4 = find(report, "perm_lap", 4)
    assert perm_lap4.formula == "22" and perm_lap4.status == AGREE
    # P_s(Z_2) = 2K_1 is Cay(Z_2, {}), and the closed form is stated for n >= 3
    cayley2 = find(report, "cayley", 2)
    assert cayley2.status == SKIPPED
    assert cayley2.note == "closed form stated for n >= 3"
    cayley3 = find(report, "cayley", 3)
    assert cayley3.status == AGREE


def test_run_verify_corpus_range():
    report = run_verify("corpus", 4, 12)
    counts = report.counts()
    assert counts[AGREE] == 99
    assert counts[DISAGREE] == 0
    assert counts[SKIPPED] == 0
    assert report.undocumented_disagreements(load_known_discrepancies()) == []


def test_run_verify_exit_code_without_known_list(monkeypatch, capsys):
    report = run_verify("cyclic", 4, 4, checks=("le",))
    assert len(report.undocumented_disagreements(())) == 1
    assert report.undocumented_disagreements(load_known_discrepancies()) == []
    # the command's exit code is decided by the undocumented disagreements
    argv = ["verify", "--family", "cyclic", "--range", "4..4", "--checks", "le"]
    assert main(argv) == 0
    monkeypatch.setattr(verify, "load_known_discrepancies", lambda: ())
    assert main(argv) == 1
    assert capsys.readouterr().err == "undocumented disagreement: le zn:4: formula 4 vs oracle 6\n"


def test_run_verify_covers_each_pair_once():
    report = run_verify("cyclic", 2, 6, checks=("le", "spectrum", "tau"))
    seen = [(r.check, r.param) for r in report.records]
    # records follow canonical (group, check) order, whatever order was asked
    assert seen == [
        (c, f"zn:{n}") for n in range(2, 7) for c in ("spectrum", "tau", "le")
    ]


def test_run_verify_validation():
    with pytest.raises(ValueError):
        run_verify("weird", 2, 5)
    with pytest.raises(ValueError):
        run_verify("cyclic", 0, 5)
    with pytest.raises(ValueError):
        run_verify("cyclic", 5, 2)
    with pytest.raises(ValueError):
        run_verify("cyclic", 2, 5, checks=("tau", "nope"))
    with pytest.raises(ValueError, match="empty check list"):
        run_verify("cyclic", 2, 5, checks=())


def test_report_tsv_and_json_shapes():
    report = run_verify("cyclic", 4, 4, checks=("tau", "le"))
    tsv = report.to_tsv()
    # rstrip, not strip: a record whose note is empty ends in a tab
    lines = tsv.rstrip("\n").split("\n")
    assert lines[0] == "check\tfamily\tparam\tn\tformula\toracle\tstatus\tnote"
    assert len(lines) == 3
    assert all(len(line.split("\t")) == 8 for line in lines)
    payload = json.loads(report.to_json())
    assert payload["family"] == "cyclic"
    assert payload["range"] == [4, 4]
    assert payload["counts"][AGREE] == 1
    assert payload["counts"][DISAGREE] == 1
    assert {r["check"] for r in payload["records"]} == {"tau", "le"}
    # each JSON record holds the TSV columns, in the same order, and each
    # TSV row is its record's values
    assert [list(r) for r in payload["records"]] == [lines[0].split("\t")] * 2
    assert [line.split("\t") for line in lines[1:]] == [
        [str(v) for v in r.values()] for r in payload["records"]]


def test_cayley_witness_is_checked_past_order_12():
    # the witness C(G, G \ {e}) is compared as a labelled graph, so the
    # order-16 corpus groups agree with no size bound in the way
    report = run_verify("corpus", 16, 16, checks=("cayley",))
    assert report.records and all(r.status == AGREE for r in report.records)


def _drop_edge(monkeypatch, u, v):
    """Make verify build each strong power graph less the edge {u, v}."""
    def damaged(group):
        g = strong_power_graph(group)
        adj = list(g.adj)
        assert adj[u] >> v & 1
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        return Graph(g.n, tuple(adj))

    monkeypatch.setattr(verify, "strong_power_graph", damaged)


@pytest.mark.parametrize("check, damaged_16", [("chi", "15"), ("kappa", "14")])
def test_a_graph_of_neither_shape_disagrees(monkeypatch, check, damaged_16):
    known = load_known_discrepancies()
    # Z_64 less the edge between the generators 1 and 3: no vertex meets
    # both that non-edge and the identity's, so there is no shape to read
    _drop_edge(monkeypatch, 1, 3)
    report = run_verify("cyclic", 64, 64, checks=(check,))
    [rec] = report.records
    assert rec.status == DISAGREE
    assert rec.note == "graph is neither complete nor a clique plus one vertex"
    assert report.undocumented_disagreements(known) == report.records
    # an order-16 group's K_16 less one edge is a clique plus one vertex, of
    # chi 15 and kappa 14, and not the witness K_16
    _drop_edge(monkeypatch, 0, 1)
    spec = next(spec for spec, grp in noncyclic_corpus(16) if grp.n == 16)
    report = run_verify("corpus", 16, 16, checks=(check, "cayley"))
    records = [r for r in report.records if r.param == spec]
    assert [(r.check, r.status, r.oracle) for r in records] == [
        (check, DISAGREE, damaged_16), ("cayley", DISAGREE, "false")]
    assert set(records) <= set(report.undocumented_disagreements(known))


def test_a_spectrum_that_is_not_integral_disagrees(monkeypatch):
    # Z_6 less the edge {1, 2} has the Laplacian eigenvalues 4 -+ sqrt(2)
    _drop_edge(monkeypatch, 1, 2)
    report = run_verify("cyclic", 6, 6, checks=("le",))
    [le] = report.records
    assert (le.status, le.oracle) == (DISAGREE, "")
    assert le.note == "the Laplacian spectrum is not integral"
    # an integral spectrum names its oracle
    monkeypatch.undo()
    [le] = run_verify("cyclic", 6, 6, checks=("le",)).records
    assert (le.oracle, le.note) == ("34/3", "exact spectrum of the twin quotient")


def test_one_registry_drives_verify_invariants_and_sweep(capsys):
    checks = ("tau", "le", "kappa", "linegraph", "perm_adj", "perm_lap")
    bundles = {}
    # One order at a time, so each bundle's Ryser permanents are the ones
    # verify has just computed and memoized.
    corpus_orders = sorted({grp.n for _, grp in noncyclic_corpus(16)})
    for family, orders in (("cyclic", range(1, 41)), ("corpus", corpus_orders)):
        for n in orders:
            recs = {}
            for r in run_verify(family, n, n, checks).records:
                recs.setdefault(r.param, {})[r.check] = r
            for spec, rec in recs.items():
                b = bundles[spec] = compute_invariant_bundle(spec)
                if n >= 2:
                    assert str(b["spanning_trees"]) == rec["tau"].formula
                    assert str(b["laplacian_energy_closed_form"]) == rec["le"].formula
                else:
                    assert b["laplacian_energy_closed_form"] is None
                    assert rec["le"].status == SKIPPED
                # the kappa oracle has no guard, so it is computed at every order
                assert rec["kappa"].status == AGREE
                assert str(b["kappa"]) == rec["kappa"].formula
                assert str(b["kappa_oracle"]) == rec["kappa"].oracle
                assert str(b["line_graph"]).lower() == rec["linegraph"].oracle
                for field, check in (("per_adj", "perm_adj"), ("per_lap", "perm_lap")):
                    formula, ryser = b[field]["formula"], b[field]["ryser"]
                    if rec[check].status == SKIPPED:
                        # below the least order, or past Ryser's guard
                        assert formula is None or ryser is None
                    else:
                        assert str(formula) == rec[check].formula
                        assert str(ryser) == rec[check].oracle
    assert len(bundles) > 48
    assert main(["sweep", "--range", "1..40"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines[0].split(",")
    assert len(lines) == 41
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        b = bundles[f"zn:{row['n']}"]
        assert row == {
            "n": str(b["n"]),
            "phi": str(b["phi"]),
            "spectrum": str(b["spectrum"]),
            "a": str(b["algebraic_connectivity"]),
            "tau": str(b["spanning_trees"]),
            "le": str(b["laplacian_energy"]),
            "kappa": str(b["kappa"]),
            "chi": str(b["chi"]),
            "linegraph": str(b["line_graph"]).lower(),
        }


def test_each_matrix_is_built_once_per_group(monkeypatch):
    # each group's graph is read once for each of its two twin quotients
    # (L and A) and once for its float Laplacian, which only the spectrum
    # check reads; L(K_n) needs no graph
    calls = {"twin_quotient": [], "eigenvalues_numeric": [], "strong_power_graph": []}
    for name, log in calls.items():
        def spy(arg, *args, _real=getattr(verify, name), _log=log, **kwargs):
            _log.append((arg, *args))
            return _real(arg, *args, **kwargs)

        monkeypatch.setattr(verify, name, spy)
    report = run_verify("cyclic", 2, 12)
    groups = 11
    assert len({r.param for r in report.records}) == groups
    for name, log in calls.items():
        # the same graph (or group), and the same flag, is never read twice
        assert max(Counter((id(arg), *rest) for arg, *rest in log).values()) == 1, name
    assert len(calls["twin_quotient"]) == 2 * groups
    assert len(calls["eigenvalues_numeric"]) == groups
    assert len(calls["strong_power_graph"]) == groups
    # Past order 24 the twin-class sum gives the permanents: K_25 is one
    # class, Z_25 three
    for spec in ("zn:25", "product:zn:5+zn:5"):
        b = compute_invariant_bundle(spec)
        for field in ("per_adj", "per_lap"):
            assert b[field]["ryser"] == b[field]["formula"] is not None
    report = run_verify("cyclic", 25, 25, checks=("perm_adj", "perm_lap", "perm_complete"))
    assert [r.status for r in report.records] == [AGREE] * 3
    # Past RYSER_LIMIT, and past CHAR_POLY_LIMIT, the kernels refuse the
    # quotients they are given
    case = verify.GroupCase(make_cyclic(RYSER_LIMIT + 1))
    checks = ("charpoly", "perm_adj", "perm_lap", "perm_complete")
    assert [case.oracle(c) for c in checks] == [None] * 4
    with pytest.raises(SizeGuardError, match=f"^permanent_ryser is bounded at order "
                                             f"{RYSER_LIMIT}, got {RYSER_LIMIT + 1}$"):
        verify.INVARIANTS["perm_complete"].oracle(case)
    with pytest.raises(SizeGuardError, match=f"^char_poly_exact is bounded at order "
                                             f"256, got {RYSER_LIMIT + 1}$"):
        verify.INVARIANTS["charpoly"].oracle(case)


def test_power_closures_are_computed_once_per_table_group(capsys):
    # is_cyclic and strong_power_graph each ask for every table group's classes
    _closure_classes.cache_clear()
    assert main(["invariants", "--group", "dihedral:8"]) == 0
    capsys.readouterr()
    assert _closure_classes.cache_info().misses == 1
    _closure_classes.cache_clear()
    report = run_verify("corpus", 4, 12, checks=("kappa", "cayley"))
    assert _closure_classes.cache_info().misses == len({r.param for r in report.records})


def test_a_refused_oracle_computes_no_closed_form(monkeypatch):
    # the permanents' closed forms at order 1025 cost seconds, the char
    # poly's at any order past 256 more; their oracles refuse at once
    calls = []
    for name in ("char_poly_from_spectrum", "clique_plus_vertex_adjacency_permanent",
                 "clique_plus_vertex_laplacian_permanent",
                 "complete_graph_laplacian_permanent"):
        def refuse(*args, _name=name):
            calls.append(_name)
            raise AssertionError(f"{_name} ran for a refused record")

        monkeypatch.setattr(verify, name, refuse)
    checks = ("charpoly", "perm_adj", "perm_lap", "perm_complete")
    n = RYSER_LIMIT + 1
    report = run_verify("cyclic", n, n, checks=checks)
    assert [(r.check, r.status) for r in report.records] == [(c, SKIPPED) for c in checks]
    assert all(r.formula == r.oracle == "" for r in report.records)
    assert calls == []
    # a record whose oracle runs still computes its closed form
    with pytest.raises(AssertionError, match="clique_plus_vertex_adjacency_permanent ran"):
        run_verify("cyclic", 12, 12, checks=("perm_adj",))
    assert calls == ["clique_plus_vertex_adjacency_permanent"]
