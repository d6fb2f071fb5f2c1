"""The output checker flags changed results and accepts pushed-out guards."""

import json
import subprocess
import sys

from check import check_output, reference_for
from run import ROOT, child_env, documented_checker, expected_sweep

HEADER = "check\tfamily\tparam\tn\tformula\toracle\tstatus\tnote"
ROWS = [
    "tau\tcyclic\tzn:4\t4\t16\t16\tagree\t",
    "le\tcyclic\tzn:4\t4\t4\t6\tdisagree\tfloat recomputation drift 1.0e-15",
    "kappa\tcyclic\tzn:20\t20\t\t\tskipped\tvertex_connectivity_bruteforce is bounded at 14",
]
VERIFY = ["verify", "--family", "cyclic", "--range", "4..20"]


def tsv(rows):
    return ("\n".join([HEADER, *rows]) + "\n").encode()


def check(rows, code=0):
    ref = reference_for(VERIFY, 0, tsv(ROWS))
    return check_output(ref, code, tsv(rows), documented_checker())


def test_reference_output_passes_and_counts():
    outcome = check(ROWS)
    assert outcome.ok, outcome.problem
    assert (outcome.checks, outcome.skipped) == (2, 1)


def test_note_column_is_not_compared():
    rows = [ROWS[0], ROWS[1].replace("1.0e-15", "3.0e-15"), ROWS[2]]
    assert check(rows).ok


def test_corrupted_verify_row_is_flagged():
    rows = [ROWS[0].replace("\t16\t16\t", "\t16\t17\t"), ROWS[1], ROWS[2]]
    outcome = check(rows)
    assert not outcome.ok
    assert "tau" in outcome.problem


def test_missing_or_duplicated_record_is_flagged():
    assert not check(ROWS[:2]).ok
    assert not check([*ROWS, ROWS[0]]).ok


def test_nonzero_exit_is_flagged():
    assert not check(ROWS, code=1).ok


def test_skipped_may_become_agree():
    rows = [ROWS[0], ROWS[1], "kappa\tcyclic\tzn:20\t20\t2\t2\tagree\t"]
    outcome = check(rows)
    assert outcome.ok, outcome.problem
    assert (outcome.checks, outcome.skipped) == (3, 0)


def test_agree_may_not_become_skipped():
    rows = ["tau\tcyclic\tzn:4\t4\t\t\tskipped\tguard", ROWS[1], ROWS[2]]
    assert not check(rows).ok


def test_skipped_may_become_only_a_documented_disagree():
    ref = reference_for(VERIFY, 0, tsv([
        "le\tcyclic\tzn:5\t5\t\t\tskipped\tguard",
        "kappa\tcyclic\tzn:20\t20\t\t\tskipped\tguard",
    ]))
    documented = documented_checker()
    le_disagree = "le\tcyclic\tzn:5\t5\t1\t2\tdisagree\t"
    kappa_disagree = "kappa\tcyclic\tzn:20\t20\t2\t3\tdisagree\t"
    kappa_skipped = "kappa\tcyclic\tzn:20\t20\t\t\tskipped\tguard"
    assert check_output(ref, 0, tsv([le_disagree, kappa_skipped]), documented).ok
    assert not check_output(ref, 0, tsv([le_disagree, kappa_disagree]), documented).ok


def test_invariants_null_may_become_a_value():
    ref = reference_for(["invariants"], 0, json.dumps(
        {"n": 512, "kappa_oracle": None, "per_adj": {"formula": 7, "ryser": None}}).encode())
    filled = {"n": 512, "kappa_oracle": 1, "per_adj": {"formula": 7, "ryser": 7}, "new": 0}
    outcome = check_output(ref, 0, json.dumps(filled).encode(), None)
    assert outcome.ok, outcome.problem
    assert outcome.checks == 4
    changed = dict(filled, per_adj={"formula": 8, "ryser": 7})
    assert not check_output(ref, 0, json.dumps(changed).encode(), None).ok
    emptied = dict(filled, n=None)
    assert not check_output(ref, 0, json.dumps(emptied).encode(), None).ok


def test_sweep_and_build_must_be_byte_identical():
    text = b"n,phi\n2,1\n3,2\n"
    ref = reference_for(["sweep", "--range", "2..3"], 0, text)
    outcome = check_output(ref, 0, text, None)
    assert outcome.ok and outcome.checks == 2
    assert not check_output(ref, 0, text.replace(b"3,2", b"3,1"), None).ok
    assert not check_output(ref, 0, text + b"\n", None).ok


def test_defect_probe_expects_the_rows_a_working_sweep_prints():
    proc = subprocess.run([sys.executable, "-m", "strongpow", "sweep", "--range", "1..40"],
                          cwd=ROOT, env=child_env(), capture_output=True, check=True, timeout=120)
    assert proc.stdout == expected_sweep(1, 40)
