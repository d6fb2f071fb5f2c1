"""Output checks for the benchmark's commands, against references made from
the program at the commit that defined the benchmark.

Rules, by command:

- verify: exit 0; each (check, param) pair appears exactly once and the set
  of pairs equals the reference's. A reference record that is agree or
  disagree must match on check, param, n, formula, oracle and status; the
  note column carries float deviations and is not compared. A reference
  record that is skipped may stay skipped, become agree, or become a
  disagree that `known_discrepancies.json` documents.
- invariants (JSON): exit 0; a field that is null in the reference may
  become non-null, every other reference field must be equal. Fields the
  reference does not have are ignored.
- sweep, build: exit 0 and byte-identical output (compared by SHA-256).

Write the references with: python3 perfbench/check.py
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_PATH = HERE / "reference.json"

# Verify values longer than this are stored as a digest.
_INLINE_LIMIT = 80
_VERIFY_COLUMNS = ("check", "param", "n", "formula", "oracle", "status")


@dataclass
class Outcome:
    """What the checker concluded about one command's output."""

    ok: bool
    checks: int = 0  # results computed and checked (not skipped)
    skipped: int = 0  # verify records skipped at a size guard
    problem: str = ""


def command_key(args: list[str]) -> str:
    return " ".join(args)


def _digest(text: str) -> str:
    if len(text) <= _INLINE_LIMIT:
        return text
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()[:32]


def parse_verify_tsv(text: str) -> list[dict[str, str]]:
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split("\t")
    missing = [c for c in _VERIFY_COLUMNS if c not in header]
    if missing:
        raise ValueError(f"verify header lacks {', '.join(missing)}")
    rows = []
    for line in lines[1:]:
        cells = line.split("\t")
        if len(cells) != len(header):
            raise ValueError(f"verify row has {len(cells)} cells, header has {len(header)}")
        rows.append(dict(zip(header, cells)))
    return rows


def _record_fields(row: dict[str, str]) -> list[str]:
    return [row["check"], row["param"], row["n"], row["status"],
            _digest(row["formula"]), _digest(row["oracle"])]


def reference_for(args: list[str], code: int, stdout: bytes) -> dict:
    """The reference entry for one command run at the reference commit."""
    if code != 0:
        raise ValueError(f"reference command failed with exit {code}: {command_key(args)}")
    kind = args[0]
    if kind == "verify":
        rows = parse_verify_tsv(stdout.decode())
        return {"kind": kind, "records": [_record_fields(r) for r in rows]}
    if kind == "invariants":
        return {"kind": kind, "json": json.loads(stdout)}
    return {
        "kind": kind,
        "sha256": hashlib.sha256(stdout).hexdigest(),
        "bytes": len(stdout),
        "rows": stdout.count(b"\n") - 1 if kind == "sweep" else 1,
    }


def _check_verify(ref: dict, text: str, documented) -> Outcome:
    try:
        rows = parse_verify_tsv(text)
    except (ValueError, IndexError) as e:
        return Outcome(False, problem=str(e))
    seen: dict[tuple[str, str], dict[str, str]] = {}
    for row in rows:
        pair = (row["check"], row["param"])
        if pair in seen:
            return Outcome(False, problem=f"duplicate record {pair}")
        seen[pair] = row
    expected = {(r[0], r[1]): r for r in ref["records"]}
    if set(seen) != set(expected):
        extra = sorted(set(seen) - set(expected))[:3]
        lost = sorted(set(expected) - set(seen))[:3]
        return Outcome(False, problem=f"record set differs: extra {extra}, missing {lost}")
    checks = skipped = 0
    for pair, want in expected.items():
        row = seen[pair]
        got = _record_fields(row)
        status = row["status"]
        if want[3] in ("agree", "disagree"):
            if got != want:
                return Outcome(False, problem=f"record {pair} changed: {got} != {want}")
        elif got[2] != want[2]:
            return Outcome(False, problem=f"record {pair} changed order: {got[2]} != {want[2]}")
        elif status == "disagree" and not documented(row):
            return Outcome(False, problem=f"record {pair} went skipped -> undocumented disagree")
        elif status not in ("skipped", "agree", "disagree"):
            return Outcome(False, problem=f"record {pair} has status {status!r}")
        if status == "skipped":
            skipped += 1
        else:
            checks += 1
    return Outcome(True, checks=checks, skipped=skipped)


def _compare_json(want, got, path: str) -> str:
    """Empty when `got` satisfies the reference `want`, else the first difference."""
    if want is None:
        return ""
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return f"{path} is not an object"
        for k, v in want.items():
            if k not in got:
                return f"{path}.{k} missing"
            problem = _compare_json(v, got[k], f"{path}.{k}")
            if problem:
                return problem
        return ""
    if want != got:
        return f"{path}: {got!r} != {want!r}"
    return ""


def _count_values(value, ref) -> int:
    """Non-null values under the reference's keys."""
    if isinstance(ref, dict) and isinstance(value, dict):
        return sum(_count_values(value.get(k), v) for k, v in ref.items())
    return 0 if value is None else 1


def check_output(ref: dict, code: int, stdout: bytes, documented) -> Outcome:
    """Check one command's exit code and output against its reference.

    `documented(row)` says whether a verify disagreement is on the program's
    known-discrepancy list."""
    if code != 0:
        return Outcome(False, problem=f"exit code {code}")
    kind = ref["kind"]
    if kind == "verify":
        return _check_verify(ref, stdout.decode(errors="replace"), documented)
    if kind == "invariants":
        try:
            got = json.loads(stdout)
        except ValueError as e:
            return Outcome(False, problem=f"invalid JSON: {e}")
        problem = _compare_json(ref["json"], got, "$")
        if problem:
            return Outcome(False, problem=problem)
        return Outcome(True, checks=_count_values(got, ref["json"]))
    if len(stdout) != ref["bytes"] or hashlib.sha256(stdout).hexdigest() != ref["sha256"]:
        return Outcome(False, problem=f"output differs from reference ({len(stdout)} bytes)")
    return Outcome(True, checks=ref["rows"])


def load_references() -> dict[str, dict]:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def write_references() -> None:
    """Run every workload command once and store its reference entry."""
    from workloads import WORKLOADS

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("STRONGPOW_THREADS", None)
    refs = {}
    for commands in WORKLOADS.values():
        for args in commands:
            proc = subprocess.run(
                [sys.executable, "-m", "strongpow", *args],
                cwd=ROOT, env=env, capture_output=True, check=False,
            )
            refs[command_key(args)] = reference_for(args, proc.returncode, proc.stdout)
            print(f"reference: {command_key(args)}", file=sys.stderr)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    write_references()
