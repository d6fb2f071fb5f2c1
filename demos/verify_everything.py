#!/usr/bin/env python3
"""
Cross-verifying every closed form at once
=========================================

Runs the full verification harness over both families: cyclic groups of
order 2..18 and the built-in noncyclic corpus up to order 16 (the permanent
oracles double in cost with each extra order, so larger sweeps are a CLI
decision, not a demo default). Each check pairs one closed form with an
independent oracle; checks whose oracle would exceed a size guard are
skipped rather than silently dropped, and known formula defects are loaded
from the package's documented-discrepancy list so that only an UNdocumented
disagreement is a failure.
"""

from strongpow import load_known_discrepancies, run_verify

known = load_known_discrepancies()
print("documented discrepancies:")
for k in known:
    scope = f"family={k.family}, n_min={k.n_min}, n_max={k.n_max}"
    print(f"   {k.check} ({scope})")
    print(f"      {k.explanation}")
print()

for family, lo, hi in (("cyclic", 2, 18), ("corpus", 4, 16)):
    report = run_verify(family, lo, hi)
    counts = report.counts()
    print(f"== {family} {lo}..{hi} ==")
    print(
        f"   agree {counts['agree']}, disagree {counts['disagree']},"
        f" skipped {counts['skipped']}"
    )
    undocumented = report.undocumented_disagreements(known)
    print(f"   undocumented disagreements: {len(undocumented)}")
    assert not undocumented
    for r in report.records:
        if r.status == "disagree":
            print(
                f"   disagree: {r.check} at {r.param}:"
                f" formula {r.formula}, oracle {r.oracle}"
            )
    for r in report.records:
        if r.status == "skipped":
            print(f"   skipped: {r.check} at {r.param} ({r.note})")
    print()

print("both families clean: every disagreement is on the documented list")
