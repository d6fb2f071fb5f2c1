"""Command-level benchmark for strongpow.

Usage:
  python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root. Each workload is a list of `strongpow`
commands (see workloads.py); each command runs in a fresh process, one at a
time, as users run it. A run makes passes over its workload, each in an
order permuted by the seed, until `--seconds` have passed and at least one
pass is whole, and checks every command's output against
perfbench/reference.json.

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json,
taken from each command's median wall time and max-RSS over the run. With
--trace 1 every command also runs under perfbench/tracer.py straight after
its untraced run, and the run reports the per-layer metrics (the median
over whole traced passes), the per-command-kind metrics from the untraced
runs, and the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Everything the run measured,
with the environment it ran in, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from check import Outcome, check_output, command_key, load_references  # noqa: E402
from layers import aggregate_command, per_layer_metrics, self_time_table  # noqa: E402
from workloads import DEFECT_PROBES, WORKLOADS  # noqa: E402

# A set-up sample is taken before every SETUP_EVERY-th untraced command, so
# the samples spread over the run instead of falling into one fast or slow
# stretch of the host.
SETUP_EVERY = 3
RUN_LIMIT_S = 170.0  # every run must end within 180 s
SPEC_PATH = ROOT / "BENCHMARK.json"


@dataclass
class CommandRun:
    args: list[str]
    traced: bool
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    outcome: Outcome
    layers: dict = field(default_factory=dict)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    # The program keeps its own thread default (min(8, nproc)).
    env.pop("STRONGPOW_THREADS", None)
    return env


class Runner:
    """Runs commands in fresh processes; kills one still running at the
    run's deadline and marks the run expired."""

    def __init__(self, deadline: float, tmp: Path):
        self.deadline = deadline
        self.expired = False
        self.env = child_env()
        self.tmp = tmp

    def spawn(self, argv: list[str]) -> tuple[float, float, float, int, bytes, bytes]:
        """Run argv to completion; wall s, cpu s, max rss MB, exit code, stdout, stderr."""
        out_path, err_path = self.tmp / "stdout", self.tmp / "stderr"
        remaining = max(self.deadline - time.monotonic(), 0.1)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=self.env)
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                wall = time.perf_counter() - t0
                killer.cancel()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if time.monotonic() >= self.deadline:
            self.expired = True
        cpu = usage.ru_utime + usage.ru_stime
        return (wall, cpu, usage.ru_maxrss / 1024.0, code,
                out_path.read_bytes(), err_path.read_bytes())

    def command(self, args: list[str], traced: bool, ref: dict, documented) -> CommandRun:
        spans_path = self.tmp / "spans.json"
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path), *args]
        else:
            argv = [sys.executable, "-m", "strongpow", *args]
        wall, cpu, rss, code, stdout, stderr = self.spawn(argv)
        outcome = check_output(ref, code, stdout, documented)
        if not outcome.ok and stderr:
            tail = stderr.decode(errors="replace").strip()[-300:].replace("\n", " | ")
            outcome.problem += f"; stderr: {tail}"
        run = CommandRun(args, traced, wall, cpu, rss, code, outcome)
        if traced and spans_path.exists():
            with open(spans_path, encoding="utf-8") as fh:
                run.layers = aggregate_command(json.load(fh), cpu)
            spans_path.unlink()
        return run

    def setup_time(self) -> float:
        """Wall seconds from starting an interpreter to `import strongpow.cli` done."""
        wall, _, _, code, _, stderr = self.spawn([sys.executable, "-c", "import strongpow.cli"])
        if code != 0:
            raise RuntimeError(f"import strongpow.cli failed: {stderr.decode(errors='replace')}")
        return wall


def environment() -> dict:
    """What identifies the machine and the code a run measured."""
    import numpy

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "strongpow").glob("*")):
        if path.is_file():
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "env": {k: os.environ.get(k)
                for k in ("STRONGPOW_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def quartiles(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def command_stats(runs: list[CommandRun]) -> dict[str, dict]:
    """Per command: wall-time quartiles and median max-RSS over its
    successful runs, and its result counts."""
    by_key: dict[str, list[CommandRun]] = {}
    for r in runs:
        if r.outcome.ok:
            by_key.setdefault(command_key(r.args), []).append(r)
    return {key: {"kind": rs[0].args[0],
                  "wall": quartiles([r.wall_s for r in rs]),
                  "rss_mb": statistics.median(r.rss_mb for r in rs),
                  "checks": rs[0].outcome.checks,
                  "skipped": rs[0].outcome.skipped}
            for key, rs in by_key.items()}


def command_metrics(runs: list[CommandRun]) -> dict[str, float]:
    """End-to-end and per-command-kind metrics of a run's untraced commands.

    A typical pass is the workload's commands at their median wall times,
    so a slow stretch of the host that covers less than half of a command's
    runs does not move the result. Timings count successful commands only."""
    stats = command_stats(runs)
    wall = {k: sum(s["wall"]["median"] for s in stats.values() if s["kind"] == k)
            for k in ("verify", "invariants", "sweep", "build")}
    checks = sum(s["checks"] for s in stats.values())
    verify_checks = sum(s["checks"] for s in stats.values() if s["kind"] == "verify")
    return {
        "checks_per_s": checks / sum(wall.values()) if stats else 0.0,
        "checks_done": checks,
        "peak_rss_mb": max((s["rss_mb"] for s in stats.values()), default=0.0),
        "cmd.verify_checks_per_s": verify_checks / wall["verify"] if wall["verify"] else 0.0,
        "cmd.verify_skipped": sum(s["skipped"] for s in stats.values() if s["kind"] == "verify"),
        "cmd.invariants_s": wall["invariants"],
        "cmd.sweep_s": wall["sweep"],
        "cmd.build_s": wall["build"],
        "cmd.fail_ratio": sum(not r.outcome.ok for r in runs) / len(runs),
    }


def expected_sweep(lo: int, hi: int) -> bytes:
    """The sweep CSV built from the library's closed forms, without the
    4300-digit limit on int-to-str conversion."""
    import strongpow as sp

    sys.set_int_max_str_digits(0)
    lines = ["n,phi,spectrum,a,tau,le,kappa,chi,linegraph"]
    for n in range(lo, hi + 1):
        s = sp.closed_form_spectrum(n, True)
        tau = sp.spanning_tree_count_formula(n, True) if n >= 2 else 1
        le = sp.laplacian_energy_from_spectrum(s, s.trace() // 2, n)
        line = "true" if sp.cyclic_line_graph_classification(n) else "false"
        cells = [n, sp.euler_phi(n), " ".join(f"{v}^{m}" for v, m in s.pairs),
                 sp.algebraic_connectivity(s), tau, le,
                 sp.kappa_formula(n, True), sp.chi_formula(n, True), line]
        lines.append(",".join(map(str, cells)))
    return ("\n".join(lines) + "\n").encode()


def probe_defect(runner: Runner, args: list[str]) -> dict:
    """Run a known-defect probe: 'present' while it still fails as recorded,
    'fixed' once its output equals the closed-form rows, else 'wrong'."""
    wall, _, _, code, stdout, stderr = runner.spawn([sys.executable, "-m", "strongpow", *args])
    lo, hi = (int(x) for x in args[args.index("--range") + 1].split(".."))
    if code == 0 and stdout == expected_sweep(lo, hi):
        state = "fixed"
    elif code == 2 and b"Exceeds the limit" in stderr:
        state = "present"
    else:
        state = "wrong"
    return {"command": command_key(args), "state": state, "exit": code, "wall_s": wall,
            "stderr": stderr.decode(errors="replace").strip()[-200:]}


def documented_checker():
    """A predicate: is this verify row on the program's known-discrepancy list?"""
    from strongpow.verify import CheckRecord, load_known_discrepancies

    known = load_known_discrepancies()

    def documented(row: dict[str, str]) -> bool:
        rec = CheckRecord(row["check"], row.get("family", ""), row["param"], int(row["n"]),
                          row["formula"], row["oracle"], row["status"])
        return any(k.matches(rec) for k in known)

    return documented


def run_workload(name: str, seed: int, seconds: float, trace: bool, refs: dict) -> dict:
    """Passes over one workload until `seconds` have passed and at least one
    pass is whole, then its known-defect probes. With `trace`, each command
    runs untraced and then, straight after, traced."""
    started = time.monotonic()
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    runner = Runner(started + RUN_LIMIT_S, tmp)
    documented = documented_checker()
    rng = random.Random(seed)
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": environment(), "setup_samples_s": [], "passes": [],
              "probes": []}
    try:
        runner.setup_time()  # writes bytecode caches; not a sample
        untraced = 0

        def done() -> bool:
            return runner.expired or (result["passes"][0]["whole"]
                                      and time.monotonic() - started >= seconds)

        while not result["passes"] or not done():
            order = list(WORKLOADS[name])
            rng.shuffle(order)
            this = {"loadavg_start": os.getloadavg(), "untraced": [], "traced": [],
                    "whole": False}
            result["passes"].append(this)
            for args in order:
                if done():
                    break
                if untraced % SETUP_EVERY == 0:
                    result["setup_samples_s"].append(runner.setup_time())
                untraced += 1
                ref = refs[command_key(args)]
                this["untraced"].append(runner.command(args, False, ref, documented))
                if trace:
                    this["traced"].append(runner.command(args, True, ref, documented))
            else:
                this["whole"] = not runner.expired
            this["loadavg_end"] = os.getloadavg()
        if not runner.expired:
            result["probes"] = [probe_defect(runner, a) for a in DEFECT_PROBES.get(name, [])]
    finally:
        result["expired"] = runner.expired
        for path in tmp.iterdir():
            path.unlink()
        tmp.rmdir()
    summarize(result)
    return result


def summarize(result: dict) -> None:
    """Add metrics, per-command stats, problems and the contract's totals to
    a run's result."""
    passes = result["passes"]
    untraced = [r for p in passes for r in p["untraced"]]
    runs = untraced + [r for p in passes for r in p["traced"]]
    problems = [f"{command_key(r.args)}: {r.outcome.problem}" for r in runs if not r.outcome.ok]
    problems += [f"known-defect probe {p['command']} gave exit {p['exit']}"
                 for p in result["probes"] if p["state"] == "wrong"]
    if result["expired"]:
        problems.append(f"a command was still running {RUN_LIMIT_S:.0f} s into the run")

    metrics = command_metrics(untraced) if untraced else {}
    if result["setup_samples_s"]:
        metrics["setup_s"] = statistics.median(result["setup_samples_s"])
    # Layer metrics come from whole traced passes, the median over them.
    columns: dict[str, list[float]] = {}
    for p in passes:
        if p["whole"] and p["traced"]:
            layer = per_layer_metrics([r.layers for r in p["traced"]])
            layer["trace.overhead_ratio"] = (sum(r.wall_s for r in p["traced"])
                                             / sum(r.wall_s for r in p["untraced"]))
            for key, value in layer.items():
                columns.setdefault(key, []).append(value)
    metrics.update({k: statistics.median(v) for k, v in columns.items()})
    metrics["probe.known_defects_present"] = sum(
        p["state"] == "present" for p in result["probes"])
    result["metrics"] = metrics
    result["commands"] = command_stats(untraced)
    result["setup"] = quartiles(result["setup_samples_s"]) if result["setup_samples_s"] else None
    traced = [r.layers for p in passes for r in p["traced"]]
    if traced:
        result["self_time"] = self_time_table(traced)
    result["problems"] = problems
    result["attempted"] = len(runs)
    result["failed"] = sum(not r.outcome.ok for r in runs)
    result["correct"] = bool(runs) and not problems


def print_report(result: dict, units: dict[str, str]) -> None:
    env = result["environment"]
    print(f"== {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"passes {len(result['passes'])}  commit {env['git_commit'] or '-'}  "
          f"src {env['src_sha256'][:12]}")
    print(f"   nproc {env['nproc']}  cpu {env['cpu_model']}  python {env['python']}  "
          f"numpy {env['numpy']}  env {env['env']}")
    for p in result["passes"]:
        print(f"   pass loadavg {p['loadavg_start'][0]:.2f} -> {p['loadavg_end'][0]:.2f}")
    print(f"   {'command wall time (s)':60s} {'median':>8s} {'q1':>8s} {'q3':>8s} {'n':>3s}")
    rows = [(k, c["wall"]) for k, c in sorted(result["commands"].items())]
    if result["setup"]:
        rows.append(("setup: import strongpow.cli", result["setup"]))
    for key, q in rows:
        print(f"   {key[:60]:60s} {q['median']:8.3f} {q['q1']:8.3f} {q['q3']:8.3f} {q['n']:3d}")
    print(f"   {'metric':34s} {'unit':6s} {'value':>12s}")
    for key, unit in units.items():
        if key in result["metrics"]:
            print(f"   {key:34s} {unit:6s} {result['metrics'][key]:12.5g}")
    if result.get("self_time"):
        print(f"   {'self time by function (traced)':40s} {'calls':>7s} {'wall_s':>9s} "
              f"{'self_s':>9s} {'cpu_s':>9s}")
        for row in result["self_time"][:15]:
            print(f"   {row['name']:40s} {row['calls']:7d} {row['wall_s']:9.3f} "
                  f"{row['self_s']:9.3f} {row['cpu_s']:9.3f}")
    for p in result["probes"]:
        print(f"   known defect {p['state']}: {p['command']} (exit {p['exit']}) {p['stderr']}")
    for problem in result["problems"]:
        print(f"   FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "strongpow" / "cli.py").is_file():
        print(f"error: no strongpow sources under {SRC}; run from a strongpow checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    refs = load_references()
    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    reported = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    OUT.mkdir(exist_ok=True)
    results = []
    for name in list(WORKLOADS) if args.workload == "all" else [args.workload]:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), refs)
        with open(OUT / f"{name}-seed{args.seed}-trace{args.trace}.json", "w",
                  encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, default=asdict)
        print_report(result, units)
        results.append(result)

    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else f"{r['workload']}."
        for key in reported:
            if key in r["metrics"]:
                metrics[prefix + key] = {"value": r["metrics"][key], "unit": units[key]}
    print(json.dumps({
        "correct": len(metrics) == len(reported) * len(results)
        and all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
