"""End-to-end metrics come from per-command medians over a run."""

from check import Outcome
from run import CommandRun, command_metrics

SWEEP = ["sweep", "--range", "2..9"]
BUILD = ["build", "--group", "zn:4", "--format", "dot"]


def run(args, wall, checks=10, ok=True):
    outcome = Outcome(ok, checks=checks if ok else 0, problem="" if ok else "exit code 1")
    return CommandRun(args, False, wall, wall, 30.0, 0 if ok else 1, outcome)


def test_one_slow_run_does_not_move_the_metrics():
    runs = [run(SWEEP, 1.0), run(BUILD, 0.5), run(SWEEP, 1.0), run(BUILD, 0.5),
            run(SWEEP, 9.0), run(BUILD, 0.5)]
    m = command_metrics(runs)
    assert m["checks_done"] == 20
    assert m["checks_per_s"] == 20 / 1.5
    assert (m["cmd.sweep_s"], m["cmd.build_s"], m["cmd.fail_ratio"]) == (1.0, 0.5, 0.0)


def test_failed_runs_are_counted_but_not_timed():
    runs = [run(SWEEP, 1.0), run(SWEEP, 0.1, ok=False), run(BUILD, 0.5), run(BUILD, 0.5)]
    m = command_metrics(runs)
    assert m["cmd.sweep_s"] == 1.0
    assert m["cmd.fail_ratio"] == 0.25
