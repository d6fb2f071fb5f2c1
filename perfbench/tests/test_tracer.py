"""The tracer changes no result and records what the layer metrics need."""

import json
import os
import subprocess
import sys

import pytest

import strongpow
import strongpow.cli
import strongpow.permanents
import strongpow.verify
from layers import aggregate_command, per_layer_metrics
from run import ROOT, child_env
from strongpow import SizeGuardError, complete_graph, laplacian
from tracer import Tracer


def test_wrapped_function_returns_the_same_values():
    tracer = Tracer()
    ryser = tracer.wrap("permanents.permanent_ryser", strongpow.permanent_ryser)
    for n in (1, 4, 7):
        m = laplacian(complete_graph(n))
        assert ryser(m) == strongpow.permanent_ryser(m)
    assert len(tracer.spans) == 3
    assert all(s[7] is None and s[8] is not None for s in tracer.spans)


def test_wrapped_function_raises_the_same_exception():
    tracer = Tracer()
    ryser = tracer.wrap("permanents.permanent_ryser", strongpow.permanent_ryser)
    big = laplacian(complete_graph(strongpow.permanents.RYSER_LIMIT + 1))
    with pytest.raises(SizeGuardError) as unwrapped:
        strongpow.permanent_ryser(big)
    with pytest.raises(SizeGuardError) as wrapped:
        ryser(big)
    assert str(wrapped.value) == str(unwrapped.value)
    assert tracer.spans[-1][7] == "SizeGuardError"
    totals = aggregate_command(tracer.spans, 1.0)
    assert totals["layers"]["permanents.ryser"]["guard_hits"] == 1


def test_install_patches_every_name_and_uninstall_restores():
    original = strongpow.permanents.permanent_ryser
    expected = strongpow.cli.compute_invariant_bundle("zn:4")
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = strongpow.permanents.permanent_ryser
        assert wrapped is not original
        assert strongpow.verify.permanent_ryser is wrapped
        assert strongpow.cli.permanent_ryser is wrapped
        assert strongpow.permanent_ryser is wrapped
        assert strongpow.cli.compute_invariant_bundle("zn:4") == expected
    finally:
        tracer.uninstall()
    assert strongpow.verify.permanent_ryser is original
    assert strongpow.cli.permanent_ryser is original
    names = {s[1] for s in tracer.spans}
    assert {"cli.compute_invariant_bundle", "permanents.permanent_ryser",
            "graphs.Graph.__post_init__", "graphs.strong_power_graph"} <= names


def test_self_time_subtracts_children_and_nesting_is_counted_once():
    # id, name, parent, thread, start, end, cpu, exception, key
    spans = [
        (1, "verify.run_verify", None, 1, 0.0, 10.0, 1.0, None, None),
        (2, "permanents.permanent_ryser", 1, 1, 1.0, 5.0, 4.0, None, 11),
        (3, "permanents.permanent_ryser", 1, 2, 3.0, 7.0, 2.0, None, 11),
        (4, "spectral.laplacian", 1, 1, 8.0, 9.0, 1.0, None, None),
        (5, "spectral.adjacency", 4, 1, 8.2, 8.4, 0.2, None, None),
    ]
    totals = aggregate_command(spans, 8.0)
    assert totals["verify_self_s"] == pytest.approx(10.0 - 6.0 - 1.0)
    assert totals["layers"]["spectral.assemble"]["calls"] == 1
    assert totals["layers"]["spectral.assemble"]["s"] == pytest.approx(1.0)
    assert totals["gil_wait_s"] == pytest.approx((4.0 - 4.0) + (4.0 - 2.0))
    metrics = per_layer_metrics([totals])
    assert metrics["permanents.ryser_calls"] == 2
    assert metrics["permanents.ryser_distinct_ratio"] == 0.5
    assert metrics["permanents.ryser_cpu_share"] == pytest.approx(6.0 / 8.0)


@pytest.mark.parametrize("args", [
    ["invariants", "--format", "json", "--group", "product:zn:2+zn:4"],
    ["verify", "--family", "cyclic", "--range", "2..9"],
    ["sweep", "--range", "1500..1500"],
])
def test_traced_run_gives_the_same_output(tmp_path, args):
    env = child_env()
    plain = subprocess.run([sys.executable, "-m", "strongpow", *args], cwd=ROOT, env=env,
                           capture_output=True, check=False, timeout=120)
    spans_path = tmp_path / "spans.json"
    tracer = os.path.join(ROOT, "perfbench", "tracer.py")
    traced = subprocess.run([sys.executable, tracer, str(spans_path), *args], cwd=ROOT,
                            env=env, capture_output=True, check=False, timeout=120)
    assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout)
    assert traced.stderr == plain.stderr
    spans = json.loads(spans_path.read_text())
    assert [s[1] for s in spans if s[2] is None] == ["cli.main"]
