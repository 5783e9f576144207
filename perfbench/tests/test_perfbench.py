"""Tests of the benchmark's own machinery (not of the library).

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads
from fingroups.cli import parse_group_ref
from fingroups.errors import NoInverse, NonAssociative
from fingroups.group import build, from_cayley_table
from fingroups.suite import verify_group

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent


def test_self_times_subtract_the_union_of_children():
    #   0 root [0, 10]
    #   1   child [1, 3]      2 grandchild [1.5, 2.5]
    #   3   child [2, 5]      overlaps child 1: together they cover [1, 5]
    #   4   child [7, 12]     runs past its parent: only [7, 10] is covered
    #   5 second root [20, 21]
    start = [0.0, 1.0, 1.5, 2.0, 7.0, 20.0]
    end = [10.0, 3.0, 2.5, 5.0, 12.0, 21.0]
    parent = [-1, 0, 1, 0, 0, -1]
    got = tracing.self_times(start, end, parent)
    assert got == pytest.approx([10 - 4 - 3, 2 - 1, 1, 3, 5, 1])


def test_self_times_do_not_depend_on_span_order():
    start = [7.0, 0.0, 1.0]
    end = [8.0, 10.0, 3.0]
    parent = [1, -1, 1]
    assert tracing.self_times(start, end, parent) == pytest.approx([1, 7, 2])


def test_traced_pass_adds_up_and_unwinds():
    import fingroups.suite
    import fingroups.subgroup as subgroup_mod
    import fingroups.sylow as sylow_mod
    from fingroups.carrier import ElemSet

    original = (sylow_mod.is_subgroup, subgroup_mod.is_subgroup, ElemSet.as_array)
    g = build(parse_group_ref("dihedral:3"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert sylow_mod.is_subgroup is subgroup_mod.is_subgroup is not original[0]
        passes = run.run_passes(
            [workloads.Op("d3", lambda: fingroups.suite.verify_group(g, "d3"), None,
                          lambda o, e: None)],
            0, 0, tracer)
    finally:
        tracer.uninstall()
    assert (sylow_mod.is_subgroup, subgroup_mod.is_subgroup, ElemSet.as_array) == original

    layers = tracer.layer_metrics()
    wall = passes[0][0][1]
    assert layers["bench.traced.wall_s"] == pytest.approx(wall)
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(wall)
    assert layers["suite.verify_group.calls"] == 1
    assert layers["sylow.cauchy_element.calls"] >= 4
    # verify_group asks for Cauchy's element once per prime, then once more
    # inside sylow_subgroup
    assert layers["sylow.cauchy_element.repeat_share"] > 0
    assert layers["sylow.cauchy_element.tuple_route_share"] == 1.0
    assert layers["subgroup.is_subgroup.repeat_share"] > 0
    assert 0 < layers["subgroup.subgroup_sample.distinct_per_closure"] < 1
    names = {name for name, _, _ in tracing.layer_metric_specs()}
    assert names - {"bench.untraced.wall_s", "bench.overhead.wall_s"} == set(layers)


def test_top_up_rounds_sample_cheap_ops_within_the_budget():
    import time

    def sleeper(label, seconds):
        return workloads.Op(label, lambda: time.sleep(seconds), None, lambda o, e: None)

    ops = [sleeper("slow", 0.2), sleeper("fast", 0.005)]
    began = time.perf_counter()
    passes = run.run_passes(ops, 0.5, 0, top_up=True)
    took = time.perf_counter() - began
    runs = [label for p in passes for label, *_ in p]
    # two full passes fit in 0.5 s; the slow op is then over its 0.25 s share
    assert [label for label, *_ in passes[0]] == ["slow", "fast"]
    assert runs.count("slow") == 2
    assert runs.count("fast") > 4
    assert took < 0.5 + 0.05
    metrics, _ = run.end_to_end(passes, 0.0, 1.0)
    assert metrics["wall_s"] == pytest.approx(0.205, rel=0.2)
    assert metrics["op_max_s"] == pytest.approx(0.2, rel=0.2)


def test_probe_scales_by_host_speed_and_leaves_out_its_own_time(monkeypatch):
    import time

    import hostspeed

    # a host that runs the probe at a third of the reference speed
    def slow_probe():
        t0 = time.perf_counter()
        time.sleep(3 * hostspeed.NOMINAL_S)
        t1 = time.perf_counter()
        return t0, t1, t1 - t0

    monkeypatch.setattr(hostspeed, "probe", slow_probe)
    probe = hostspeed.Probe()
    span = []

    def call():
        t0 = time.perf_counter()
        for _ in range(500):
            time.sleep(0.001)
        span.append(time.perf_counter() - t0)
        return "done"

    out, err, scaled, measured = probe.timed(call)
    assert (out, err) == ("done", None)
    inside = probe._inside
    assert len(inside) >= 3
    # the probes run inside the call are not the call's time
    assert measured == pytest.approx(span[0] - sum(b - a for a, b, _ in inside), abs=0.002)
    speed = sum(hostspeed.NOMINAL_S / t for t in probe.times) / len(probe.times)
    assert speed == pytest.approx(1 / 3, rel=0.25)
    assert scaled == pytest.approx(measured * speed)

    out, err, _, _ = probe.timed(lambda: 1 / 0)
    assert out is None and isinstance(err, ZeroDivisionError)


@pytest.mark.parametrize("ref", ["symmetric:3", "product:(cyclic:2,dihedral:4)"])
def test_relabeling_round_trips(ref):
    g0 = build(parse_group_ref(ref))
    perm = np.random.default_rng(7).permutation(g0.order)
    table = workloads.relabel(np.asarray(g0.mul), perm)
    g = from_cayley_table(g0.order, table)
    assert g.unit == perm[g0.unit]
    assert not np.array_equal(table, g0.mul)
    assert np.array_equal(workloads.unrelabel(table, perm), g0.mul)
    assert workloads.group_digest(g, perm) == workloads.group_digest(g0, np.arange(g0.order))
    rep = verify_group(g, ref)
    want = verify_group(g0, ref).to_json(with_timing=False)
    assert rep.ok
    assert workloads.verify_projection(rep.to_json(with_timing=False)) == \
        workloads.verify_projection(want)


def test_seed_zero_keeps_labels():
    perm = workloads.permutation(np.random.default_rng(0), 5, 0)
    assert perm.tolist() == [0, 1, 2, 3, 4]


def _corrupted(ref, seed):
    g0 = build(parse_group_ref(ref))
    table = np.asarray(g0.mul).astype(np.int64)
    i, j, v = workloads.corrupt(np.random.default_rng(seed), table, g0.unit)
    assert i != g0.unit and j != g0.unit and v != table[i, j]
    bad = table.copy()
    bad[i, j] = v
    return bad


@pytest.mark.parametrize("seed", range(6))
def test_library_rejection_witness_is_confirmed(seed):
    bad = _corrupted("dihedral:4", seed)
    with pytest.raises((NoInverse, NonAssociative)) as info:
        from_cayley_table(len(bad), bad)
    assert workloads.confirm_rejection(info.value, bad) is None


def test_wrong_witness_counts_as_failed(tmp_path):
    bad = _corrupted("dihedral:4", 0)
    with pytest.raises(NonAssociative) as info:
        from_cayley_table(len(bad), bad)
    x1, x2, x3 = info.value.triple
    path = tmp_path / "bad.txt"
    workloads.write_table(path, bad)
    reference = {"corrupt": workloads.rejection_digest(None, info.value)}

    honest = workloads.reject_op("corrupt", str(path), bad, 0, reference)
    assert run.run_passes([honest], 0, 0)[0][0][2] is None

    for wrong in (NonAssociative(x1, x2, (x3 + 1) % len(bad)), NoInverse(x2)):
        op = workloads.reject_op("corrupt", str(path), bad, 0, reference)

        def raise_wrong(err=wrong):
            raise err

        op.run = raise_wrong
        passes = run.run_passes([op], 0, 0)
        assert passes[0][0][2] is not None
        metrics, notes = run.end_to_end(passes, 0.0, 1.0)
        assert metrics["pass_ratio"] == 0.0
        assert "1 failed / 1 attempted" in notes["pass_ratio"]


def _checkout_copy(root, with_library):
    """A copy of the benchmark in root, with the library source beside it
    (linked, not copied) or without it."""
    shutil.copytree(BENCH, root / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    if with_library:
        (root / "src").symlink_to(ROOT / "src", target_is_directory=True)


def _bench(root, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args, "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=300)


def test_tampered_reference_fails_the_command(tmp_path):
    _checkout_copy(tmp_path, with_library=True)
    path = tmp_path / "perfbench" / "reference" / "ingest.json"
    reference = json.loads(path.read_text())
    label = "corrupt:product:(dihedral:6,dihedral:6)"
    assert json.loads(reference[label])["witness"] == [1, 6, 3]
    reference[label] = reference[label].replace("[1, 6, 3]", "[1, 6, 4]")
    path.write_text(json.dumps(reference))

    bad = _bench(tmp_path, "--workload", "ingest", "--seed", "0", "--seconds", "0")
    assert bad.returncode == 1, bad.stderr
    result = json.loads(bad.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (7, 1)
    assert result["metrics"]["pass_ratio"]["value"] == pytest.approx(6 / 7)
    assert "fail_ratio 0.1429 = 1 failed / 7 attempted" in bad.stdout
    assert f"FAILED {label}" in bad.stderr


def test_command_refuses_to_run_without_the_library(tmp_path):
    _checkout_copy(tmp_path, with_library=False)
    proc = _bench(tmp_path, "--workload", "large", "--seed", "0", "--seconds", "1")
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_benchmark_json_names_what_the_command_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracing.layer_metric_specs()
