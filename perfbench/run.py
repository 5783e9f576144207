#!/usr/bin/env python3
"""The fingroups benchmark.

    python3 perfbench/run.py --workload catalog --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory.  One process on one thread sets the workload up from
its seed, then runs passes over the workload's ops (a closed loop: each op
starts when the previous one has returned) until another pass would
overrun ``--seconds``; at least one pass always runs.  An untraced run
spends the rest of ``--seconds`` on top-up rounds over the cheap ops (see
run_passes).  Every op's output is checked (see workloads.py).

End-to-end times are scaled to a reference host speed by a probe timed
around and inside every op and set-up (see hostspeed.py), because the
shared hosts the benchmark runs on drift in speed by up to 2x between and
within runs.  The unscaled times are printed and stored beside them.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` half the time runs untraced
passes and half runs traced ones, and the JSON holds the per-layer metrics
(see tracing.py), averaged per pass, with the tracing overhead.  Spans and
a result record with the environment go to ``perfbench/out/``.

Exit status: 0 when every output is correct, 1 when any op failed, 2 when
the command cannot run at all (no library source next to it, bad
arguments).
"""

import os

if __name__ == "__main__":
    # Pin the environment before numpy loads: one BLAS/OpenMP thread, and
    # the default Cauchy tuple cap (the variable changes Cauchy's route).
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[_var] = "1"
    os.environ.pop("GRP_MAX_TUPLE_CARRIER", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from hostspeed import Probe  # noqa: E402
from tracing import Tracer, layer_metric_specs  # noqa: E402
from workloads import WORKLOADS, build_ops  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# Set-up (import plus building the groups) runs at least SETUP_MIN_REPEATS
# times, and more while the total stays under SETUP_SECONDS, so that short
# set-ups get a steadier median.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 50
SETUP_SECONDS = 3.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_max_s": "s",
    "peak_rss_mib": "MiB",
    "pass_ratio": "ratio",
}


def unusable(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_library() -> None:
    """Import fingroups from the checkout's own source tree."""
    if not (SRC / "fingroups" / "__init__.py").is_file():
        unusable(f"no library source at {SRC}/fingroups; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import fingroups
    if Path(fingroups.__file__).resolve().parent != (SRC / "fingroups").resolve():
        unusable(f"imported fingroups from {fingroups.__file__}, not from {SRC}")


def set_up(workload: str, seed: int, reference: dict, workdir: Path) -> list:
    """One set-up: import fingroups afresh (numpy stays loaded), then build
    or relabel the workload's groups and write its files."""
    for name in [m for m in sys.modules if m == "fingroups" or m.startswith("fingroups.")]:
        del sys.modules[name]
    import fingroups  # noqa: F401
    return build_ops(workload, seed, reference, workdir)


def environment() -> dict:
    from fingroups.sylow import TUPLE_CAP_ENV, tuple_cap

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "tuple_cap": tuple_cap(),
        "tuple_cap_env": os.environ.get(TUPLE_CAP_ENV),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_passes(ops, budget: float, first_op_id: int, tracer: Tracer | None = None,
               top_up: bool = False, probe: Probe | None = None):
    """Closed-loop passes over ops until another pass would overrun the
    budget; at least one pass runs.  With top_up, the rest of the budget
    then goes to rounds over the cheap ops: an op joins a round while its
    total time stays within an equal share of the budget and the round
    stays within the budget, so short ops get more samples, spread over
    time, without any op crowding out the others.  With a probe, op times
    are scaled to the reference host speed.  Returns one list per pass or
    round of (label, seconds, failure reason or None, measured seconds)."""
    clock = time.perf_counter
    passes = []
    spent = dict.fromkeys((op.label for op in ops), 0.0)
    runs = dict.fromkeys(spent, 0)
    op_id = first_op_id

    def run_one(op):
        nonlocal op_id
        if probe is not None:
            out, err, seconds, measured = probe.timed(op.run)
        else:
            if tracer is not None:
                tracer.begin_op(op_id)
            err = None
            out = None
            t0 = clock()
            try:
                out = op.run()
            except Exception as e:  # the check decides whether this was expected
                err = e
            t1 = clock()
            if tracer is not None:
                tracer.end_op(t0, t1)
            seconds = measured = t1 - t0
        op_id += 1
        try:
            why = op.check(out, err)
        except Exception as e:  # a crashing check is a failed op
            why = f"check raised {type(e).__name__}: {e}"
        spent[op.label] += measured
        runs[op.label] += 1
        return op.label, seconds, why, measured

    began = clock()
    while True:
        passes.append([run_one(op) for op in ops])
        elapsed = clock() - began
        if elapsed + elapsed / len(passes) > budget:
            break
    share = budget / len(ops)
    while top_up:
        results = []
        for op in ops:
            cost = spent[op.label] / runs[op.label]
            if spent[op.label] + cost <= share and clock() - began + cost <= budget:
                results.append(run_one(op))
        if not results:
            break
        passes.append(results)
    return passes


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(passes, setup_s: float, rss_mib: float) -> tuple[dict, dict]:
    """The end-to-end metrics of a run, and notes for the human report."""
    per_op: dict[str, list[float]] = {}
    measured: dict[str, list[float]] = {}
    for p in passes:
        for label, t, _, m in p:
            per_op.setdefault(label, []).append(t)
            measured.setdefault(label, []).append(m)
    # ops are distinct fixed inputs: take each op's median over its runs,
    # then the sum, the median and the maximum across ops
    op_median = {label: statistics.median(ts) for label, ts in per_op.items()}
    slowest = max(op_median, key=op_median.get)
    attempted = sum(map(len, passes))
    failed = sum(1 for p in passes for _, _, why, _ in p if why is not None)
    metrics = {
        "setup_s": setup_s,
        "wall_s": sum(op_median.values()),
        "op_p50_ms": statistics.median(op_median.values()) * 1000.0,
        "op_max_s": op_median[slowest],
        "peak_rss_mib": rss_mib,
        "pass_ratio": (attempted - failed) / attempted,
    }
    notes = {
        "wall_s": f"sum of {len(op_median)} op medians; unscaled "
                  f"{sum(statistics.median(ts) for ts in measured.values()):.6f} s",
        "op_p50_ms": f"median of {len(op_median)} op medians, n={attempted} samples",
        "op_max_s": f"{slowest}; unscaled {statistics.median(measured[slowest]):.6f} s",
        "pass_ratio": f"fail_ratio {failed / attempted:.4g} = {failed} failed / {attempted} attempted",
    }
    return metrics, notes


def traced_run(ops, seconds: float, tracer: Tracer, probe: Probe) -> tuple[list, float, list, dict]:
    """Untraced passes, timed with the probe, then traced passes without
    it, each for half the time.  Per-layer metrics are unscaled and
    averaged per traced pass (ratios are taken over all of them).  Also
    returns the peak RSS before tracing began."""
    untraced = run_passes(ops, seconds / 2, 0, probe=probe)
    rss_mib = peak_rss_mib()
    tracer.install()
    try:
        traced = run_passes(ops, seconds / 2, sum(map(len, untraced)), tracer)
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    n = len(traced)
    for key in layers:
        if "share" not in key and "per_closure" not in key:
            layers[key] /= n
    layers["bench.untraced.wall_s"] = statistics.fmean(
        sum(m for _, _, _, m in p) for p in untraced)
    layers["bench.overhead.wall_s"] = layers["bench.traced.wall_s"] - layers["bench.untraced.wall_s"]
    return untraced, rss_mib, traced, layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_library()
    env = environment()
    ref_file = HERE / "reference" / f"{args.workload}.json"
    reference = json.loads(ref_file.read_text(encoding="utf-8"))

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        probe = Probe()
        setup_times = []
        setup_measured = []
        while len(setup_times) < SETUP_MIN_REPEATS or (
                sum(setup_measured) < SETUP_SECONDS and len(setup_times) < SETUP_MAX_REPEATS):
            ops, err, seconds, measured = probe.timed(
                lambda: set_up(args.workload, args.seed, reference, workdir))
            if err is not None:
                raise err
            setup_times.append(seconds)
            setup_measured.append(measured)
        setup_s = statistics.median(setup_times)

        tracer = Tracer() if args.trace else None
        if tracer is None:
            passes = run_passes(ops, args.seconds, 0, top_up=True, probe=probe)
            rss_mib = peak_rss_mib()
            traced = []
        else:
            passes, rss_mib, traced, layers = traced_run(ops, args.seconds, tracer, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # end-to-end figures come from untraced passes only
    metrics, notes = end_to_end(passes, setup_s, rss_mib)
    passes += traced
    notes["setup_s"] = (f"median of {len(setup_times)} set-ups; unscaled "
                        f"{statistics.median(setup_measured):.6f} s; median probe "
                        f"{statistics.median(probe.times) * 1e3:.4f} ms of {len(probe.times)}")
    attempted = sum(len(p) for p in passes)
    failures = [(label, why) for p in passes for label, _, why, _ in p if why is not None]

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops, {len(passes)} passes and rounds")
    for name, value in metrics.items():
        print(f"  {name:<14} {value:14.6f} {END_TO_END_UNITS[name]:<6} {notes.get(name, '')}")
    for label, why in failures:
        print(f"FAILED {label}: {why}", file=sys.stderr)

    if tracer is None:
        reported = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    else:
        tracer.write(OUT / f"spans-{tag}.npz")
        reported = {name: {"value": layers[name], "unit": unit}
                    for name, unit, _ in layer_metric_specs()}
        total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        print(f"  traced wall {layers['bench.traced.wall_s']:.6f} s = sum of self times "
              f"{total:.6f} s (including untraced remainder "
              f"{layers['bench.remainder.self_s']:.6f} s); tracing overhead "
              f"{layers['bench.overhead.wall_s']:.6f} s")
        for name, unit, _ in layer_metric_specs():
            print(f"  {name:<52} {layers[name]:16.6f} {unit}")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": reported,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps({
        **result, "env": env, "workload": args.workload, "seed": args.seed,
        "end_to_end": metrics, "notes": notes,
        "ops": [[list(entry) for entry in p] for p in passes],
    }, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
