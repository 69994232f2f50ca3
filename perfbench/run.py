"""qkdeff benchmark: one workload per process, one op at a time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bb84-lossless --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` measures the end-to-end metrics with no tracing; times are
wall times adjusted to a nominal host speed read from a reference kernel
timed beside each op (``reference``), with the wall times recorded beside
them.  ``--trace 1``
runs traced ops (spans around each layer's public functions) between
untraced ones, then one op with tracemalloc on, and reports the per-layer
metrics.  Every op's output is checked by ``oracle``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Details (environment, every op's time, check
result and report digest, the spans) go to ``.perfbench_out/`` in the
checkout.  ``--workload all`` runs every workload in its own process and
prints every end-to-end metric with its unit.

The package is imported from ``src/`` of the checkout; nothing is installed
and nothing in the package is changed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 5  # fresh processes timed for setup_s; the median is reported
# Share of an op's time spent on the reference kernel, split before and
# after the op, with at least MIN_REF_REPS runs on each side.
REF_SHARE = 0.1
MIN_REF_REPS, MAX_REF_REPS = 2, 9
# The traced run spends this share of --seconds on untraced/traced op pairs
# (at least MIN_TRACED pairs).  The tracemalloc op after them is not counted
# against it; it is slow, ~9x a plain op on tf-relay-cli.
TRACED_SHARE = 0.5
MIN_TRACED = 2
MIB = 1 << 20
WORKLOADS = ("bb84-lossless", "bb84-lossy-50km", "tf-relay-cli", "model-sweep")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: tiny inputs, for the benchmark's own test")
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_workloads():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    return workloads


def _probe(args) -> int:
    """Set-up as a fresh process pays it: import qkdeff, build the first config."""
    workloads = _import_workloads()
    wl = workloads.make(args.workload, args.seed, args.size, OUT_DIR)
    wl.next_op()
    print("ready", flush=True)
    return 0


def _until_ready(cmd: list[str]) -> float:
    """Time from starting ``cmd`` until it prints 'ready'; then wait for its exit."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def _setup_seconds(args) -> tuple[list[float], list[float]]:
    """Time from process start to 'first op can start' in fresh processes.

    Returns the wall times and the same times adjusted to nominal host speed
    by the reference process (``reference.PROCESS_CMD``) timed before and
    after each probe.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--size", args.size]
    _until_ready(reference.PROCESS_CMD)  # warm-up
    times, refs = [], [_until_ready(reference.PROCESS_CMD)]
    for _ in range(SETUP_PROBES):
        times.append(_until_ready(cmd))
        refs.append(_until_ready(reference.PROCESS_CMD))
    nominal = reference.NOMINAL_S["process"]
    adjusted = [t * 2 * nominal / (a + b) for t, a, b in zip(times, refs, refs[1:])]
    return times, adjusted


@dataclass
class Op:
    """Outcome of one op: wall time of the call, check result, report digest."""

    index: int
    seconds: float | None  # None when the call raised
    errors: list[str]
    digest: str
    speed: float | None = None  # host speed beside the op, 1.0 = nominal

    def as_dict(self) -> dict:
        return {"op": self.index, "s": self.seconds, "speed": self.speed,
                "errors": self.errors[:5], "sha256": self.digest}


def _run_op(wl, index: int, tracer=None, ref: tuple[str, int] | None = None) -> Op:
    """Time one call into the package, then check its output (untimed).

    With ``ref`` = (kernel, runs), that reference kernel is timed that many
    times right before and right after the call, giving the op's host speed.
    """
    args = wl.next_op()
    gc.collect()
    before = reference.sample(*ref) if ref else []
    if tracer is not None:
        tracer.op_id = index
        tracer.install()
    try:
        t0 = time.perf_counter()
        result = wl.run(args)
        seconds = time.perf_counter() - t0
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return Op(index, None, [f"{type(exc).__name__}: {exc}"], "")
    finally:
        if tracer is not None:
            tracer.uninstall()
    speed = reference.speed(before + reference.sample(*ref), ref[0]) if ref else None
    try:
        errors, digest = wl.check(args, result)
    except Exception as exc:  # a report the oracle cannot read is a wrong report
        errors, digest = [f"check raised {type(exc).__name__}: {exc}"], ""
    return Op(index, seconds, errors, digest, speed)


def _times(ops: list[Op]) -> list[float]:
    return [op.seconds for op in ops if op.seconds is not None and not op.errors]


def _adjusted_times(ops: list[Op]) -> list[float]:
    """Wall time times host speed: the op's time at nominal host speed."""
    return [op.seconds * op.speed for op in ops
            if op.seconds is not None and not op.errors]


def _tail(samples: list[float]) -> dict:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it, if any."""
    n = len(samples)
    best = None
    for pct in (90.0, 99.0, 99.9):
        if n * (1.0 - pct / 100.0) >= 10:
            best = (pct, sorted(samples)[int(n * pct / 100.0)])
    return {"pct": best[0], "s": best[1]} if best else {"pct": None, "s": None}


def _ref_reps(kind: str, op_seconds: float | None) -> int:
    """Kernel runs per side so that the kernel takes ~REF_SHARE of an op."""
    kernel_s = statistics.median(reference.sample(kind, 3))
    reps = round(REF_SHARE * (op_seconds or 0.0) / (2 * kernel_s))
    return max(MIN_REF_REPS, min(MAX_REF_REPS, reps))


def _measure(wl, seconds: float) -> tuple[list[Op], list[Op], tuple[str, int]]:
    """Warm-up op, then closed-loop ops while the next is predicted to end in time.

    The warm-up counts against ``seconds``; at least one op is timed.  Each
    timed op has the workload's reference kernel timed beside it.
    """
    start = time.perf_counter()
    warm = [_run_op(wl, 0)]
    ref = (wl.reference, _ref_reps(wl.reference, warm[0].seconds))
    loop_start = time.perf_counter()
    ops: list[Op] = []
    while True:
        ops.append(_run_op(wl, len(ops) + 1, ref=ref))
        now = time.perf_counter()
        if now - start + (now - loop_start) / len(ops) > seconds:
            return warm, ops, ref


def _end_to_end(wl, args, setup: tuple[list[float], list[float]]
                ) -> tuple[list[Op], dict, dict]:
    warm, ops, ref = _measure(wl, args.seconds)
    setup_wall, setup_adjusted = setup
    times, wall = _adjusted_times(ops), _times(ops)
    units = wl.units * len(times)
    metrics = {
        "setup_s": statistics.median(setup_adjusted),
        "units_per_s": units / sum(times) if times else 0.0,
        "op_s.p50": statistics.median(times) if times else 0.0,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    speeds = [op.speed for op in ops if op.speed is not None]
    info = {"op_s.samples": len(times), "op_s.tail": _tail(times),
            "unit_of_work": wl.unit, "units_per_op": wl.units,
            "reference": {"kernel": ref[0], "runs_per_side": ref[1],
                          "speed.p50": statistics.median(speeds) if speeds else None},
            "wall": {"units_per_s": units / sum(wall) if wall else 0.0,
                     "op_s.p50": statistics.median(wall) if wall else 0.0,
                     "setup_s": statistics.median(setup_wall)},
            "setup_s.samples": setup_adjusted, "setup_s.wall_samples": setup_wall}
    return warm + ops, metrics, info


def _traced(wl, args) -> tuple[list[Op], dict, dict]:
    import tracemalloc

    from spans import Tracer

    start = time.perf_counter()
    ops = [_run_op(wl, 0)]  # warm-up
    tracer = Tracer()
    plain: list[Op] = []
    traced: list[Op] = []
    loop_start = time.perf_counter()
    while True:
        plain.append(_run_op(wl, 2 * len(traced) + 1))
        traced.append(_run_op(wl, 2 * len(traced) + 2, tracer))
        now = time.perf_counter()
        pair = (now - loop_start) / len(traced)
        if len(traced) >= MIN_TRACED and now - start + pair > TRACED_SHARE * args.seconds:
            break
    mem_tracer = Tracer(memory=True)
    tracemalloc.start()
    try:
        mem_op = _run_op(wl, 2 * len(traced) + 1, mem_tracer)
    finally:
        tracemalloc.stop()
    ops += plain + traced + [mem_op]

    ok = [op for op in traced if op.seconds is not None]
    per_op = [tracer.layer_metrics(op.index) for op in ok]
    metrics = {name: statistics.median(m[name] for m in per_op) if per_op else 0.0
               for name in (per_op[0] if per_op else tracer.layer_metrics(-1))}
    metrics.update(mem_tracer.peak_metrics(mem_op.index))
    t_plain, t_traced = _times(plain), _times(traced)
    overhead = (statistics.median(t_traced) / statistics.median(t_plain)
                if t_plain and t_traced else 0.0)
    coverage = [tracer.self_time_sum(op.index) / op.seconds for op in ok if op.seconds]
    metrics["trace.overhead_ratio"] = overhead
    metrics["trace.self_coverage"] = statistics.median(coverage) if coverage else 0.0
    info = {"traced_ops": len(traced), "untraced_ops": len(plain),
            "spans": {"last_traced_op": tracer.dump(ok[-1].index) if ok else {},
                      "tracemalloc_op": mem_tracer.dump(mem_op.index)},
            "per_op": per_op}
    return ops, metrics, info


def _environment() -> dict:
    import numpy

    def cache_kib(index: int):
        path = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size")
        try:
            return int(path.read_text().strip().rstrip("K"))
        except (OSError, ValueError):
            return None

    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    n = 10**7
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "cpu_model": model,
        "l2_kib_per_core": cache_kib(2), "l3_kib": cache_kib(3),
        "argv": sys.argv[1:],
        # working-set sizes of one session at N = 1e7, against the L2 above
        "array_mib_at_1e7": {"uint8_column": n / MIB, "float64_temporary": 8 * n / MIB},
    }


def _run_all(args) -> int:
    """Every workload in its own process; print each end-to-end metric with its unit."""
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "0", "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed (exit {proc.returncode})")
            code = 1
            continue
        res = json.loads(lines[-1])
        fail_ratio = res["failed"] / res["attempted"]
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"fail_ratio={fail_ratio:.4g}")
        for metric, v in res["metrics"].items():
            print(f"  {metric:<14} {v['value']:.6g} {v['unit']}")
        code |= 0 if res["correct"] else 1
    return code


def main(argv=None) -> int:
    args = _parse(argv)
    if args.probe:
        return _probe(args)
    if args.workload == "all":
        return _run_all(args)
    OUT_DIR.mkdir(exist_ok=True)
    setup = None if args.trace else _setup_seconds(args)
    workloads = _import_workloads()
    wl = workloads.make(args.workload, args.seed, args.size, OUT_DIR)
    if args.trace:
        ops, metrics, info = _traced(wl, args)
    else:
        ops, metrics, info = _end_to_end(wl, args, setup)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    failed = sum(1 for op in ops if op.errors)
    info["fail_ratio"] = failed / len(ops)
    if args.trace:
        metrics["fail_ratio"] = info["fail_ratio"]

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": _environment(), "info": info,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
              "ops": [op.as_dict() for op in ops]}
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record) + "\n")

    for op in ops:
        if op.errors:
            print(f"op {op.index} failed: {'; '.join(op.errors[:3])}")
    env = record["environment"]
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"python={env['python']} numpy={env['numpy']} nproc={env['nproc']} "
          f"fail_ratio={info['fail_ratio']:.4g} record={out.relative_to(ROOT)}")
    print(f"cpu={env['cpu_model']!r} l2_kib_per_core={env['l2_kib_per_core']} "
          f"l3_kib={env['l3_kib']} array_mib_at_1e7={env['array_mib_at_1e7']}")
    if not args.trace:
        print(f"op_s samples={info['op_s.samples']} tail={info['op_s.tail']} "
              f"reference={info['reference']} wall={info['wall']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
