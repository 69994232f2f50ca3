"""Paired benchmark runs of a parent commit against this checkout.

Usage, from the root of a checkout:

    python3 tools/paired.py --parent HEAD~1 --workload tf-relay-cli \\
        --pairs 10 --seed 9 --seconds 30 --out BENCH_<n>.json

The parent's committed files are extracted with ``git archive <parent> |
tar -x`` into a temporary directory, so the repository and its ``.git`` stay
as they are.  Each pair runs ``perfbench/run.py --workload W --seed S
--seconds T --trace 0`` in the parent's tree and in this checkout, the side
that runs first alternating from pair to pair, and reads the last line each
run prints: one JSON object holding the end-to-end metrics that
``BENCHMARK.json`` names.  The output file holds every pair's metrics and,
per workload and metric, the pairs the change wins, both medians, the
parent's interquartile range and whether the medians differ by more than
it, beside the environment the runs saw.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def last_json(stdout: str) -> dict:
    """The JSON object on the last nonblank line of a benchmark run's output."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("benchmark run printed nothing")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method: within the data)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: the change's wins, both medians and the parent's IQR.

    ``pairs`` holds one ``{"parent": {name: value}, "change": {name: value}}``
    per pair, and ``metrics`` the ``end_to_end`` entries of ``BENCHMARK.json``
    (``name`` and ``better``).  A pair is won when the change is strictly
    better; ``resolved`` is whether the medians differ by more than the
    parent's IQR.
    """
    out = {}
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        if any(name not in p[side] for p in pairs for side in SIDES):
            continue
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        wins = sum(c < a if lower else c > a for a, c in zip(parent, change))
        q1, parent_median, q3 = quartiles(parent)
        change_median = quartiles(change)[1]
        out[name] = {
            "better": spec["better"],
            "wins": wins,
            "pairs": len(pairs),
            "parent_median": parent_median,
            "change_median": change_median,
            "parent_iqr": q3 - q1,
            "resolved": abs(change_median - parent_median) > q3 - q1,
            "relative": change_median / parent_median - 1 if parent_median else None,
        }
    return out


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``checkout``: its metric values and op counts."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}")
    res = last_json(proc.stdout)
    values = {name: m["value"] for name, m in res["metrics"].items()}
    return {"metrics": values, "attempted": res["attempted"], "failed": res["failed"]}


def run_pairs(n_pairs: int, run) -> list[dict]:
    """``n_pairs`` pairs of runs, ``run(side)`` doing one run.

    The side that runs first alternates, the parent's first in pair 0, so a
    drift of the host's speed falls on both sides alike.  ``run`` returns
    ``run_once``'s record; a pair holds each side's metric values and, under
    ``<side>_ops``, its op counts.
    """
    pairs = []
    for i in range(n_pairs):
        pair = {"pair": i, "first": SIDES[i % 2]}
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            res = dict(run(side))
            pair[side] = res.pop("metrics")
            pair[side + "_ops"] = res
        print(f"pair {i}: " + " ".join(
            f"{name} {value:.5g} -> {pair['change'].get(name, float('nan')):.5g}"
            for name, value in pair["parent"].items()), flush=True)
        pairs.append(pair)
    return pairs


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git revision to compare against")
    p.add_argument("--workload", required=True, action="append",
                   help="a perfbench workload; repeat for several")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--out", type=Path, required=True)
    return p.parse_args(argv)


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE,
                          text=True).stdout.strip()


def main(argv=None) -> int:
    args = _parse(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_rev = _git("rev-parse", args.parent)
    change = _git("rev-parse", "HEAD")
    if _git("status", "--porcelain"):
        change += "+worktree"  # uncommitted edits on top of that commit
    record = {"parent": parent_rev, "change": change, "seed": args.seed,
              "seconds": args.seconds, "pairs": args.pairs, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="paired-parent-") as tmp:
        parent = Path(tmp)
        archive = subprocess.Popen(["git", "archive", parent_rev], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(parent)], stdin=archive.stdout, check=True)
        archive.stdout.close()
        if archive.wait() != 0:
            raise SystemExit(f"git archive {parent_rev} failed")
        checkouts = {"parent": parent, "change": ROOT}
        for workload in args.workload:
            pairs = run_pairs(args.pairs, lambda side: run_once(
                checkouts[side], workload, args.seed, args.seconds))
            env_file = ROOT / ".perfbench_out" / f"{workload}-seed{args.seed}-trace0.json"
            record["workloads"][workload] = {
                "summary": summarize(pairs, spec["end_to_end"]),
                "pairs": pairs,
                "environment": json.loads(env_file.read_text())["environment"],
            }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    for workload, res in record["workloads"].items():
        for name, s in res["summary"].items():
            print(f"{workload} {name}: parent {s['parent_median']:.5g} "
                  f"(IQR {s['parent_iqr']:.3g}) change {s['change_median']:.5g} "
                  f"wins {s['wins']}/{s['pairs']} resolved={s['resolved']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
