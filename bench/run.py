"""Benchmark entry point: one workload, one seed, one result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The program is imported from
src/ in fresh interpreters only: nine set-up probes time the import plus the
workload's presentations, and one session (session.py) runs the workload's
operations in whole rounds for about S seconds.  Times are in reference
seconds: measured times scaled by the host speed of the moment, read with a
calibration loop (see session.py).  This process makes the inputs from the
seed, checks every output of the first round with the oracle, the stored
reference sets and the certificates in workloads.py, and prints one JSON
object as its last line: correct, attempted, failed and the metrics
(end-to-end ones with --trace 0, per-layer ones with --trace 1).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SESSION = HERE / "session.py"
SETUP_PROBES = 9
# per-command times taken from the untraced rounds of a traced run
COMMAND_METRICS = ("cancel_search_s", "claim_s", "center_scan_s", "fundamental_s",
                   "garside_s", "mcm_s", "division_laws_s", "group_equal_s")
CHILD_TIMEOUT = 170


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env(seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONNOUSERSITE"] = "1"  # no user site-packages shadowing the checkout
    # string hashes, and so set and dict layouts, follow the seed as the inputs do
    env["PYTHONHASHSEED"] = str(seed % 4294967296)
    return env


def run_child(args, seed, deadline) -> str:
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run([sys.executable, *map(str, args)], capture_output=True, text=True,
                          env=child_env(seed), cwd=ROOT, timeout=timeout)
    if proc.returncode != 0:
        fail(f"{Path(str(args[0])).name} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return {"cli.report_bytes": "bytes", "groupwords.lift_longest_word": "letters"}.get(name, "count")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def op_times(rounds) -> list:
    """Each operation's median time over the rounds, in reference seconds
    (see session.py: measured times scaled by the host speed of the moment)."""
    return [statistics.median(ts) for ts in zip(*(r["ref_times"] for r in rounds))]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + CHILD_TIMEOUT
    if not (ROOT / "src" / "monoidkit" / "__init__.py").is_file():
        fail(f"no monoidkit sources under {ROOT / 'src'}; run from a source checkout")
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    def probe_setup(count):
        return [float(run_child([SESSION, "--setup", args.workload], args.seed, deadline))
                for _ in range(count)]

    # set-up probes on both sides of the session, so they span the run
    setups = probe_setup(SETUP_PROBES // 2 + 1)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=HERE))
    try:
        plan = workloads.WORKLOADS[args.workload](args.seed, work)
        plan_file, result_file, outputs_file = (work / n for n in
                                                ("plan.json", "result.json", "outputs.jsonl"))
        plan_file.write_text(json.dumps({
            "ops": plan.ops,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "collect_between": plan.collect_between,
        }))
        run_child([SESSION, plan_file, result_file, outputs_file], args.seed, deadline)
        result = json.loads(result_file.read_text())
        with open(outputs_file) as fh:
            outputs = [json.loads(line) for line in fh]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups += probe_setup(SETUP_PROBES // 2)

    rounds = result["rounds"]
    failed_ops = set(rounds[0]["failed"])
    problems = []
    for r in rounds:
        if set(r["failed"]) != failed_ops:
            problems.append("operations failed in one round and not in another")
        if r["mismatches"]:
            problems.append(f"{r['mismatches']} outputs changed between rounds")
    for i, (out, check) in enumerate(zip(outputs, plan.checks)):
        if i in failed_ops:
            continue  # counted as failed; there is no answer to check
        msg = check(out)
        if msg:
            problems.append(f"operation {i} ({plan.ops[i].get('argv') or plan.ops[i]['fn']}): {msg}")
    for p in problems[:10]:
        print(f"bench: incorrect: {p}", file=sys.stderr)

    plain = op_times([r for r in rounds if not r["traced"]])
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        metrics = {}
        for name in traced[0]["layers"]:
            value = statistics.median(r["layers"][name] for r in traced)
            metrics[name] = metric(value, layer_unit(name))
        for name in COMMAND_METRICS:
            value = sum(t for t, op in zip(plain, plan.ops) if op["metric"] == name)
            metrics[name] = metric(value, "s")
        overhead = sum(op_times(traced)) - sum(plain)
        metrics["trace.overhead_s"] = metric(overhead, "s")
        metrics["trace.overhead_pct"] = metric(100 * overhead / sum(plain), "%")
    else:
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "round_s": metric(sum(plain), "s"),
            "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
            "query_p50_ms": metric(1000 * statistics.median(plain), "ms"),
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(len(r["times"]) for r in rounds),
        "failed": sum(len(r["failed"]) for r in rounds),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
