"""The measured process of one benchmark run.

    python3 bench/session.py --setup WORKLOAD
    python3 bench/session.py PLAN.json RESULT.json OUTPUTS.jsonl

The first form times a fresh import of monoidkit plus building the
workload's presentations and prints the time in reference seconds (see
"host speed" below).  The second runs the operations listed in the plan in
whole rounds, one after another (a closed loop with one client), starting
another round while the budget has room for at least half of one.  Each
round starts from fresh presentation objects, so no round inherits another's
caches.  With tracing on, untraced and traced rounds alternate and the
wrappers from tracing.py are installed only for the traced ones.

Every operation is timed on its own; RESULT.json holds the measured times
and the same times in reference seconds.  Only this process imports
monoidkit, so its peak memory is the program's plus this loop.  The outputs
of the first round are written to OUTPUTS.jsonl for the parent to check;
every later round must reproduce them exactly.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# presentations each workload builds, timed by --setup
SETUP = {
    "cancel-search": [("fixture", "M6"), ("fixture", "M6p_completed"), ("gmn", 3, 3)],
    "word-queries": [("fixture", "M6"), ("fixture", "M6p_completed"), ("gmn", 3, 2)],
    "gmn-structure": [("gmn", 2, 2), ("gmn", 2, 3), ("gmn", 3, 2), ("gmn", 3, 3), ("gmn", 4, 4)],
    "group-words": [("gmn", 2, 2), ("gmn", 3, 2)],
}


# ---------------------------------------------------------------------------
# host speed
#
# The host runs one and the same loop at speeds up to 1.9 apart, each for
# 5-60 s at a time, so raw times of runs made minutes apart differ by more
# than any change worth finding.  A fixed loop, run between operations, reads
# the speed of the moment; every time is reported as measured times
# CAL_REF_S over that loop's time, which is the time at the speed where the
# loop takes CAL_REF_S.  The loop mixes work that fits the processor's caches
# with lookups spread over a few megabytes, because the first slows down
# more than the program does and the second less (see README.md).

CAL_REF_S = 0.009  # about the loop's time in the fast phase where the benchmark was built
CAL_EVERY_S = 0.2  # longest time between two readings during a session
CAL_WINDOW_S = 0.5  # readings this close to an operation set its factor
CAL_WORDS = [f"w{i:07d}" for i in range(50000)]
CAL_PRESENT = set(CAL_WORDS[::2])


def calibration_loop() -> float:
    """Seconds for a fixed loop of string slicing, dict and set updates, then
    pseudo-random set lookups: the kinds of work the program's closures do,
    in none of its code."""
    word = "abcdefgabcdefg"
    counts: dict[str, int] = {}
    seen = set()
    words, present, hits, r = CAL_WORDS, CAL_PRESENT, 0, 12345
    t0 = time.perf_counter()
    for i in range(12000):
        key = word[i % 7:i % 7 + 5]
        counts[key] = counts.get(key, 0) + 1
        seen.add(key + str(i & 255))
    for _ in range(10000):
        r = (r * 1103515245 + 12345) & 0x7FFFFFFF
        hits += words[r % 50000] in present
    return time.perf_counter() - t0


class SpeedLog:
    """Readings of the calibration loop over a session, by time."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.read()

    def read(self) -> None:
        took = calibration_loop()
        self.at.append(time.perf_counter() - took / 2)
        self.took.append(took)

    def due(self) -> None:
        if time.perf_counter() - self.at[-1] >= CAL_EVERY_S:
            self.read()

    def scale(self, start: float, seconds: float) -> float:
        """The factor that turns a time measured from ``start`` into reference
        seconds: CAL_REF_S over the median reading near that interval."""
        lo = bisect.bisect_left(self.at, start - CAL_WINDOW_S)
        hi = bisect.bisect_right(self.at, start + seconds + CAL_WINDOW_S)
        return CAL_REF_S / statistics.median(self.took[lo:hi])


def build(mk, spec):
    if spec[0] == "fixture":
        return mk.fixture(spec[1])
    return mk.build_gmn(spec[1], spec[2])


def setup_probe(workload: str) -> float:
    """Reference seconds for the import plus the workload's presentations."""
    before = [calibration_loop() for _ in range(3)]
    t0 = time.perf_counter()
    import monoidkit as mk
    import monoidkit.cli  # noqa: F401  (the CLI workloads enter here)

    for spec in SETUP[workload]:
        build(mk, spec)
    took = time.perf_counter() - t0
    after = [calibration_loop() for _ in range(3)]
    return took * CAL_REF_S / statistics.median(before + after)


# ---------------------------------------------------------------------------
# operations


def _joined(w):
    return ".".join(w)


class Round:
    """Fresh program state for one round and the code that runs each operation."""

    def __init__(self, mk, cli):
        self.mk = mk
        self.cli = cli
        self.objects = {}

    def presentation(self, key):
        # built on first use, outside the timed call
        if key not in self.objects:
            mk = self.mk
            if key == "g32":
                self.objects[key] = mk.build_gmn(3, 2).presentation
            elif key.startswith("ctx"):  # ctx<m><n>-<tag>: a g(m,n) context
                self.objects[key] = mk.build_gmn(int(key[3]), int(key[4]))
            else:
                self.objects[key] = mk.fixture(key)
        return self.objects[key]

    def run(self, op):
        """Time one operation; returns (seconds, output, failed, report bytes)."""
        if op["kind"] == "cli":
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                t0 = time.perf_counter()
                code = self.cli.run(op["argv"])
                dt = time.perf_counter() - t0
            text = buf.getvalue()
            report = json.loads(text) if text.strip() else None
            if isinstance(report, dict):
                report.pop("elapsed_ms", None)
            return dt, {"exit": code, "report": report}, code == 3, len(text)
        fn = op["fn"]
        mk = self.mk
        if fn == "division_law":
            ctx = self.presentation(op["ctx"])
            t0 = time.perf_counter()
            try:
                rep = mk.check_division_law(ctx, op["case"], op["max_len"])
            except mk.CapExceededError:
                return time.perf_counter() - t0, None, True, 0
            dt = time.perf_counter() - t0
            return dt, [rep.instances, len(rep.violations)], False, 0
        p = self.presentation(op["pres"])
        args = [tuple(a) for a in op["args"]]
        call = getattr(mk, fn)
        t0 = time.perf_counter()
        try:
            res = call(*args, p)
        except mk.CapExceededError:
            return time.perf_counter() - t0, None, True, 0
        dt = time.perf_counter() - t0
        if fn == "equal":
            out = res
        elif fn == "canonical":
            out = _joined(res)
        elif fn in ("left_divides", "right_divides"):
            out = [res.divides, sorted(_joined(q) for q in res.quotients)]
        else:  # equivalence_class
            out = sorted(_joined(m) for m in res.members)
        return dt, out, False, 0


def run_round(mk, cli, ops, collect_between, out_file, digests, speed, tracer=None):
    state = Round(mk, cli)
    starts, times, failed = [], [], []
    mismatches = 0
    gc.collect()
    for i, op in enumerate(ops):
        if collect_between:
            gc.collect()
        speed.due()
        if tracer is not None:
            tracer.begin_op()
        start = time.perf_counter()
        dt, out, fail, nbytes = state.run(op)
        if tracer is not None:
            tracer.add("cli.report_bytes", nbytes)
        starts.append(start)
        times.append(dt)
        if fail:
            failed.append(i)
        line = json.dumps(out, sort_keys=True)
        digest = hashlib.sha256(line.encode()).hexdigest()
        if len(digests) < len(ops):
            digests.append(digest)
            out_file.write(line + "\n")
        elif digests[i] != digest:
            mismatches += 1
    del state
    gc.collect()
    speed.read()
    return {"starts": starts, "times": times, "failed": failed, "mismatches": mismatches}


def main(plan_path: str, result_path: str, outputs_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text())
    ops = plan["ops"]
    import monoidkit as mk
    import monoidkit.cli as cli

    tracer = None
    if plan["trace"]:
        import tracing

        tracer = tracing.Tracer(mk)
    rounds = []
    digests: list[str] = []
    passes = 0
    speed = SpeedLog()
    start = time.perf_counter()
    with open(outputs_path, "w") as out_file:
        while True:
            rec = run_round(mk, cli, ops, plan["collect_between"], out_file, digests, speed)
            rec["traced"] = False
            rounds.append(rec)
            if tracer is not None:
                tracer.install()
                try:
                    rec = run_round(mk, cli, ops, plan["collect_between"], out_file,
                                    digests, speed, tracer)
                finally:
                    tracer.uninstall()
                rec["traced"] = True
                rec["layers"] = tracer.take()
                rounds.append(rec)
            # start another round only while it should end by about the budget
            passes += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / passes / 2 >= plan["seconds"]:
                break
    for rec in rounds:
        starts = rec.pop("starts")
        rec["ref_times"] = [dt * speed.scale(t, dt) for t, dt in zip(starts, rec["times"])]
    result = {
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    if sys.argv[1] == "--setup":
        print(repr(setup_probe(sys.argv[2])))
    else:
        main(*sys.argv[1:4])
