"""Regenerate bench/reference.json from scratch with the benchmark's oracle.

    python3 bench/reference.py

Writes, for M6 and M6p_completed to product length 7 and g(3,3) to length 6,
the number of classes at each length and every single-letter cancellation
failure (side, context, x, y) with x and y the least words of their classes.
Words are written with letters joined by '.'.  The benchmark compares the
program's output against this file; it never reads the program to make it.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402

CASES = (("M6", 7), ("M6p_completed", 7), ("g33", 6))


def presentation(name):
    if name == "g33":
        letters, rels, _ = oracle.gmn(3, 3)
        return letters, rels
    return oracle.six_letter(name)


def main() -> None:
    out = {}
    for name, max_len in CASES:
        t0 = time.perf_counter()
        m = oracle.Monoid(*presentation(name))
        counts, failures = oracle.failure_set(m, max_len)
        out[name] = {
            "max_len": max_len,
            "class_counts": counts,
            "failures": [
                [side] + [".".join(m.dec(w)) for w in (g, x, y)]
                for side, g, x, y in failures
            ],
        }
        print(f"{name}: {len(failures)} failures, classes {counts} "
              f"({time.perf_counter() - t0:.1f} s)", file=sys.stderr)
    # one failure per line keeps the file diffable
    lines = ["{"]
    for i, (name, rec) in enumerate(out.items()):
        fails = ",\n".join("    " + json.dumps(f) for f in rec["failures"])
        lines.append(f'  "{name}": {{"max_len": {rec["max_len"]}, '
                     f'"class_counts": {json.dumps(rec["class_counts"])}, "failures": [')
        if fails:
            lines.append(fails)
        lines.append("  ]}" + ("," if i < len(out) - 1 else ""))
    lines.append("}")
    text = "\n".join(lines) + "\n"
    json.loads(text)
    (HERE / "reference.json").write_text(text)


if __name__ == "__main__":
    main()
