#!/usr/bin/env python3
"""Tests check_bench.py against every committed BENCH_*.json record.

Usage: check_bench_test.py <repo-root>

Each record must pass against itself and against a copy with every gated
value moved exactly onto its bound (no gate is tighter than it says).
A copy with any one gated value moved just past its bound must fail and
name that metric. A fresh record that lacks a gated metric, names another
bench, or a committed record with an unknown gate key must fail too.
"""
import copy
import glob
import json
import os
import subprocess
import sys
import tempfile

CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "check_bench.py")


def bound_value(metric, past):
    """The value on a metric's bound, or just past it when `past`."""
    (key, b), = metric["gate"].items()
    if key == "equals":
        return (not b if isinstance(b, bool) else b + 1) if past else b
    edge = metric["value"] * b if key.endswith("_ratio") else b
    step = (abs(edge) * 1e-6 + 1e-6) if past else 0
    return edge + step if key.startswith("max") else edge - step


def run(fresh, committed, tmp):
    paths = []
    for name, rec in (("fresh.json", fresh), ("committed.json", committed)):
        paths.append(os.path.join(tmp, name))
        with open(paths[-1], "w") as f:
            json.dump(rec, f)
    p = subprocess.run([sys.executable, CHECKER] + paths,
                       capture_output=True, text=True)
    return p.returncode, p.stdout


def main():
    records = sorted(glob.glob(os.path.join(sys.argv[1], "BENCH_*.json")))
    errors = []

    def expect(ok, what, out):
        if not ok:
            errors.append(f"{what}\n{out}")

    with tempfile.TemporaryDirectory() as tmp:
        for path in records:
            name = os.path.basename(path)
            with open(path) as f:
                rec = json.load(f)
            gated = [m for m in rec["metrics"] if m["gate"] is not None]
            expect(gated, f"{name}: no gated metric", "")

            p = subprocess.run([sys.executable, CHECKER, path, path],
                               capture_output=True, text=True)
            expect(p.returncode == 0, f"{name}: self-check failed", p.stdout)

            on_bound = copy.deepcopy(rec)
            for m in on_bound["metrics"]:
                if m["gate"] is not None:
                    m["value"] = bound_value(m, past=False)
            code, out = run(on_bound, rec, tmp)
            expect(code == 0, f"{name}: values on their bounds failed", out)

            for i, m in enumerate(rec["metrics"]):
                if m["gate"] is None:
                    continue
                past = copy.deepcopy(rec)
                past["metrics"][i]["value"] = bound_value(m, past=True)
                code, out = run(past, rec, tmp)
                expect(code == 1 and f"FAIL: {m['name']} " in out,
                       f"{name}: {m['name']} past its bound was not caught",
                       out)

            missing = copy.deepcopy(rec)
            missing["metrics"] = [m for m in rec["metrics"]
                                  if m["name"] != gated[0]["name"]]
            code, out = run(missing, rec, tmp)
            expect(code == 1 and "missing" in out,
                   f"{name}: missing {gated[0]['name']} was not caught", out)

            other = dict(rec, bench=rec["bench"] + "_other")
            code, out = run(other, rec, tmp)
            expect(code == 1, f"{name}: bench mismatch was not caught", out)

            unknown = copy.deepcopy(rec)
            unknown["metrics"][rec["metrics"].index(gated[0])]["gate"] = {
                "below": 1}
            code, out = run(rec, unknown, tmp)
            expect(code == 1 and "unknown gate" in out,
                   f"{name}: unknown gate key was not caught", out)

    for e in errors:
        print(f"FAIL: {e}")
    print(f"{len(records)} records checked, {len(errors)} failures")
    return 1 if errors or not records else 0


if __name__ == "__main__":
    sys.exit(main())
