#!/usr/bin/env python3
"""Gate a fresh BENCH record against the committed one.

Usage: check_bench.py <fresh.json> <committed.json>

Every record has the envelope that include/promises/support/BenchRecord.h
writes: {"bench", "pr", "machine", "metrics": [{"name", "unit", "kind",
"value", "baseline", "gate"}]}. Gates are read from the committed record
only, so a fresh run cannot loosen its own bound; ratio gates scale the
committed value. The check fails when the two records name different
benches, when a gated metric is missing from the fresh record, when a
gate key is unknown, or when any gated value is past its bound. Why each
bound is what it is: docs/OBSERVABILITY.md, "BENCH records".
"""
import json
import sys


def number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# gate key -> (passes(fresh, committed, bound), what the bound means)
GATES = {
    "max_ratio": (lambda v, c, b: number(v) and v <= c * b, "<= {c} x {b}"),
    "min_ratio": (lambda v, c, b: number(v) and v >= c * b, ">= {c} x {b}"),
    "max": (lambda v, c, b: number(v) and v <= b, "<= {b}"),
    "min": (lambda v, c, b: number(v) and v >= b, ">= {b}"),
    "equals": (lambda v, c, b: type(v) is type(b) and v == b, "== {b}"),
}


def check(fresh, committed):
    """Prints one line per gated metric; returns the failure messages."""
    if fresh["bench"] != committed["bench"]:
        return [f"fresh record is {fresh['bench']!r}, committed is "
                f"{committed['bench']!r}"]
    print(f"check_bench: {committed['bench']} fresh on "
          f"{fresh['machine']!r}, committed on {committed['machine']!r}")
    values = {m["name"]: m["value"] for m in fresh["metrics"]}
    failures = []
    for m in committed["metrics"]:
        name, gate = m["name"], m["gate"]
        if gate is None:
            continue
        if len(gate) != 1 or next(iter(gate)) not in GATES:
            failures.append(f"{name}: unknown gate {gate}")
            continue
        (key, bound), = gate.items()
        if name not in values:
            failures.append(f"{name}: gated metric missing from the fresh "
                            f"record")
            continue
        passes, means = GATES[key]
        v, c = values[name], m["value"]
        means = means.format(c=c, b=bound)
        ok = passes(v, c, bound)
        print(f"check_bench: {'ok  ' if ok else 'FAIL'} {name} = {v} "
              f"{m['unit']} (committed {c}, gate {means})")
        if not ok:
            failures.append(f"{name} = {v} is past its gate {means}")
    return failures


def main():
    if len(sys.argv) != 3:
        print(f"usage: {sys.argv[0]} <fresh.json> <committed.json>")
        return 1
    try:
        fresh, committed = (json.load(open(p)) for p in sys.argv[1:])
        failures = check(fresh, committed)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as e:
        failures = [f"unreadable record: {e!r}"]
    for f in failures:
        print(f"check_bench: FAIL: {f}")
    if not failures:
        print("check_bench: OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
