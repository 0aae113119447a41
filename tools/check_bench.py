#!/usr/bin/env python3
"""Compare a fresh bench run against the committed baseline.

Usage: check_bench.py <fresh.json> <committed-baseline.json>

Handles four record schemas, dispatched on the "bench" field. A record
whose bench no checker knows, or that lacks a field its checker reads,
fails; a missing count is never read as zero.

bench_hotpath (BENCH_7): wall-clock ns/call is machine-dependent, so it
only fails on a large (>25%) regression against the committed number.
Allocations per call and sealed-payload bytes copied per call are
deterministic counts, so they must not exceed the committed baseline at
all: an extra allocation on the hot path is a real change, not noise.

bench_netpath (BENCH_8): everything goes through the kernel's loopback
stack, so all numbers are noisy — latency may regress up to 2x and
throughput may halve before CI fails (shared runners stall for whole
scheduler quanta). The integrity count is exact: any malformed frame on
loopback is a bug, never noise.

bench_overload (BENCH_9): runs in virtual time, so the numbers are
deterministic for a given build but legitimately shift when scheduling
or retransmission behavior changes. The battery-violation count and the
goodput floor are hard gates; goodput may drop at most 25% and tail
latency grow at most 1.5x against the committed baseline.

bench_recovery (BENCH_10): replay completeness and torn-tail detection
are correctness bits and hard-fail immediately. The WAL overhead per
durable put is virtual time, hence deterministic, and may grow at most
25%. Recovery wall time and append cost are machine-dependent; they may
regress up to 3x before CI fails (replay is a cold-start batch job, so
shared-runner noise dominates more than on the hot path).
"""
import json
import sys

NS_REGRESSION_LIMIT = 1.25
NET_REGRESSION_LIMIT = 2.0
OVERLOAD_GOODPUT_LIMIT = 1.25
OVERLOAD_TAIL_LIMIT = 1.5
RECOVERY_OVERHEAD_LIMIT = 1.25
RECOVERY_WALL_LIMIT = 3.0


def fail(msg):
    print(f"check_bench: FAIL: {msg}")
    sys.exit(1)


def check_netpath(fresh, base):
    if fresh["malformed_dropped"] != 0:
        fail(f"netpath saw {fresh['malformed_dropped']} malformed frames "
             f"on loopback")
    for key in ("p50_ns", "p99_ns"):
        ns_f, ns_b = fresh["rpc"][key], base["rpc"][key]
        if ns_f > ns_b * NET_REGRESSION_LIMIT:
            fail(f"rpc {key} {ns_f:.0f} exceeds baseline {ns_b:.0f} "
                 f"by more than {NET_REGRESSION_LIMIT:.1f}x")
    cps_f = fresh["stream"]["calls_per_s"]
    cps_b = base["stream"]["calls_per_s"]
    if cps_f < cps_b / NET_REGRESSION_LIMIT:
        fail(f"stream throughput {cps_f:.0f} calls/s is below baseline "
             f"{cps_b:.0f} by more than {NET_REGRESSION_LIMIT:.1f}x")
    print(f"check_bench: netpath rpc p50 {fresh['rpc']['p50_ns']:.0f}ns "
          f"(baseline {base['rpc']['p50_ns']:.0f}), p99 "
          f"{fresh['rpc']['p99_ns']:.0f}ns "
          f"(baseline {base['rpc']['p99_ns']:.0f}), stream {cps_f:.0f} "
          f"calls/s (baseline {cps_b:.0f})")
    print("check_bench: OK")


def check_overload(fresh, base):
    if fresh["battery_violations"] != 0:
        fail(f"overload battery reported {fresh['battery_violations']} "
             f"violations")
    ratio, floor = fresh["goodput_ratio"], fresh["goodput_floor"]
    if ratio < floor:
        fail(f"overload goodput ratio {ratio:.3f} below the scenario "
             f"floor {floor:.3f}")
    cps_f = fresh["overload_goodput_cps"]
    cps_b = base["overload_goodput_cps"]
    if cps_f < cps_b / OVERLOAD_GOODPUT_LIMIT:
        fail(f"overload goodput {cps_f:.0f} cps is below baseline "
             f"{cps_b:.0f} by more than {OVERLOAD_GOODPUT_LIMIT:.2f}x")
    for key in ("p99_us", "p999_us"):
        us_f, us_b = fresh[key], base[key]
        if us_f > us_b * OVERLOAD_TAIL_LIMIT:
            fail(f"overload {key} {us_f:.0f}us exceeds baseline "
                 f"{us_b:.0f}us by more than {OVERLOAD_TAIL_LIMIT:.1f}x")
    for tenant in fresh.get("tenants", []):
        if tenant.get("slo_checked") and not tenant.get("slo_ok"):
            fail(f"tenant {tenant['name']} breached its p99 SLO")
    print(f"check_bench: overload [{fresh['scenario']}] goodput "
          f"{cps_f:.0f} cps (baseline {cps_b:.0f}), ratio {ratio:.2f} "
          f"(floor {floor:.2f}), p99 {fresh['p99_us']:.0f}us, "
          f"p999 {fresh['p999_us']:.0f}us, shed {fresh['shed']}")
    print("check_bench: OK")


def check_recovery(fresh, base):
    if not fresh.get("replay_complete", False):
        fail("recovery replay did not reproduce the logged state")
    if not fresh.get("torn_detected", False):
        fail("a torn-tail detection path was missed during replay")
    ov_f = fresh["wal_overhead_virtual_ns"]
    ov_b = base["wal_overhead_virtual_ns"]
    if ov_f > ov_b * RECOVERY_OVERHEAD_LIMIT:
        fail(f"WAL overhead {ov_f:.0f} virtual ns/put exceeds baseline "
             f"{ov_b:.0f} by more than {RECOVERY_OVERHEAD_LIMIT:.2f}x")
    longest_f = max(fresh["recovery"], key=lambda r: r["records"])
    longest_b = max(base["recovery"], key=lambda r: r["records"])
    if longest_f["wall_ms"] > longest_b["wall_ms"] * RECOVERY_WALL_LIMIT:
        fail(f"recovery of {longest_f['records']} records took "
             f"{longest_f['wall_ms']:.1f}ms, exceeding baseline "
             f"{longest_b['wall_ms']:.1f}ms by more than "
             f"{RECOVERY_WALL_LIMIT:.1f}x")
    if fresh["append_wall_ns"] > base["append_wall_ns"] * RECOVERY_WALL_LIMIT:
        fail(f"append+sync {fresh['append_wall_ns']:.0f} wall ns/record "
             f"exceeds baseline {base['append_wall_ns']:.0f} by more than "
             f"{RECOVERY_WALL_LIMIT:.1f}x")
    print(f"check_bench: recovery WAL overhead {ov_f:.0f} virtual ns/put "
          f"(baseline {ov_b:.0f}), replay of {longest_f['records']} records "
          f"{longest_f['wall_ms']:.1f}ms (baseline "
          f"{longest_b['wall_ms']:.1f}ms), append "
          f"{fresh['append_wall_ns']:.0f} wall ns/record")
    print("check_bench: OK")


def check_hotpath(fresh, base):
    for path in ("rpc", "stream"):
        f_row, b_row = fresh[path], base[path]
        ns_f, ns_b = f_row["ns_per_call"], b_row["ns_per_call"]
        if ns_f > ns_b * NS_REGRESSION_LIMIT:
            fail(f"{path} ns/call {ns_f:.1f} exceeds baseline "
                 f"{ns_b:.1f} by more than {NS_REGRESSION_LIMIT:.2f}x")
        allocs_f = f_row["allocs_per_call"]
        allocs_b = b_row["allocs_per_call"]
        if allocs_f > allocs_b:
            fail(f"{path} allocs/call {allocs_f} exceeds baseline {allocs_b}")
        copied = f_row["seal_copied_bytes_per_call"]
        if copied > b_row["seal_copied_bytes_per_call"]:
            fail(f"{path} seal-copied bytes/call {copied} exceeds baseline")
        print(f"check_bench: {path}: ns/call {ns_f:.1f} (baseline {ns_b:.1f}), "
              f"allocs/call {allocs_f} (baseline {allocs_b}), "
              f"seal-copied {copied}")
    print("check_bench: OK")


CHECKERS = {
    "bench_hotpath": check_hotpath,
    "bench_netpath": check_netpath,
    "bench_overload": check_overload,
    "bench_recovery": check_recovery,
}


def main():
    if len(sys.argv) != 3:
        fail(f"usage: {sys.argv[0]} <fresh.json> <committed-baseline.json>")
    with open(sys.argv[1]) as f:
        fresh = json.load(f)
    with open(sys.argv[2]) as f:
        base = json.load(f)
    checker = CHECKERS.get(fresh.get("bench"))
    if checker is None:
        fail(f"no checker for bench {fresh.get('bench')!r} "
             f"(known: {', '.join(CHECKERS)})")
    try:
        checker(fresh, base)
    except KeyError as e:
        fail(f"{fresh['bench']} record is missing field {e}")


if __name__ == "__main__":
    main()
