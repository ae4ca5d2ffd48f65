#!/usr/bin/env python3
"""Self-check of the benchmark at tiny scale (under a minute once built).

Run from the repository root:

    python3 perfbench/selfcheck.py

For every workload, in both modes, it asserts that the run passes its own
correctness checks and that every metric BENCHMARK.json names (end-to-end
untraced, per-layer traced) is printed, both as a text line and in the
result JSON, with the unit BENCHMARK.json gives it; error_rate is printed
in both modes. It then injects a score mismatch and asserts that the run
fails with error_rate > 0.
"""
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own build step)

SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))
WORK = os.path.join(run.ROOT, ".bench_build", "selfcheck")


def bench(workload, trace, *extra):
    cmd = [run.BINARY, "--workload", workload, "--seed", "3", "--seconds", "2",
           "--trace", str(trace), "--scale", "tiny", "--workdir", WORK, *extra]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    lines = p.stdout.strip().splitlines()
    printed = {}  # name -> unit, from the "e2e"/"layer" text lines
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 4 and parts[0] in ("e2e", "layer"):
            printed[parts[1]] = (float(parts[2]), parts[3])
    return p.returncode, json.loads(lines[-1]), printed, p.stderr


def check_metrics(workload, trace, result, printed, expected):
    for m in expected:
        name = m["name"]
        assert name in result["metrics"], "%s trace=%d: %s missing from JSON" % (workload, trace, name)
        assert result["metrics"][name]["unit"] == m["unit"], "%s: unit of %s" % (workload, name)
        assert printed.get(name, (None, None))[1] == m["unit"], "%s: %s not printed with unit" % (workload, name)
    assert set(result["metrics"]) == {m["name"] for m in expected}, "%s: extra metrics" % workload
    assert printed.get("error_rate", (None, None))[1] == "ratio", "%s: error_rate not printed" % workload


def main():
    if not run.build():
        return 2
    os.makedirs(WORK, exist_ok=True)
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, result, printed, err = bench(workload, trace)
            assert rc == 0 and result["correct"] and result["failed"] == 0, (
                "%s trace=%d failed its checks (rc %d):\n%s" % (workload, trace, rc, err))
            assert result["attempted"] >= 1
            check_metrics(workload, trace, result, printed, SPEC[key])
            print("ok  %-10s trace=%d  %d metrics, %d operations checked"
                  % (workload, trace, len(result["metrics"]), result["attempted"]))

    rc, result, printed, _ = bench("serve-open", 0, "--inject-mismatch")
    error_rate = printed["error_rate"][0]
    assert rc != 0 and not result["correct"], "injected mismatch was not detected"
    assert result["failed"] >= 2 and error_rate > 0, "injected mismatch did not raise error_rate"
    print("ok  injected score mismatch: exit %d, %d failed, error_rate %.3g"
          % (rc, result["failed"], error_rate))
    return 0


if __name__ == "__main__":
    sys.exit(main())
