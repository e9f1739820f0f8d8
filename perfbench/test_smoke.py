#!/usr/bin/env python3
"""Smoke test of the benchmark runner at tiny grid sizes.

Run from the root of a checkout:

    python3 perfbench/test_smoke.py

For every workload it checks that an untraced run emits exactly the
end-to-end metrics of BENCHMARK.json and a traced run exactly its per-layer
metrics, each with the unit BENCHMARK.json gives, that the result line is
the last line of stdout and passes its own checks, and that each output
check fails the result when its input is tampered with. It also checks
that the runner refuses to print a result when BENCHMARK.json lists a
metric the workload does not emit. Takes about a minute; exits non-zero on
the first failure.
"""
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BINARY = os.path.join(ROOT, ".bench_build", "cmake", "solsched_perfbench")
ARGS = ["--seed", "3", "--seconds", "1", "--scale", "tiny"]


def run(workload, trace, *extra):
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--trace", str(trace)] + ARGS + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.exit("FAIL %s: exit %d\n%s" % (" ".join(cmd), proc.returncode,
                                          proc.stderr[-3000:]))
    lines = proc.stdout.strip().splitlines()
    host = json.loads(lines[-2])["host"]
    for key in ("cpu_model", "nproc", "simd", "build_type", "cxx_flags",
                "threads", "seed"):
        if key not in host:
            sys.exit("FAIL %s: host fingerprint lacks %s" % (workload, key))
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        sys.exit("FAIL %s: result keys %s" % (workload, sorted(result)))
    return result


def expect_metrics(workload, trace, result):
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = result["metrics"]
    names = {m["name"] for m in wanted}
    if set(got) != names:
        sys.exit("FAIL %s trace=%d: metrics differ: missing %s, extra %s" %
                 (workload, trace, sorted(names - set(got)),
                  sorted(set(got) - names)))
    for m in wanted:
        value = got[m["name"]]
        if value.get("unit") != m["unit"] or \
                not isinstance(value.get("value"), (int, float)):
            sys.exit("FAIL %s: %s is %r, want unit %s" %
                     (workload, m["name"], value, m["unit"]))
        if not trace and value["value"] <= 0:
            sys.exit("FAIL %s: end-to-end %s is %r" %
                     (workload, m["name"], value["value"]))


def expect_refusal_of_unemitted_metric():
    """A BENCHMARK.json listing a metric no workload emits: exit 3, no
    result line."""
    spec = json.loads(json.dumps(SPEC))
    spec["end_to_end"].append({"name": "no_such_metric", "unit": "ms",
                               "better": "lower", "bound": 0.1})
    scratch = os.path.join(ROOT, ".bench_build", "smoke-spec")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    with open(os.path.join(scratch, "BENCHMARK.json"), "w") as f:
        json.dump(spec, f)
    proc = subprocess.run([BINARY, "--workload", "pipeline_wam", "--trace",
                           "0"] + ARGS, cwd=scratch, capture_output=True,
                          text=True, timeout=600)
    shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 3 or '"correct"' in proc.stdout:
        sys.exit("FAIL: an unemitted listed metric gave exit %d\n%s" %
                 (proc.returncode, proc.stdout[-500:]))
    print("ok   a listed metric the workload does not emit is refused")


def main():
    # (workload, trace mode, output check to sabotage)
    tampers = [("pipeline_wam", 0, "ledger"), ("campaign_zoo", 0, "aggregate"),
               ("campaign_zoo", 1, "reply")]
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace in (0, 1):
            result = run(workload, trace)
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                sys.exit("FAIL %s trace=%d: %r" % (workload, trace,
                                                  {k: result[k] for k in
                                                   ("correct", "attempted",
                                                    "failed")}))
            expect_metrics(workload, trace, result)
            print("ok   %s trace=%d (%d operations)" %
                  (workload, trace, result["attempted"]))
    for workload, trace, tamper in tampers:
        tampered = run(workload, trace, "--tamper", tamper)
        if tampered["correct"] or tampered["failed"] < 1:
            sys.exit("FAIL %s: tampered %s went unnoticed" %
                     (workload, tamper))
        print("ok   %s trace=%d catches a tampered %s (%d of %d failed)" %
              (workload, trace, tamper, tampered["failed"],
               tampered["attempted"]))
    expect_refusal_of_unemitted_metric()
    print("smoke test passed")


if __name__ == "__main__":
    main()
