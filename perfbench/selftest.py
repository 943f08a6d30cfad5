#!/usr/bin/env python3
"""Self-test of recsim's benchmark.

Runs every workload BENCHMARK.json names for one second, untraced and
traced, through perfbench/run.py, and checks that:
  - the run exits with code 0 and its last line is the result object
    with exactly the keys correct, attempted, failed and metrics, where
    correct is true, attempted >= 1 and failed == 0;
  - the untraced result carries every end_to_end metric and the traced
    one every per_layer metric, each with the unit BENCHMARK.json gives;
  - the text report prints each of the workload's own metrics
    (WORKLOAD_METRICS below) with its unit;
  - the traced runs confirm the split between the training workloads:
    FLOPs per example at least 10x higher on train_mlp than on
    train_emb, and lookups per example at least 10x higher on train_emb;
  - run.py exits non-zero without printing a result in a directory that
    holds only BENCHMARK.json and perfbench/.

Usage, from the repository root:
    python3 perfbench/selftest.py [workload ...]
"""
import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TRAIN_TEXT = {
    0: {"eval_ne": "ratio", "failed_share": "fraction",
        "mean_throughput_per_s": "1/s"},
    1: {"data.materialize_s": "s", "data.batch_ms": "ms",
        "model.init_s": "s", "train.fwd_bwd_ms": "ms",
        "nn.optimizer_ms": "ms", "train.eval_ms": "ms",
        "tensor.gflop_per_s": "GFLOP/s", "nn.emb.lookups_per_step": "count",
        "nn.emb.unique_share": "ratio", "util.pool.jobs_per_step": "count",
        "util.pool.tasks_per_step": "count",
        "util.pool.idle_ms_per_step": "ms"},
}

# Metrics each workload prints in its text report besides the ones
# BENCHMARK.json lists, by trace mode.
WORKLOAD_METRICS = {
    "train_mlp": TRAIN_TEXT,
    "train_emb": TRAIN_TEXT,
    "serve": {
        0: {"p50_ms": "ms", "tail_ms": "ms", "tail_samples": "count",
            "failed_share": "fraction", "mean_throughput_per_s": "1/s"},
        1: {"serve.engine_init_s": "s", "serve.loadgen_ms": "ms",
            "serve.score_small_ms": "ms", "serve.score_large_ms": "ms",
            "serve.service_ms": "ms", "serve.batch_items": "count",
            "serve.wait_ms": "ms", "serve.utilization": "ratio",
            "serve.evicted": "count", "util.pool.jobs_per_batch": "count"},
    },
    "simulate": {
        0: {"failed_share": "fraction", "mean_throughput_per_s": "1/s"},
        1: {"cost.model_build_ms": "ms", "cost.estimate_ms": "ms",
            "cost.breakdown_ms": "ms", "cost.graph_nodes": "count",
            "fleet.study_ms": "ms", "sim.des_ms": "ms",
            "sim.iterations_per_host_s": "1/s"},
    },
}

METRIC_LINE = re.compile(r"^metric (\S+)\s+(\S+) (\S+)$")

failures = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_run(workload, trace, spec):
    label = "%s --trace %d" % (workload, trace)
    proc = run(workload, trace)
    lines = proc.stdout.strip().splitlines()
    expect(proc.returncode == 0, label + ": exits with code 0")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        expect(False, label + ": last line is a JSON object")
        sys.stderr.write(proc.stdout[-3000:] + proc.stderr[-3000:])
        return {}
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           label + ": result has exactly correct/attempted/failed/metrics")
    expect(result.get("correct") is True, label + ": correct is true")
    expect(isinstance(result.get("attempted"), int)
           and result["attempted"] >= 1, label + ": attempted >= 1")
    expect(result.get("failed") == 0, label + ": failed == 0")

    named = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    expect(sorted(metrics) == sorted(m["name"] for m in named),
           label + ": result carries exactly the %s metrics"
           % ("per_layer" if trace else "end_to_end"))
    for m in named:
        got = metrics.get(m["name"], {})
        expect(got.get("unit") == m["unit"]
               and isinstance(got.get("value"), (int, float)),
               "%s: %s is a number in %s" % (label, m["name"], m["unit"]))

    printed = {}
    for line in lines:
        match = METRIC_LINE.match(line)
        if match:
            printed[match.group(1)] = match.group(3)
    for name, unit in WORKLOAD_METRICS[workload][trace].items():
        expect(printed.get(name) == unit,
               "%s: prints %s in %s" % (label, name, unit))
    if trace:
        expect(any(line.startswith("trace ") and "written to" in line
                   for line in lines), label + ": writes its spans")
    return {k: v["value"] for k, v in metrics.items()}


def check_bare_directory():
    """run.py must fail, without a result, next to BENCHMARK.json only."""
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"))
    proc = run("simulate", 0, cwd=bare)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    expect(proc.returncode != 0 and not last[0].startswith("{"),
           "bare directory: run.py exits non-zero without a result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = sys.argv[1:] or [w["name"] for w in spec["workloads"]]
    traced = {}
    for workload in workloads:
        check_run(workload, 0, spec)
        traced[workload] = check_run(workload, 1, spec)
    if "train_mlp" in traced and "train_emb" in traced:
        mlp, emb = traced["train_mlp"], traced["train_emb"]
        expect(mlp.get("graph.mflop_per_example", 0)
               >= 10 * emb.get("graph.mflop_per_example", float("inf")),
               "train_mlp has >= 10x the FLOPs per example of train_emb")
        expect(emb.get("graph.lookups_per_example", 0)
               >= 10 * mlp.get("graph.lookups_per_example", float("inf")),
               "train_emb has >= 10x the lookups per example of train_mlp")
    check_bare_directory()
    print("selftest: %s" % ("FAILED (%d)" % len(failures) if failures
                            else "passed"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
