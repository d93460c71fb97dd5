#!/usr/bin/env python3
"""Benchmark runner for lowpart.

Builds the workload binary (perfbench/main.exe) from source with dune, runs
each requested workload in a fresh process, checks its outputs and prints
every metric by name with its unit.

    python3 perfbench/run.py                           # all three, untraced
    python3 perfbench/run.py --trace 1                 # all three, per-layer
    python3 perfbench/run.py --workload gen-scale --seed 3 --seconds 20

With a single --workload the last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Its metrics are the
end_to_end list of BENCHMARK.json (--trace 0) or the per_layer list
(--trace 1). Results, tagged with the host and source identity, are written
to perfbench/results/<workload>/seed-<n>/; a traced run also leaves its
spans.jsonl and layers.md there.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
WORKLOADS = ["paper-cold", "service-warm", "gen-scale"]
# The workload process must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("dune-project", "lib", os.path.join("bench", "corpus.json")):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("not a lowpart checkout: %s is missing" % need)
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, "--display", "quiet",
             "perfbench/main.exe"],
            cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        die("cannot run dune: %s" % e)
    if r.returncode != 0:
        die("build failed (dune exit %d)" % r.returncode)


def source_identity():
    """The git commit when there is one, and a digest of the sources either
    way (a checkout without .git still gets a stable identity)."""
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    h = hashlib.md5()
    for top in ("dune-project", "dune", "lib", "bin", "bench", "perfbench"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, dirs, files in os.walk(base)
            if "results" not in os.path.relpath(d, ROOT).split(os.sep)
            for f in files if not f.endswith(".pyc"))
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return commit, h.hexdigest()


def run_one(workload, seed, seconds, trace):
    out = os.path.join(ROOT, "perfbench", "results", workload, "seed-%d" % seed)
    os.makedirs(out, exist_ok=True)
    cmd = [EXE, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", out]
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S), 1)
    finally:
        for d in os.listdir(out):
            if d.startswith("cache-"):
                shutil.rmtree(os.path.join(out, d), ignore_errors=True)
    sys.stderr.write(p.stderr)
    res = {"tags": {}, "metrics": {}, "programs": {}, "failures": []}
    summary = None
    for line in p.stdout.splitlines():
        kind, _, rest = line.partition(" ")
        if kind == "tag":
            k, _, v = rest.partition(" ")
            res["tags"][k] = v
        elif kind == "metric":
            name, value, unit = rest.split(" ")
            res["metrics"][name] = {"value": float(value), "unit": unit}
        elif kind == "program":
            name, n, p50 = rest.split(" ")
            res["programs"][name] = {"ops": int(n), "latency_p50_ms": float(p50)}
        elif kind == "failure":
            res["failures"].append(rest)
        elif kind == "summary":
            correct, attempted, failed = rest.split(" ")
            summary = (correct == "true", int(attempted), int(failed))
    if p.returncode != 0 or summary is None:
        die("%s exited %d without a result" % (workload, p.returncode), 1)
    res["correct"], res["attempted"], res["failed"] = summary
    commit, digest = source_identity()
    res["tags"].update(git_commit=commit, source_digest=digest,
                       run_seconds=seconds)
    name = "traced.json" if trace else "e2e.json"
    with open(os.path.join(out, name), "w") as f:
        json.dump(res, f, indent=1, sort_keys=True)
    return res


def show(workload, res):
    t = res["tags"]
    print("== %s  seed %s  %s s  trace %s  host_cpus %s  ocaml %s  commit %s  "
          "sources %s" % (workload, t["seed"], t["run_seconds"], t["trace"],
                          t["host_cpus"], t["ocaml"], t["git_commit"],
                          t["source_digest"][:12]))
    for name, m in res["metrics"].items():
        print("  %-34s %16.6g %s" % (name, m["value"], m["unit"]))
    for name, p in res["programs"].items():
        print("  program %-24s %6d ops  p50 %10.3f ms" % (name, p["ops"],
                                                        p["latency_p50_ms"]))
    print("  correct %s  attempted %d  failed %d" % (
        str(res["correct"]).lower(), res["attempted"], res["failed"]))
    for f in res["failures"]:
        print("  FAILED: " + f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for w in workloads:
        results[w] = run_one(w, args.seed, seconds, args.trace)
        show(w, results[w])
    if len(workloads) > 1:
        return
    res = results[workloads[0]]
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = res["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            die("metric %s missing or in the wrong unit" % m["name"], 1)
        metrics[m["name"]] = got
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
