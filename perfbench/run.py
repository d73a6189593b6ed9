#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/harness.cpp together with the simulator libraries under src/ into
.bench_build/ (Release); later runs only check that the build is current.
The harness prints a readable report and, as its last line, the result JSON
({"correct", "attempted", "failed", "metrics"}); this script checks the
metric names and units against BENCHMARK.json, records the host next to the
result in .bench_build/results.jsonl, and prints the JSON last.

    python3 perfbench/run.py --compare A.jsonl B.jsonl

prints per-workload metric medians of two result logs side by side, and
refuses (exit 3) when the logs come from different hosts or builds.

Regenerating the golden digests (default seed; only when a change is meant
to alter simulated outputs, with the reason recorded in CHANGES.md):

    python3 perfbench/run.py --write-golden
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
GOLDEN = os.path.join(HERE, "golden.txt")
RESULTS = os.path.join(BUILD, "results.jsonl")
WORKLOADS = ["fft_remap", "collective_grid", "packet_clean", "packet_faulted",
             "mc_exhaust"]
DEFAULT_SEED = 1
HARNESS_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/", 2)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(nproc()),
                  "--target", "perfbench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (log: .bench_build/build.log)")


def source_digest():
    """sha256 over src/ and perfbench/ sources: identifies the code measured
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        walk = sorted(os.walk(os.path.join(ROOT, top)))
        for dirpath, _, filenames in walk:
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def parse_host(line):
    """Parses 'host: nproc=4 simd=avx2 compiler="GNU 12.2.0" build=Release'."""
    host, rest = {}, line[len("host:"):].strip()
    while rest:
        key, _, rest = rest.partition("=")
        if rest.startswith('"'):
            value, _, rest = rest[1:].partition('"')
        else:
            value, _, rest = rest.partition(" ")
        host[key.strip()] = value
        rest = rest.strip()
    return host


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def run_harness(args, extra):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--golden", GOLDEN] + extra
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness exceeded %d s" % HARNESS_TIMEOUT_S)
    sys.stderr.write(r.stderr)
    if r.returncode != 0:
        fail("harness exited with code %d" % r.returncode)
    return r.stdout.splitlines()


def run_one(args):
    build()
    extra = []
    if args.trace:
        os.makedirs(os.path.join(BUILD, "spans"), exist_ok=True)
        extra = ["--spans-out", os.path.join(
            BUILD, "spans", "%s-seed%d.json" % (args.workload, args.seed))]
    lines = run_harness(args, extra)
    if not lines:
        fail("harness printed nothing")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: %s"
             % sorted(set(got.items()) ^ set(want.items())))
    host = next((parse_host(l) for l in lines if l.startswith("host:")), {})
    host["git_sha"] = git_sha()
    host["source_digest"] = source_digest()
    with open(RESULTS, "a") as f:
        f.write(json.dumps({"host": host, "workload": args.workload,
                            "seed": args.seed, "seconds": args.seconds,
                            "trace": args.trace, "result": result}) + "\n")
    for line in lines[:-1]:
        if not line.startswith("host:"):
            print(line)
    print("host: " + " ".join("%s=%s" % kv for kv in sorted(host.items())))
    print(json.dumps(result))


def write_golden():
    build()
    if os.path.exists(GOLDEN):
        os.remove(GOLDEN)
    for w in WORKLOADS:
        a = argparse.Namespace(workload=w, seed=DEFAULT_SEED, seconds=0.001,
                               trace=0)
        result = json.loads(run_harness(a, ["--write-golden", GOLDEN])[-1])
        print("%s: %d jobs digested, %d failed"
              % (w, result["attempted"], result["failed"]))


def load_log(path):
    with open(path) as f:
        return [json.loads(l) for l in f if l.strip()]


def compare(a_path, b_path):
    runs = {p: load_log(p) for p in (a_path, b_path)}
    # Host and build must match; the source digest is what may differ.
    keys = ("nproc", "threads", "simd", "compiler", "build")
    hosts = {p: {tuple(r["host"].get(k) for k in keys) for r in rs}
             for p, rs in runs.items()}
    if len(hosts[a_path] | hosts[b_path]) != 1:
        print("NOT COMPARABLE: results come from different hosts or builds")
        for p in (a_path, b_path):
            for h in sorted(hosts[p], key=str):
                print("  %s: %s" % (p, dict(zip(keys, h))))
        sys.exit(3)
    print("%-16s %-28s %14s %14s %8s" % ("workload", "metric", "A median",
                                         "B median", "B/A"))
    for w in WORKLOADS:
        for trace in (0, 1):
            med = {}
            for p, rs in runs.items():
                vals = {}
                for r in rs:
                    if r["workload"] == w and r["trace"] == trace:
                        for k, v in r["result"]["metrics"].items():
                            vals.setdefault(k, []).append(v["value"])
                med[p] = {k: statistics.median(v) for k, v in vals.items()}
            for k in sorted(set(med[a_path]) & set(med[b_path])):
                a, b = med[a_path][k], med[b_path][k]
                ratio = "%8.3f" % (b / a) if a else "     n/a"
                print("%-16s %-28s %14.6g %14.6g %s" % (w, k, a, b, ratio))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-golden", action="store_true")
    p.add_argument("--compare", nargs=2, metavar="RESULTS_JSONL")
    args = p.parse_args()
    if args.compare:
        compare(*args.compare)
    elif args.write_golden:
        write_golden()
    elif args.workload:
        run_one(args)
    else:
        p.error("--workload is required")


if __name__ == "__main__":
    main()
