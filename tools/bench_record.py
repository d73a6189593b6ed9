#!/usr/bin/env python3
"""Record the repo's perf trajectory: run perf_engine N times, keep medians.

Microbenchmark numbers on a shared machine are noisy; a single run is not a
record. This tool runs the google-benchmark suite N times (default 10),
takes the per-benchmark median of wall time and items/second, and writes a
BENCH_<date>.json snapshot next to the repo root. Committing one snapshot
per perf-relevant PR gives the project a queryable performance history.

Output format (documented in README.md):

    {
      "date": "YYYY-MM-DD",
      "runs": 10,
      "benchmark_args": ["--benchmark_min_time=0.2"],
      "environment": {                 // provenance: two snapshots are only
        "git_sha": "...",              // comparable when these match
        "compiler": "/usr/bin/c++",
        "build_type": "Release",
        "cxx_flags": "...",
        "num_cpus": 8
      },
      "benchmarks": {
        "BM_PacketSim/200": {
          "real_time_ns": 12862784.0,   // median across runs
          "cpu_time_ns": 12740341.0,
          "items_per_second": 1991550.0
        },
        ...
      }
    }

Usage:
    tools/bench_record.py --binary build/bench/perf_engine [--runs 10]
        [--filter REGEX] [--out BENCH_2026-08-06.json] [--label NOTE]

or via the build system:  cmake --build build --target bench-record

Comparison mode prints the per-benchmark items/s delta between two
snapshots (baseline first) and exits nonzero when any benchmark regresses
by more than --tolerance (default 3%, the bound in ISSUE/DESIGN):

    tools/bench_record.py --compare BASELINE.json CANDIDATE.json
        [--tolerance 0.03] [--tolerances 'BM_PacketSimLargeP=0.1,...']

--tolerances overrides the bound per benchmark (exact-name match). A
negative value demands an IMPROVEMENT: -0.5 means the candidate must beat
the baseline by at least 50%.

Snapshots may also carry a "model_check" section (written by
tools/mc_check --summary-json): per scenario/P, the explored interleaving
counts. --compare diffs those too and fails on any coverage drop, dropped
scenario, new violation, or newly-capped config — exploration counts are
deterministic, so a silent shrink means the checker stopped looking, not
that the protocol got better. Files containing only a model_check section
(no benchmarks) compare fine against each other.
"""

import argparse
import datetime
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile


def collect_environment(binary, context):
    """Provenance block for the snapshot: git SHA, compiler, flags, CPUs.

    Compiler identity and flags come from the CMakeCache.txt of the build
    tree containing the binary; the git SHA from `git rev-parse`. All
    best-effort — a missing cache or git tree just omits the key, it never
    fails the recording run.
    """
    env = {}
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=pathlib.Path(binary).resolve().parent,
            capture_output=True, text=True, check=True).stdout.strip()
        if sha:
            env["git_sha"] = sha
        dirty = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=pathlib.Path(binary).resolve().parent,
            capture_output=True, text=True, check=True).stdout.strip()
        env["git_dirty"] = bool(dirty)
    except (OSError, subprocess.CalledProcessError):
        pass

    # Walk up from the binary to the build tree root (bench/ -> build/).
    cache_keys = {
        "CMAKE_CXX_COMPILER:FILEPATH": "compiler",
        "CMAKE_CXX_COMPILER:STRING": "compiler",
        "CMAKE_BUILD_TYPE:STRING": "build_type",
        "CMAKE_CXX_FLAGS:STRING": "cxx_flags",
        "LOGP_SANITIZE:STRING": "sanitize",
        "LOGP_OBS:BOOL": "obs",
    }
    for parent in pathlib.Path(binary).resolve().parents:
        cache = parent / "CMakeCache.txt"
        if not cache.is_file():
            continue
        for line in cache.read_text().splitlines():
            key, sep, value = line.partition("=")
            if sep and key in cache_keys and value:
                env[cache_keys[key]] = value
        break

    if context:  # google-benchmark's own context block from the first run
        for key in ("num_cpus", "mhz_per_cpu", "library_version"):
            if key in context:
                env[key] = context[key]
    return env


def run_once(binary, bench_filter, min_time, index):
    """One full suite run; returns ({name: {metric: value}}, context)."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        out_path = tmp.name
    cmd = [
        binary,
        f"--benchmark_out={out_path}",
        "--benchmark_out_format=json",
        f"--benchmark_min_time={min_time}",
    ]
    if bench_filter:
        cmd.append(f"--benchmark_filter={bench_filter}")
    print(f"[bench_record] run {index}: {' '.join(cmd)}", file=sys.stderr)
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    with open(out_path) as f:
        report = json.load(f)
    pathlib.Path(out_path).unlink()

    results = {}
    for bench in report.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench["name"]
        entry = {
            "real_time_ns": float(bench["real_time"]),
            "cpu_time_ns": float(bench["cpu_time"]),
        }
        if "items_per_second" in bench:
            entry["items_per_second"] = float(bench["items_per_second"])
        results[name] = entry
    return results, report.get("context", {})


def parse_tolerances(spec):
    """'NAME=0.05,NAME2=-0.5' -> {name: float}. Negative = must improve."""
    table = {}
    if not spec:
        return table
    for item in spec.split(","):
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise ValueError(f"bad --tolerances entry: {item!r}")
        table[name.strip()] = float(value)
    return table


def compare_model_check(base_mc, cand_mc):
    """Diffs mc_check coverage summaries; returns the number of regressions.

    Exhaustive exploration counts are deterministic, so any drop in explored
    interleavings (or choice points) for a scenario is lost coverage and
    fails the gate exactly like a perf regression. A scenario disappearing
    from the candidate, a violation, or a previously-exhaustive config
    becoming capped all count too. Growth is fine (more coverage).
    """
    regressions = 0
    keys = sorted(set(base_mc) | set(cand_mc))
    width = max(len(k) for k in keys)
    print(f"{'model-check'.ljust(width)}  {'base runs':>12}  "
          f"{'cand runs':>12}  {'base cps':>12}  {'cand cps':>12}")
    for key in keys:
        b, c = base_mc.get(key), cand_mc.get(key)
        if c is None:
            print(f"{key.ljust(width)}  scenario DROPPED from candidate")
            regressions += 1
            continue
        if b is None:
            print(f"{key.ljust(width)}  {'new':>12}  {c['runs']:12d}"
                  f"  {'new':>12}  {c['choice_points']:12d}")
            continue
        flags = []
        if c["runs"] < b["runs"] or c["choice_points"] < b["choice_points"]:
            flags.append("COVERAGE DROP")
        if c.get("capped") and not b.get("capped"):
            flags.append("NEWLY CAPPED")
        if c.get("violations"):
            flags.append(f"{c['violations']} VIOLATIONS")
        regressions += bool(flags)
        print(f"{key.ljust(width)}  {b['runs']:12d}  {c['runs']:12d}"
              f"  {b['choice_points']:12d}  {c['choice_points']:12d}"
              f"{'  ' + ', '.join(flags) if flags else ''}")
    return regressions


def compare(baseline_path, candidate_path, tolerance, tolerances=None):
    """Prints per-benchmark deltas; returns the number of regressions."""
    with open(baseline_path) as f:
        base_doc = json.load(f)
    with open(candidate_path) as f:
        cand_doc = json.load(f)
    base = base_doc.get("benchmarks", {})
    cand = cand_doc.get("benchmarks", {})
    tolerances = tolerances or {}

    regressions = 0
    if "model_check" in base_doc or "model_check" in cand_doc:
        if "model_check" not in cand_doc:
            print("[bench_record] model_check section DROPPED from candidate",
                  file=sys.stderr)
            regressions += 1
        else:
            regressions += compare_model_check(
                base_doc.get("model_check", {}), cand_doc["model_check"])
        if not base and not cand:
            return regressions

    names = sorted(set(base) & set(cand))
    if not names:
        print("[bench_record] no common benchmarks to compare",
              file=sys.stderr)
        return regressions + 1
    unmatched = sorted(set(tolerances) - set(names))
    if unmatched:
        print(f"[bench_record] --tolerances names not in both snapshots: "
              f"{', '.join(unmatched)}", file=sys.stderr)
        return 1
    width = max(len(n) for n in names)
    print(f"{'benchmark'.ljust(width)}  {'baseline':>14}  {'candidate':>14}"
          f"  {'delta':>8}")
    for name in names:
        b = base[name].get("items_per_second")
        c = cand[name].get("items_per_second")
        if not b or not c:
            continue
        delta = (c - b) / b
        bound = tolerances.get(name, tolerance)
        flag = ""
        if delta < -bound:
            # bound < 0 means the candidate had to *improve* by |bound|.
            flag = ("  BELOW REQUIRED SPEEDUP" if bound < 0
                    else "  REGRESSION")
            regressions += 1
        print(f"{name.ljust(width)}  {b:14.0f}  {c:14.0f}  {delta:+7.1%}"
              f"{flag}")
    only = sorted(set(base) ^ set(cand))
    if only:
        print(f"[bench_record] not in both snapshots: {', '.join(only)}",
              file=sys.stderr)
    return regressions


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", default="build/bench/perf_engine",
                        help="google-benchmark binary to run")
    parser.add_argument("--runs", type=int, default=10,
                        help="number of full-suite runs to take medians over")
    parser.add_argument("--filter", default="",
                        help="--benchmark_filter regex passed through")
    parser.add_argument("--min-time", default="0.1",
                        help="--benchmark_min_time per benchmark per run")
    parser.add_argument("--out", default="",
                        help="output path (default BENCH_<date>.json in cwd)")
    parser.add_argument("--label", default="",
                        help="free-form note stored in the snapshot")
    parser.add_argument("--compare", nargs=2, metavar=("BASELINE", "CANDIDATE"),
                        help="compare two snapshots instead of recording")
    parser.add_argument("--merge-mc", nargs="+", metavar="SUMMARY",
                        help="merge the model_check sections of the given "
                             "mc_check summaries into --out (CI runs several "
                             "scenario/P batches, the gate compares one file)")
    parser.add_argument("--tolerance", type=float, default=0.03,
                        help="max allowed items/s regression in --compare "
                             "mode (fraction, default 0.03)")
    parser.add_argument("--tolerances", default="",
                        help="per-benchmark overrides for --compare, e.g. "
                             "'BM_PingPong/1000=0.05'; "
                             "negative values require that much improvement")
    args = parser.parse_args()

    if args.compare:
        try:
            per_bench = parse_tolerances(args.tolerances)
        except ValueError as err:
            parser.error(str(err))
        sys.exit(1 if compare(args.compare[0], args.compare[1],
                              args.tolerance, per_bench) else 0)

    if args.merge_mc:
        if not args.out:
            parser.error("--merge-mc requires --out")
        merged = {}
        for path in args.merge_mc:
            with open(path) as f:
                section = json.load(f).get("model_check", {})
            dupes = set(section) & set(merged)
            if dupes:
                parser.error(f"duplicate model_check keys across summaries: "
                             f"{', '.join(sorted(dupes))}")
            merged.update(section)
        pathlib.Path(args.out).write_text(
            json.dumps({"model_check": merged}, indent=2, sort_keys=True)
            + "\n")
        print(f"[bench_record] wrote {args.out} ({len(merged)} model-check "
              f"configs)", file=sys.stderr)
        return

    if args.runs < 1:
        parser.error("--runs must be >= 1")
    binary = pathlib.Path(args.binary)
    if not binary.exists():
        parser.error(f"benchmark binary not found: {binary} (build it first)")

    outcomes = [run_once(str(binary), args.filter, args.min_time, i + 1)
                for i in range(args.runs)]
    samples = [results for results, _ in outcomes]
    environment = collect_environment(str(binary), outcomes[0][1])

    names = sorted({name for run in samples for name in run})
    benchmarks = {}
    for name in names:
        runs = [run[name] for run in samples if name in run]
        metrics = {}
        for metric in ("real_time_ns", "cpu_time_ns", "items_per_second"):
            values = [r[metric] for r in runs if metric in r]
            if values:
                metrics[metric] = statistics.median(values)
        metrics["samples"] = len(runs)
        benchmarks[name] = metrics

    date = datetime.date.today().isoformat()
    snapshot = {
        "date": date,
        "runs": args.runs,
        "benchmark_args": [f"--benchmark_min_time={args.min_time}"] +
                          ([f"--benchmark_filter={args.filter}"]
                           if args.filter else []),
        "environment": environment,
        "benchmarks": benchmarks,
    }
    if args.label:
        snapshot["label"] = args.label

    out = pathlib.Path(args.out) if args.out else pathlib.Path(
        f"BENCH_{date}.json")
    out.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    print(f"[bench_record] wrote {out} ({len(benchmarks)} benchmarks, "
          f"median of {args.runs} runs)", file=sys.stderr)


if __name__ == "__main__":
    main()
