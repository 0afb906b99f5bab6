#!/usr/bin/env python3
"""Build the benchmark program, tribvote_perf, and run it; see perf/README.md.

One run (the form BENCHMARK.json's command takes):
    perf/run.sh --workload W --seed S --seconds T --trace 0|1
prints tribvote_perf's lines and, as its last line, the result JSON object.

A set of runs:
    perf/run.sh [--workload W] [--seed S] [--repeat N] [--seconds T]
                [--traced] [--smoke]
prints the median and quartiles of every metric per workload.

    perf/run.sh --self-test
forces each kind of check to fail in turn and passes when every one did.

Every measuring invocation appends one record to perf/out/records.jsonl,
and any invocation exits non-zero when a check failed.
"""

import argparse
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, ".build")
PROGRAM = os.path.join(BUILD, "tribvote_perf")
RECORDS = os.path.join(HERE, "out", "records.jsonl")
DIGESTS = os.path.join(HERE, "digests.json")

RUN_TIMEOUT_S = 600
SMOKE_SECONDS = 1

# (workload, --inject kind): each must make the run fail.
SELF_TESTS = [
    ("sim_fig6", "repeat"),
    ("sim_fig6", "recorded"),
    ("sim_fig6", "shape"),
    ("sim_attack", "shape"),
    ("vote_plane", "shape"),
    ("net_loopback", "equivalence"),
    ("net_loopback", "encounter"),
]


class BenchError(Exception):
    """A problem with the benchmark itself, not with a measured result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"no library sources under {ROOT}/src; "
                         "run from a full checkout")
    if cmake_cache("CMAKE_HOME_DIRECTORY") not in (None, HERE):
        shutil.rmtree(BUILD)  # configured for another checkout
    if cmake_cache("CMAKE_HOME_DIRECTORY") is None:
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "-j", str(nproc())]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def metric_keys(defs):
    return [(d["name"], d["unit"], d["better"]) for d in defs]


def name_gate(bench):
    """tribvote_perf's workloads and metrics must be BENCHMARK.json's."""
    out = subprocess.run([PROGRAM, "--list"], capture_output=True, text=True,
                         check=True).stdout
    program = json.loads(out)
    expected = [w["name"] for w in bench["workloads"]]
    if program["workloads"] != expected:
        raise BenchError(f"workloads: tribvote_perf {program['workloads']}, "
                         f"BENCHMARK.json {expected}")
    for key in ("end_to_end", "per_layer"):
        if metric_keys(program[key]) != metric_keys(
                [{k: d[k] for k in ("name", "unit", "better")}
                 for d in bench[key]]):
            raise BenchError(f"{key} metrics differ between tribvote_perf "
                             "and BENCHMARK.json")


def parse_run(stdout, bench, trace):
    """Split a run's output into (result, digest, detail rows, text lines)."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError("tribvote_perf printed nothing")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise BenchError(f"result keys {sorted(result)}")
    defs = bench["per_layer" if trace else "end_to_end"]
    want = {d["name"]: d["unit"] for d in defs}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        raise BenchError(f"emitted metrics {sorted(got)} are not "
                         f"BENCHMARK.json's {sorted(want)}")
    digest, detail = None, {}
    for line in lines[:-1]:
        if line.startswith("digest "):
            digest = line.split()[1]
        elif line.startswith("  "):  # "  name value unit [(summed)]"
            parts = line.split()
            summed = parts[-1] == "(summed)"
            if summed:
                parts.pop()
            detail[" ".join(parts[:-2])] = {
                "value": float(parts[-2]), "unit": parts[-1],
                "summed": summed}
    return result, digest, detail, lines[:-1]


def recorded_digest(workload, smoke):
    with open(DIGESTS) as f:
        return json.load(f)["smoke" if smoke else "full"].get(workload)


def run_once(bench, workload, seed, seconds, trace, smoke, inject=None):
    """One run of tribvote_perf. Returns (result, digest, detail, text)."""
    cmd = [PROGRAM, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if smoke:
        cmd.append("--smoke")
    if inject:
        cmd += ["--inject", inject]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} ran over {RUN_TIMEOUT_S} s")
    if proc.returncode not in (0, 1):
        log(proc.stdout + proc.stderr)
        raise BenchError(f"tribvote_perf exited {proc.returncode} on "
                         f"{workload}")
    result, digest, detail, text = parse_run(proc.stdout, bench, trace)
    if seed == 1:
        expected = recorded_digest(workload, smoke)
        result["attempted"] += 1
        if digest != expected:
            result["failed"] += 1
            result["correct"] = False
            text.append(f"check failed: output digest {digest} is not the "
                        f"recorded {expected} (perf/digests.json)")
    if trace:
        result["attempted"] += 1
        if not check_table(workload, detail, text):
            result["failed"] += 1
            result["correct"] = False
    return result, digest, detail, text


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    return values * 3 if len(values) == 1 else statistics.quantiles(values,
                                                                    n=4)


def summarize(runs, defs):
    out = {}
    for d in defs:
        values = [r["metrics"][d["name"]]["value"] for r in runs]
        q1, med, q3 = quartiles(values)
        out[d["name"]] = {"unit": d["unit"], "median": med, "q1": q1,
                          "q3": q3, "values": values}
    return out


def record_header(args):
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    compiler = cmake_cache("CMAKE_CXX_COMPILER") or "unknown"
    if compiler != "unknown":
        proc = subprocess.run([compiler, "--version"], capture_output=True,
                              text=True)
        compiler = proc.stdout.splitlines()[0] if proc.stdout else compiler
    return {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "commit": commit,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE") or "unknown",
        "compiler": compiler,
        "nproc": nproc(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
    }


def append_record(record):
    os.makedirs(os.path.dirname(RECORDS), exist_ok=True)
    with open(RECORDS, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")


def check_table(workload, detail, text):
    """The summed rows of a traced table must add up to its window."""
    total = sum(d["value"] for d in detail.values() if d["summed"])
    window = detail.get("measured window", {}).get("value")
    ok = window is not None and abs(total - window) <= 0.01 * abs(window)
    if not ok:
        text.append(f"check failed: {workload} traced rows sum to {total}, "
                    f"window {window}")
    return ok


def log_failures(workload, text):
    for line in text:
        if line.startswith("check failed"):
            log(f"  {workload}: {line}")


def single_run(args, bench):
    result, digest, detail, text = run_once(
        bench, args.workload, args.seed, args.seconds, args.trace == 1,
        args.smoke)
    for line in text:
        print(line)
    record = record_header(args)
    record["workloads"] = {args.workload: {
        "runs": 1, "trace": args.trace, "digest": digest,
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "oversubscribed": args.workload == "vote_plane" and nproc() < 4,
        "metrics": result["metrics"], "detail": detail}}
    append_record(record)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def set_mode(args, bench):
    names = [w["name"] for w in bench["workloads"]]
    workloads = [args.workload] if args.workload else names
    record = record_header(args)
    record["workloads"] = {}
    all_ok = True
    rows = []
    for w in workloads:
        runs, digests, attempted, failed = [], set(), 0, 0
        for i in range(args.repeat):
            log(f"perf: {w} run {i + 1}/{args.repeat}")
            result, digest, _, text = run_once(bench, w, args.seed,
                                               args.seconds, False, args.smoke)
            log_failures(w, text)
            runs.append(result)
            digests.add(digest)
            attempted += result["attempted"]
            failed += result["failed"]
        attempted += 1
        if len(digests) != 1:
            failed += 1
            log(f"  {w}: check failed: digests differ across repeats "
                f"{sorted(digests)}")
        entry = {
            "runs": len(runs), "digest": sorted(digests)[0],
            "attempted": attempted, "failed": failed,
            "error_rate": failed / attempted,
            "oversubscribed": w == "vote_plane" and nproc() < 4,
            "end_to_end": summarize(runs, bench["end_to_end"]),
        }
        if args.traced:
            log(f"perf: {w} traced run")
            result, _, detail, text = run_once(bench, w, args.seed,
                                               args.seconds, True, args.smoke)
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            log_failures(w, text)
            entry["per_layer"] = summarize([result], bench["per_layer"])
            entry["detail"] = detail
            entry["error_rate"] = entry["failed"] / entry["attempted"]
        entry["correct"] = entry["failed"] == 0
        all_ok &= entry["correct"]
        record["workloads"][w] = entry
        rows.append((w, entry))
    append_record(record)

    print(f"{'workload':13s} {'metric':32s} {'median':>14s} {'q1':>14s} "
          f"{'q3':>14s}  unit")
    for w, entry in rows:
        tag = " (oversubscribed: fewer than 4 CPUs)" if entry[
            "oversubscribed"] else ""
        for section in ("end_to_end", "per_layer"):
            for name, m in entry.get(section, {}).items():
                print(f"{w:13s} {name:32s} {m['median']:14.6g} "
                      f"{m['q1']:14.6g} {m['q3']:14.6g}  {m['unit']}{tag}")
        print(f"{w:13s} {'error_rate':32s} {entry['error_rate']:14.6g} "
              f"{'':14s} {'':14s}  fraction ({entry['failed']} of "
              f"{entry['attempted']} checks failed)")
        print(f"{w:13s} {'digest':32s} {entry['digest']}")
    print(f"record appended to {os.path.relpath(RECORDS, ROOT)}")
    return 0 if all_ok else 1


def self_test(bench):
    caught = 0
    for workload, kind in SELF_TESTS:
        result, _, _, text = run_once(bench, workload, 1, SMOKE_SECONDS,
                                      False, True, kind)
        failed = not result["correct"] and result["failed"] > 0
        caught += failed
        reason = next((l for l in text if l.startswith("check failed")), "")
        print(f"self-test {workload:13s} {kind:12s} "
              f"{'caught' if failed else 'MISSED'}  {reason}")
    print(f"self-test: {caught} of {len(SELF_TESTS)} forced failures caught")
    return 0 if caught == len(SELF_TESTS) else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1),
                   help="one run of one workload; the result is the last line")
    p.add_argument("--repeat", type=int, default=3)
    p.add_argument("--traced", action="store_true",
                   help="add one traced run per workload")
    p.add_argument("--smoke", action="store_true",
                   help="every workload at about 1 s size, traced too")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    try:
        build()
        bench = load_benchmark()
        name_gate(bench)
        if args.workload and args.workload not in [
                w["name"] for w in bench["workloads"]]:
            raise BenchError(f"unknown workload {args.workload}")
        if args.seconds is None:
            args.seconds = SMOKE_SECONDS if args.smoke else bench[
                "run_seconds"]
        if args.self_test:
            return self_test(bench)
        if args.trace is not None:
            if not args.workload:
                raise BenchError("--trace needs --workload")
            return single_run(args, bench)
        if args.smoke:
            args.repeat, args.traced = 1, True
        return set_mode(args, bench)
    except (BenchError, OSError, ValueError,
            subprocess.CalledProcessError) as e:
        log(f"perf: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
