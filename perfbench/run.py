#!/usr/bin/env python3
"""End-to-end benchmark of atcd_server (see perfbench/README.md).

Builds atcd_server and the atcd_perfbench driver from the sources of the
checkout it sits in (into .bench_build/), then runs one of:

  run.py --workload W --seed N --seconds S --trace 0|1
      One measured run.  The last stdout line is the result object
      {"correct", "attempted", "failed", "metrics"}; the line before it
      is the {"report": ...} with exact latency statistics, per-phase
      request counts and the run environment.

  run.py --steadiness K [--workloads a,b] [--seconds S] [--trace 0|1]
         [--seed-base N] [--same-seed]
      Repeats each workload K times (seeds N..N+K-1, or seed N every
      time with --same-seed, so the spread is the machine's alone) and
      prints each run and, per metric, the median, quartiles,
      (q3-q1)/median and (max-min)/median, flagging every metric whose
      range exceeds its bound in BENCHMARK.json, or whose quartile
      spread exceeds a third of it.

  run.py --self-test
      A tiny-size run of every workload that checks the output contract
      (every metric named in BENCHMARK.json printed with its unit, the
      result JSON parses) and that a corrupted response is caught.

Only the Python standard library is used.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
WORK = os.path.join(BUILD, "work")
DRIVER = os.path.join(CMAKE_DIR, "atcd_perfbench")
SERVER = os.path.join(CMAKE_DIR, "atcd", "atcd_server")
WORKLOADS = ["warm_hits", "cold_solves", "edit_sessions"]
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then brings both binaries up to date."""
    for need in ("CMakeLists.txt", "src", os.path.join("examples", "atcd_server.cpp")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("the atcd sources are missing (%s); run from a full checkout" % need)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "a") as log:
        if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=log) != 0:
                shutil.rmtree(CMAKE_DIR, ignore_errors=True)
                fail("cmake configure failed; see " + log_path)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        cmd = ["cmake", "--build", CMAKE_DIR, "-j", jobs,
               "--target", "atcd_server", "atcd_perfbench"]
        if subprocess.call(cmd, stdout=log, stderr=log) != 0:
            fail("build failed; see " + log_path)


def source_id():
    """Digest of the sources under test (the checkout is not a git tree)."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), os.path.join(ROOT, "examples"), HERE]
    for top in roots:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as f:
        h.update(f.read())
    return h.hexdigest()[:16]


def driver_cmd(workload, seed, seconds, trace, extra=()):
    return [DRIVER, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--server", SERVER, "--work", WORK, "--source", source_id(), *extra]


def run_driver(cmd, capture):
    """Runs the driver in its own process group so a timeout also stops
    the server it spawned.  Returns (exit code, stdout or None)."""
    os.makedirs(WORK, exist_ok=True)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else None,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run exceeded %d s and was stopped" % RUN_TIMEOUT_S)
    return proc.returncode, (out.decode() if capture else None)


def last_json(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec, {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def steadiness(args):
    spec, by_name = bounds()
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    seconds = args.seconds or spec["run_seconds"]
    flagged = []
    for w in workloads:
        values = {}
        for i in range(args.steadiness):
            seed = args.seed_base + (0 if args.same_seed else i)
            rc, out = run_driver(driver_cmd(w, seed, seconds, args.trace), True)
            res = last_json(out)
            try:
                phases = json.loads(out.splitlines()[-2])["report"]["phases"]
                clean = "%d/%d clean windows" % (phases["windows_clean"], phases["windows_wanted"])
            except (IndexError, ValueError, KeyError):
                clean = "no report"
            if rc != 0 or not res or not res["correct"]:
                fail("%s seed %d failed (exit %d)" % (w, seed, rc), 1)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("  run %d seed %d (%s): %s" % (i + 1, seed, clean, " ".join(
                "%s=%.6g" % (n, m["value"]) for n, m in res["metrics"].items())), flush=True)
        print("%s (%d runs, %s s each)" % (w, args.steadiness, seconds))
        print("  %-34s %12s %12s %12s %8s %8s %6s" %
              ("metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound"))
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            iqr = (q3 - q1) / med if med else 0.0
            rng = (max(vals) - min(vals)) / med if med else 0.0
            bound = by_name.get(name, {}).get("bound")
            mark = ""
            if bound is not None and rng > bound:
                mark = "  SPREAD > BOUND"
                flagged.append((w, name))
            elif bound is not None and iqr > bound / 3:
                mark = "  iqr > bound/3"
                flagged.append((w, name))
            print("  %-34s %12.6g %12.6g %12.6g %8.4f %8.4f %6s%s" %
                  (name, med, q1, q3, iqr, rng, "-" if bound is None else bound, mark))
    print("flagged: %s" % (", ".join("%s/%s" % f for f in flagged) or "none"))
    return 1 if flagged else 0


def self_test():
    spec, _ = bounds()
    problems = []
    for w in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            rc, out = run_driver(driver_cmd(w, 7, 1, trace, ["--tiny"]), True)
            lines = [l for l in out.splitlines() if l.strip()]
            try:
                res = json.loads(lines[-1])
                report = json.loads(lines[-2])["report"]
            except (IndexError, ValueError, KeyError) as e:
                problems.append("%s trace=%d: output does not parse (%s)" % (w, trace, e))
                continue
            if rc != 0 or res.get("correct") is not True:
                problems.append("%s trace=%d: exit %d, correct=%s" % (w, trace, rc, res.get("correct")))
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s trace=%d: result keys %s" % (w, trace, sorted(res)))
            for m in spec[group]:
                got = res["metrics"].get(m["name"])
                if got is None:
                    problems.append("%s trace=%d: metric %s missing" % (w, trace, m["name"]))
                elif got.get("unit") != m["unit"] or not math.isfinite(got.get("value", float("nan"))):
                    problems.append("%s trace=%d: metric %s printed as %s" % (w, trace, m["name"], got))
            extra = set(res["metrics"]) - {m["name"] for m in spec[group]}
            if extra:
                problems.append("%s trace=%d: unlisted metrics %s" % (w, trace, sorted(extra)))
            for key in ("env", "phases", "latency_us", "setup_boots_s"):
                if key not in report:
                    problems.append("%s trace=%d: report lacks %s" % (w, trace, key))
        # One response altered on the client side must fail the run.
        rc, out = run_driver(driver_cmd(w, 7, 1, 0, ["--tiny", "--corrupt-line", "20"]), True)
        res = last_json(out) or {}
        if rc == 0 or res.get("correct") is not False or res.get("failed", 0) < 1:
            problems.append("%s: a corrupted response was not caught (exit %d)" % (w, rc))
    for p in problems:
        print("FAIL " + p)
    print("self-test: %s" % ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, metavar="K")
    ap.add_argument("--workloads", help="comma-separated subset for --steadiness")
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true",
                    help="--steadiness: every run uses --seed-base")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    build()
    if args.self_test:
        return self_test()
    if args.steadiness:
        return steadiness(args)
    if not args.workload:
        fail("--workload is required (or --steadiness / --self-test)")
    seconds = args.seconds if args.seconds else bounds()[0]["run_seconds"]
    rc, _ = run_driver(driver_cmd(args.workload, args.seed, seconds, args.trace), False)
    return rc


if __name__ == "__main__":
    sys.exit(main())
