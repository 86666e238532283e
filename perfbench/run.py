#!/usr/bin/env python3
"""Build and run the partib end-to-end benchmark (see README.md here).

Run from the repository root:

    python3 perfbench/run.py --workload incast --seed 0 --trace 0
    python3 perfbench/run.py --workload sweep --trace 1     # per-layer split
    python3 perfbench/run.py --all --seconds 5              # every workload
    python3 perfbench/run.py --selftest                     # seconds long

The first call configures and builds perfbench/ (and the library targets
it links, from src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench.  The last line of standard output is the result
object; the line before it is the run's metadata, and both are appended
to records.jsonl in the build directory.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175
WORKLOADS = ("incast", "zoo", "sweep", "shm-stream")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure once, then (re)build the perfbench target; returns it."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the partib sources (src/) are missing")
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # keep compiler temporaries here
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release",
             "-DPARTIB_CHECK=OFF"],
            check=True, stdout=sys.stderr, env=env)
    subprocess.run(
        ["cmake", "--build", bdir, "--target", "perfbench", "-j",
         str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr, env=env)
    return os.path.join(bdir, "perfbench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def metadata(binary, args):
    info = json.loads(subprocess.run([binary, "--build-info"], check=True,
                                     capture_output=True, text=True).stdout)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": info["compiler"],
        "build_type": info["build_type"],
        "partib_check": info["partib_check"],
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_digest(bdir, binary, args, digest, result):
    """Every run of one build at one seed must do the same work: compare
    the run's digest of counts and modelled results with earlier runs."""
    ddir = os.path.join(bdir, "digests")
    os.makedirs(ddir, exist_ok=True)
    key = "%s-seed%d%s" % (args.workload, args.seed,
                           "-tiny" if args.tiny else "")
    path = os.path.join(ddir, key + ".json")
    seen = {}
    if os.path.isfile(path):
        with open(path) as f:
            seen = json.load(f)
    build_id = file_sha256(binary)
    if build_id in seen:
        result["attempted"] += 1
        if seen[build_id] != digest:
            result["failed"] += 1
            result["correct"] = False
            print("perfbench: FAILED: digest %s differs from an earlier run's "
                  "%s at this seed" % (digest, seen[build_id]),
                  file=sys.stderr)
    else:
        seen[build_id] = digest
        with open(path, "w") as f:
            json.dump(seen, f)


def run_once(binary, bdir, args):
    """Run the benchmark binary; returns (lines, result, digest)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", bdir]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: %s exited with code %d" %
                 (args.workload, proc.returncode))
    result = json.loads(lines[-1])
    digest = next((l.split()[1] for l in lines if l.startswith("digest ")),
                  "")
    return lines[:-1], result, digest


def measure(binary, bdir, args):
    """One checked, recorded run; prints its notes, metadata and result."""
    lines, result, digest = run_once(binary, bdir, args)
    check_digest(bdir, binary, args, digest, result)
    meta = metadata(binary, args)
    with open(os.path.join(bdir, "records.jsonl"), "a") as f:
        f.write(json.dumps({"meta": meta, "result": result}) + "\n")
    for line in lines:
        print(line)
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return lines, result


def measure_all(binary, bdir, args):
    """Every workload in turn, then one table of all their metrics."""
    results = {}
    for w in WORKLOADS:
        print("== " + w)
        results[w] = measure(binary, bdir, argparse.Namespace(
            **dict(vars(args), workload=w)))
    print("== all workloads (seed %d, trace %d)" % (args.seed, args.trace))
    for w, (lines, result) in results.items():
        print(w)
        for line in lines:
            if line.startswith(("sim_", "failed_frac")):
                print("  " + line)
        for name, m in result["metrics"].items():
            print("  %-34s %.6g %s" % (name, m["value"], m["unit"]))


def selftest():
    """Tiny grids of every workload, traced and untraced: every metric
    BENCHMARK.json names is printed with its unit, and nothing fails."""
    spec = load_spec()
    bdir = build_dir()
    binary = build(bdir)
    problems = []
    for w in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            args = argparse.Namespace(workload=w["name"], seed=1, seconds=1.0,
                                      trace=trace, tiny=True)
            _, result, _ = run_once(binary, bdir, args)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = result["metrics"]
            where = "%s --trace %d" % (w["name"], trace)
            for name in sorted(set(want) - set(got)):
                problems.append("%s: metric %s missing" % (where, name))
            for name in sorted(set(got) - set(want)):
                problems.append("%s: metric %s not in BENCHMARK.json" %
                                (where, name))
            for name in sorted(set(want) & set(got)):
                m = got[name]
                if m["unit"] != want[name]:
                    problems.append("%s: %s unit %s, BENCHMARK.json says %s" %
                                    (where, name, m["unit"], want[name]))
                if not math.isfinite(m["value"]):
                    problems.append("%s: %s is %r" % (where, name, m["value"]))
            if result["failed"] != 0 or not result["correct"]:
                problems.append("%s: failed_frac %d/%d" %
                                (where, result["failed"], result["attempted"]))
            print("selftest %-24s %d metrics, %d/%d failed" %
                  (where, len(got), result["failed"], result["attempted"]))
    for p in problems:
        print("selftest FAILED: " + p)
    if problems:
        sys.exit(1)
    print("selftest ok")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true",
                   help="run every workload and print one table")
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed; 0 keeps the figure benches' seeds")
    p.add_argument("--seconds", type=float,
                   help="measurement budget; default BENCHMARK.json's "
                   "run_seconds, the length its bounds were set at")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true",
                   help="self-test grids (seconds long)")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.selftest:
        selftest()
        return
    if args.workload is None and not args.all:
        p.error("--workload or --all is required")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    bdir = build_dir()
    binary = build(bdir)
    if args.all:
        measure_all(binary, bdir, args)
    else:
        measure(binary, bdir, args)


if __name__ == "__main__":
    main()
