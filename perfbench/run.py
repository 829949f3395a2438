#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It configures and builds the
`spardl_perfbench` target (an optimized RelWithDebInfo build of the library
and the benchmark binary) under `.bench_build/perfbench`, runs the binary,
checks its simulated-output digest against earlier runs of the same seed on
the same sources, and prints the binary's result as the last line of
standard output: one JSON object with `correct`, `attempted`, `failed` and
`metrics`. Build logs and diagnostics go to standard error. Any build or
run failure exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import re
import signal
import subprocess
import sys

WORKLOADS = ("large_p_fattree", "paper_flat_p14", "train_overlap_fattree")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "spardl_perfbench")
DIGESTS = os.path.join(BUILD_DIR, "digests.json")
# Sources whose change may legitimately change the simulated results.
SOURCE_ROOTS = ("CMakeLists.txt", "src", "bench", "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, capture):
    """Runs `cmd` in its own process group and waits for it to end; on
    timeout the whole group is killed. Without `capture` its output goes
    to standard error."""
    sink = subprocess.PIPE if capture else sys.stderr.fileno()
    proc = subprocess.Popen(cmd, stdout=sink, stderr=sink, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{' '.join(cmd)} did not finish within {timeout}s")
    return proc.returncode, out, err


def build():
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        fail("the spardl sources are missing; run from the repository root")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        code, _, _ = run(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                         BUILD_TIMEOUT_S, capture=False)
        if code != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    code, _, _ = run(["cmake", "--build", BUILD_DIR, "--target",
                      "spardl_perfbench", "--parallel", jobs],
                     BUILD_TIMEOUT_S, capture=False)
    if code != 0:
        fail("build failed")


def source_hash():
    digest = hashlib.sha256()
    for root in SOURCE_ROOTS:
        paths = [root] if os.path.isfile(root) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(root) for f in files)
        for path in paths:
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def check_digest(workload, seed, value):
    """Two runs of one seed on the same sources must agree on every
    simulated output. Returns False when an earlier run disagrees."""
    key = f"{source_hash()}/{workload}/{seed}"
    digests = {}
    if os.path.isfile(DIGESTS):
        with open(DIGESTS) as f:
            digests = json.load(f)
    if key in digests:
        return digests[key] == value
    digests[key] = value
    tmp = DIGESTS + ".tmp"
    with open(tmp, "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
    os.replace(tmp, DIGESTS)
    return True


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.json")]
    code, out, err = run(cmd, RUN_TIMEOUT_S, capture=True)
    sys.stderr.write(err)
    if code != 0:
        fail(f"benchmark binary exited with {code}")
    result = json.loads(out.strip().splitlines()[-1])

    expected = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail(f"metrics {got} do not match BENCHMARK.json {expected}")

    match = re.search(r"^perfbench digest \S+ seed \d+ ([0-9a-f]{16})$",
                      err, re.MULTILINE)
    if match is None:
        fail("the binary printed no digest")
    if not check_digest(args.workload, args.seed, match.group(1)):
        print("perfbench: simulated outputs differ from an earlier run of "
              "this seed on the same sources", file=sys.stderr)
        result["correct"] = False
        result["failed"] = result["attempted"]
        if "ok_fraction" in result["metrics"]:
            result["metrics"]["ok_fraction"]["value"] = 0.0
    print(json.dumps(result))


if __name__ == "__main__":
    main()
