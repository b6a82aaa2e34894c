#!/usr/bin/env python3
"""Builds the orbit2 benchmark from source and runs one workload.

Usage, from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 \
      [harness flags, e.g. --rate-hz R --pin-loss HEX --pin-crc HEX]
  python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (the orbit2 libraries plus
the harness) in .bench_build/perfbench; later calls rebuild only what
changed. All build output goes to stderr. The harness prints a host/build
facts line and, as the last line of stdout, one JSON result object.

--self-test runs every workload at a tiny size in both modes, checks that
each prints exactly the metrics BENCHMARK.json declares, with their units,
and checks that a deliberately corrupted output makes the run fail.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "orbit2_perfbench")
# Every workload the harness runs; BENCHMARK.json lists the ones measured.
WORKLOADS = ("serve_poisson", "field_tiled", "train_tiles")


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; returns True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no orbit2 sources under {ROOT}/src; nothing to build")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(max(1, os.cpu_count() or 1))
    command = ["cmake", "--build", BUILD, "-j", jobs,
               "--target", "orbit2_perfbench"]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def source_rev():
    """The git revision, or a digest of src/ when there is no git checkout."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                               "HEAD"], capture_output=True, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    digest = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return "src-" + digest.hexdigest()[:12]


def harness_command(workload, seed, seconds, trace, extra):
    return [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--scratch-dir", BUILD, "--rev", source_rev()] + extra


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    command = spec["command"]
    extra = command[command.index("perfbench/run.py") + 1:]
    failures = []

    def expect(condition, message):
        if not condition:
            failures.append(message)
            log("FAIL " + message)

    for workload in WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = subprocess.run(
                harness_command(workload, 7, 1, trace, extra + ["--tiny"]),
                capture_output=True, text=True, timeout=170)
            tag = f"{workload} trace={trace}"
            expect(proc.returncode == 0,
                   f"{tag}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            result = last_json(proc.stdout)
            expect(result is not None and set(result) ==
                   {"correct", "attempted", "failed", "metrics"},
                   f"{tag}: last line is not a result object")
            if not result:
                continue
            expect(result["correct"] is True and result["attempted"] >= 1,
                   f"{tag}: correct={result['correct']} "
                   f"attempted={result['attempted']}")
            metrics = result["metrics"]
            expect(list(metrics) == [m["name"] for m in declared],
                   f"{tag}: metric names differ from BENCHMARK.json")
            for m in declared:
                got = metrics.get(m["name"], {})
                expect(got.get("unit") == m["unit"] and
                       isinstance(got.get("value"), (int, float)),
                       f"{tag}: {m['name']} is {got}, want unit {m['unit']}")
            log(f"ok {tag}: {len(metrics)} metrics")

        proc = subprocess.run(
            harness_command(workload, 7, 1, 0,
                            extra + ["--tiny", "--corrupt-output"]),
            capture_output=True, text=True, timeout=170)
        result = last_json(proc.stdout)
        expect(proc.returncode != 0 and result is not None and
               result["correct"] is False and result["failed"] >= 1,
               f"{workload}: corrupted output was not caught "
               f"(exit {proc.returncode})")
        log(f"ok {workload}: corrupted output fails the run")

    log("self-test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args, extra = parser.parse_known_args()

    if not build():
        log("build failed")
        return 2
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    seconds = f"{args.seconds:g}"
    return subprocess.run(harness_command(args.workload, args.seed, seconds,
                                          args.trace, extra)).returncode


if __name__ == "__main__":
    sys.exit(main())
