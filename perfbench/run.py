#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest

A run prints human-readable lines and, as the last line of standard output,
one JSON object {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics; --trace 1 is the report mode: a traced run
that prints the per-layer table (with trace.overhead_s) and writes its spans.

The benchmark is compiled from source with CMake (Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the variable is
unset; the daemon socket and span files go to that build directory too.
Build output goes to standard error. --selftest builds and runs the
benchmark's own tests and checks BENCHMARK.json against the metric
catalogue.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the library sources (src/) are missing next to perfbench/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            fail("configure failed")
    command = ["cmake", "--build", out, "-j", "4", "--target"] + targets
    if subprocess.call(command, stdout=sys.stderr) != 0:
        fail("build failed")
    return out


def run_binary(args, relay=True):
    """Runs a built binary in the build directory (its socket and span
    files land there, under short relative names); returns its exit code and
    standard output, which it also relays unless `relay` is false."""
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True,
                          cwd=build_dir())
    if relay:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    return proc.returncode, proc.stdout


def check_benchmark_json(out):
    """BENCHMARK.json names exactly the catalogue's metrics, with its units."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    code, listing = run_binary([os.path.join(out, "perfbench"),
                                "--list-metrics"], relay=False)
    if code != 0:
        return ["--list-metrics failed"]
    catalogue = {}
    for line in listing.splitlines():
        name, unit, kind = line.split("\t")[:3]
        catalogue[name] = (unit, kind)
    errors = []
    listed = set()
    for kind in ("end_to_end", "per_layer"):
        for metric in spec[kind]:
            name = metric["name"]
            listed.add(name)
            if catalogue.get(name) != (metric["unit"], kind):
                errors.append("%s: %s/%s not in the catalogue as %s" %
                              (path, name, metric["unit"], kind))
    for name, (unit, kind) in catalogue.items():
        if name not in listed:
            errors.append("catalogue metric %s (%s) missing from %s" %
                          (name, kind, path))
    workloads = [w["name"] for w in spec["workloads"]]
    if workloads != ["relax_session", "cold_scratch", "daemon_mix"]:
        errors.append("unexpected workloads %s" % workloads)
    return errors


def selftest():
    out = build(["perfbench", "perfbench_selftest"])
    code, _ = run_binary([os.path.join(out, "perfbench_selftest")])
    errors = check_benchmark_json(out)
    for error in errors:
        print("FAIL " + error)
    if code != 0 or errors:
        return 1
    print("BENCHMARK.json matches the metric catalogue")
    return 0


def main(argv):
    if argv == ["--selftest"]:
        return selftest()
    out = build(["perfbench"])
    code, _ = run_binary([os.path.join(out, "perfbench")] + argv)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
