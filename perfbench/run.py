#!/usr/bin/env python3
"""Build and run the oscs serving benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <bulk_eval|cold_start> --seed <n> \
        --seconds <s> --trace <0|1>

Configures and builds perfbench/ (the repository's libraries plus the
perfbench binary, Release) into $CARGO_TARGET_DIR or .bench_build, runs
the self-tests, then perfbench itself. Build output goes to stderr; the
report goes to stdout and ends with one JSON line
{"correct", "attempted", "failed", "metrics"}. BENCHMARK.json is the one
list of metrics: that line is printed only when its metric names and
units are exactly the BENCHMARK.json list for the mode, in order.
Spans of a traced run land in .bench_out/.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def check(cmd, env=None):
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                      env=env).returncode != 0:
        fail("command failed: " + " ".join(cmd))


def git_sha():
    """HEAD of the checkout when it is a git work tree of its own."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return "unknown"
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def expected_metrics(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if traced else "end_to_end"]]


def main(argv):
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    build_env = dict(os.environ, TMPDIR=tmp)
    check(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
          build_env)
    check(["cmake", "--build", build, "-j", "4",
           "--target", "perfbench", "perfbench_selftest"], build_env)
    check([os.path.join(build, "perfbench_selftest")])

    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha())
    try:
        run = subprocess.run([os.path.join(build, "perfbench")] + argv,
                             cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("perfbench exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.splitlines()
    if run.returncode not in (0, 1) or not lines:
        sys.stderr.write(run.stdout)
        fail("perfbench exited with code %d" % run.returncode)
    result = json.loads(lines[-1])
    traced = "--trace" in argv and argv[argv.index("--trace") + 1] == "1"
    reported = [(name, m["unit"]) for name, m in result["metrics"].items()]
    if reported != expected_metrics(traced):
        sys.stderr.write(run.stdout)
        fail("perfbench metrics differ from BENCHMARK.json")
    print("\n".join(lines), flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
