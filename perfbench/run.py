#!/usr/bin/env python3
"""Build and run the TSHMEM host-time benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --write-record

Builds the benchmark binary from source into .bench_build/ at the
repository root (Go build cache included), runs three set-up-only
processes and then the measured one, and relays the measured process's
result line as the last line of standard output. See README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "perfbench")
SETUP_PROBES = 3  # set-up-only processes per run; setup_s is the median with the measured one
TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        fail("no go.mod at %s: run from a checkout of the repository" % ROOT)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),  # the go command's telemetry and env files
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    r = subprocess.run(["go", "build", "-o", BIN, "."], cwd=HERE, env=env)
    if r.returncode != 0:
        fail("build failed")


def launch(args):
    """Runs the binary and returns its stdout; its t0 is taken just before spawning."""
    t0 = time.time_ns()
    r = subprocess.run([BIN, "-t0-unix-ns", str(t0), "-dir", HERE] + args,
                       stdout=subprocess.PIPE, timeout=TIMEOUT_S, text=True)
    if r.returncode != 0:
        fail("%s exited with %d" % (" ".join(args), r.returncode))
    return r.stdout


def main():
    ap = argparse.ArgumentParser(description="TSHMEM host-time benchmark (see perfbench/README.md)")
    ap.add_argument("--workload")
    ap.add_argument("--seed", default="1")
    ap.add_argument("--seconds", default="30")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--write-record", action="store_true", help="regenerate perfbench/record.json")
    a = ap.parse_args()
    if not a.write_record and a.workload is None:
        fail("--workload is required")
    build()
    if a.write_record:
        launch(["-write-record"])
        return
    args = ["-workload", a.workload, "-seed", a.seed]
    setups = []
    if a.trace == "0":
        for _ in range(SETUP_PROBES):
            line = launch(args + ["-setup-only"]).strip().splitlines()[-1]
            setups.append(repr(json.loads(line)["setup_s"]))
    out = launch(args + ["-seconds", a.seconds, "-trace", a.trace, "-setup-samples", ",".join(setups)])
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
