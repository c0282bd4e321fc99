#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-lrc --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

The first form builds perfbench/bench.exe with dune in the release
profile, runs it, and passes its output through: the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 1 the traced pass's spans are written
to perfbench/out/spans-<workload>-<seed>.jsonl.

--self-test plants one wrong pin and checks that the benchmark counts
the failed operation; it exits 0 only if it does.

The script exits non-zero without printing a result when the build
fails, for instance in a directory that holds only the benchmark.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        fail("no dune-project at %s: not a checkout of the repository" % ROOT)
    env = dict(os.environ)
    # keep every build artefact inside the checkout
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.join(ROOT, "_build", ".cache")
    proc = subprocess.run(
        [dune, "build", "--root", ROOT, "--profile", "release", "./perfbench/bench.exe"],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    if proc.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(proc.stderr[-4000:])
        fail("build failed (exit %d)" % proc.returncode)


def self_test():
    proc = subprocess.run(
        [EXE, "--workload", "bus-cc", "--seed", "1", "--seconds", "1", "--trace", "0",
         "--plant-wrong-pin"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    counted = (proc.returncode == 0 and result.get("correct") is False
               and result.get("failed", 0) > 0)
    print("self-test: planted wrong pin %s (failed %s of %s)"
          % ("counted" if counted else "NOT counted",
             result.get("failed"), result.get("attempted")))
    sys.exit(0 if counted else 1)


def main(argv):
    build()
    if argv == ["--self-test"]:
        self_test()
    args = list(argv)

    def opt(name, default):
        i = args.index(name) + 1 if name in args else len(args)
        return args[i] if i < len(args) else default

    if opt("--trace", "0") == "1" and "--spans" not in args:
        workload, seed = opt("--workload", "none"), opt("--seed", "1")
        out = os.path.join(ROOT, "perfbench", "out")
        os.makedirs(out, exist_ok=True)
        args += ["--spans", os.path.join(out, "spans-%s-%s.jsonl" % (workload, seed))]
    proc = subprocess.run([EXE] + args, cwd=ROOT)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main(sys.argv[1:])
