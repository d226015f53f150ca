#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 perfbench/run.py --selftest

Workloads and metrics are listed in BENCHMARK.json and explained in
perfbench/README.md. The binary is built (Release) under $CARGO_TARGET_DIR,
default .bench_build, relative to the repository root. Every CL_* knob is
pinned to its default before the binary starts. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it, starting with '#', are the human report.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Every CL_* knob the library reads, at its default. CL_SIMD has no value
# meaning "choose"; its default is to be absent, which picks the widest
# backend the CPU supports (the binary reports which one it got).
PINNED_ENV = {
    "CL_THREADS": "4",
    "CL_EXEC": "graph",
    "CL_FUSE": "1",
    "CL_FUSE_TILE": str(1 << 20),
    "CL_POOL": "1",
    "CL_POOL_MB": "256",
}

WORKLOADS = ("boot-single", "boot-batch", "host-resnet20", "accel-suite")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the Release binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    if not shutil.which("cmake"):
        fail("cmake not found")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(out, ignore_errors=True)
            fail("cmake configure failed")
    cmd = ["cmake", "--build", out, "-j", "4", "--target", "perfbench"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(out, "perfbench")


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def expected_cycles():
    """The `schedule: list` cycles of BENCH_sim.json, read only."""
    with open(os.path.join(ROOT, "BENCH_sim.json")) as f:
        entries = json.load(f)["entries"]
    return ["%s/%s=%d" % (e["benchmark"], e["config"], e["cycles"])
            for e in entries if e["schedule"] == "list"]


def pinned_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("CL_")}
    env.update(PINNED_ENV)
    return env


def run_binary(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (report lines, result dict)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--trace-dir", os.path.join(os.path.dirname(build_dir()), "traces")]
    if workload == "accel-suite":
        for e in expected_cycles():
            cmd += ["--expect", e]
    cmd += list(extra)
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=pinned_env(), text=True,
                           stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    lines = p.stdout.strip().splitlines()
    if p.returncode or not lines:
        sys.stdout.write(p.stdout)
        fail("perfbench exited with code %d" % p.returncode, p.returncode or 2)
    return lines[:-1], json.loads(lines[-1])


def conform(result, contract, trace):
    """Checks the metrics against BENCHMARK.json. A traced run reports
    every per-layer metric: a layer the workload does not exercise reads 0.
    """
    specs = contract["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    names = [s["name"] for s in specs]
    extra = sorted(set(got) - set(names))
    if extra:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(extra))
    metrics = {}
    for s in specs:
        m = got.get(s["name"])
        if m is None:
            if not trace:
                fail("end-to-end metric %s not reported" % s["name"])
            m = {"value": 0, "unit": s["unit"]}
        if m["unit"] != s["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (s["name"], m["unit"], s["unit"]))
        metrics[s["name"]] = m
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def selftest(binary, contract):
    """Smoke runs at minimal length on every workload, traced and not, plus
    injected faults that must raise the failed-check count."""
    ok = True

    def expect(cond, what):
        nonlocal ok
        print(("PASS " if cond else "FAIL ") + what)
        ok = ok and cond

    for w in WORKLOADS:
        for trace in (False, True):
            _, res = run_binary(binary, w, 7, 0, trace)
            out = conform(res, contract, trace)  # exits on a missing metric
            kind = "per-layer" if trace else "end-to-end"
            expect(out["correct"] and out["failed"] == 0,
                   "%s %s smoke: every %s metric present with its unit, "
                   "%d checks passed" % (w, "traced" if trace else "timed",
                                         kind, out["attempted"]))
    for w, fault in (("boot-single", "residue"), ("host-resnet20", "residue"),
                     ("accel-suite", "verifier")):
        _, res = run_binary(binary, w, 7, 0, False, ["--corrupt", fault])
        frac = res["failed"] / res["attempted"]
        expect(res["failed"] >= 1 and not res["correct"],
               "%s with a corrupted %s: fail_frac %.3f > 0" % (w, fault, frac))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    contract = load_contract()
    binary = build()
    if args.selftest:
        sys.exit(0 if selftest(binary, contract) else 1)

    report, res = run_binary(binary, args.workload, args.seed, args.seconds,
                             bool(args.trace))
    out = conform(res, contract, bool(args.trace))
    for line in report:
        print(line)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
