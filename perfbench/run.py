#!/usr/bin/env python3
"""Host-measured resilient-solve benchmark of lckpt (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the root of an lckpt checkout. It builds perfbench/ (the lckpt
library from ../src plus the lckbench program) into .bench_build/, runs one
workload with fixed OpenMP settings against a DiskStore in a fresh directory
under .bench_tmp/, checks the outputs, prints every metric with its unit and
sample count, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 its
per-layer metrics. The full result (raw samples, provenance, self-time
split, and the Chrome trace of a traced run) is kept in .bench_out/. The
exit code is 0 only when every correctness check passed.
"""

import argparse
import fcntl
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import stats  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
SCRATCH = ROOT / ".bench_tmp"
OUT = ROOT / ".bench_out"
WORKLOADS = ("cg-lossy-sync", "cg-lossless-async", "ckpt-restart")
WAIT_POLICY = "passive"
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def host_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def omp_threads(cpus):
    """Fixed OpenMP thread count: 3, or fewer on small hosts, always leaving
    one CPU for the async checkpoint drain thread."""
    return max(1, min(3, cpus - 1))


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        die(f"{path} not found: run from the root of an lckpt checkout")
    spec = json.loads(path.read_text())
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not stats.METRIC_NAME.fullmatch(m["name"]):
            die(f"malformed metric name {m['name']!r} in {path}")
    return spec


def build():
    """Configure once, then build incrementally; serialized by a file lock
    so concurrent runs in one checkout share one build."""
    for rel in ("CMakeLists.txt", "src/lck.hpp"):
        if not (ROOT / rel).is_file():
            die(f"{ROOT / rel} not found: the lckpt sources must sit next "
                "to perfbench/")
    if shutil.which("cmake") is None:
        die("cmake not found")
    BUILD.mkdir(exist_ok=True)
    jobs = str(max(1, host_cpus()))
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                      "--target", "lckbench"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                die("build failed: " + " ".join(cmd))
    return BUILD / "lckbench"


def run_lckbench(exe, args, threads):
    env = dict(os.environ, OMP_NUM_THREADS=str(threads),
               OMP_WAIT_POLICY=WAIT_POLICY)
    env.pop("LCK_FORCE_ISA", None)  # native dispatch, recorded below
    scratch = SCRATCH / f"{args.workload}-{os.getpid()}"
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", str(scratch)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
        if proc.returncode != 0 or not proc.stdout.strip():
            die(f"lckbench exited with {proc.returncode}")
        raw = json.loads(proc.stdout.strip().splitlines()[-1])
        trace = raw.get("extra", {}).get("trace_file")
        if trace and Path(trace).is_file():
            OUT.mkdir(exist_ok=True)
            kept = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            shutil.copyfile(trace, kept)
            raw["extra"]["trace_file"] = str(kept.relative_to(ROOT))
        return raw
    except subprocess.TimeoutExpired:
        die(f"lckbench did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def summarize(samples, p):
    """stats.summarize, or (None, 0, False) when a failed run left no
    samples."""
    return stats.summarize(samples, p) if samples else (None, 0, False)


def end_to_end(raw):
    """name -> (value, sample count, valid) of every end-to-end figure that
    lckbench's samples give, including those not gated in BENCHMARK.json."""
    out = {
        "setup_s": summarize(raw["setup_s"], 50),
        "wall_s": summarize(raw["unit_wall_s"], 50),
        "stored_ratio": summarize(raw["stored_ratio"], 50),
        "peak_rss_mib": (raw["peak_rss_mib"], 1, True),
    }
    for name in ("ckpt_ms", "restart_ms"):
        for p in (50, 90):
            out[f"{name}_p{p}"] = summarize(raw[name], p)
    extra = raw.get("extra", {})
    for name in ("extra_iters", "virtual_s"):
        if name in extra:
            out[name] = (extra[name], 1, True)
    out["fail_rate"] = (raw["failed"] / max(1, raw["attempted"]),
                        raw["attempted"], True)
    return out


def show(value):
    return "missing" if value is None else f"{value:.6g}"


def report(args, spec, raw, cpus):
    prov = raw["provenance"]
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{args.seconds} s on {cpu_model()} ({cpus} CPUs), "
          f"{prov['omp_threads']:.0f} OpenMP threads "
          f"(OMP_WAIT_POLICY={WAIT_POLICY}), SIMD {prov['simd_isa']}, "
          f"{prov['build_type']} {prov['compiler']}")
    print(f"  state {prov['state_bytes'] / 2**20:.2f} MiB per checkpoint "
          f"({prov['codec']}), grid {prov['grid']:.0f} "
          f"({prov['unknowns']:.0f} unknowns), store: {prov['store']}; "
          f"flush: {prov['store_flush']}")
    checks = raw["checks"]
    print("  checks: " + ", ".join(
        f"{k}={'ok' if v else 'FAILED'}" for k, v in sorted(checks.items())))

    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update({"ckpt_ms_p90": "ms", "restart_ms_p90": "ms",
                  "extra_iters": "iterations", "virtual_s": "virtual_s",
                  "fail_rate": "failed/attempted"})
    e2e = end_to_end(raw)
    gated = {m["name"] for m in spec["end_to_end"]}
    for name, (value, n, valid) in e2e.items():
        note = "" if valid else (
            f"  (not valid: needs {stats.MIN_TAIL_SAMPLES} samples above)")
        tag = "" if name in gated else "  [reported, not gated]"
        print(f"  {name:<16} {show(value):>14} {units.get(name, ''):<16} "
              f"n={n}{note}{tag}")

    if args.trace and "layers" in raw:
        for m in spec["per_layer"]:
            print(f"  {m['name']:<30} {show(raw['layers'].get(m['name'])):>14}"
                  f" {m['unit']}")
        st = raw["self_times"]
        accounted = sum(v for k, v in st.items() if k != "wall_s")
        print("  traced wall " + f"{st['wall_s']:.4f} s = " + " + ".join(
            f"{k} {v:.4f}" for k, v in st.items() if k != "wall_s") +
            f" (sum {accounted:.4f})")
    return e2e


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    spec = load_spec()
    exe = build()
    cpus = host_cpus()
    raw = run_lckbench(exe, args, omp_threads(cpus))
    e2e = report(args, spec, raw, cpus)

    if args.trace:
        layers = raw.get("layers", {})
        metrics = {m["name"]: {"value": layers.get(m["name"]),
                               "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    sampled = all(raw[k] for k in ("setup_s", "unit_wall_s", "ckpt_ms",
                                   "restart_ms", "stored_ratio"))
    correct = (raw["failed"] == 0 and raw["attempted"] >= 1 and sampled and
               all(raw["checks"].values()) and
               all(v["value"] is not None for v in metrics.values()))

    result = {"correct": correct, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    full = dict(raw, host_cpu=cpu_model(), host_cpus=cpus,
                omp_wait_policy=WAIT_POLICY, result=result)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
