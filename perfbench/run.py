#!/usr/bin/env python3
"""Repo benchmark: build hosbench, run one workload, print its metrics.

    python3 perfbench/run.py --workload coord_graphchi --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, end to end
    python3 perfbench/run.py --selftest              # fingerprint-mismatch self-test
    python3 perfbench/run.py --workload drf_two_vm --out runs.jsonl
    python3 perfbench/run.py --compare base.jsonl head.jsonl

Run it from anywhere inside a checkout; it builds two copies of the
simulator under .bench_build/perfbench/ (HOS_PROF=sim for the end-to-end
figures, HOS_PROF=host for the traced run). The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end set, with
--trace 1 its per_layer set. See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["coord_graphchi", "vmm_sweep_graphchi", "drf_two_vm",
             "paper_sweep"]
TRIM_WARNING = "footprint trimmed to fit"
# A run must finish within 180 s of the build; leave room for output.
DEADLINE_S = 170.0
# Stamp keys that identify the code measured rather than the config:
# results that differ only in these may be compared.
CODE_KEYS = ("git_rev", "src_digest")


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def metric_specs():
    """(end_to_end, per_layer) lists of {name, unit, ...} from BENCHMARK.json."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        return spec["end_to_end"], spec["per_layer"]
    except (OSError, ValueError, KeyError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build(prof):
    """Configure (once) and build hosbench at one HOS_PROF level."""
    build_dir = os.path.join(BUILD_ROOT, prof)
    os.makedirs(BUILD_ROOT, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release", f"-DHOS_PROF={prof}"])
        steps.append(["cmake", "--build", build_dir, "-j", jobs])
        for cmd in steps:
            try:
                res = subprocess.run(cmd, capture_output=True, text=True)
            except OSError as e:
                fail(f"cannot run {cmd[0]}: {e}")
            if res.returncode != 0:
                sys.stderr.write(res.stdout[-4000:] + res.stderr[-4000:])
                fail(f"build failed ({' '.join(cmd)})")
    return os.path.join(build_dir, "hosbench")


def source_digest():
    """Short sha256 of the simulator and benchmark sources."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:12]


def git_rev():
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return res.stdout.strip() if res.returncode == 0 else "none"


def run_harness(binary, workload, seed, seconds, flags, deadline):
    """Run hosbench once; returns its report plus trims per counted run."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)] + flags
    try:
        res = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{workload}: hosbench did not finish in time")
    trims, current, other = {}, None, []
    for line in res.stderr.splitlines():
        if line.startswith("@hosbench run "):
            _, _, index, edge = line.split()
            current = int(index) if edge == "begin" else None
            trims.setdefault(int(index), 0)
        elif TRIM_WARNING in line:
            if current is not None:
                trims[current] += 1
        else:
            other.append(line)
    if other:
        sys.stderr.write("\n".join(other[-40:]) + "\n")
    if res.returncode != 0:
        fail(f"{workload}: hosbench exited with {res.returncode}")
    try:
        report = json.loads(res.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        fail(f"{workload}: no result from hosbench")
    for i, run in enumerate(report["runs"]):
        run["trims"] = trims.get(i, 0)
    return report


def measure(workload, seed, seconds, trace, specs):
    """One benchmark invocation: returns (stamp, runs, metrics)."""
    e2e_spec, layer_spec = specs
    # Build both levels up front, so only a checkout's first run builds.
    binaries = {prof: build(prof) for prof in ("sim", "host")}
    deadline = time.monotonic() + DEADLINE_S
    # The traced run's layer split takes the telemetry A/B from the
    # end-to-end build, which users run.
    untraced = run_harness(binaries["sim"], workload, seed, seconds,
                           ["--telemetry-ab"] if trace else [], deadline)
    runs = [dict(r, build="sim") for r in untraced["runs"]]
    hosts = {"sim": untraced["host"]}
    stamp = dict(untraced["stamp"], git_rev=git_rev(),
                 src_digest=source_digest())
    if not trace:
        metrics = dict(untraced["metrics"])
        wanted = e2e_spec
    else:
        traced = run_harness(binaries["host"], workload, seed, seconds,
                             ["--traced"], deadline)
        hosts["host"] = traced["host"]
        runs += [dict(r, build="host") for r in traced["runs"]]
        stamp["hos_prof"] += "/" + traced["stamp"]["hos_prof"]
        metrics = dict(traced["metrics"])
        # Layer figures the end-to-end run already measures (the sweep
        # pool's speedup, the telemetry A/B) come from that run.
        for name, value in untraced["metrics"].items():
            metrics.setdefault(name, value)
        # Traced and untraced builds must simulate the same thing.
        if traced["fingerprint"] != untraced["fingerprint"]:
            runs.append({"wall_s": 0, "fingerprint": traced["fingerprint"],
                         "attempted": 1, "failed": 1, "trims": 0,
                         "build": "both",
                         "failure": "traced fingerprint differs from "
                                    "untraced " + untraced["fingerprint"]})
        # One complete simulation of the workload: its first counted run.
        metrics["workload.footprint_trims"] = traced["runs"][0]["trims"]
        metrics["trace.overhead_frac"] = (
            traced["metrics"]["run_s"] / untraced["metrics"]["run_s"] - 1.0)
        wanted = layer_spec
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail(f"{workload}: harness did not report {', '.join(missing)}")
    return stamp, runs, hosts, {m["name"]: {"value": metrics[m["name"]],
                                            "unit": m["unit"]}
                                for m in wanted}


def print_block(workload, stamp, runs, hosts, metrics):
    print(f"== {workload}")
    print("stamp: " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    for build_name, host in hosts.items():
        measured = " ".join(f"{k.split('.', 1)[1]}={v:.6g}"
                            for k, v in host.items()
                            if k.startswith("measured."))
        print(f"host [{build_name}]: probe median {host['load_ns']:.1f} "
              f"ns/load; host times as measured: {measured}")
    for i, r in enumerate(runs):
        notes = []
        if r["trims"]:
            notes.append(f"trimmed ({r['trims']} footprint trims)")
        if r["failed"]:
            notes.append(f"FAILED {r['failed']}/{r['attempted']}: "
                         f"{r['failure']}")
        if r.get("probe"):
            notes.insert(0, f"probe x{r['probe']:.4f}")
        print(f"run {i} [{r['build']}]: {r['wall_s']:.4f} s, "
              f"{r['attempted']} attempted, fingerprint {r['fingerprint']}"
              + ("; " + "; ".join(notes) if notes else ""))
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"failed_frac {failed / attempted:.6g} ({failed}/{attempted})")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.10g} {m['unit']}")
    return attempted, failed


def compare(path_a, path_b):
    """Medians of two result files over the same seeds, refusing
    mismatched configurations."""
    def load(path):
        with open(path) as f:
            return [json.loads(line) for line in f if line.strip()]

    a, b = load(path_a), load(path_b)
    if not a or not b:
        fail("nothing to compare", 2)
    def config(rec):
        kept = {k: v for k, v in rec["stamp"].items()
                if k not in CODE_KEYS + ("seed",)}
        return dict(kept, trace=rec["trace"])

    configs = {json.dumps(config(r), sort_keys=True) for r in a + b}
    if len(configs) != 1:
        fail("refusing to compare results whose stamps differ:\n  "
             + "\n  ".join(sorted(configs)), 2)
    # Each seed simulates different inputs, so both sides must cover
    # the same seeds the same number of times.
    seeds_a = sorted(r["stamp"]["seed"] for r in a)
    seeds_b = sorted(r["stamp"]["seed"] for r in b)
    if seeds_a != seeds_b:
        fail(f"refusing to compare different seeds: {seeds_a} vs {seeds_b}",
             2)
    for name in a[0]["metrics"]:
        va = [r["metrics"][name]["value"] for r in a]
        vb = [r["metrics"][name]["value"] for r in b]
        ma, mb = statistics.median(va), statistics.median(vb)
        change = f"{mb / ma - 1:+.2%}" if ma else "n/a"
        print(f"{name}: {ma:.6g} -> {mb:.6g} {a[0]['metrics'][name]['unit']}"
              f" ({change}; n={len(va)}/{len(vb)})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", help=" | ".join(WORKLOADS + ["all"]))
    ap.add_argument("--seed", type=int, default=1,
                    help="workload seed (default 1)")
    ap.add_argument("--seconds", type=float, default=10,
                    help="measured host seconds per run (default 10)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1 = traced run, per-layer metrics")
    ap.add_argument("--out", help="append each result record to this file")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    args = ap.parse_args()

    if args.compare:
        compare(*args.compare)
        return
    if args.selftest:
        sys.exit(subprocess.run([build("sim"), "--selftest"]).returncode)
    if args.workload not in WORKLOADS + ["all"]:
        fail(f"unknown workload {args.workload!r}", 2)
    if args.seed < 0:
        fail("--seed must be non-negative", 2)
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)

    specs = metric_specs()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    attempted = failed = 0
    result_metrics = {}
    for name in names:
        stamp, runs, hosts, metrics = measure(name, args.seed, args.seconds,
                                              args.trace, specs)
        a, f = print_block(name, stamp, runs, hosts, metrics)
        attempted += a
        failed += f
        if args.out:
            with open(args.out, "a") as out:
                out.write(json.dumps({"stamp": stamp, "trace": args.trace,
                                      "attempted": a, "failed": f,
                                      "host": hosts,
                                      "metrics": metrics}) + "\n")
        for key, m in metrics.items():
            result_metrics[key if len(names) == 1 else f"{name}.{key}"] = m
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))


if __name__ == "__main__":
    main()
