#!/usr/bin/env python3
"""esamr benchmark: four paper workloads, end-to-end and per-layer metrics.

Run from the root of a source tree:

    python3 perfbench/run.py --workload fractal_adapt --seed 1 --seconds 10 --trace 0

The script builds perfbench/ (CMake, into .bench_build/), runs the workload
as one process of P rank threads, checks every op, and prints a host
fingerprint, per-metric detail lines and, as its last line, one JSON object
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 they are the per-layer ones, taken from a
separate traced run. README.md describes the workloads and the metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("fractal_adapt", "front_adapt", "seismic_wave", "mantle_stokes")
# Ops per untraced/traced block: front_adapt alternates blocks of one
# checkpoint period, so each block holds one full anchor.
BLOCK = {"fractal_adapt": 1, "front_adapt": 8, "seismic_wave": 1, "mantle_stokes": 1}
DEFAULT_RANKS = 4
# Set-ups per run; setup_s is their median. The cheap set-ups get more
# repetitions; mantle's set-up is a whole warm-up solve, so it gets fewer.
SETUP_REPS = {"fractal_adapt": 5, "front_adapt": 9, "seismic_wave": 9, "mantle_stokes": 3}

# Flags that select an oracle or another code path: a run with any of them
# set would measure a different program.
REFUSED_ENV = ("ESAMR_BALANCE_REFERENCE", "ESAMR_BALANCE_PARANOID", "ESAMR_NODES_REFERENCE",
               "ESAMR_COMM_BACKEND", "ESAMR_CHECK", "ESAMR_INTEGRITY", "ESAMR_DELTA_THRESHOLD")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def steal_ticks():
    """(steal, total) CPU ticks from /proc/stat, or None off Linux. Time the
    hypervisor gave this machine's CPUs to other guests stalls synchronized
    ranks, so op_s reads high while the steal share is high."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def refuse_env():
    for name in REFUSED_ENV:
        if name in os.environ:
            fail(f"refusing to run with {name} set: it selects another code path")
    if os.environ.get("ESAMR_INCR", "1") == "0":
        fail("refusing to run with ESAMR_INCR=0: it disables the incremental paths")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = (ROOT / base).resolve()
    if ROOT.resolve() not in path.parents and path != ROOT.resolve():
        fail(f"build directory {path} is outside the source tree")
    return path


def build(bdir, jobs):
    """Configure once, then build; an up-to-date build returns quickly."""
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    cmake_bin = bdir / "cmake"
    steps = []
    if not (cmake_bin / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_bin),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(cmake_bin), "-j", str(jobs)])
    # The compiler's temporary files stay inside the build directory too.
    tmp = bdir / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(log, "w") as out:
        for cmd in steps:
            try:
                r = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT, env=env,
                                   timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out", 3)
            if r.returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build step failed: {' '.join(cmd)}", 3)
    exe = cmake_bin / "perfbench"
    if not exe.exists():
        fail("build produced no perfbench binary", 3)
    return exe


def run_binary(exe, workload, seed, seconds, ranks, trace, setup_reps, min_ops, scratch):
    scratch.mkdir(parents=True, exist_ok=True)
    out = scratch / f"{workload}.result.json"
    trace_out = scratch / f"{workload}.trace.json"
    for p in (out, trace_out):
        if p.exists():
            p.unlink()
    cmd = [str(exe), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--ranks", str(ranks), "--setup-reps", str(setup_reps), "--min-ops", str(min_ops),
           "--trace", "1" if trace else "0", "--out", str(out), "--scratch", str(scratch)]
    if trace:
        cmd += ["--trace-out", str(trace_out)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    if r.returncode != 0 or not out.exists():
        sys.stderr.write(r.stdout[-2000:] + r.stderr[-2000:])
        fail(f"{workload} exited with code {r.returncode}", 4)
    res = json.loads(out.read_text())
    if trace:
        res["trace_file"] = str(trace_out)
        res["spans"] = [e for e in json.loads(trace_out.read_text())["traceEvents"]
                        if e.get("ph") == "X"]
    return res


# ---------------------------------------------------------------------------
# Statistics.

def summary(values):
    """Median, quartiles, the highest percentile with >= 10 samples beyond
    it, and the sample count."""
    v = sorted(values)
    n = len(v)
    out = {"n": n, "median": statistics.median(v)}
    if n >= 2:
        q = statistics.quantiles(v, n=4)
        out["q1"], out["q3"] = q[0], q[2]
    else:
        out["q1"] = out["q3"] = v[0]
    pct = int(100 * (1 - 10 / n)) if n > 10 else 0
    if pct > 50:
        out[f"p{pct}"] = v[min(n - 1, int(round(pct / 100 * (n - 1))))]
    return out


def median(values, default=None):
    values = list(values)
    return statistics.median(values) if values else default


def verdict(res):
    ops = res["ops"]
    attempted = len(ops)
    failed = sum(1 for o in ops if not o[2])
    if res["failures"] and failed == 0:
        failed = 1
    return attempted, failed


# ---------------------------------------------------------------------------
# End-to-end metrics (untraced run).

def end_to_end(res):
    ops = [o for o in res["ops"] if not o[3]]
    timings = {
        "setup_s": res["setup_s"],
        "op_s": [o[0] for o in ops],
        "op_busy_s": [o[1] for o in ops],
    }
    detail = {k: summary(v) for k, v in timings.items()}
    metrics = {k: {"value": detail[k]["median"], "unit": "s"} for k in timings}
    metrics["peak_rss_mb"] = {"value": res["peak_rss_mb"], "unit": "MB"}
    attempted, failed = verdict(res)
    detail["fail_frac"] = failed / attempted
    return metrics, detail


# ---------------------------------------------------------------------------
# Per-layer metrics (traced run).

class Trace:
    """Spans of one traced run, grouped per (op, name) and per rank."""

    def __init__(self, spans):
        self.spans = spans
        self.by_op = {}
        for s in spans:
            a = s["args"]
            self.by_op.setdefault(a["op"], {}).setdefault(s["name"], {}).setdefault(
                s["tid"], []).append(s)

    def per_op(self, name, value, over_ranks):
        """Per op holding `name`: value() summed over the rank's spans, then
        reduced over ranks with over_ranks (max or sum)."""
        out = []
        for names in self.by_op.values():
            ranks = names.get(name)
            if ranks:
                out.append(over_ranks(sum(value(s) for s in ss) for ss in ranks.values()))
        return out

    def busy_s(self, name):
        return median(self.per_op(name, lambda s: s["args"]["cpu_us"] * 1e-6, max))

    def wall_s(self, name):
        return median(self.per_op(name, lambda s: s["dur"] * 1e-6, max))

    def count(self, name, key, over_ranks=sum):
        return median(self.per_op(name, lambda s: s["args"].get(key, 0), over_ranks))

    def coverage(self):
        """Share of op-span wall time covered by the op's child layer spans."""
        ops = {(s["tid"], s["args"]["id"]): s for s in self.spans if s["name"] == "op"}
        covered = sum(s["dur"] for s in self.spans
                      if (s["tid"], s["args"]["parent"]) in ops)
        total = sum(s["dur"] for s in ops.values())
        return covered / total if total else 0.0

    def self_times(self):
        """Per span name: count, wall, self wall, self CPU (seconds)."""
        child_wall, child_cpu = {}, {}
        for s in self.spans:
            key = (s["tid"], s["args"]["parent"])
            child_wall[key] = child_wall.get(key, 0.0) + s["dur"]
            child_cpu[key] = child_cpu.get(key, 0.0) + s["args"]["cpu_us"]
        table = {}
        for s in self.spans:
            key = (s["tid"], s["args"]["id"])
            row = table.setdefault(s["name"], [0, 0.0, 0.0, 0.0])
            row[0] += 1
            row[1] += s["dur"] * 1e-6
            row[2] += (s["dur"] - child_wall.get(key, 0.0)) * 1e-6
            row[3] += (s["args"]["cpu_us"] - child_cpu.get(key, 0.0)) * 1e-6
        return table


def layer_metrics(workload, res):
    """Per-layer metrics of one workload's traced run: {name: (value, unit)}."""
    tr = Trace(res["spans"])
    p = res["ranks"]
    info = res["info"]
    vals = res["values"]
    m = {}
    if workload == "fractal_adapt":
        for call in ("refine", "partition", "balance", "ghost", "nodes"):
            m[f"forest.{call}.busy_s"] = (tr.busy_s(f"forest.{call}"), "s")
        moct_per_rank = info["octants"] / p / 1e6
        for call in ("balance", "nodes"):
            m[f"forest.{call}.norm_s"] = (m[f"forest.{call}.busy_s"][0] / moct_per_rank, "s/Moct")
        m["forest.balance.octants_sent"] = (tr.count("forest.balance", "balance_octants_sent"), "count")
        m["forest.balance.rounds"] = (tr.count("forest.balance", "balance_rounds", max), "count")
        m["forest.ghost.octants_sent"] = (tr.count("forest.ghost", "ghost_octants_sent"), "count")
        m["forest.nodes.requests_sent"] = (tr.count("forest.nodes", "nodes_requests_sent"), "count")
        m["forest.nodes.rounds"] = (tr.count("forest.nodes", "nodes_rounds", max), "count")
        for call in ("ghost", "nodes"):
            m[f"par.{call}.msgs"] = (tr.count(f"forest.{call}", "msgs"), "count")
            m[f"par.{call}.bytes"] = (tr.count(f"forest.{call}", "bytes"), "B")
    elif workload == "front_adapt":
        for call in ("balance_incr", "ghost_incr", "nodes_incr"):
            m[f"forest.{call}.busy_s"] = (tr.busy_s(f"forest.{call}"), "s")
        m["forest.delta.octants"] = (tr.count("forest.balance_incr", "delta_octants"), "count")
        patched = sum(s["args"].get("nodes_patched", 0) for s in tr.spans
                      if s["name"] == "forest.nodes_incr")
        reused = sum(s["args"].get("nodes_reused", 0) for s in tr.spans
                     if s["name"] == "forest.nodes_incr")
        m["forest.nodes_incr.patch_ratio"] = (patched / max(1, patched + reused), "ratio")
        nbytes = {}
        for kind, flag in (("delta", 1.0), ("full", 0.0)):
            nbytes[kind] = median(v["ckpt_bytes"] for v in vals
                                  if v.get("ckpt_delta") == flag)
            m[f"resil.ckpt_{kind}.wall_s"] = (tr.wall_s(f"resil.ckpt_{kind}"), "s")
            m[f"resil.ckpt_{kind}.bytes"] = (nbytes[kind], "B")
        m["resil.delta_ratio"] = (nbytes["delta"] / nbytes["full"], "ratio")
    elif workload == "seismic_wave":
        busy = tr.busy_s("sfem.step")
        m["sfem.step.busy_s"] = (busy, "s")
        m["sfem.step.us_per_elem"] = (1e6 * busy / (info["elements"] / p), "us/elem")
        m["sfem.step.gflops"] = (info["flops_per_step"] / tr.wall_s("sfem.step") / 1e9, "GFlop/s")
        m["sfem.mesh.busy_s"] = (info["mesh_busy_s"], "s")
        m["sfem.transfer.busy_s"] = (info["transfer_busy_s"], "s")
        m["par.halo.msgs"] = (tr.count("sfem.step", "msgs"), "count")
        m["par.halo.bytes"] = (tr.count("sfem.step", "bytes"), "B")
        m["par.halo.blocked_s"] = (tr.count("sfem.step", "blocked_s"), "s")
        m["par.halo.wall_s"] = (tr.wall_s("par.halo"), "s")
    elif workload == "mantle_stokes":
        m["par.solve.msgs"] = (tr.count("apps.mantle.run", "msgs"), "count")
        m["par.solve.blocked_s"] = (tr.count("apps.mantle.run", "blocked_s"), "s")
        m["solver.minres.iters"] = (median(v["minres_iters"] for v in vals), "count")
        m["solver.solve.busy_s"] = (median(v["solve_busy_s"] for v in vals), "s")
        m["solver.vcycle.busy_s"] = (median(v["vcycle_busy_s"] for v in vals), "s")
        m["apps.mantle.amr.busy_s"] = (median(v["amr_busy_s"] for v in vals), "s")
    missing = [k for k, (v, _) in m.items() if v is None]
    if missing:
        fail(f"{workload}: traced run produced no samples for {', '.join(missing)}", 5)
    return m


def overhead(res):
    """Traced minus untraced median op wall time within one traced run."""
    traced = [o[0] for o in res["ops"] if o[3]]
    plain = [o[0] for o in res["ops"] if not o[3]]
    return statistics.median(traced) - statistics.median(plain), statistics.median(plain)


def print_self_times(workload, tr, op_total):
    print(f"self time per layer, {workload} (all ranks, traced ops):")
    print(f"  {'span':<22} {'count':>7} {'wall_s':>10} {'self_wall_s':>12} "
          f"{'self_cpu_s':>11} {'self/op':>8}")
    rows = sorted(tr.self_times().items(), key=lambda kv: -kv[1][2])
    for name, (n, wall, self_wall, self_cpu) in rows:
        share = self_wall / op_total if op_total else 0.0
        print(f"  {name:<22} {n:>7} {wall:>10.4f} {self_wall:>12.4f} {self_cpu:>11.4f} "
              f"{share:>8.1%}")


# ---------------------------------------------------------------------------
# Fingerprint.

def fingerprint(ranks, res):
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "nproc": usable_cpus(),
        "ranks": ranks,
        "compiler": res.get("compiler"),
        "build_type": res.get("build_type"),
        "git_sha": sha or None,
        "src_sha256": digest.hexdigest()[:16],
        "esamr_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("ESAMR_")},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ranks", type=int, default=None,
                    help=f"rank threads (default: min({DEFAULT_RANKS}, usable CPUs))")
    args = ap.parse_args()

    if not (ROOT / "src" / "par" / "comm.h").exists():
        fail(f"no esamr sources under {ROOT / 'src'}; run from a full source tree")
    refuse_env()
    nproc = usable_cpus()
    ranks = args.ranks if args.ranks is not None else min(DEFAULT_RANKS, nproc)
    if ranks < 1 or ranks > nproc:
        fail(f"refusing {ranks} ranks on {nproc} usable CPUs: one rank per core")
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    bdir = build_dir()
    exe = build(bdir, min(nproc, 4))
    scratch = bdir / "run"
    start = time.monotonic()
    steal0 = steal_ticks()

    if not args.trace:
        res = run_binary(exe, args.workload, args.seed, args.seconds, ranks, False,
                         SETUP_REPS[args.workload],
                         1, scratch)
        metrics, detail = end_to_end(res)
        attempted, failed = verdict(res)
        runs = {args.workload: res}
    else:
        # The named workload is traced for --seconds; every other workload
        # gets one short traced pass so that each per-layer metric is
        # measured on the workload it belongs to in every traced run.
        runs = {}
        for w in (args.workload,) + tuple(x for x in WORKLOADS if x != args.workload):
            main_pass = w == args.workload
            runs[w] = run_binary(exe, w, args.seed, args.seconds if main_pass else 0.001, ranks,
                                 True, SETUP_REPS[w] if main_pass else 1, 2 * BLOCK[w], scratch)
        metrics, detail = {}, {}
        for w, res in runs.items():
            for name, (value, unit) in layer_metrics(w, res).items():
                metrics[name] = {"value": value, "unit": unit}
        res = runs[args.workload]
        over, plain = overhead(res)
        tr = Trace(res["spans"])
        metrics["trace.overhead_s"] = {"value": over, "unit": "s"}
        metrics["trace.span_coverage"] = {"value": tr.coverage(), "unit": "ratio"}
        detail["trace_overhead_frac"] = over / plain
        attempted = sum(verdict(r)[0] for r in runs.values())
        failed = sum(verdict(r)[1] for r in runs.values())
        op_total = sum(s["dur"] * 1e-6 for s in tr.spans if s["name"] == "op")
        print_self_times(args.workload, tr, op_total)
        print(f"trace file: {res['trace_file']}")

    steal1 = steal_ticks()
    if steal0 and steal1 and steal1[1] > steal0[1]:
        detail["host_steal_frac"] = (steal1[0] - steal0[0]) / (steal1[1] - steal0[1])
    res = runs[args.workload]
    print("fingerprint: " + json.dumps(fingerprint(ranks, res), sort_keys=True))
    print("info: " + json.dumps({w: r["info"] for w, r in runs.items()}, sort_keys=True))
    for name, d in detail.items():
        print(f"detail {name}: {json.dumps(d, sort_keys=True)}")
    for w, r in runs.items():
        for msg in r["failures"]:
            print(f"FAILED {w}: {msg}")
    print(f"wall: {time.monotonic() - start:.1f} s")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
