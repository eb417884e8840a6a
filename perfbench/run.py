#!/usr/bin/env python3
"""Live training-epoch benchmark for HVAC.

Stands up one HVAC node (pb_server: NodeRuntime over a GPFS-like
PfsBackend) and drives it from a loader process that reads through
libhvac_intercept.so, as an unmodified trainer does. Prints every
end-to-end metric of one workload, or with --trace 1 the per-layer
metrics, and as its last line one JSON object:

    python3 perfbench/run.py --workload warm_small --seed 1 \
        --seconds 10 --trace 0

Run from the root of a checkout; builds perfbench/ (and the HVAC
libraries it needs from src/) into .bench_build/perfbench first. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS = os.path.join(ROOT, ".bench_run")
TRAJECTORY = os.path.join(ROOT, ".bench_build", "trajectory.jsonl")
BUILD_TYPE = "RelWithDebInfo"

MIB = 1024 * 1024

# The dataset: FILES loose ImageNet-style files, log-normal around
# 24 KiB (pb_probe gen). Every timed epoch reads all of them once in a
# fresh shuffled order, closed loop with no modelled compute
# (pipeline.h).
FILES = 4096
# Workload -> whether set-up packs the tree with storage::pack_tree.
PACKED = {"warm_small": False, "warm_packed": True}

EPOCHS = 64          # shuffled orders generated; order 0 is the warm-up's
MIN_EPOCHS = 3       # timed epochs in a run, however short its seconds
CKPT_LOADERS = 12    # loader processes saving checkpoints after the epochs
SAVES_PER_LOADER = 2  # pb_loader's kSaves
PFS_EPOCHS = 3       # direct-PFS epochs; speedup_vs_pfs uses their median
SETUPS = 3           # set-ups per run; setup_s is their median
LADDER_SAMPLES = 1024  # timed samples per rung (p99 has ten beyond it)
LADDER_WARM = 16      # untimed samples first in each ladder process
TRACE_PAIRS = 3       # untraced/traced epoch pairs in a traced run
PROBE_WRITE_BYTES = 4 * MIB  # one HvacClient::write in pb_probe ladder
QUIET_STEAL = 0.02   # host steal under which the gate lets an epoch start
GATE_PROBE_S = 0.2   # one steal probe
GATE_BUDGET_S = 15   # most a run waits in the gate, over all its epochs

def log(msg):
    print(msg, flush=True)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def pct(xs, q):
    """Nearest-rank percentile, q in [0, 100]."""
    if not xs:
        return 0.0
    s = sorted(xs)
    return s[min(len(s) - 1, max(0, int(round(q / 100.0 * len(s) + 0.5)) - 1))]


def tail(epochs, q):
    """Read latency at percentile q: per epoch when every epoch has ten
    samples beyond it, median over epochs, so one disturbed epoch does
    not set it; else over all epochs' samples."""
    if all(len(e["read_us"]) * (100 - q) >= 1000 for e in epochs):
        return median([pct(e["read_us"], q) for e in epochs])
    return pct([x for e in epochs for x in e["read_us"]], q)


def cpu_ticks(cpus):
    """(steal, total) jiffies over `cpus`, from /proc/stat; zeros where
    the kernel does not report steal."""
    steal = total = 0
    try:
        with open("/proc/stat") as f:
            for line in f:
                if line.startswith("cpu") and line[3].isdigit():
                    fields = line.split()
                    if int(fields[0][3:]) in cpus:
                        v = [int(x) for x in fields[1:]]
                        steal += v[7] if len(v) > 7 else 0
                        total += sum(v)
    except OSError:
        pass
    return steal, total


def ratio(a, b):
    return a / b if b else 0.0


def host_steal(cpus, seconds):
    """Share of CPU time the hypervisor took from `cpus` while one child
    process per CPU spun for `seconds`. A virtual CPU only shows steal
    while it has work, so the probe keeps every CPU busy; it runs no
    HVAC code."""
    s0, t0 = cpu_ticks(cpus)
    pids = []
    for cpu in cpus:
        pid = os.fork()
        if pid == 0:
            try:
                os.sched_setaffinity(0, [cpu])
                end = time.monotonic() + seconds
                while time.monotonic() < end:
                    pass
            finally:
                os._exit(0)
        pids.append(pid)
    for pid in pids:
        os.waitpid(pid, 0)
    s1, t1 = cpu_ticks(cpus)
    return ratio(s1 - s0, t1 - t0)


# ---- build ------------------------------------------------------------------

def build():
    """Configures and builds the package; a no-op when up to date."""
    if not os.path.exists(os.path.join(ROOT, "src", "server", "node_runtime.h")):
        raise SystemExit("perfbench: HVAC sources (src/) not found next to "
                         "perfbench/; run from the root of a checkout")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            raise SystemExit("perfbench: build failed")


def bin_path(name):
    return os.path.join(BUILD, name)


SHIM = os.path.join(BUILD, "hvac", "intercept", "libhvac_intercept.so")


# ---- host shape ---------------------------------------------------------------

def source_digest():
    """git sha when the checkout is a repository, else a digest of the
    sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha1()
    for base in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, base))):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "src-" + h.hexdigest()[:16]


def host_shape(seed):
    """The server (one reactor) and the loader or probe share one CPU:
    the second allowed one, away from the first CPU's interrupt work, or
    the only one. On one CPU a hand-off between threads is a context
    switch, not a wake-up of another virtual CPU, whose cost on a VM
    moved with the host's load by 2x within an hour; interleaved on a
    4-core VM, this shape spread samples_per_s 0.04 between runs and the
    server-on-one-core, loader-on-three shape 0.07, with
    slowdown_vs_local 0.03 against 0.61."""
    cpus = sorted(os.sched_getaffinity(0))
    cpu = cpus[1] if len(cpus) > 1 else cpus[0]
    return {
        "nproc": len(cpus),
        "instances": 1,
        "reactors": 1,
        "movers": 8,
        "handlers": 2,
        "pinning": "server+loader:%d" % cpu,
        "cpu": cpu,
        "build_type": BUILD_TYPE,
        "source": source_digest(),
        "seed": seed,
    }


# ---- processes ----------------------------------------------------------------

class Server:
    """pb_server driven over its stdin/stdout line protocol."""

    def __init__(self, shape, work):
        self.shape = shape
        self.work = work
        self.proc = subprocess.Popen(
            [bin_path("pb_server")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
            preexec_fn=lambda: os.sched_setaffinity(0, [shape["cpu"]]))
        self.endpoints = None
        self.generation = 0

    def cmd(self, line):
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        out = self.proc.stdout.readline().strip()
        if not out or out.startswith("error"):
            raise RuntimeError("pb_server: %r -> %r" % (line, out))
        return out

    def start(self, pfs):
        """Fresh runtime over an empty cache directory."""
        self.generation += 1
        cache = os.path.join(self.work, "cache%d" % self.generation)
        s = self.shape
        out = self.cmd("start %s %s %d %d %d %d" % (
            pfs, cache, s["instances"], s["reactors"], s["movers"],
            s["handlers"]))
        self.endpoints = out.split()[1]
        self.cache = cache

    def stop(self):
        self.cmd("stop")
        shutil.rmtree(self.cache, ignore_errors=True)

    def stats(self):
        path = os.path.join(self.work, "server_stats.json")
        self.cmd("stats " + path)
        with open(path) as f:
            return json.load(f)

    def cachepath(self, logical):
        path, base = self.cmd("cachepath " + logical).split()
        return path, int(base)

    def peak_rss_mib(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def close(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.flush()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()


def run_proc(argv, shape, env=None, timeout=150):
    r = subprocess.run(argv, env=env, timeout=timeout, capture_output=True,
                       text=True,
                       preexec_fn=lambda: os.sched_setaffinity(
                           0, [shape["cpu"]]))
    if r.returncode != 0:
        raise RuntimeError("%s exited %d: %s" % (
            os.path.basename(argv[0]), r.returncode, r.stderr[-2000:]))


class Run:
    """One benchmark run: dataset, server, epochs and their records."""

    def __init__(self, workload, seed, seconds, trace):
        self.name = workload
        self.packed = PACKED[workload]
        self.files = FILES
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.shape = host_shape(seed)
        self.work = os.path.join(RUNS, "%s-%d-%d" % (workload, seed, os.getpid()))
        self.pfs = os.path.join(self.work, "pfs")
        self.local = os.path.join(self.work, "local")
        self.meta = os.path.join(self.work, "meta")
        self.manifest = os.path.join(self.meta, "manifest.txt")
        self.server = None
        self.attempted = 0
        self.failed = 0
        self.n_loader = 0
        self.gate_s = 0.0
        self.gate_waits = 0

    # -- dataset -----------------------------------------------------------

    def generate(self, epochs):
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.meta)
        run_proc([bin_path("pb_probe"), "gen", self.pfs, self.local,
                  str(self.seed), str(epochs), self.meta, str(self.files)],
                 self.shape)
        os.makedirs(os.path.join(self.pfs, "checkpoints"))
        with open(self.manifest) as f:
            self.samples = [line.split() for line in f]
        self.dataset_bytes = sum(int(s[1]) for s in self.samples)

    def order(self, epoch):
        return os.path.join(self.meta, "order_%d.txt" % epoch)

    def plan(self, epoch):
        """HVAC_PREFETCH_PLAN file: dataset paths in the epoch's order."""
        path = os.path.join(self.meta, "plan_%d.txt" % epoch)
        if not os.path.exists(path):
            with open(self.order(epoch)) as f, open(path, "w") as out:
                for line in f:
                    out.write(self.samples[int(line)][0] + "\n")
        return path

    def pack(self):
        shutil.rmtree(os.path.join(self.pfs, ".hvacpack"), ignore_errors=True)
        run_proc([bin_path("pb_probe"), "pack", self.pfs], self.shape)

    # -- loader --------------------------------------------------------------

    def loader(self, extra, hvac=True, env_extra=None):
        """Runs pb_loader once; returns its JSON and the shim's stats.
        Without `hvac` it runs on plain libc: no shim, no HVAC variables."""
        self.n_loader += 1
        out = os.path.join(self.work, "loader_%d.json" % self.n_loader)
        stats = os.path.join(self.work, "shim_%d.json" % self.n_loader)
        env = dict(os.environ)
        if hvac:
            env.update({"LD_PRELOAD": SHIM, "HVAC_DATASET_DIR": self.pfs,
                        "HVAC_SERVERS": self.server.endpoints,
                        "HVAC_STATS_FILE": stats})
            env.update(env_extra or {})
        else:
            env = {k: v for k, v in env.items()
                   if k != "LD_PRELOAD" and not k.startswith("HVAC_")}
        argv = [bin_path("pb_loader"), "--manifest", self.manifest,
                "--root", self.pfs if hvac else self.local, "--out", out] + extra
        cpus = {self.shape["cpu"]}
        steal0, total0 = cpu_ticks(cpus)
        run_proc(argv, self.shape, env)
        steal1, total1 = cpu_ticks(cpus)
        with open(out) as f:
            res = json.load(f)
        res["steal"] = ratio(steal1 - steal0, total1 - total0)
        shim = None
        if hvac and os.path.exists(stats):
            with open(stats) as f:
                shim = json.load(f)
        return res, shim

    def ckpt_args(self):
        return ["--ckpt", os.path.join(self.pfs, "checkpoints", "last.pt"),
                # Unique per loader process, so no save's tag repeats.
                "--ckpt-tag", str((self.seed << 40) | (self.n_loader + 1) << 20)]

    def count_epoch(self, e):
        self.attempted += int(e["samples"])
        self.failed += int(e["failed"])
        for p in e["failures"]:
            log("  byte oracle: wrong or missing bytes for %s" % p)

    def count_saves(self, c):
        self.attempted += len(c["ok"])
        for i, ok in enumerate(c["ok"]):
            if not ok:
                self.failed += 1
                log("  checkpoint save %d failed (save %.1f ms)" % (
                    i, c["save_ms"][i]))

    def hvac_epoch(self, epoch, spans=None):
        extra = ["--order", self.order(epoch)]
        if spans:
            extra += ["--spans", spans]
        res, shim = self.loader(extra)
        self.count_epoch(res["epoch"])
        return res, shim

    def local_epoch(self, epoch):
        res, _ = self.loader(["--order", self.order(epoch)], hvac=False)
        self.count_epoch(res["epoch"])
        return res

    # -- phases ----------------------------------------------------------------

    def setup_once(self):
        """Seconds from pack_tree (warm_packed) and server start until the
        warm-up epoch has read the whole dataset through the shim."""
        t0 = time.monotonic()
        if self.packed:
            self.pack()
        self.server.start(self.pfs)
        # Warm-up epoch through the shim. The plan lets the prefetch
        # scheduler fetch ahead on every mover instead of one open at a
        # time.
        res, self.warmup_shim = self.loader(
            ["--order", self.order(0)],
            env_extra={"HVAC_PREFETCH_PLAN": self.plan(0)})
        self.count_epoch(res["epoch"])
        elapsed = time.monotonic() - t0
        self.warmup_pfs_bytes = self.server.stats()["pfs"]["bytes_read"]
        return elapsed

    def gate(self):
        """Delays the next measured step while the host is busy.

        On a virtual machine the hypervisor can take a CPU away from a
        ready thread ("steal"). Bursts of it last seconds to minutes and
        stall reads for milliseconds. Before each set-up, timed epoch
        pair, checkpoint group and direct-PFS epoch, a probe that runs
        no HVAC code spins on every allowed CPU; while it
        sees more than QUIET_STEAL, the gate waits and probes again,
        until the run has waited GATE_BUDGET_S in all. The program under
        test is idle during the probe; no step is dropped, and the
        seconds of timed epochs are the same either way."""
        cpus = sorted(os.sched_getaffinity(0))
        while True:
            t0 = time.monotonic()
            steal = host_steal(cpus, GATE_PROBE_S)
            if steal <= QUIET_STEAL or self.gate_s >= GATE_BUDGET_S:
                return
            time.sleep(0.3)
            self.gate_s += time.monotonic() - t0
            self.gate_waits += 1

    def run(self):
        self.generate(EPOCHS)
        # The tree's dirty pages go to disk before set-up starts.
        os.sync()
        self.server = Server(self.shape, self.work)
        try:
            return self._run()
        finally:
            self.server.close()
            shutil.rmtree(self.work, ignore_errors=True)

    def _run(self):
        setups = []
        for i in range(SETUPS):
            if i:
                self.server.stop()
                # Each set-up starts with no dirty pages, as the first
                # does after the dataset was written.
                os.sync()
            self.gate()
            setups.append(self.setup_once())
        before = self.server.stats()
        # Write back set-up's dirty pages now rather than under the timed
        # epochs.
        os.sync()

        # Every epoch is measured: HVAC and local-copy epochs alternate,
        # on the same order each, until they have taken the run's
        # seconds. Time in the gate does not count.
        hvac, local, shims = [], [], []
        timed_s = 0.0
        epoch = 1
        while epoch < EPOCHS - 1 and (epoch <= MIN_EPOCHS
                                      or timed_s < self.seconds):
            self.gate()
            t0 = time.monotonic()
            res, shim = self.hvac_epoch(epoch)
            hvac.append(res)
            shims.append(shim)
            local.append(self.local_epoch(epoch))
            timed_s += time.monotonic() - t0
            epoch += 1
        after = self.server.stats()
        # The traced phase goes first: its epochs should not follow the
        # checkpoint saves' disk writes.
        traced = self.traced_phase(epoch) if self.trace else None
        # Checkpoint saves after the timed epochs, as a trainer saves at
        # the end of training; their disk writes stay out of the read
        # epochs. The gate keeps one group's writes from slowing the
        # next, as saves minutes apart in training do not.
        saves = []
        for _ in range(CKPT_LOADERS):
            self.gate()
            res, _ = self.loader(self.ckpt_args())
            self.count_saves(res["ckpt"])
            saves.append(res["ckpt"])
        self.server_rss_mib = self.server.peak_rss_mib()

        # Direct-PFS epochs on the first timed orders, same loop.
        pfs_epochs = []
        for e in range(1, PFS_EPOCHS + 1):
            self.gate()
            out = os.path.join(self.work, "pfs_epoch.json")
            run_proc([bin_path("pb_probe"), "pfs-epoch", self.pfs,
                      self.manifest, self.order(e), out], self.shape)
            with open(out) as f:
                pfs_epochs.append(json.load(f))
            self.count_epoch(pfs_epochs[-1])

        if traced:
            traced["final"] = self.server.stats()
        return self.report(setups, before, after, hvac, local, shims, saves,
                           pfs_epochs, traced)

    def traced_phase(self, epoch):
        """Per-layer numbers: traced epochs alternating with untraced
        ones, the latency ladder and the single-layer probes."""
        t = {"untraced_sps": [], "traced_sps": []}
        spans = os.path.join(self.work, "spans.txt")
        for k in range(2 * TRACE_PAIRS):
            traced = k % 2 == 1
            res, _ = self.hvac_epoch(epoch, spans=spans if traced else None)
            e = res["epoch"]
            t["traced_sps" if traced else "untraced_sps"].append(
                e["samples"] / e["wall_s"])

        # Ladder samples: the head of the epoch's order, all cached now;
        # the next few warm each process up untimed.
        with open(self.order(epoch)) as f:
            order = [int(x) for x in f.read().split()]
        n = min(LADDER_SAMPLES, len(order) - LADDER_WARM)
        idx, warm = order[:n], order[n:n + LADDER_WARM]
        idx_file = os.path.join(self.meta, "ladder.txt")
        warm_file = os.path.join(self.meta, "ladder_warm.txt")
        phys_file = os.path.join(self.meta, "ladder_phys.txt")
        for path, items in ((idx_file, idx), (warm_file, warm)):
            with open(path, "w") as f:
                f.write("\n".join(map(str, items)) + "\n")
        with open(phys_file, "w") as f:
            for i in idx:
                path, base = self.server.cachepath(self.samples[i][0])
                f.write("%s %d\n" % (path, base))
        ladder_out = os.path.join(self.work, "ladder.json")
        run_proc([bin_path("pb_probe"), "ladder", self.server.endpoints,
                  self.pfs, self.manifest, idx_file, warm_file, phys_file,
                  ladder_out, spans], self.shape)
        with open(ladder_out) as f:
            t["ladder"] = json.load(f)
        self.attempted += int(t["ladder"]["attempted"])
        self.failed += int(t["ladder"]["failed"])
        res, _ = self.loader(["--ladder", idx_file, "--ladder-warm", warm_file])
        t["rung4"] = res["ladder"]
        self.attempted += len(idx) + len(warm)
        self.failed += int(res["ladder"]["failed"])
        t["server"] = self.server.stats()

        layers_out = os.path.join(self.work, "layers.json")
        run_proc([bin_path("pb_probe"), "layers", self.pfs, self.manifest,
                  idx_file, os.path.join(self.work, "layers"), layers_out,
                  spans], self.shape)
        with open(layers_out) as f:
            t["layers"] = json.load(f)
        t["spans"] = read_spans(spans)
        return t

    # -- results -------------------------------------------------------------

    def report(self, setups, before, after, hvac, local, shims, saves,
               pfs_epochs, traced):
        for i, (h, l) in enumerate(zip(hvac, local)):
            log("epoch %2d: hvac %.1f samples/s (%.3f s), local %.1f samples/s, "
                "host steal %.1f%%" % (
                    i + 1, h["epoch"]["samples"] / h["epoch"]["wall_s"],
                    h["epoch"]["wall_s"], l["epoch"]["samples"] / l["epoch"]["wall_s"],
                    100 * h["steal"]))
        ep = [h["epoch"] for h in hvac]
        sps = [e["samples"] / e["wall_s"] for e in ep]
        lat = [x for e in ep for x in e["read_us"]]
        slow = [h["epoch"]["wall_s"] / l["epoch"]["wall_s"]
                for h, l in zip(hvac, local)]
        save_ms = [x for c in saves for x in c["save_ms"]]
        lag_ms = [x for c in saves for x in c["lag_ms"]]
        saved = sum(x for c in saves for x in c["bytes"])
        e2e = {
            "samples_per_s": median(sps),
            "read_p50_us": pct(lat, 50),
            "read_p90_us": tail(ep, 90),
            "slowdown_vs_local": median(slow),
            "speedup_vs_pfs": (median([e["wall_s"] for e in pfs_epochs])
                               / median([e["wall_s"] for e in ep])),
            "ckpt_save_p50_ms": median(save_ms),
            "ckpt_write_MBps": ratio(saved / 1e6, sum(save_ms) / 1e3),
            "ckpt_flush_lag_ms": median(lag_ms),
            "setup_s": median(setups),
            "server_rss_mb": self.server_rss_mib,
            "client_rss_mb": median([h["rss_mib"] for h in hvac]),
        }
        log("read latency over all timed epochs: p50 %.1f p90 %.1f p95 %.1f "
            "p99 %.1f us" % tuple(pct(lat, q) for q in (50, 90, 95, 99)))
        log("%s seed %d: %d timed epochs, %d samples read (p99 over %d), "
            "%d checkpoint saves, set-ups %s s" % (
                self.name, self.seed, len(ep), len(lat), len(lat), len(save_ms),
                ", ".join("%.3f" % s for s in setups)))
        log("host gate: waited %.1f s over %d probes (budget %d s)" % (
            self.gate_s, self.gate_waits, GATE_BUDGET_S))
        log("failed_ops_frac %.6f (%d of %d ops)" % (
            ratio(self.failed, self.attempted), self.failed, self.attempted))
        self.saves = saves
        self.read_p95_us = tail(ep, 95)
        self.read_p99_us = tail(ep, 99)
        layers = per_layer(self, before, after, hvac, shims,
                           traced) if traced else None
        return e2e, layers


def read_spans(path):
    spans = []
    if os.path.exists(path):
        with open(path) as f:
            for line in f:
                name, sid, parent, sample, start, end = line.split()
                spans.append((name, int(sid), int(parent), int(sample),
                              int(start), int(end)))
    return spans


def self_times(spans):
    """Self time per span name: duration minus the union of its
    children's intervals, in microseconds."""
    children = {}
    for s in spans:
        if s[2]:
            children.setdefault(s[2], []).append((s[4], s[5]))
    out = {}
    for name, sid, _, _, start, end in spans:
        covered, cursor = 0, start
        for a, b in sorted(children.get(sid, [])):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        out.setdefault(name, []).append((end - start - covered) / 1e3)
    return out


def per_layer(run, before, after, hvac, shims, t):
    fb, fa = before["frame"], after["frame"]
    m = {}

    def put(name, value):
        m[name] = float(value)

    lad = t["ladder"]
    r4 = t["rung4"]
    rungs = {"r0": lad["rung0"], "r2": lad["rung2"], "r3": lad["rung3"], "r4": r4}
    # Every rung reads the same samples in the same order, so the deltas
    # pair them sample by sample.
    for r, d in rungs.items():
        put("ladder.%s_p50_us" % r, pct(d["total_us"], 50))
        put("ladder.%s_p99_us" % r, pct(d["total_us"], 99))
    for hi, lo in (("r2", "r0"), ("r3", "r2"), ("r4", "r3")):
        diffs = [a - b for a, b in zip(rungs[hi]["total_us"], rungs[lo]["total_us"])]
        put("ladder.d_%s_%s_us" % (hi, lo), median(diffs))
    # Rung 1 (the handler in-process) is not public; the server's own
    # handler histograms split rung 2 into handler and transport.
    lat = t["server"]["frame"]["latency_us"]
    handler = sum(lat.get(op, {}).get("p50", 0.0) for op in ("open", "read", "close"))
    put("ladder.r2_handler_us", handler)
    put("ladder.r2_transport_us", pct(lad["rung2"]["total_us"], 50) - handler)

    # storage
    L = t["layers"]
    put("storage.local_read_us", pct(lad["rung0"]["total_us"], 50))
    put("storage.pfs_copy_ms", median(L["pfs_copy_ms"]))
    put("storage.pfs_metadata_ops",
        after["pfs"]["metadata_ops"] - before["pfs"]["metadata_ops"])
    timed_pfs = after["pfs"]["bytes_read"] - before["pfs"]["bytes_read"]
    put("storage.pfs_bytes_read", timed_pfs)
    put("storage.pfs_reads_per_dataset_epoch",
        ratio(timed_pfs, run.dataset_bytes * len(hvac)))
    # The set-up's warm-up epoch is a cold epoch: it should read the
    # dataset from the PFS exactly once.
    put("storage.pfs_reads_per_dataset_warmup",
        ratio(run.warmup_pfs_bytes, run.dataset_bytes))
    put("storage.journal_append_us", median(L["journal_append_us"]))
    put("storage.journal_commit_ms", median(L["journal_commit_ms"]))
    put("storage.journal_bytes_per_user_byte", L["journal_bytes_per_user_byte"])
    # Every checkpoint byte the server took: the loader's saves and the
    # probe's client writes.
    saved = (sum(x for c in run.saves for x in c["bytes"])
             + len(lad["client_write_us"]) * PROBE_WRITE_BYTES)
    put("storage.pfs_bytes_written_per_ckpt_byte",
        ratio(t["final"]["pfs"]["bytes_written"], saved))

    # rpc (rung 2)
    put("rpc.call_us", pct(lad["rung2"]["total_us"], 50))
    put("rpc.call_p99_us", pct(lad["rung2"]["total_us"], 99))
    put("rpc.stat_us", pct(lad["stat_us"], 50))
    put("rpc.call_wait_frac",
        1.0 - ratio(sum(lad["rung2_cpu_us"]), sum(lad["rung2_wall_us"])))
    reactors = fa["reactors"]
    put("rpc.reactor_requests", sum(r["requests"] for r in reactors))
    put("rpc.steals", sum(r["steals"] for r in reactors))
    put("rpc.shed", sum(r["shed"] for r in reactors))
    res = [s["resilience"] for s in shims if s]
    put("rpc.retries", sum(r["retries"] for r in res))
    put("rpc.deadline_misses", sum(r["deadline_misses"] for r in res))

    # server
    srv = t["server"]["frame"]
    for op in ("open", "read", "read_scatter", "close", "write", "fsync"):
        put("server.op_latency_us." + op,
            srv["latency_us"].get(op, {}).get("p50", 0.0))
    hits = fa["cache"]["hits"] - fb["cache"]["hits"]
    misses = fa["cache"]["misses"] - fb["cache"]["misses"]
    put("server.hit_rate", ratio(hits, hits + misses))
    zc = srv["zero_copy"]
    put("server.zc_sendfile_frac", ratio(zc["sendfile_sends"], zc["sendfile_sends"]
                                         + zc["splice_sends"] + zc["fallback_sends"]))
    bp = srv["buffer_pool"]
    put("server.buffer_pool_hit_ratio", ratio(bp["pool_hits"], bp["leases"]))
    put("server.open_fds", srv["open_fds"])

    # core
    put("core.mover_fetch_ms", median(L["mover_fetch_ms"]))
    put("core.dedup_coalesced", srv["prefetch"]["deduped"])
    put("core.flush_lag_ms", median(L["flush_ms"]))
    put("core.flush_retries", srv["write_back"]["flush_retries"])
    put("core.flush_queue_depth",
        max(s["frame"]["write_back"]["flush_queue_depth"]
            for s in (after, t["server"], t["final"])))

    # client (rung 3) and shim counters
    r3, r2 = lad["rung3"], lad["rung2"]
    put("client.open_us", pct(r3["open_us"], 50))
    put("client.read_us", pct(r3["read_us"], 50))
    put("client.self_us", median([a - b for a, b in zip(r3["total_us"], r2["total_us"])]))
    # Counters of the timed epochs; the prefetch ones also count the
    # last set-up's warm-up epoch, the one with a plan on every workload.
    agg = {}
    for s in shims + [run.warmup_shim]:
        if not s:
            continue
        warmup = s is run.warmup_shim
        for sec in ("prefetch",) if warmup else ("meta_cache", "read_ahead",
                                                  "prefetch"):
            for k, v in s[sec].items():
                agg[sec + "." + k] = agg.get(sec + "." + k, 0) + v
        if warmup:
            continue
        for row in s["stall"]["epochs"]:
            for k, v in row.items():
                if k.endswith("_ns"):
                    agg["stall." + k] = agg.get("stall." + k, 0) + v
    put("client.meta_hit_ratio", ratio(agg.get("meta_cache.hits", 0),
                                       agg.get("meta_cache.hits", 0)
                                       + agg.get("meta_cache.misses", 0)))
    put("client.readahead_useful_ratio", ratio(agg.get("read_ahead.consumed", 0),
                                               agg.get("read_ahead.issued", 0)))
    put("client.prefetch_hit_ratio", ratio(agg.get("prefetch.hit_after_prefetch", 0),
                                           agg.get("prefetch.planned", 0)))
    put("client.prefetch_late", agg.get("prefetch.late", 0))
    put("client.prefetch_shed", agg.get("prefetch.shed", 0))
    total = agg.get("stall.total_ns", 0)
    for b in ("local_hit", "remote_rpc", "pfs_wait", "backpressure", "retry"):
        put("client.stall_%s_frac" % b, ratio(agg.get("stall.%s_ns" % b, 0), total))
    put("client.write_us", median(lad["client_write_us"]))
    put("client.fsync_ms", median(lad["client_fsync_ms"]))

    # intercept (rung 4)
    put("intercept.open_us", pct(r4["open_us"], 50))
    put("intercept.read_us", pct(r4["read_us"], 50))
    put("intercept.open_self_us", pct(r4["open_us"], 50) - pct(r3["open_us"], 50))
    put("intercept.read_self_us", pct(r4["read_us"], 50) - pct(r3["read_us"], 50))

    # tracing
    st = self_times(t["spans"])
    put("trace.spans", len(t["spans"]))
    put("trace.overhead_samples_per_s",
        median(t["untraced_sps"]) - median(t["traced_sps"]))
    # Self time of each span name in the traced epochs (2 readers): the
    # sample span's own share is the loader's loop around the calls.
    for name in ("sample", "intercept.open", "intercept.read",
                 "intercept.close", "verify"):
        put("trace.%s_self_us" % name.replace("intercept.", ""),
            median(st.get(name, [])))
    put("epoch.read_p95_us", run.read_p95_us)
    put("epoch.read_p99_us", run.read_p99_us)
    sps = [r["epoch"]["samples"] / r["epoch"]["wall_s"] for r in hvac]
    put("epoch.samples_per_s_cv",
        ratio(statistics.pstdev(sps), statistics.mean(sps)) if sps else 0.0)
    return m


# ---- main ---------------------------------------------------------------------

def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(PACKED))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    spec = load_spec()
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    e2e, layers = run.run()

    if args.trace:
        declared, values = spec["per_layer"], layers
    else:
        declared, values = spec["end_to_end"], e2e
    metrics = {}
    for m in declared:
        name, unit = m["name"], m["unit"]
        value = values[name]
        metrics[name] = {"value": value, "unit": unit}
        log("%-40s %14.6g %s" % (name, value, unit))
    shape = {k: v for k, v in run.shape.items()
             if k != "cpu"}
    log("host shape: " + json.dumps(shape, sort_keys=True))
    os.makedirs(os.path.dirname(TRAJECTORY), exist_ok=True)
    with open(TRAJECTORY, "a") as f:
        f.write(json.dumps({"time": time.time(), "workload": args.workload,
                            "trace": args.trace, "shape": shape,
                            "attempted": run.attempted, "failed": run.failed,
                            "gate_s": run.gate_s,
                            "metrics": metrics}, sort_keys=True) + "\n")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
