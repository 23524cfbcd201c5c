#!/usr/bin/env python3
"""CLI-path benchmark of the depminer workspace.

Times the release `depminer` binary the way a user runs it: one command
at a time, in a closed loop with one client, stdout sent to a file, on a
relation generated from `--seed`. With `--trace 1` it reports instead the
per-layer split that `perfbench/probe` measures in its own process.
perfbench/README.md describes the workloads, metrics and correctness gate.

    python3 perfbench/run.py --workload tall-20x10k --seed 1 --seconds 40 --trace 0

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. If the program cannot be built, the script exits with
code 2 and prints no result.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (|R|, |r|) for the Sec. 5.2 generator at c = 0.5. README.md says why
# each workload exists.
WORKLOADS = {
    "tall-20x10k": (20, 10_000),
    "wide-30x1500": (30, 1_500),
    # Not in BENCHMARK.json: the tiny relation smoke_test.py runs.
    "smoke": (8, 300),
}
CORRELATION = "0.5"
EPSILON = "0.01"
MINERS = ("depminer", "depminer2", "tane", "fdep")
COMMANDS = MINERS + ("approx",)
# A pass runs each entry once, in an order rotated one step per pass, so
# drift during a run lands on every command alike.
PASS = COMMANDS + ("resume",)
MIN_PASSES = 3
# Set-up runs this many times; setup_s is the median.
SETUPS = 5
TRACE_REPS = 15
# The layer-sum check: the separately timed layers must add up to the
# Session time within this share, or within LAYERSUM_SLACK_S on inputs so
# small that fixed costs dominate. The share is as wide as one call's
# variation on a shared 2-CPU host.
LAYERSUM_TOLERANCE = 0.25
LAYERSUM_SLACK_S = 0.005
CHILD_TIMEOUT_S = 170
# No pass starts that could carry the run past this many seconds.
RUN_BUDGET_S = 150

END_TO_END = (
    [("setup_s", "s")]
    + [(f"fds_s.{m}", "s") for m in MINERS]
    + [("approx_s", "s")]
    + [(f"peak_rss_mb.{c}", "MiB") for c in COMMANDS]
    + [("resume_s.tane", "s")]
)
PER_LAYER = (
    [
        ("csv.load_s", "s"),
        ("spdb.build_s", "s"),
        ("agree.couples_s", "s"),
        ("agree.ec_s", "s"),
        ("agree.couples_scanned", "count"),
        ("agree.yield", "ratio"),
        ("maxset.cmax_s", "s"),
        ("transversal.levelwise_s", "s"),
        ("transversal.candidates", "count"),
        ("transversal.yield", "ratio"),
        ("tane.run_db_s", "s"),
        ("tane.partition_products", "count"),
        ("tane.levels", "count"),
        ("approx.mine_s", "s"),
        ("fdep.run_s", "s"),
        ("fdep.negative_cover_size", "count"),
        ("emit.render_s", "s"),
        ("emit.bytes", "B"),
    ]
    + [(f"engine.session_s.{c}", "s") for c in COMMANDS]
    + [(f"cli.residual_s.{c}", "s") for c in COMMANDS]
    + [
        ("govern.deadline_overhead_pct.depminer", "%"),
        ("govern.deadline_overhead_pct.tane", "%"),
        ("snapshot.armed_s.depminer", "s"),
        ("snapshot.armed_s.tane", "s"),
        ("snapshot.armed_s.fdep", "s"),
        ("snapshot.resume_s.tane", "s"),
        ("snapshot.frame_bytes.tane", "B"),
        ("observe.trace_overhead_pct", "%"),
        ("layersum.gap_pct.depminer", "%"),
        ("layersum.gap_pct.tane", "%"),
    ]
)


def build():
    """Builds the release CLI and the probe; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        raise OSError(f"{ROOT} holds no Cargo.toml to build the program from")
    env = dict(os.environ)
    target = os.path.join(ROOT, env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    probe = os.path.join("perfbench", "probe", "Cargo.toml")
    for what in (["--bin", "depminer"], ["--manifest-path", probe]):
        subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", *what],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
            check=True,
        )
    release = os.path.join(target, "release")
    return os.path.join(release, "depminer"), os.path.join(release, "perfbench-probe")


class Run:
    """One run: its scratch files, the binaries, and the tally of operations."""

    def __init__(self, workload, bins):
        self.depminer, self.probe_bin = bins
        self.scratch = os.path.join(ROOT, ".bench_scratch", f"{workload}-{os.getpid()}")
        self.csv = os.path.join(self.scratch, "r.csv")
        self.ckpt = os.path.join(self.scratch, "ckpt")
        self.env = dict(os.environ, DEPMINER_THREADS="1")
        self.attempted = 0
        self.failures = []
        self.ref_body = self.ref_sorted = self.ref_approx = None
        shutil.rmtree(self.scratch, ignore_errors=True)
        os.makedirs(self.scratch)

    def fail(self, message):
        self.failures.append(message)
        print(f"FAILED: {message}", file=sys.stderr)

    def probe(self, *args):
        """Runs the probe and returns the JSON object it prints last. The
        probe and any child it started are killed if they overrun."""
        proc = subprocess.Popen(
            [self.probe_bin, *args],
            env=self.env,
            stdout=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"perfbench-probe {args[0]} exited {proc.returncode}")
        return json.loads(out.decode().splitlines()[-1])

    def child(self, args, out_name, expect=0):
        """One timed `depminer <args>` with stdout in a scratch file. Returns
        (wall s, peak RSS MiB, output path or None after a wrong exit code)."""
        self.attempted += 1
        out = os.path.join(self.scratch, out_name)
        res = self.probe("exec", "--out", out, "--err", out + ".err", "--", self.depminer, *args)
        rss_mib = res["peak_rss_kib"] / 1024
        if res["code"] != expect:
            with open(out + ".err", errors="replace") as err:
                detail = err.read().strip()[-300:]
            self.fail(f"depminer {' '.join(args)} exited {res['code']}, expected {expect}: {detail}")
            return res["wall_s"], rss_mib, None
        return res["wall_s"], rss_mib, out

    def gen(self, attrs, rows, seed):
        """Writes the workload CSV."""
        self.probe("gen", "--attrs", str(attrs), "--rows", str(rows), "--correlation",
                   CORRELATION, "--seed", str(seed), "--out", self.csv)

    def reference(self):
        """Mines the CSV in process and keeps what the gate compares with;
        returns the probe's FD counts."""
        path = os.path.join(self.scratch, "reference.txt")
        ref = self.probe("reference", "--epsilon", EPSILON, "--out", path, self.csv)
        with open(path, "rb") as f:
            self.ref_body = f.read()
        self.ref_approx = ref["approx_fds"]
        return ref

    def check_fds(self, path, what):
        """The gate: the FD lines of `path`, once sorted, must equal the
        reference's."""
        with open(path, "rb") as f:
            data = f.read()
        # Lines equal before sorting are equal after it; sort only when not.
        if data.partition(b"\n")[2] == self.ref_body:
            return
        if self.ref_sorted is None:
            self.ref_sorted = sorted(self.ref_body.splitlines())
        lines = sorted(l for l in data.splitlines() if l and not l.startswith(b"#"))
        if lines != self.ref_sorted:
            self.fail(f"{what}: its {len(lines)} FD lines differ from the "
                      f"{len(self.ref_sorted)} of the in-process Session")

    def op(self, name, check):
        """Runs one pass entry; returns its samples by metric name."""
        if name in MINERS:
            wall, rss, out = self.child(["fds", "--algo", name, self.csv], f"{name}.txt")
            if out and check:
                self.check_fds(out, f"fds --algo {name}")
            return {f"fds_s.{name}": wall, f"peak_rss_mb.{name}": rss}
        if name == "approx":
            wall, rss, out = self.child(["approx", "--epsilon", EPSILON, self.csv], "approx.txt")
            if out and check:
                with open(out, "rb") as f:
                    n = sum(1 for l in f if l.strip() and not l.startswith(b"#"))
                if n != self.ref_approx:
                    self.fail(f"approx printed {n} FDs, approximate_fds finds {self.ref_approx}")
            return {"approx_s": wall, "peak_rss_mb.approx": rss}
        # resume: trip TANE at its first checkpoint, then resume it with a
        # frame written at every boundary.
        shutil.rmtree(self.ckpt, ignore_errors=True)
        trip_args = ["fds", "--algo", "tane", "--timeout", "0", "--checkpoint-dir", self.ckpt, self.csv]
        trip, _, out = self.child(trip_args, "trip.txt", expect=3)
        if out and not os.path.exists(os.path.join(self.ckpt, "tane.snap")):
            self.fail("fds --timeout 0 exited 3 but left no tane.snap")
        resume_args = ["resume", "--checkpoint-dir", self.ckpt, "--checkpoint-every", "1", self.csv]
        resume, _, out = self.child(resume_args, "resume.txt")
        if out and check:
            self.check_fds(out, "resume")
        return {"resume_s.tane": trip + resume}

    def run_pass(self, k, check=True):
        """Runs every entry once; returns the samples by metric name."""
        samples = {}
        for name in PASS[k % len(PASS):] + PASS[: k % len(PASS)]:
            for metric, value in self.op(name, check).items():
                samples.setdefault(metric, []).append(value)
        return samples


def measure(run, args, attrs, rows):
    """Set-up, reference, then measured passes; returns the end-to-end
    metrics, the number of passes and the input's size."""
    started = time.perf_counter()
    setups = []
    for k in range(SETUPS):
        t0 = time.perf_counter()
        run.gen(attrs, rows, args.seed)
        run.run_pass(k, check=False)  # exit codes only
        setups.append(time.perf_counter() - t0)
    ref = run.reference()

    samples = {}
    passes = 0
    t0 = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - t0 < args.seconds:
        pass_start = time.perf_counter()
        for metric, values in run.run_pass(passes).items():
            samples.setdefault(metric, []).extend(values)
        passes += 1
        now = time.perf_counter()
        if passes >= MIN_PASSES and now + (now - pass_start) - started > RUN_BUDGET_S:
            break
    # Other tenants of a shared host only ever slow a command down, and
    # their slow spells last seconds: a time is the fastest of its samples,
    # a peak RSS their median.
    metrics = {"setup_s": statistics.median(setups)}
    for name, unit in END_TO_END[1:]:
        metrics[name] = (min if unit == "s" else statistics.median)(samples[name])
    size = {"bytes": os.path.getsize(run.csv), "rows": rows, "attrs": attrs,
            "fds": ref["fds"], "approx_fds": ref["approx_fds"]}
    return metrics, passes, size


def trace(run, e2e):
    """The per-layer metrics: the probe's in-process timings plus each
    command's CLI residual. The probe's agreement checks and the layer-sum
    check count as one operation each."""
    res = run.probe("trace", "--epsilon", EPSILON, "--reps", str(TRACE_REPS),
                    "--scratch", run.scratch, run.csv)
    m = res["metrics"]
    run.attempted += 2
    if res["problems"]:
        run.fail(f"{res['problems']} in-process result(s) disagree with TANE (named above)")
    for miner in ("depminer", "tane"):
        gap_pct = m[f"layersum.gap_pct.{miner}"]
        gap_s = abs(gap_pct) / 100 * m[f"engine.session_s.{miner}"]
        if abs(gap_pct) > 100 * LAYERSUM_TOLERANCE and gap_s > LAYERSUM_SLACK_S:
            run.fail(f"{miner}'s layers sum {gap_pct:+.1f}% off its Session time")
    for c in COMMANDS:
        cli_s = e2e["approx_s" if c == "approx" else f"fds_s.{c}"]
        render_s = m["emit.approx_render_s" if c == "approx" else "emit.render_s"]
        m[f"cli.residual_s.{c}"] = cli_s - (m["csv.load_s"] + m[f"engine.session_s.{c}"] + render_s)
    return {name: m[name] for name, _ in PER_LAYER}


def git_state():
    """The checkout's revision and dirty flag; ("unknown", None) when the
    benchmark does not sit at the top of a git work tree."""
    def git(*args):
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True)

    try:
        top = git("rev-parse", "--show-toplevel")
    except OSError:
        return "unknown", None
    if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
        return "unknown", None
    return git("rev-parse", "HEAD").stdout.strip(), bool(git("status", "--porcelain").stdout.strip())


def main():
    p = argparse.ArgumentParser(description="CLI-path benchmark; see perfbench/README.md.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    try:
        bins = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: cannot build the program: {e}", file=sys.stderr)
        return 2
    attrs, rows = WORKLOADS[args.workload]
    run = Run(args.workload, bins)
    try:
        metrics, passes, size = measure(run, args, attrs, rows)
        if args.trace:
            metrics = trace(run, metrics)
    finally:
        shutil.rmtree(run.scratch, ignore_errors=True)

    rev, dirty = git_state()
    stamp = {"git_rev": rev, "dirty": dirty, "host_cpus": os.cpu_count(), "threads": 1,
             "seed": args.seed, "workload": args.workload, "input": size,
             "passes": passes}
    units = dict(PER_LAYER if args.trace else END_TO_END)
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>16.6f} {units[name]}", file=sys.stderr)
    print("stamp " + json.dumps(stamp))
    failed = min(len(run.failures), run.attempted)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
