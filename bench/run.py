"""modk3 benchmark: the README's CLI workflow, timed end to end and per layer.

    python3 bench/run.py --workload census|audit|deep --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every CLI command is a fresh
`python -m modk3.cli ...` process, as a user would start it, so no module
memo survives from one command to the next.  A pass is one trip through the
workload's command list; passes repeat until S seconds of measurement have
passed (at least two), and each metric is the median over passes.  All
outputs are checked against closed forms and the paper's integers
(oracles.py); any mismatch or failed command makes the run exit 1.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates plain passes
with passes whose commands run under tracer.py, and reports per-layer
metrics from the traced ones plus the tracing overhead.  The last line of
standard output is the JSON result; the lines before it print every metric
by name with its unit, and a fuller record (environment, per-stage times,
error rate) goes to .bench_work/results/.
"""

import argparse
import gzip
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, namedtuple
from pathlib import Path

import oracles

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
RUN_LIMIT_S = 170          # hard stop; the whole run must end within 180 s
SETUP_REPEATS = 3          # set-up runs at least this often ...
SETUP_SECONDS = 1.0        # ... and until this much time has passed
DEEP_MAX = 17              # 2,593 classes and 39,831 search leaves
DOT_IDS = 2
MIN_PASSES = 2             # untraced runs: a median of two passes, even for audit

Cmd = namedtuple("Cmd", "stage args stdout")
Result = namedtuple("Result", "wall cpu rss_mb status trace")


class Deadline(Exception):
    pass


class SetupFailed(Exception):
    pass


class Runner:
    """Starts each CLI command as its own process in a work directory.

    Commands go through launch.py, a small process started before the
    harness parses anything, so each command's peak RSS is its own.
    """

    def __init__(self, work):
        self.work = work
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        self.launcher = subprocess.Popen(
            [sys.executable, str(BENCH / "launch.py")], env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.cmd_id = 0

    def run(self, cmd, traced=False):
        """Run one command to completion; wall time and rusage of that child."""
        self.cmd_id += 1
        spans = self.work / "spans" / f"{self.cmd_id}.json"
        if traced:
            argv = [sys.executable, str(BENCH / "tracer.py"), str(self.cmd_id),
                    str(spans), *cmd.args]
        else:
            argv = [sys.executable, "-m", "modk3.cli", *cmd.args]
        request = {"argv": argv, "cwd": str(self.work),
                   "stdout": str(self.work / (cmd.stdout or "cmd.out")),
                   "stderr": str(self.work / "cmd.err")}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise OSError("the command launcher exited")
        res = json.loads(reply)
        trace = None
        if traced and spans.is_file():
            with open(spans, encoding="utf-8") as fh:
                trace = json.load(fh)
            trace["started"] = res["started"]
        return Result(res["wall"], res["cpu"], res["rss_mb"], res["status"], trace)

    def close(self):
        """Stop the launcher (and any command it is running) and wait."""
        if self.launcher.poll() is None:
            self.launcher.terminate()
        self.launcher.communicate()


# ------------------------------------------------------------------ workloads

def census_commands(strata):
    """The README's build: enumerate, expand, lifts per stratum."""
    cmds = []
    for n in strata:
        cmds += [
            Cmd("enumerate", ["enumerate", "--index", str(n), "--torsion-free",
                              "--genus", "0", "--out", f"tf{n}.jsonl"], None),
            Cmd("expand", ["expand", "--in", f"tf{n}.jsonl",
                           "--out", f"k{n}.jsonl"], None),
            Cmd("lifts", ["lifts", "--in", f"k{n}.jsonl",
                          "--out", f"k{n}_lifts.jsonl"], None),
        ]
    return cmds


def concatenate(work, strata):
    with open(work / "full.jsonl", "wb") as out:
        for n in strata:
            out.write((work / f"k{n}_lifts.jsonl").read_bytes())


class Workload:
    """Set-up starts the CLI once (and fills the bytecode cache)."""

    def setup(self, runner, seed):
        return runner.run(Cmd("setup", ["--help"], None)).status == 0

    def finish(self, work):
        pass


class Census(Workload):
    """Builds the catalog from scratch: the write path and the search."""

    def __init__(self, strata=oracles.STRATA):
        self.strata = strata

    def commands(self):
        return census_commands(self.strata)

    def finish(self, work):
        concatenate(work, self.strata)

    def checks(self, work):
        for n in self.strata:
            yield oracles.check_tf_stratum(n, _records(work / f"tf{n}.jsonl"))
            yield oracles.check_stratum(n, _records(work / f"k{n}.jsonl"),
                                        _records(work / f"k{n}_lifts.jsonl"))
        if self.strata == oracles.STRATA:
            yield oracles.check_catalog(_records(work / "full.jsonl"))

    def trace_checks(self, counts):
        """Leaves = sum n/|Aut| over all genera (Hall, torsion-free)."""
        hall_tf = oracles.hall_counts(max(self.strata), torsion_free=True)
        return _count_checks(counts, {
            "generate.leaves": sum(hall_tf[n - 1] for n in self.strata),
            "generate.leaves_kept": sum(oracles.rooted_cubic_maps(n // 6)
                                        for n in self.strata),
            "generate.classes": sum(oracles.TF_CLASSES[n] for n in self.strata),
        })


class Audit(Workload):
    """Reads a finished catalog: every report, verify and export-dot."""

    tables = ("tf-counts", "k6", "k12", "k18", "k24", "k24sym", "totals")

    def setup(self, runner, seed):
        """Build the catalog as census does; pick export-dot ids by seed."""
        ok = all(runner.run(cmd).status == 0
                 for cmd in census_commands(oracles.STRATA))
        if not ok:
            return False
        concatenate(runner.work, oracles.STRATA)
        records = _records(runner.work / "full.jsonl")
        ids = Counter(r["id"] for r in records)
        unique = sorted(i for i, k in ids.items() if k == 1)
        picked = random.Random(seed).sample(unique, DOT_IDS)
        self.dot_records = [next(r for r in records if r["id"] == i)
                            for i in picked]
        return True

    def commands(self):
        cmds = [Cmd("totals" if t == "totals" else "report",
                    ["report", "--in", "full.jsonl", "--table", t],
                    f"report_{t}.txt") for t in self.tables]
        cmds.append(Cmd("verify", ["verify", "--in", "full.jsonl"], "verify.txt"))
        cmds += [Cmd("report", ["export-dot", "--in", "full.jsonl", "--id",
                                rec["id"], "--out", f"dot{i}.dot"], None)
                 for i, rec in enumerate(self.dot_records)]
        return cmds

    def checks(self, work):
        for t in self.tables:
            yield oracles.check_report(t, _text(work / f"report_{t}.txt"))
        yield oracles.check_verify(_text(work / "verify.txt"))
        for i, rec in enumerate(self.dot_records):
            yield oracles.check_dot(rec, _text(work / f"dot{i}.dot"))

    def trace_checks(self, counts):
        """`report totals` re-enumerates the four tf strata once."""
        return Census().trace_checks(counts)


class Deep(Workload):
    """Every class at index 1..max with no filter: search and dedup only."""

    def __init__(self, max_index=DEEP_MAX):
        self.max_index = max_index

    def commands(self):
        return [Cmd("enumerate", ["enumerate", "--index", str(n),
                                  "--out", f"deep{n}.jsonl"], None)
                for n in range(1, self.max_index + 1)]

    def checks(self, work):
        for n in range(1, self.max_index + 1):
            yield oracles.check_deep(n, _records(work / f"deep{n}.jsonl"))

    def trace_checks(self, counts):
        hall = oracles.hall_counts(self.max_index)
        return _count_checks(counts, {
            "generate.leaves": sum(hall),
            "generate.leaves_kept": sum(hall),
            "generate.classes": sum(oracles.CLASS_COUNTS[:self.max_index]),
        })


WORKLOADS = {"census": Census, "audit": Audit, "deep": Deep}


def _text(path):
    try:
        return path.read_text(encoding="utf-8")
    except OSError:
        return ""


def _records(path):
    """Records of a JSONL output; a malformed line raises ValueError."""
    return [json.loads(line) for line in _text(path).splitlines() if line.strip()]


def _count_checks(counts, want):
    return [f"trace: {k} = {counts.get(k)}, want {v}"
            for k, v in want.items() if counts.get(k) != v]


# --------------------------------------------------------------------- passes

class Tally:
    """Commands and output checks attempted, and those that failed."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.errors = []

    def add(self, errors):
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)


def run_pass(runner, workload, tally, traced=False):
    """One trip through the workload; per-stage wall times and the traces."""
    stages = {}
    wall = 0.0
    peak = cpu = 0.0
    traces = []
    for cmd in workload.commands():
        res = runner.run(cmd, traced)
        tally.add([] if res.status == 0 else
                  [f"{' '.join(cmd.args)} exited {res.status}: "
                   f"{_text(runner.work / 'cmd.err').strip()[-300:]}"])
        stages[cmd.stage] = stages.get(cmd.stage, 0.0) + res.wall
        wall += res.wall
        cpu += res.cpu
        peak = max(peak, res.rss_mb)
        if res.trace is not None:
            traces.append(res.trace)
    started = time.monotonic()
    workload.finish(runner.work)
    wall += time.monotonic() - started
    try:
        results = list(workload.checks(runner.work))
    except (ValueError, KeyError, TypeError) as exc:      # malformed output
        results = [[f"output could not be checked: {exc!r}"]]
    for errors in results:
        tally.add(errors)
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak,
            "stages": stages, "traces": traces}


def end_to_end(setups, passes, tally):
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    extra = {f"{s}_s": (statistics.median(p["stages"][s] for p in passes), "s")
             for s in passes[0]["stages"]}
    extra["cpu_s"] = (statistics.median(p["cpu_s"] for p in passes), "s")
    extra["error_rate"] = (tally.failed / max(tally.attempted, 1), "ratio")
    return metrics, extra


# -------------------------------------------------------------------- tracing

def layer_metrics(traces, startups):
    """Per-layer numbers of one traced pass, summed over its commands."""
    calls, total, own, counts = {}, {}, {}, {}
    for trace in traces:
        spans = trace["spans"]
        child = [0.0] * len(spans)
        for _, parent, _, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        for sid, _, name, start, end in spans:
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + end - start
            own[name] = own.get(name, 0.0) + end - start - child[sid]
        for k, v in trace["counters"].items():
            counts[k] = counts.get(k, 0) + v
    m = {"cli.commands": len(traces), "cli.startup_s": sum(startups)}
    for name in total:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = total[name]
        m[f"{name}.self_s"] = own[name]
    m["lifts.totals.reenumerate_s"] = m.pop("lifts.totals.reenumerate.s", 0.0)
    m.update(counts)
    leaves, records = counts.get("generate.leaves", 0), counts.get("catalog.records_read", 0)
    m["generate.class_yield"] = counts.get("generate.classes", 0) / leaves if leaves else 0.0
    m["catalog.validations_per_record"] = (
        m.get("catalog.validate_record.calls", 0) / records if records else 0.0)
    return m


def per_layer(names, plain, traced):
    """Medians of the traced passes; counts must agree across them."""
    layers = []
    for p in traced:
        startups = [t["imported_at"] - t["started"] for t in p["traces"]]
        layers.append(layer_metrics(p["traces"], startups))
    out, errors = {}, []
    for name, unit in names:
        values = [m.get(name, 0) for m in layers]
        if unit in ("count", "bytes", "ratio") and len(set(values)) > 1:
            errors.append(f"trace: {name} differs between passes: {values}")
        out[name] = (statistics.median(values), unit)
    out["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                               - statistics.median(p["wall_s"] for p in plain), "s")
    return out, layers[-1], errors


def save_spans(path, traced_pass):
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for trace in traced_pass["traces"]:
            for span in trace["spans"]:
                fh.write(json.dumps([trace["cmd"], *span]) + "\n")


# ------------------------------------------------------------------ reporting

def environment(args):
    """Python version, cores, commit and the digest of the sources run."""
    commit = None
    if (ROOT / ".git").exists():          # never the commit of an enclosing repo
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "commit": commit,
            "src_sha256": digest.hexdigest()}


def benchmark_metrics(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec[kind]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "modk3" / "cli.py").is_file():
        print(f"error: no modk3 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    def expire(signum, frame):
        raise Deadline(f"run exceeded {RUN_LIMIT_S} s")

    signal.signal(signal.SIGALRM, expire)
    signal.alarm(RUN_LIMIT_S)

    workload = WORKLOADS[args.workload]()
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "spans").mkdir(parents=True)
    runner = Runner(work)
    tally = Tally()
    setups, plain, traced = [], [], []
    try:
        while not setups or not args.trace and (
                len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS):
            started = time.monotonic()
            if not workload.setup(runner, args.seed):
                raise SetupFailed(_text(work / "cmd.err").strip()[-300:])
            setups.append(time.monotonic() - started)
        started = time.monotonic()
        min_plain = 1 if args.trace else MIN_PASSES
        while len(plain) < min_plain or (args.trace and not traced) or \
                time.monotonic() - started < args.seconds:
            if args.trace and len(traced) < len(plain):
                traced.append(run_pass(runner, workload, tally, traced=True))
            else:
                plain.append(run_pass(runner, workload, tally))
    except (Deadline, SetupFailed, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        runner.close()
        shutil.rmtree(work, ignore_errors=True)

    results = WORK / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = environment(args)
    record["passes"] = len(plain)
    record["pass_wall_s"] = [p["wall_s"] for p in plain]
    record["setup_s"] = setups
    if args.trace:
        metrics, last, errors = per_layer(benchmark_metrics("per_layer"), plain, traced)
        tally.add(errors)
        tally.add(workload.trace_checks(last))
        record["traced_passes"] = len(traced)
        record["layers"] = last
        save_spans(results / f"{name}-spans.jsonl.gz", traced[-1])
        extra = {}
    else:
        metrics, extra = end_to_end(setups, plain, tally)
    record["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in {**metrics, **extra}.items()}
    record["errors"] = tally.errors
    (results / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n",
                                          encoding="utf-8")

    print(" ".join(f"{k} {record[k]}" for k in
                   ("workload", "seed", "python", "nproc", "commit", "passes")))
    for metric, (value, unit) in {**metrics, **extra}.items():
        print(f"{metric:40s} {value:.6g} {unit}")
    for error in tally.errors[:20]:
        print(f"FAIL {error}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
