"""Benchmark of amenlab's command line jobs, end to end and per layer.

Usage (from the repository root):

    python3 bench/run.py --workload windows --seed 0 --seconds 40 --trace 0
    for w in windows tables free_group; do python3 bench/run.py --workload $w; done

A closed loop with one client: the seeded job list of the workload
(`jobgen`) runs in passes, one job at a time, each in a fresh interpreter
that imports ``amenlab`` from ``src/`` exactly as the console script does.
Passes repeat the same list for about ``--seconds``: another pass starts
only if it would end nearer to ``--seconds`` than stopping now.  Passes
are never cut short, so every run measures the same mix of work.
Every envelope is checked by ``amenlab verify`` in its own process (once
per run for each distinct envelope: one byte-identical to an envelope
already verified is not verified again, since ``verify`` of an
``f2-infeasible`` certificate takes longer than the job), by the
invariants in `jobcheck`, for equal digests across passes and, on the
default seed, against the recorded corpus in ``golden.json``.

``--trace 0`` reports the end-to-end metrics:

* jobs_per_s   completed and checked jobs per second of job time (command
               start to envelope written); each job's time is its median
               over the passes.
* setup_s      median over job processes of spawn to "amenlab imported,
               job starts".
* peak_rss_mb  largest peak RSS of any job process.

Both times are in reference seconds: each is scaled by REFERENCE_S over
the time of a fixed pure-Python loop (`reference_loop_s`) run just before
and just after the job, on the same CPU.  A shared host can change speed
by 2x for stretches of 5 to 30 s.  On a 2-vCPU VM whose speed did so,
the quartile spread over the median of unscaled jobs_per_s across five
40 s runs was 17 to 31 % per workload, and 5 to 6 % scaled.  The
unscaled figures are printed too, but are not part of the result.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (`layertrace` spans, per pass) plus the tracing overhead.
Both modes print failed_frac, and the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import jobcheck
import jobgen
from layertrace import PREDICATE

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_SEED = 0
# A run must exit within 180 s; no job starts after this many seconds.
DEADLINE_S = 165

END_TO_END_UNITS = {"jobs_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
# Time of `reference_loop_s` on an uncontended core of a 2-vCPU x86-64 VM
# with CPython 3.11; job times are scaled to a host of that speed.
REFERENCE_S = 0.010
LP_SOLVES = ("linprog.minimize", "linprog.solve_feasibility")


def _now() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def reference_loop_s() -> float:
    """Seconds this process takes for a fixed loop of Fraction sums."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 4001):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - start


class Runner:
    """Spawns job processes for one benchmark run inside a private temp dir."""

    def __init__(self, root: Path, golden: dict | None):
        self.root = root
        self.golden = golden
        self.env = dict(os.environ)
        # the cap is echoed into envelopes, so an inherited value would change digests
        self.env.pop("AMENLAB_CAP", None)
        self.env["PYTHONPATH"] = str(root / "src")
        # fixed string hashing, so per-layer counts repeat exactly between runs
        self.env["PYTHONHASHSEED"] = "0"
        scratch = root / ".bench_tmp"
        scratch.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
        self.deadline = _now() + DEADLINE_S * 10**9
        self.expired = False
        # sha256 of every envelope file `amenlab verify` accepted in this run
        self.verified: set[str] = set()

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp.parent.rmdir()
        except OSError:
            pass

    def spawn(self, argv: list[str], trace: bool) -> tuple[int, int, dict | None, Path]:
        """Run one CLI command; returns (spawn instant, exit code, record, stdout file)."""
        record = self.tmp / "record.json"
        stdout = self.tmp / "stdout.txt"
        record.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "jobproc.py"), str(record), str(int(trace)), "--", *argv]
        with open(stdout, "wb") as out:
            spawned = _now()
            proc = subprocess.Popen(cmd, env=self.env, cwd=self.tmp, stdout=out,
                                    stderr=subprocess.DEVNULL)
            try:
                code = proc.wait(timeout=max(0.0, (self.deadline - _now()) / 1e9))
            except subprocess.TimeoutExpired:
                self.expired = True
                code = None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        data = None
        if code is not None and record.exists():
            data = json.loads(record.read_text())
            record.unlink()
        return spawned, code, data, stdout

    def run_job(self, job: dict, trace: bool) -> dict:
        out = self.tmp / "envelope.json"
        out.unlink(missing_ok=True)
        before = reference_loop_s()
        spawned, code, rec, stdout = self.spawn(job["argv"] + ["--out", str(out)], trace)
        scale = 2 * REFERENCE_S / (before + reference_loop_s())
        stdout.unlink()
        res = {"job": job, "problems": [], "envelope": None, "digest": None, "trace": None}
        if rec is None:
            res["problems"].append("timed out" if self.expired else f"no record, exit {code}")
            return res
        res.update(setup_s=(rec["ready_ns"] - spawned) / 1e9,
                   job_s=(rec["end_ns"] - rec["ready_ns"]) / 1e9, scale=scale,
                   rss_mb=rec["maxrss_kb"] / 1024, trace=rec["trace"])
        if not Path(rec["module"]).resolve().is_relative_to(self.root / "src"):
            res["problems"].append(f"amenlab imported from {rec['module']}")
        if code != 0 or rec["exit"] != 0:
            res["problems"].append(f"exit code {rec['exit']}")
        if not out.is_file():
            res["problems"].append("no envelope written")
            return res
        self.check_output(job, out, res)
        out.unlink()
        return res

    def check_output(self, job: dict, out: Path, res: dict) -> None:
        """Check the envelope file `out` of `job`; adds to res["problems"]."""
        res["bytes"] = out.stat().st_size
        try:
            env = json.loads(out.read_text())
            res["problems"] += jobcheck.check_envelope(job, env)
        except (ValueError, KeyError, TypeError) as exc:
            res["problems"].append(f"malformed envelope: {exc!r}")
        else:
            res["envelope"], res["digest"] = env, env.get("digest")
        content = hashlib.sha256(out.read_bytes()).hexdigest()
        if content not in self.verified:
            problems = self.verify(out, res)
            res["problems"] += problems
            if not problems:
                self.verified.add(content)
        if self.golden is not None:
            want = self.golden.get(" ".join(job["argv"]))
            if want != res["digest"]:
                res["problems"].append(f"digest {res['digest']} differs from the corpus {want}")

    def verify(self, envelope: Path, res: dict) -> list[str]:
        spawned, code, rec, stdout = self.spawn(["verify", str(envelope)], False)
        text = stdout.read_text()
        stdout.unlink()
        if rec is None:
            return ["verify timed out" if self.expired else "verify wrote no record"]
        res["verify_s"] = (rec["end_ns"] - rec["ready_ns"]) / 1e9
        try:
            report = json.loads(text.splitlines()[-1])
        except (IndexError, ValueError):
            report = None
        if not isinstance(report, dict):
            report = {}
        if code != 0 or report.get("certificates") != "ok" or report.get("digest") != "ok":
            return [f"amenlab verify failed: {text.strip()[-200:]!r}"]
        return []

    def run_pass(self, jobs: list[dict], trace: bool) -> list[dict]:
        results = []
        for job in jobs:
            if self.expired:
                results.append({"job": job, "problems": ["not run: deadline"], "envelope": None,
                                "digest": None, "trace": None})
            else:
                results.append(self.run_job(job, trace))
        cross = jobcheck.check_pass(jobs, [r["envelope"] for r in results])
        for i, problems in cross.items():
            results[i]["problems"] += problems
        for r in results:
            r["envelope"] = None
        return results


def run_passes(runner: Runner, jobs: list[dict], seconds: float, modes: list[bool]) -> list[list[dict]]:
    """Run `modes` (trace flags) as a round, repeated for about `seconds`."""
    start = time.monotonic()
    passes = []
    while True:
        for trace in modes:
            passes.append(runner.run_pass(jobs, trace))
        elapsed = time.monotonic() - start
        per_round = elapsed / (len(passes) // len(modes))
        if (runner.expired or elapsed + per_round / 2 >= seconds
                or elapsed + per_round > DEADLINE_S - 10):
            return passes


def mark_nondeterminism(passes: list[list[dict]]) -> None:
    for slot in zip(*passes):
        digests = {r["digest"] for r in slot if r["digest"] is not None}
        if len(digests) > 1:
            for r in slot:
                r["problems"].append("digest differs between passes of the same job")


def pass_job_time(passes: list[list[dict]], scaled: bool = True) -> float:
    """Sum over the list of each job's median time across passes, in
    reference seconds unless `scaled` is false."""
    total = 0.0
    for slot in zip(*passes):
        times = [r["job_s"] * (r["scale"] if scaled else 1) for r in slot if "job_s" in r]
        total += statistics.median(times) if times else 0.0
    return total


def end_to_end(passes: list[list[dict]], scaled: bool = True) -> dict:
    results = [r for p in passes for r in p]
    ok = sum(1 for r in results if not r["problems"])
    job_time = pass_job_time(passes, scaled)
    setups = [r["setup_s"] * (r["scale"] if scaled else 1) for r in results if "setup_s" in r]
    return {
        "jobs_per_s": ok / len(passes) / job_time if job_time else 0.0,
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": max((r["rss_mb"] for r in results if "rss_mb" in r), default=0.0),
    }


PER_LAYER_UNITS = {
    "ramsey.self_s": "s", "ramsey.subsets": "count", "ramsey.families": "count",
    "ramsey.memo_hit_frac": "frac", "ramsey.cap_exceeded": "count",
    "linprog.solve_s": "s", "linprog.build_s": "s", "linprog.check_s": "s",
    "linprog.lps": "count", "linprog.rows": "count", "linprog.cols": "count",
    "linprog.nonzeros": "count", "linprog.max_bits": "bits",
    "balance.self_s": "s", "balance.lps": "count", "balance.repeat_frac": "frac",
    "groups.self_s": "s", "groups.products": "count", "groups.ball_elements": "count",
    "f2.self_s": "s", "f2.scan_words": "count",
    "pictures.self_s": "s", "pictures.predicate_calls": "count",
    "folner.self_s": "s", "folner.candidates": "count", "folner.weighted_lps": "count",
    "cli.self_s": "s", "cli.envelope_bytes": "bytes", "cli.verify_s": "s",
    "rationals.digest_s": "s",
    "trace.overhead_frac": "frac", "trace.covered_frac": "frac",
}


def layer_metrics(results: list[dict]) -> dict:
    """Per-layer metrics of one traced pass."""
    edges: dict[tuple[str, str], list[int]] = {}
    counters: dict[str, int] = {}
    for r in results:
        trace = r["trace"] or {"edges": [], "counters": {}}
        for parent, key, *stat in trace["edges"]:
            acc = edges.setdefault((parent, key), [0, 0, 0])
            for i, value in enumerate(stat):
                acc[i] += value
        for name, value in trace["counters"].items():
            old = counters.get(name, 0)
            counters[name] = max(old, value) if name == "linprog.max_bits" else old + value

    def total(field, keys=None, layer=None, parents=lambda p: True):
        """Sum of one edge field (0 calls, 1 total ns, 2 self ns) over matching spans;
        all spans when neither `keys` nor `layer` is given."""
        return sum(s[field] for (p, k), s in edges.items()
                   if (keys is None and layer is None or k in (keys or ())
                       or k.partition(".")[0] == layer) and parents(p))

    def self_s(keys=None, layer=None):
        return total(2, keys, layer) / 1e9

    subsets = counters.get("ramsey.subsets", 0)
    families = total(0, ("balance.is_epsilon_balanced", "linprog.solve_feasibility"),
                     parents=lambda p: p == "ramsey.is_epsilon_ramsey")
    balance_calls = counters.get("balance.families", 0)
    job_time = sum(r.get("job_s", 0.0) for r in results)
    return {
        "ramsey.self_s": self_s(layer="ramsey"),
        "ramsey.subsets": subsets,
        "ramsey.families": families,
        "ramsey.memo_hit_frac": 1 - families / subsets if subsets else 0.0,
        "ramsey.cap_exceeded": counters.get("ramsey.is_epsilon_ramsey!CapExceeded", 0),
        "linprog.solve_s": self_s(LP_SOLVES),
        "linprog.build_s": self_s(("linprog.LinearSystem",)),
        "linprog.check_s": self_s(("linprog.verify_certificate",)),
        "linprog.lps": total(0, LP_SOLVES),
        "linprog.rows": counters.get("linprog.rows", 0),
        "linprog.cols": counters.get("linprog.cols", 0),
        "linprog.nonzeros": counters.get("linprog.nonzeros", 0),
        "linprog.max_bits": counters.get("linprog.max_bits", 0),
        "balance.self_s": self_s(layer="balance"),
        "balance.lps": total(0, LP_SOLVES, parents=lambda p: p.startswith("balance.")),
        "balance.repeat_frac": counters.get("balance.repeats", 0) / balance_calls
        if balance_calls else 0.0,
        "groups.self_s": self_s(layer="groups"),
        "groups.products": total(0, ("groups.multiply",)),
        "groups.ball_elements": counters.get("groups.ball_elements", 0),
        "f2.self_s": self_s(layer="f2"),
        "f2.scan_words": counters.get("f2.scan_words", 0),
        "pictures.self_s": self_s(layer="pictures"),
        "pictures.predicate_calls": total(0, (PREDICATE,)),
        "folner.self_s": self_s(layer="folner"),
        "folner.candidates": counters.get("folner.candidates", 0),
        "folner.weighted_lps": total(0, LP_SOLVES, parents=lambda p: p.startswith("folner.")),
        "cli.self_s": self_s(layer="cli"),
        "cli.envelope_bytes": sum(r.get("bytes", 0) for r in results),
        "rationals.digest_s": total(1, ("rationals.sha256_digest",)) / 1e9,
        "trace.covered_frac": total(2) / 1e9 / job_time if job_time else 0.0,
    }


def per_layer(plain: list[list[dict]], traced: list[list[dict]]) -> dict:
    per_pass = [layer_metrics(p) for p in traced]
    out = {name: statistics.fmean(m[name] for m in per_pass) for name in per_pass[0]}
    out["trace.overhead_frac"] = pass_job_time(traced) / pass_job_time(plain) - 1
    # each distinct envelope is verified once a run, mostly in the first (untraced) pass
    out["cli.verify_s"] = sum(r.get("verify_s", 0.0) for p in plain + traced for r in p)
    return out


def source_lines(root: Path) -> dict:
    return {p.stem: len(p.read_text().splitlines())
            for p in sorted((root / "src" / "amenlab").glob("*.py"))}


def load_golden(workload: str) -> dict:
    with open(BENCH / "golden.json") as fh:
        return json.load(fh)["workloads"][workload]


def check_program(runner: Runner) -> str | None:
    """Why the checkout cannot be benchmarked, or None; also warms the bytecode cache."""
    if not (ROOT / "src" / "amenlab" / "cli.py").is_file():
        return f"no amenlab sources under {ROOT / 'src'}"
    _, code, rec, stdout = runner.spawn(["--help"], False)
    stdout.unlink()
    if rec is None or rec["exit"] != 0:
        return f"amenlab does not start (exit {code})"
    if not Path(rec["module"]).resolve().is_relative_to(ROOT / "src"):
        return f"amenlab imported from {rec['module']}, not from this checkout"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobgen.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its job process and removes its temp dir
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    nproc = len(os.sched_getaffinity(0))
    # the reference loop and the job process it scales run on the same CPU
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    jobs = jobgen.generate(args.workload, args.seed)
    golden = load_golden(args.workload) if args.seed == DEFAULT_SEED else None
    runner = Runner(ROOT, golden)
    try:
        problem = check_program(runner)
        if problem:
            print(f"bench: {problem}", file=sys.stderr)
            return 2
        modes = [False, True] if args.trace else [False]
        passes = run_passes(runner, jobs, args.seconds, modes)
    finally:
        runner.close()

    mark_nondeterminism(passes)
    if args.trace:
        plain, traced = passes[0::2], passes[1::2]
        metrics, units = per_layer(plain, traced), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(passes), END_TO_END_UNITS
    results = [r for p in passes for r in p]
    failed = sum(1 for r in results if r["problems"])

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes of {len(jobs)} jobs")
    for r in results:
        for problem in r["problems"]:
            print(f"FAILED {r['job']['name']}: {problem}")
    for name, value in metrics.items():
        print(f"{name:26s} {value:>14.6g} {units[name]}")
    print(f"{'failed_frac':26s} {failed / len(results):>14.6g} frac")
    if not args.trace:
        unscaled = end_to_end(passes, scaled=False)
        print(f"unscaled: jobs_per_s {unscaled['jobs_per_s']:.6g} 1/s, "
              f"setup_s {unscaled['setup_s']:.6g} s")
    print("context " + json.dumps({
        "python": platform.python_version(),
        "nproc": nproc,
        "src_lines": source_lines(ROOT),
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
