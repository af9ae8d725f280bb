#!/usr/bin/env python3
"""The relcell benchmark.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the one holding ``src/relcell``).
Every job runs in a fresh interpreter (``job.py``), one at a time, as one
closed-loop client, under a wall-clock cap and an address-space cap.  Each
job's outputs are checked against ``reference.json`` or against each other.

``--trace 0`` repeats the workload's job list (a pass) while another pass
fits in ``--seconds`` (always at least one), adds set-up-only jobs until
each job has SETUP_SAMPLES set-up times, and prints the end-to-end metrics.
``--trace 1`` alternates untraced and traced passes the same way and prints
the per-layer metrics and the tracing overhead; a traced output that differs
from the untraced one counts as failed.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is the full record of the run.  README.md in this
directory explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from itertools import permutations
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
JOB = HERE / "job.py"

TABLE_SPECS = [
    "zigzag:A:3", "zigzag:A:4", "zigzag:A:5",
    "zigzag:cycS:3", "zigzag:cycS:4", "zigzag:cycS:5",
    "zigzag:cycL:3", "zigzag:cycL:4",
    "usl2:p=3", "usl2:p=5", "usl2:p=7",
    "annular:n=1", "annular:n=2",
]
WORKLOADS = {
    "tables": [("report", spec) for spec in TABLE_SPECS],
    "axioms-large": [("axioms", "usl2:p=11"), ("axioms", "zigzag:cycL:5")],
    "k3-queries": [("k3", "annular:n=3")],
}
K3_QUERIES = 20000
K3_PROBE = 5000  # leading queries drawn from a fixed seed, checked against reference.json
CAP_S = {"report": 60, "axioms": 150, "k3": 90}  # wall-clock cap per job
AS_LIMIT_MB = 2048  # address-space cap per job; axioms-large peaks near 400 MB RSS
RUN_DEADLINE_S = 170  # no job may run past this point of the run
SETUP_SAMPLES = 5  # set-ups per job behind each setup_s median


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (SRC / "relcell" / "__init__.py").is_file():
        print(f"error: no relcell source tree at {SRC}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(SRC / "relcell"), quiet=1):
        print("error: relcell does not compile", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    record, result = run.execute()
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


def make_jobs(workload: str, seed: int) -> list[dict]:
    """The workload's job list; the seed fixes the job order and the k3 stream."""
    rnd = random.Random(seed)
    jobs = [{"kind": kind, "spec": spec, "seed": seed, "queries": K3_QUERIES,
             "probe": K3_PROBE, "as_limit_mb": AS_LIMIT_MB}
            for kind, spec in WORKLOADS[workload]]
    rnd.shuffle(jobs)
    return jobs


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.jobs = make_jobs(workload, seed)
        self.reference = json.loads((HERE / "reference.json").read_text())
        self.t0 = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.env.pop("RELCELL_MAX_DIM", None)
        self.first = {}  # spec -> output of its first checked job

    # -- running jobs -------------------------------------------------------

    def run_job(self, job: dict, trace: bool, setup_only: bool = False) -> dict:
        """Spawn one job, wait for it, and return what it reported."""
        job = dict(job, trace=trace, setup_only=setup_only)
        cap = min(CAP_S[job["kind"]], RUN_DEADLINE_S - (time.monotonic() - self.t0))
        if cap <= 0:
            return {"ok": False, "error": "not started: run deadline", "stage": "none",
                    "wall_s": 0.0, "spec": job["spec"]}
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(JOB), json.dumps(job)], cwd=ROOT,
                                env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=cap)
            timeout = False
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            timeout = True
        except BaseException:  # interrupted: leave no job running
            proc.kill()
            proc.wait()
            raise
        wall = time.monotonic() - t_spawn
        stages = [line[6:] for line in err.splitlines() if line.startswith("stage ")]
        notes = [line for line in err.splitlines() if not line.startswith("stage ")]
        try:
            res = json.loads(out.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            how = (f"killed by signal {-proc.returncode}" if proc.returncode < 0
                   else f"exit code {proc.returncode}")
            res = {"ok": False, "error": f"{how}, no result"}
        if timeout:
            res = {"ok": False, "error": f"wall-clock cap of {cap:.0f} s"}
        res.setdefault("stage", stages[-1] if stages else "import")
        if notes:  # e.g. the "check failed: MemoryError" of a job that exits 1
            res["stderr_tail"] = "\n".join(notes[-5:])[-2000:]
        res["spec"] = job["spec"]
        res["wall_s"] = wall
        if res.get("setup_end") is not None:
            res["setup_s"] = res["setup_end"] - t_spawn
        return res

    def run_pass(self, trace: bool) -> list[dict]:
        return [self.run_job(job, trace) for job in self.jobs]

    def run_window(self, step) -> list:
        """Call `step` while one more call fits in the window; at least once."""
        out, start = [], time.monotonic()
        while True:
            t = time.monotonic()
            out.append(step())
            last = time.monotonic() - t
            used = time.monotonic() - start
            if used + last > self.seconds or time.monotonic() - self.t0 + last > RUN_DEADLINE_S:
                return out

    # -- the run ------------------------------------------------------------

    def execute(self):
        if self.trace:  # untraced and traced passes alternate
            pairs = self.run_window(lambda: (self.run_pass(False), self.run_pass(True)))
            plain, passes = [a for a, _ in pairs], [b for _, b in pairs]
            setups = []
        else:
            plain, passes = [], self.run_window(lambda: self.run_pass(False))
            setups = self.setup_runs(passes)
        # plain passes first, so the first k3 digests checked are untraced ones
        everything = plain + passes
        checked = [self.check_pass(p) for p in everything]
        failed = sum(f for f, _ in checked)
        attempted = sum(a for _, a in checked)
        bad_setups = [r for r in setups if not r.get("ok") or r.get("setup_s") is None]
        failures = [{k: r.get(k) for k in ("spec", "error", "stage", "mismatch", "stderr_tail")}
                    for r in [r for p in everything for r in p if r.get("failed")] + bad_setups]
        attempted += len(setups)
        failed += len(bad_setups)
        if self.trace:
            metrics, extra = self.layer_metrics(plain, passes)
        else:
            metrics, extra = self.end_to_end_metrics(passes, setups)
        record = {
            "workload": self.workload, "seed": self.seed, "seconds": self.seconds,
            "trace": int(self.trace), "jobs": [j["spec"] for j in self.jobs],
            "passes": len(everything), "git_sha": git_sha(), "src_sha256": src_digest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "failed_frac": failed / max(attempted, 1), "failures": failures[:20],
            "run_s": time.monotonic() - self.t0, **extra,
        }
        listed = benchmark_metrics("per_layer" if self.trace else "end_to_end")
        result = {
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            # a layer that no job of a failed run reached reads 0; the run is not correct
            "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                        for m in listed},
        }
        return record, result

    def setup_runs(self, passes) -> list[dict]:
        """Set-up-only jobs until every job has SETUP_SAMPLES set-up times,
        while the run has time left."""
        setups = []
        for _ in range(SETUP_SAMPLES - len(passes)):
            if time.monotonic() - self.t0 > RUN_DEADLINE_S - 20:
                break
            setups += [self.run_job(job, False, setup_only=True) for job in self.jobs]
        return setups

    # -- checking -----------------------------------------------------------

    def check_pass(self, results: list[dict]) -> tuple[int, int]:
        """Mark failed results; return (failed, attempted) for the pass.

        Besides its own checks, every output must equal the same job's output
        in the first pass checked, so the passes of a run (traced and
        untraced) agree.
        """
        failed = attempted = 0
        for r, job in zip(results, self.jobs):
            if job["kind"] == "k3":
                f, a = self.check_k3(r, job)
            else:
                r["mismatch"] = None if not r.get("ok") else self.check_cli(r, job)
                if r.get("ok") and r["stdout"] != self.first.setdefault(job["spec"], r["stdout"]):
                    r["mismatch"] = r["mismatch"] or "output differs from the first pass"
                f, a = int(not r.get("ok") or r["mismatch"] is not None), 1
            r["failed"] = f > 0
            failed += f
            attempted += a
        return failed, attempted

    def check_cli(self, r: dict, job: dict):
        """None if the job's output is right, else what is wrong."""
        if r["rc"] != 0:
            return f"exit code {r['rc']}"
        ref = self.reference["tables" if job["kind"] == "report" else "axioms"][job["spec"]]
        if job["kind"] == "axioms":
            return None if r["stdout"] == ref else "axiom report text differs"
        doc = json.loads(r["stdout"])
        if not all(a["passed"] for a in doc["axioms"]):
            return "an axiom fails"
        D, C = doc["D"], doc["C"]
        if C != [[sum(a * b for a, b in zip(ci, cj)) for cj in zip(*D)] for ci in zip(*D)]:
            return "C != D^T D"
        if D != ref["D"] or C != ref["C"]:
            return "D or C differs from the seed-commit record"
        acc = self.reference["acceptance"]
        if job["spec"] in acc["C"] and canonical_sym(C) != canonical_sym(acc["C"][job["spec"]]):
            return "C differs from the acceptance table"
        if job["spec"] in acc["D"] and canonical_rect(D) != canonical_rect(acc["D"][job["spec"]]):
            return "D differs from the acceptance table"
        return None

    def check_k3(self, r: dict, job: dict) -> tuple[int, int]:
        """Per query: its assertion held, the probe matches the reference, and
        it equals the first completed pass."""
        n = job["queries"]
        if not r.get("ok"):
            return n, n
        digests = r["digests"]
        first = self.first.setdefault(job["spec"], digests)
        probe_ref = self.reference["k3_probe"]  # 8 hex digits per query, concatenated
        bad = set(r["bad"])
        bad.update(q for q in range(K3_PROBE) if digests[q] != probe_ref[8 * q:8 * q + 8])
        bad.update(q for q in range(n) if digests[q] != first[q])
        if bad:
            r["mismatch"] = f"{len(bad)} queries wrong, first at {min(bad)}"
        return len(bad), n

    # -- metrics ------------------------------------------------------------

    def end_to_end_metrics(self, passes, setups):
        ok = [p for p in passes if all(r.get("ok") for r in p)] or passes
        setup = {}
        for r in [r for p in passes for r in p] + setups:
            if r.get("setup_s") is not None:
                setup.setdefault(r["spec"], []).append(r["setup_s"])
        walls = [sum(r["wall_s"] for r in p) for p in ok]
        peak = [max(r.get("maxrss_kb", 0) for r in p) / 1024 for p in ok]
        lat = self.latencies_us(ok)
        if self.workload == "k3-queries":
            qps = [len(r["lat_ns"]) / r["stream_s"] for p in ok for r in p if r.get("ok")]
        else:
            qps = [len(p) / w for p, w in zip(ok, walls)]
        job_walls = {}
        for r in (r for p in ok for r in p):
            job_walls.setdefault(r["spec"], []).append(r["wall_s"])
        metrics = {
            "wall_s": median(walls),
            "setup_s": sum(median(v) for v in setup.values()),
            "peak_rss_mb": median(peak),
            "queries_per_s": median(qps),
            "query_us_p50": median(lat),
        }
        extra = {"query_us_p99": percentile(lat, 99), "query_samples": len(lat),
                 "pass_wall_s": walls, "job_wall_s": job_walls, "setup_samples": setup}
        return metrics, extra

    def layer_metrics(self, plain, passes):
        """Medians over the traced passes; p99 and overhead against the untraced ones."""
        per_pass = []
        for p in passes:
            agg = {}
            for r in p:
                for k, v in r.get("layers", {}).items():
                    agg[k] = agg.get(k, 0) + v
            memo, zeros = agg.get("algebra.memo_entries", 0), agg.get("algebra.memo_zeros", 0)
            calls = agg.get("annular.surgery_calls", 0)
            agg["algebra.memo_zero_frac"] = zeros / memo if memo else 0.0
            agg["annular.surgery_nonzero_frac"] = (
                agg.get("annular.surgery_nonzero", 0) / calls if calls else 0.0)
            agg["trace.wall_s"] = sum(r["wall_s"] for r in p)
            per_pass.append(agg)
        names = {k for a in per_pass for k in a}
        metrics = {k: median(a.get(k, 0) for a in per_pass) for k in names}
        plain_walls = [sum(r["wall_s"] for r in p) for p in plain]
        metrics["trace.overhead_s"] = median(
            a["trace.wall_s"] - w for a, w in zip(per_pass, plain_walls))
        metrics["query_us_p99"] = percentile(self.latencies_us(plain), 99)
        extra = {"untraced_wall_s": plain_walls,
                 "job_layers": {r["spec"]: r.get("layers") for r in passes[0]}}
        return metrics, extra

    def latencies_us(self, passes) -> list:
        """Ascending query latencies; a query of a CLI workload is one job."""
        if self.workload == "k3-queries":
            return sorted(x / 1000 for p in passes for r in p for x in r.get("lat_ns", []))
        return sorted(r["wall_s"] * 1e6 for p in passes for r in p)


def benchmark_metrics(kind: str) -> list[dict]:
    """The `end_to_end` or `per_layer` list of BENCHMARK.json."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def median(values) -> float:
    """The median, or 0.0 when every job that would give a sample failed."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(q / 100 * len(sorted_values))) - 1]


def canonical_sym(matrix):
    """Least simultaneous row and column permutation of a square matrix."""
    n = len(matrix)
    return min(tuple(tuple(matrix[p[i]][p[j]] for j in range(n)) for i in range(n))
               for p in permutations(range(n)))


def canonical_rect(matrix):
    """Rows as a sorted multiset, columns in their least order."""
    return min(tuple(sorted(tuple(row[j] for j in p) for row in matrix))
               for p in permutations(range(len(matrix[0]))))


def git_sha():
    """HEAD of the checkout, or None when the checkout is not a git work tree.

    Checking for ``.git`` first keeps git from searching the directories
    above the checkout.
    """
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_digest() -> str:
    """sha256 over src/relcell/*.py, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted((SRC / "relcell").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
