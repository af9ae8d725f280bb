#!/usr/bin/env python3
"""Stage table: the time of each pipeline stage and the peak memory, per spec.

Each spec runs in SAMPLES = 3 child interpreters of its own, one after the
other, so its peak memory is its own and every sample starts cold (a second
run in the same process would find the lru_caches warm).  The stages are
build (`build_family`), products (`materialize`), then the stages of
`celldata.run_pipeline` through C, timed through its `run` hook: each axiom,
simples, D and C (none after a failed axiom).  Each child also records its
VmHWM, read from /proc/self/status at the end (null where that file does
not exist), and the number of `hom_space` calls in each stage, which the
hook cannot see: `algebra.hom_space` is the one thing patched, for the run
only (the module layer calls it through `algebra`'s globals, and `celldata`
does not import it).
A spec's record holds the median over its samples of each stage time and
of the VmHWM.

    PYTHONPATH=src python3 scripts/stage_times.py [SPEC ...] [--json PATH [--label NAME]]

With no SPEC it runs the 13 small-rank table families and the five
frontier specs (the largest spec of each family that the default size
guard admits).  --json writes the records to PATH under --label (default
"run"), keeping any other labels already in that file, so one file can
hold a before and an after.  Exits 1 when a child fails or a datum fails
an axiom, and 0 otherwise.  It byte-compiles the relcell it imports once,
before the first child, so no child times the compilation of a fresh tree.
"""

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time

TABLE_SPECS = [
    "zigzag:A:3", "zigzag:A:4", "zigzag:A:5",
    "zigzag:cycS:3", "zigzag:cycS:4", "zigzag:cycS:5",
    "zigzag:cycL:3", "zigzag:cycL:4",
    "usl2:p=3", "usl2:p=5", "usl2:p=7",
    "annular:n=1", "annular:n=2",
]
FRONTIER_SPECS = ["zigzag:A:500", "zigzag:cycS:500", "annular:n=3", "zigzag:cycL:12", "usl2:p=11"]
SUMMARY = ("build", "products", "axioms", "simples", "D", "C")
SAMPLES = 3


def vm_hwm_mib():
    """This process's peak resident memory in MiB, or None off Linux."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return round(int(line.split()[1]) / 1024, 1)
    except OSError:
        pass
    return None


def run_stages(spec: str) -> dict:
    """Time the pipeline on spec in this process; the record of one child."""
    from relcell import algebra, celldata, families

    calls = [0]
    saved = algebra.hom_space

    def counted(M, N):
        calls[0] += 1
        return saved(M, N)

    times, homs = {}, {}

    def stage(name, fn, *args):
        before, t0 = calls[0], time.perf_counter()
        out = fn(*args)
        times[name] = round(time.perf_counter() - t0, 4)
        if calls[0] > before:
            homs[name] = calls[0] - before
        return out

    algebra.hom_space = counted
    try:
        alg, d = stage("build", families.build_family, spec)
        stage("products", alg.materialize)
        report = celldata.run_pipeline(d, "C", stage)["axioms"]
    finally:
        algebra.hom_space = saved
    failed = [r.axiom for r in report.results if not r.passed]
    return {"dim": alg.dim, "failed_axioms": failed, "stages": times, "hom_space_calls": homs, "vm_hwm_mib": vm_hwm_mib()}


def summary(rec: dict) -> dict:
    """The six stage times of a record, the axioms summed (None where not run)."""
    times = rec["stages"]
    out = {name: times.get(name) for name in SUMMARY}
    out["axioms"] = round(sum(t for name, t in times.items() if name.startswith("axiom ")), 4)
    return out


def relcell_dir() -> str:
    """The directory of the relcell package this process imports."""
    import relcell

    return os.path.dirname(os.path.abspath(relcell.__file__))


def child(spec: str) -> dict:
    """The record of spec from a child that imports the same relcell as this
    process."""
    src = os.path.dirname(relcell_dir())
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, __file__, "--child", spec],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    if proc.returncode != 0:
        return {"error": (proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"])[-1]}
    return json.loads(proc.stdout.splitlines()[-1])


def sampled(spec: str) -> dict:
    """The record of spec over SAMPLES cold children: each stage time and
    the VmHWM are the median of the samples, the rest is the same in every
    sample; the first failed child's error, if one fails."""
    recs = [child(spec) for _ in range(SAMPLES)]
    for rec in recs:
        if "error" in rec:
            return rec
    rec = recs[0]
    rec["stages"] = {name: statistics.median(r["stages"][name] for r in recs) for name in rec["stages"]}
    hwm = [r["vm_hwm_mib"] for r in recs]
    rec["vm_hwm_mib"] = None if None in hwm else statistics.median(hwm)
    rec["samples"] = SAMPLES
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("specs", nargs="*", help="family specs (default: the table families and the frontier)")
    ap.add_argument("--json", metavar="PATH", help="write the records to PATH")
    ap.add_argument("--label", default="run", help="the key of this run in the --json file")
    ap.add_argument("--child", metavar="SPEC", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(run_stages(args.child)))
        return 0

    if not compileall.compile_dir(relcell_dir(), quiet=1):
        print("error: relcell does not compile", file=sys.stderr)
        return 1
    specs = args.specs or TABLE_SPECS + FRONTIER_SPECS
    records, bad = {}, 0
    print(f"{'spec':<18} {'dim':>5} " + " ".join(f"{name:>8}" for name in SUMMARY) + "    VmHWM  homs in D")
    for spec in specs:
        rec = records[spec] = sampled(spec)
        if "error" in rec:
            bad += 1
            print(f"{spec:<18} failed: {rec['error']}")
            continue
        bad += bool(rec["failed_axioms"])
        cells = " ".join("       -" if t is None else f"{t:8.3f}" for t in summary(rec).values())
        hwm = "-" if rec["vm_hwm_mib"] is None else f"{rec['vm_hwm_mib']:.1f}"
        print(f"{spec:<18} {rec['dim']:>5} {cells} {hwm:>8} {rec['hom_space_calls'].get('D', 0):>10}")
        if rec["failed_axioms"]:
            print(f"{'':<18} failed axioms: {', '.join(rec['failed_axioms'])}")
    if args.json:
        try:
            with open(args.json) as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            doc = {}
        doc[args.label] = {
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "specs": records,
        }
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if bad:
        print(f"{bad} spec(s) failed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
