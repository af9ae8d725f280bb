#!/usr/bin/env python3
"""Rewrite reference.json from the current source tree.

    python3 perfbench/make_reference.py

Records the exact D and C of every tables job, the axiom report text of
every axioms-large job and the result digests of the k3 probe queries.  The
"acceptance" section (the printed tables of tests/test_acceptance.py, up to
relabelling) is kept as it is.  Run it only on a commit whose outputs are
known to be right: the benchmark counts every later difference as a failure.
"""

import json
import sys

from run import HERE, K3_PROBE, WORKLOADS, Run


def main() -> int:
    path = HERE / "reference.json"
    ref = json.loads(path.read_text())
    run = Run("tables", 0, 0, False)
    ref["tables"], ref["axioms"] = {}, {}
    for kind, spec in WORKLOADS["tables"] + WORKLOADS["axioms-large"]:
        r = run.run_job({"kind": kind, "spec": spec, "as_limit_mb": 4096}, False)
        if not r.get("ok") or r["rc"] != 0:
            print(f"error: {spec}: {r.get('error') or r['rc']}", file=sys.stderr)
            return 1
        if kind == "report":
            doc = json.loads(r["stdout"])
            ref["tables"][spec] = {"D": doc["D"], "C": doc["C"]}
        else:
            ref["axioms"][spec] = r["stdout"]
    job = {"kind": "k3", "spec": WORKLOADS["k3-queries"][0][1], "seed": 0,
           "queries": K3_PROBE, "probe": K3_PROBE, "as_limit_mb": 4096}
    r = run.run_job(job, False)
    if not r.get("ok") or r["bad"]:
        print(f"error: k3 probe: {r.get('error') or r['bad']}", file=sys.stderr)
        return 1
    ref["k3_probe"] = "".join(r["digests"])
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
