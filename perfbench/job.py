"""One benchmark job, run in a fresh interpreter by run.py.

    python3 perfbench/job.py '<job as JSON>'

The job object has the keys ``kind`` ("report", "axioms" or "k3"),
``spec`` (a family spec), ``trace`` (install the layer tracer),
``setup_only`` (stop once ``build_family`` returns), ``as_limit_mb`` (the
address-space cap this process puts on itself) and, for "k3", ``seed``,
``queries`` and ``probe``.  The last line on stdout is one JSON object with
the job's outputs; stage markers go to stderr.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

from layers import StageMarks, Tracer

SRC = Path(__file__).resolve().parent.parent / "src"
PROBE_SEED = 1710_02851  # fixed: the probe queries and their reference digests never change

# Share of each query kind in the k3 stream; each stream holds exactly these shares.
K3_MIX = (("prod", 0.5), ("rand", 0.2), ("assoc", 0.2), ("order", 0.1))


class SetupDone(BaseException):
    """Raised after set-up in a set-up-only job.

    A BaseException, so that it passes through ``relcell.cli.main``, which
    turns every Exception into exit code 1.
    """


def main() -> None:
    job = json.loads(sys.argv[1])
    limit = job["as_limit_mb"] << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    marks = StageMarks()
    result = {"ok": False}
    try:
        import relcell.cli  # noqa: F401  (imports every layer module)

        if not Path(relcell.__file__).resolve().is_relative_to(SRC):
            raise ImportError(f"relcell imported from {relcell.__file__}, not from {SRC}")
        marks.install()
        tracer = Tracer() if job["trace"] else None
        if tracer is not None:
            tracer.install()
        if job["setup_only"]:
            marks.on_setup_end = _stop_after_setup
        if job["kind"] == "k3":
            result.update(run_k3(job, marks))
        else:
            result.update(run_cli(job))
        if tracer is not None:
            result["layers"] = tracer.metrics()
        result["ok"] = True
    except SetupDone:
        result["ok"] = True
    except MemoryError:
        result["error"] = "MemoryError"
    except Exception as exc:  # the job's boundary: report, do not crash silently
        result["error"] = f"{type(exc).__name__}: {exc}"
    result["stage"] = marks.stage
    result["setup_end"] = marks.setup_end
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))


def _stop_after_setup():
    raise SetupDone


def run_cli(job) -> dict:
    import relcell.cli

    argv = ["verify", job["spec"]] + (["--format", "json"] if job["kind"] == "report" else [])
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = relcell.cli.main(argv)
    return {"rc": rc, "stdout": buf.getvalue()}


# --- the K_3 product-query stream ----------------------------------------


def make_stream(labels, count: int, rnd: random.Random) -> list:
    """`count` queries as (kind, positions) over the canonically sorted labels.

    Compatible means Peirce-compatible: the right cup diagram of one basis
    element is the left cup diagram of the next, so the product can be
    nonzero.
    """
    by_left = defaultdict(list)
    for pos, lab in enumerate(labels):
        by_left[lab.S].append(pos)

    def after(pos):
        return rnd.choice(by_left[labels[pos].T])

    kinds = [kind for kind, share in K3_MIX for _ in range(round(share * count))]
    kinds += ["prod"] * (count - len(kinds))
    rnd.shuffle(kinds)
    stream = []
    for kind in kinds:
        x = rnd.randrange(len(labels))
        if kind == "rand":
            stream.append((kind, (x, rnd.randrange(len(labels)))))
        elif kind == "assoc":
            y = after(x)
            stream.append((kind, (x, y, after(y))))
        else:
            stream.append((kind, (x, after(x))))
    return stream


def run_k3(job, marks: StageMarks) -> dict:
    from relcell.algebra import BasisLabel
    from relcell.annular import admissible_orders, multiply_labels
    from relcell.diagrams import format_basis_label
    import relcell.families

    alg, _ = relcell.families.build_family(job["spec"])
    n = int(job["spec"].split("=")[1])
    marks.mark("k3.stream")
    names = [format_basis_label(lab.S, lab.lam, lab.T) for lab in alg.basis]
    canon = sorted(range(alg.dim), key=names.__getitem__)  # position -> index
    rank = {i: pos for pos, i in enumerate(canon)}
    labels = [alg.basis[i] for i in canon]
    stream = make_stream(labels, job["probe"], random.Random(PROBE_SEED))
    stream += make_stream(labels, job["queries"] - job["probe"], random.Random(job["seed"]))
    elems = [alg.basis_element(i) for i in canon]
    field = alg.field

    def from_raw(raw):
        return {alg.index[BasisLabel(w, S, T)]: field.from_int(c)
                for (S, w, T), c in raw.items()}

    results, lat_ns, bad = [], [], []
    clock = time.perf_counter_ns
    t_start = time.perf_counter()
    for q, (kind, pos) in enumerate(stream):
        t0 = clock()
        ok = True
        if kind == "assoc":
            x, y, z = (elems[p] for p in pos)
            out = (x * y) * z
            ok = out == x * (y * z)
        elif kind == "order":
            x, y = (elems[p] for p in pos)
            out = x * y
            a, b = labels[pos[0]], labels[pos[1]]
            for seq in admissible_orders(n, a.T):
                raw = multiply_labels(n, (a.S, a.lam, a.T), (b.S, b.lam, b.T), order=seq)
                ok = from_raw(raw) == out.coeffs and ok
        else:
            out = elems[pos[0]] * elems[pos[1]]
            if kind == "rand" and labels[pos[0]].T != labels[pos[1]].S:
                ok = not out.coeffs  # a Peirce-incompatible pair must multiply to zero
        lat_ns.append(clock() - t0)
        results.append(out.coeffs)
        if not ok:
            bad.append(q)
    stream_s = time.perf_counter() - t_start
    digests = [
        hashlib.blake2b(repr(sorted((rank[i], str(c)) for i, c in coeffs.items())).encode(),
                        digest_size=4).hexdigest()
        for coeffs in results
    ]
    return {"digests": digests, "bad": bad, "lat_ns": lat_ns, "stream_s": stream_s}


if __name__ == "__main__":
    main()
