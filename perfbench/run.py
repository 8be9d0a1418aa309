"""bdrelax benchmark: end-to-end metrics (--trace 0) or per-layer metrics
from a traced run (--trace 1) for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout: it imports `bdrelax` from
`./src`, writes everything under `perfbench/out/`, and prints one JSON
result object as the last line of standard output. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# single client, at most nproc threads: the multistart pool brings its own
# workers, so numerical libraries stay single-threaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# the benchmark's own modules sit next to this file, on sys.path[0]
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5
OUT = os.path.join("perfbench", "out")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def import_program():
    """Import bdrelax from ./src of the checkout, never from elsewhere."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "bdrelax", "__init__.py")):
        fail("no src/bdrelax here: run from the root of a bdrelax source checkout")
    sys.path.insert(0, src)
    import bdrelax
    import bdrelax.cli  # noqa: F401  (imports every other bdrelax module)
    if not os.path.abspath(bdrelax.__file__).startswith(src + os.sep):
        fail(f"imported bdrelax from {bdrelax.__file__}, not from {src}")
    return bdrelax


def source_digest():
    h = hashlib.sha256()
    for d in (os.path.join("src", "bdrelax"), HERE):
        for fn in sorted(os.listdir(d)):
            if fn.endswith(".py"):
                with open(os.path.join(d, fn), "rb") as fh:
                    h.update(fn.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


class SolveCapture:
    """Records (spec, integrand, solution) of every conforming cell solve,
    on every module name `solve_ld` is reachable under."""

    def __init__(self, bd):
        self.records = []
        orig = bd.cellsolver.solve_ld

        def solve_ld(spec, f, *args, **kwargs):
            sol = orig(spec, f, *args, **kwargs)
            self.records.append((spec, f, sol))
            return sol

        self._patched = spans.patch_everywhere(orig, solve_ld)

    def take(self):
        out = list(self.records)
        self.records.clear()
        return out

    def uninstall(self):
        spans.unpatch(self._patched)


def stable_hash(path):
    """sha256 of a CLI output file. JSON summaries carry a config-hash that
    depends on a function address, which differs between processes, so the
    cross-run hash drops that one line; the raw hash is kept beside it."""
    with open(path, "rb") as fh:
        data = fh.read()
    raw = hashlib.sha256(data).hexdigest()
    if path.endswith(".json"):
        data = b"\n".join(ln for ln in data.split(b"\n") if b'"config-hash"' not in ln)
    return raw, hashlib.sha256(data).hexdigest()


def fingerprint(op, res, solves):
    if op.parts:
        fps = {p.name: (fingerprint(p, r, []) if exc is None
                        else {"raw": exc, "stable": exc, "bytes": 0})
               for p, (r, exc) in ((p, res[p.name]) for p in op.parts)}

        def digest(key):
            blob = json.dumps({k: v[key] for k, v in fps.items()}, sort_keys=True)
            return hashlib.sha256(blob.encode()).hexdigest()

        return {"raw": digest("raw"), "stable": digest("stable"),
                "bytes": sum(v["bytes"] for v in fps.values())}
    if op.cli_out is not None:
        files = {fn: stable_hash(p) for fn, p in sorted(res["files"].items())}
        return {"rc": res["rc"], "exception": res["exception"],
                "raw": {fn: h[0] for fn, h in files.items()},
                "stable": {fn: h[1] for fn, h in files.items()},
                "bytes": sum(os.path.getsize(p) for p in res["files"].values())}
    blob = repr((res, [s[2].value for s in solves])).encode()
    digest = hashlib.sha256(blob).hexdigest()
    return {"raw": digest, "stable": digest, "bytes": 0}


def run_rounds(wl, capture, budget_s, first_round, reference, state):
    """Run whole rounds of the workload's operations: the first always, each
    further one only while it is expected to end within budget_s, so that a
    run lasts about max(one round, budget_s). Round 0 of the run gets the
    full checks; later rounds must reproduce its outputs exactly."""
    rounds = []
    t_start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        rnd = first_round + len(rounds)
        recs = []
        for op in wl.ops:
            capture.take()
            t0 = time.perf_counter()
            try:
                res, exc = op.run(), None
            except Exception as e:
                res, exc = None, f"{type(e).__name__}: {e}"
            dt = time.perf_counter() - t0
            solves = capture.take()
            if exc is not None:
                errs, fp = [f"raised {exc}"], None
            else:
                fp = fingerprint(op, res, solves)
                if op.name not in reference:
                    errs = op.check(res, solves)
                    reference[op.name] = (fp, errs)
                    state["results"][op.name] = res
                    for p in op.parts or ():
                        state["results"][p.name] = res[p.name][0]
                else:
                    ref_fp, ref_errs = reference[op.name]
                    errs = list(ref_errs)
                    if fp["raw"] != ref_fp["raw"] or fp.get("rc") != ref_fp.get("rc"):
                        errs.append(f"output differs from round {first_round}")
            # (message, known fault) pairs; a suite's check returns them itself
            errs = [e if isinstance(e, tuple) else (e, op.known_fault) for e in errs]
            failed = bool(errs)
            if any(not known for _, known in errs):
                state["correct"] = False
            recs.append({"op": op.name, "round": rnd, "seconds": dt, "failed": failed,
                         "known_fault": failed and all(known for _, known in errs),
                         "errors": [msg for msg, _ in errs],
                         "bytes": fp["bytes"] if fp else 0, "hashes": fp})
        rounds.append(recs)
        now = time.perf_counter()
        if now - t_start + (now - t_round) > budget_s:
            return rounds


def cross_run_check(wl, reference, state, digest):
    """Runs with the same seed and the same code must write the same bytes."""
    hashes = {name: fp["stable"] for name, (fp, _) in sorted(reference.items())}
    d = os.path.join(OUT, "hashes")
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, f"{wl.name}-s{wl.seed}-{digest}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            before = json.load(fh)
        if before != hashes:
            state["correct"] = False
            state["notes"].append(f"outputs differ from an earlier run with seed {wl.seed}")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(hashes, fh, indent=1, sort_keys=True)
    return hashes


def measure_setup(workload, seed):
    """Median wall time of fresh interpreters that import bdrelax and
    build the workload's inputs."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=120, check=False)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            fail(f"set-up failed: {proc.stderr.decode(errors='replace').strip()}")
    return statistics.median(times), times


def warm_up(bd, out_root):
    """One tiny cell solve and one CLI command, so first-call costs stay
    out of the timed rounds."""
    cs = bd.cellsolver
    spec = cs.CellSpec(boundary=cs.AffineData([[1.0, 0.0], [0.0, 0.0]], [0.0, 0.0]), mesh=4)
    cs.solve_ld(spec, bd.density.get_integrand("abs-sym"))
    workloads.cli_run(bd, os.path.join(out_root, "warm-up"),
                      ["recession", "--integrand", "sqrt1plus-sym", "--A", "1,0;0,1"])


def end_to_end(rounds, setup_s):
    per_op = {}
    for recs in rounds:
        for r in recs:
            per_op.setdefault(r["op"], []).append(r["seconds"])
    return {
        "wall_s": (statistics.median(sum(r["seconds"] for r in recs) for recs in rounds), "s"),
        # median over the workload's operations of each one's median time
        "op_s_p50": (statistics.median(statistics.median(t) for t in per_op.values()), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    out_root = os.path.join(OUT, f"{args.workload}-s{args.seed}")

    if args.setup_only:
        workloads.build(args.workload, args.seed, import_program(), out_root)
        return 0

    if not os.path.isfile(os.path.join("src", "bdrelax", "__init__.py")):
        fail("no src/bdrelax here: run from the root of a bdrelax source checkout")
    setup_s, setup_samples = (None, []) if args.trace else measure_setup(args.workload, args.seed)
    bd = import_program()
    wl = workloads.build(args.workload, args.seed, bd, out_root)
    capture = SolveCapture(bd)
    warm_up(bd, out_root)

    state = {"correct": True, "notes": [], "results": {}}
    reference = {}
    layers = None
    if not args.trace:
        rounds = run_rounds(wl, capture, args.seconds, 0, reference, state)
        metrics = end_to_end(rounds, setup_s)
    else:
        import layers as layer_mod
        untraced = run_rounds(wl, capture, args.seconds / 2.0, 0, reference, state)
        traced, tracer = layer_mod.traced_rounds(bd, wl, capture, len(untraced), reference,
                                                 state, run_rounds)
        rounds = untraced + traced
        metrics, layers = layer_mod.per_layer(bd, tracer, untraced, traced, state)
        os.makedirs(os.path.join(OUT, "trace"), exist_ok=True)
        tracer.dump(os.path.join(OUT, "trace", f"{wl.name}-s{wl.seed}.jsonl.gz"))
    capture.uninstall()
    digest = source_digest()
    hashes = cross_run_check(wl, reference, state, digest)

    records = [r for recs in rounds for r in recs]
    attempted = len(records)
    failed = sum(r["failed"] for r in records)
    result = {"correct": state["correct"], "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    detail = {
        "workload": wl.name, "seed": wl.seed, "seconds": args.seconds, "trace": args.trace,
        "inputs": wl.inputs, "result": result, "notes": state["notes"],
        "setup_samples_s": setup_samples, "rounds": len(rounds), "operations": records,
        "cli_hashes": hashes, "layers": layers, "source_digest": digest,
        "env": {"nproc": os.cpu_count(), "python": platform.python_version(),
                "numpy": bd.cellsolver.np.__version__, "machine": platform.machine()},
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results", f"{wl.name}-s{wl.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, default=str)
    reported = set()
    for r in records:
        if r["failed"] and r["op"] not in reported:
            reported.add(r["op"])
            print(f"{'FAILED (known fault)' if r['known_fault'] else 'FAILED'} "
                  f"{r['op']}: {'; '.join(r['errors'])}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
