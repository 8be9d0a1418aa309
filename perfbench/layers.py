"""Per-layer metrics of a traced run.

The traced rounds repeat the untraced ones with span wrappers installed;
the metrics are per traced round. Two probes run with tracing off: the
Q1 kernel `energy_and_grad` at meshes 8 to 64, and one fixed multistart
fan-out through `util.pmap` with one and with two workers.
"""

import statistics
import time
import tracemalloc

import numpy as np

from spans import GRAD, VALUE, Tracer

PROBE_MESHES = (8, 16, 32, 64)
PROBE_CALLS = {8: 400, 16: 200, 32: 60, 64: 20}
BYTES_MESHES = (16, 32, 64)
FANOUT_STARTS = 5  # the clean start plus four perturbed ones
FANOUT_ITERS = 150
FANOUT_REPEATS = 3


def traced_rounds(bd, wl, capture, n_rounds, reference, state, run_rounds):
    tracer = Tracer()
    tracer.install(bd)
    try:
        rounds = []
        for _ in range(n_rounds):
            rounds += run_rounds(wl, capture, 0.0, n_rounds + len(rounds), reference, state)
    finally:
        tracer.uninstall()
    return rounds, tracer


def kernel_probe(bd):
    """ms per energy_and_grad call (median) and the bytes its numpy arrays
    take at their peak within one call, on the mueller-h integrand."""
    cs = bd.cellsolver
    f = bd.density.mueller_h_integrand()
    rng = np.random.default_rng(0)
    ms, nbytes = {}, {}
    for m in PROBE_MESHES:
        grid = cs.Grid(bd.geometry.Box.cube((0.0, 0.0), 1.0), m)
        U = rng.normal(size=(grid.n_nodes, 2))
        x0 = np.zeros(2)
        cs.energy_and_grad(grid, U, f, freeze_x=x0)
        times = []
        for _ in range(PROBE_CALLS[m]):
            t0 = time.perf_counter()
            cs.energy_and_grad(grid, U, f, freeze_x=x0)
            times.append(time.perf_counter() - t0)
        ms[m] = 1e3 * statistics.median(times)
        if m in BYTES_MESHES:
            tracemalloc.start()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            cs.energy_and_grad(grid, U, f, freeze_x=x0)
            nbytes[m] = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.stop()
    return ms, nbytes


def fanout_probe(bd):
    """Wall time of one fixed multistart solve with jobs=1 over jobs=2."""
    cs = bd.cellsolver
    f = bd.density.mueller_h_integrand()
    times = {1: [], 2: []}
    for _ in range(FANOUT_REPEATS):
        for jobs in (1, 2):
            sp = cs.SolverParams(multistarts=FANOUT_STARTS, seed=0, jobs=jobs,
                                 max_iters=FANOUT_ITERS)
            spec = cs.CellSpec(boundary=cs.AffineData(bd.density.A0, np.zeros(2)), mesh=16,
                               solver=sp, freeze_x=np.zeros(2))
            t0 = time.perf_counter()
            cs.solve_ld(spec, f)
            times[jobs].append(time.perf_counter() - t0)
    return statistics.median(times[1]) / statistics.median(times[2])


def per_layer(bd, tracer, untraced, traced, state):
    n = len(traced)
    spans = tracer.spans
    self_t = tracer.self_times()
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def total(name):
        return sum(spans[i][2] - spans[i][1] for i in by_name.get(name, ())) / n

    def self_total(name):
        return sum(self_t[i] for i in by_name.get(name, ())) / n

    def count(name):
        return len(by_name.get(name, ())) / n

    def attr_sum(name, key):
        return sum((spans[i][4] or {}).get(key, 0) for i in by_name.get(name, ())) / n

    solver = [spans[i][4] for i in by_name.get("minimize.minimize_lbfgs", ())
              if "iters" in (spans[i][4] or {})]
    iters = sum(r["iters"] for r in solver) / n
    nfev = sum(r["nfev"] for r in solver) / n
    reasons = [r["reason"] for r in solver]

    # quality figures from the round-0 results the checks already accepted
    res = state["results"]
    jump_errs = [abs(r["value"] - r["target"]) / r["target"] for r in res.values()
                 if isinstance(r, dict) and "target" in r]
    lam = res.get("homog-formulas", {}).get("laminate")
    gap = abs(lam["extrapolated"] - lam["periodic"]) / lam["periodic"] if lam else 0.0
    cli_bytes = sum(r["bytes"] for recs in traced for r in recs) / n

    ms, nbytes = kernel_probe(bd)
    speedup = fanout_probe(bd)
    wall_traced = statistics.median(sum(r["seconds"] for r in recs) for recs in traced)
    wall_plain = statistics.median(sum(r["seconds"] for r in recs) for recs in untraced)

    m = {
        "cellsolver.energy_and_grad.calls": (count("cellsolver.energy_and_grad"), "count"),
        "cellsolver.energy_and_grad.self_s": (self_total("cellsolver.energy_and_grad"), "s"),
    }
    for mesh in PROBE_MESHES:
        m[f"cellsolver.energy_and_grad.ms_per_call.m{mesh}"] = (ms[mesh], "ms")
    for mesh in BYTES_MESHES:
        m[f"cellsolver.energy_and_grad.bytes_computed.m{mesh}"] = (float(nbytes[mesh]), "bytes")
    for name in ("solve_ld", "solve_sbd", "raw_energy", "prolong"):
        m[f"cellsolver.{name}.s"] = (total(f"cellsolver.{name}"), "s")
    m["density.integrand.value_s"] = (total(VALUE), "s")
    m["density.integrand.grad_s"] = (total(GRAD), "s")
    m["density.integrand.points"] = (attr_sum(VALUE, "points"), "count")
    for name in ("sq_envelope", "jump_density", "bulk_density"):
        m[f"density.{name}.s"] = (total(f"density.{name}"), "s")
    m["density.jump_density.rel_err_max"] = (max(jump_errs, default=0.0), "ratio")
    m["minimize.runs"] = (len(solver) / n, "count")
    m["minimize.iters"] = (iters, "count")
    m["minimize.nfev"] = (nfev, "count")
    m["minimize.evals_per_iter"] = (nfev / iters if iters else 0.0, "ratio")
    m["minimize.self_s"] = (self_total("minimize.minimize_lbfgs"), "s")
    for reason in ("gtol", "max_iters", "stall"):
        m[f"minimize.runs_{reason}"] = (reasons.count(reason) / n, "count")
    m["util.pmap.starts"] = (attr_sum("util.pmap", "starts"), "count")
    m["util.pmap.s"] = (total("util.pmap"), "s")
    m["util.pmap.speedup_jobs2"] = (speedup, "ratio")
    for name in ("fhom_periodic", "fhom_dirichlet", "fold"):
        m[f"homog.{name}.s"] = (total(f"homog.{name}"), "s")
    m["homog.fhom_dirichlet.gap_to_periodic"] = (gap, "ratio")
    for name in ("bdmodel.tv_mass", "blowup.rescale", "blowup.normalize_profile",
                 "rigid.korn_ratio", "represent.assemble", "represent.relaxation_upper_check"):
        m[f"{name}.s"] = (total(name), "s")
    m["cli.main.self_s"] = (self_total("cli.main"), "s")
    m["cli.bytes_written"] = (cli_bytes, "bytes")
    m["trace.wall_s"] = (wall_traced, "s")
    m["trace.untraced_wall_s"] = (wall_plain, "s")
    m["trace.overhead_share"] = ((wall_traced - wall_plain) / wall_plain, "ratio")

    solves = [{"id": i, "start": spans[i][1], "end": spans[i][2], **spans[i][4]}
              for i in by_name.get("minimize.minimize_lbfgs", ())]
    detail = {"solver_spans": solves, "spans": len(spans), "traced_rounds": n}
    return m, detail
