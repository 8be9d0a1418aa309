"""Span tracing around the public functions of the bdrelax modules.

`Tracer.install()` replaces each traced function by a wrapper on every
bdrelax module attribute that holds it (so `density.solve_ld` and
`homog.solve_ld` are both covered), and `uninstall()` puts the originals
back. A span is (name, start, end, parent, attrs); spans stay in memory
until `dump()` writes them out. Self times subtract the union of the child
intervals, so children that ran in parallel threads are not counted twice.
"""

import dataclasses
import gzip
import json
import sys
import threading
import time

# (defining module, function) -> span name
TRACED = [
    ("cellsolver", "energy_and_grad"),
    ("cellsolver", "solve_ld"),
    ("cellsolver", "solve_sbd"),
    ("cellsolver", "raw_energy"),
    ("cellsolver", "prolong"),
    ("minimize", "minimize_lbfgs"),
    ("util", "pmap"),
    ("density", "sq_envelope"),
    ("density", "jump_density"),
    ("density", "bulk_density"),
    ("density", "recession"),
    ("homog", "fhom_periodic"),
    ("homog", "fhom_dirichlet"),
    ("homog", "fold"),
    ("bdmodel", "tv_mass"),
    ("blowup", "rescale"),
    ("blowup", "normalize_profile"),
    ("blowup", "blowup_sequence"),
    ("rigid", "korn_ratio"),
    ("rigid", "rigid_projection"),
    ("represent", "assemble"),
    ("represent", "relaxation_upper_check"),
    ("cli", "main"),
]

VALUE, GRAD = "density.integrand.value", "density.integrand.grad"


def patch_everywhere(orig, replacement):
    """Point every bdrelax module attribute that holds `orig` at
    `replacement`; returns the (module, attribute, original) patches."""
    patched = []
    for name, mod in list(sys.modules.items()):
        if (name == "bdrelax" or name.startswith("bdrelax.")) and mod is not None:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    patched.append((mod, attr, orig))
                    setattr(mod, attr, replacement)
    return patched


def unpatch(patched):
    for mod, attr, orig in reversed(patched):
        setattr(mod, attr, orig)
    patched.clear()


class Tracer:
    def __init__(self):
        self.spans = []  # [name, t0, t1, parent, attrs]
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []
        self._integrands = {}  # id(f) -> (f, traced copy)

    # -- span bookkeeping ----------------------------------------------------

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _open(self, name):
        st = self._stack()
        parent = st[-1] if st else -1
        rec = [name, time.perf_counter(), 0.0, parent, None]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(rec)
        st.append(idx)
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack().pop()

    def span(self, name, fn, on_result=None, prepare=None):
        """Wrap fn so that each call records a span named `name`."""
        tracer = self

        def wrapper(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            rec = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                rec[4] = {"error": type(exc).__name__}
                raise
            finally:
                tracer._close(rec)
            if on_result is not None:
                rec[4] = on_result(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- integrands ------------------------------------------------------------

    def traced_integrand(self, f):
        hit = self._integrands.get(id(f))
        if hit is not None and hit[0] is f:
            return hit[1]

        def points(args, kwargs, out):
            return {"points": len(args[0])}

        g = dataclasses.replace(f, value=self.span(VALUE, f.value, on_result=points),
                                grad=self.span(GRAD, f.grad, on_result=points))
        self._integrands[id(f)] = (f, g)
        return g

    # -- install / uninstall ---------------------------------------------------

    def install(self, bdrelax_pkg):
        mods = {name: getattr(bdrelax_pkg, name) for name in
                ("cellsolver", "minimize", "util", "density", "homog", "bdmodel", "blowup",
                 "rigid", "represent", "cli")}
        for modname, fname in TRACED:
            orig = getattr(mods[modname], fname)
            self._patched += patch_everywhere(orig, self._wrapper_for(f"{modname}.{fname}", orig))

    def uninstall(self):
        unpatch(self._patched)

    def _wrapper_for(self, name, orig):
        if name == "cellsolver.energy_and_grad":
            def prep(args, kwargs):
                return (args[0], args[1], self.traced_integrand(args[2])) + args[3:], kwargs
            return self.span(name, orig, prepare=prep,
                             on_result=lambda a, k, out: {"mesh": a[0].mesh})
        if name == "cellsolver.solve_sbd":
            def prep(args, kwargs):
                return (args[0], self.traced_integrand(args[1])) + args[2:], kwargs
            return self.span(name, orig, prepare=prep)
        if name == "homog.fhom_periodic":
            def prep(args, kwargs):
                spec = args[0]
                return (dataclasses.replace(spec, f0=self.traced_integrand(spec.f0)),), kwargs
            return self.span(name, orig, prepare=prep)
        if name == "minimize.minimize_lbfgs":
            def prep(args, kwargs):
                return (self.span("minimize.fun_grad", args[0]),) + args[1:], kwargs

            def solver_record(args, kwargs, res):
                max_iters = kwargs.get("max_iters", args[2] if len(args) > 2 else 2000)
                if res["converged"]:
                    reason = "gtol"
                elif res["iters"] >= max_iters:
                    reason = "max_iters"
                else:
                    reason = "stall"
                return {"iters": res["iters"], "nfev": res["nfev"], "reason": reason,
                        "f": float(res["f"]), "grad_norm": float(res["grad_norm"]),
                        "n": int(len(res["x"]))}
            return self.span(name, orig, prepare=prep, on_result=solver_record)
        if name == "util.pmap":
            def pmap_wrapper(fn, items, *rest, **kwargs):
                items = list(items)
                rec = self._open(name)
                idx = self._stack()[-1]

                def run_in_worker(x):
                    # a worker thread starts with an empty stack: hang its
                    # spans under the pmap span that started it
                    st = self._stack()
                    if st:
                        return fn(x)
                    st.append(idx)
                    try:
                        return fn(x)
                    finally:
                        st.pop()

                try:
                    return orig(run_in_worker, items, *rest, **kwargs)
                finally:
                    self._close(rec)
                    rec[4] = {"starts": len(items)}

            pmap_wrapper.__wrapped__ = orig
            return pmap_wrapper
        return self.span(name, orig)

    # -- analysis -----------------------------------------------------------------

    def self_times(self):
        """Span duration minus the union of its children's intervals."""
        children = {}
        for i, (_, t0, t1, parent, _) in enumerate(self.spans):
            if parent >= 0:
                children.setdefault(parent, []).append((t0, t1))
        out = [0.0] * len(self.spans)
        for i, (_, t0, t1, _, _) in enumerate(self.spans):
            covered = 0.0
            cur_lo = cur_hi = None
            for a, b in sorted(children.get(i, ())):
                a, b = max(a, t0), min(b, t1)
                if b <= a:
                    continue
                if cur_hi is None or a > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = a, b
                else:
                    cur_hi = max(cur_hi, b)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[i] = (t1 - t0) - covered
        return out

    def dump(self, path):
        """Write the spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i, (name, t0, t1, parent, attrs) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": t0, "end": t1, "parent": parent}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
