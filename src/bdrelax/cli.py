"""Command-line driver: parses run configuration, dispatches to the
estimator modules, and serializes CSV/JSON results deterministically
(identical config and seed give byte-identical outputs).

Exit codes: 0 success, 2 validation error, 3 solver failure.
"""

import argparse
import hashlib
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .bdmodel import StructuredBD
from .blowup import blowup_sequence
from .cellsolver import SolverParams
from .density import (bulk_density, get_integrand, get_surface_integrand, jump_density,
                      mueller_h, mueller_h_integrand, convex_envelope_witness_A0, recession,
                      sq_envelope, integrand_evaluator, A0)
from .geometry import Box
from .homog import HomogSpec, fhom_dirichlet, fhom_periodic
from .minimize import SolverError
from .represent import assemble, densities_from_integrand
from .rigid import korn_ratio
from .util import configure_logging


class ValidationError(ValueError):
    pass


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def parse_matrix(s: str) -> np.ndarray:
    s = s.strip()
    named = {"A0": A0, "Id": np.eye(2), "J": np.array([[0.0, -1.0], [1.0, 0.0]])}
    if s in named:
        return named[s].copy()
    try:
        rows = [[float(t) for t in row.split(",")] for row in s.split(";")]
        M = np.array(rows, dtype=float)
        if M.shape != (2, 2):
            raise ValueError
        return M
    except ValueError as exc:
        raise ValidationError(f"cannot parse matrix {s!r} (expect 'a,b;c,d')") from exc


def parse_vector(s: str) -> np.ndarray:
    try:
        v = np.array([float(t) for t in s.split(",")], dtype=float)
        if v.shape != (2,):
            raise ValueError
        return v
    except ValueError as exc:
        raise ValidationError(f"cannot parse vector {s!r} (expect 'a,b')") from exc


def parse_schedule(s: str):
    out = []
    for tok in s.split(","):
        tok = tok.strip()
        if "/" in tok:
            out.append(Fraction(tok))
        else:
            out.append(float(tok))
    if not out:
        raise ValidationError("empty schedule")
    return out


def parse_box(s: str) -> Box:
    try:
        lo_s, hi_s = s.split(";")
        lo = tuple(float(t) for t in lo_s.split(","))
        hi = tuple(float(t) for t in hi_s.split(","))
        return Box(lo=lo, hi=hi)
    except Exception as exc:
        raise ValidationError(f"cannot parse box {s!r} (expect 'lo1,lo2;hi1,hi2')") from exc


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, Fraction):
        return float(o)
    return str(o)


def _emit(args, command: str, payload: dict, csv_header=None, csv_rows=None) -> None:
    os.makedirs(args.out, exist_ok=True)
    # fn, the dispatch function, would put a memory address into the hash
    cfg = {k: v for k, v in vars(args).items() if k != "fn"}
    summary = {"command": command, "config-hash": _config_hash(cfg), "seed": args.seed,
               "version": __version__, **payload}
    text = json.dumps(summary, sort_keys=True, indent=2, default=_json_default)
    if args.format in ("json", "both"):
        with open(os.path.join(args.out, f"{command}.json"), "w", encoding="utf-8",
                  newline="\n") as fh:
            fh.write(text + "\n")
    if csv_header is not None and args.format in ("csv", "both"):
        _write_csv(os.path.join(args.out, f"{command}.csv"), csv_header, csv_rows)
    print(text)


def _estimate_payload(est) -> dict:
    return {"extrapolated": est.extrapolated, "spread": est.spread,
            "converged": est.converged,
            "samples": [[k, v] for k, v in est.samples]}


def _solver_params(args) -> SolverParams:
    return SolverParams(multistarts=args.multistarts, seed=args.seed, jobs=args.jobs)


def _load_json(path: str, what: str, parse):
    """parse(the JSON value in path); a missing, unreadable or malformed file,
    or a value that parse rejects, is a ValidationError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(json.load(fh))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad {what} {path}: {exc}") from exc


def _load_bd_spec(path: str) -> StructuredBD:
    return _load_json(path, "BD spec", StructuredBD.from_json)


def _table_constants(tab) -> list:
    """[f, g, finf] of a density table, a JSON object of three numbers."""
    keys = ("f", "g", "finf")
    if not isinstance(tab, dict) or not set(keys) <= tab.keys():
        raise ValueError(f"expected a JSON object with keys {list(keys)}")
    return [float(tab[k]) for k in keys]


# ---------------------------------------------------------------------------
# subcommands


def cmd_density(args) -> None:
    f0 = get_integrand(args.integrand)
    est = bulk_density(f0, parse_vector(args.x0), parse_vector(args.v),
                       parse_matrix(args.A), eps_schedule=parse_schedule(args.eps_schedule),
                       mesh=args.mesh, solver=_solver_params(args))
    _emit(args, "density", _estimate_payload(est), ["key", "value"],
          [[float(k), v] for k, v in est.samples])


def cmd_sq(args) -> None:
    f0 = get_integrand(args.integrand)
    meshes = tuple(int(m) for m in args.mesh.split(","))
    est = sq_envelope(f0, parse_matrix(args.A), mesh_schedule=meshes,
                      x0=parse_vector(args.x0), solver=_solver_params(args))
    _emit(args, "sq", _estimate_payload(est), ["key", "value"], [[k, v] for k, v in est.samples])


def cmd_jump(args) -> None:
    if args.sbd:
        f1 = get_integrand(args.integrand)
        g1 = get_surface_integrand(args.g1)
        f0 = (f1, g1)
    else:
        f0 = get_integrand(args.integrand)
    est = jump_density(f0, parse_vector(args.x0), parse_vector(args.v_minus),
                       parse_vector(args.v_plus), parse_vector(args.nu),
                       eps_schedule=parse_schedule(args.eps_schedule), mesh=args.mesh,
                       solver=_solver_params(args), variant=args.variant)
    _emit(args, "jump", _estimate_payload(est), ["key", "value"],
          [[float(k), v] for k, v in est.samples])


def cmd_recession(args) -> None:
    f0 = get_integrand(args.integrand)
    est = recession(integrand_evaluator(f0), parse_vector(args.x0), parse_vector(args.v),
                    parse_matrix(args.A), t_schedule=parse_schedule(args.t_schedule))
    _emit(args, "recession", _estimate_payload(est), ["key", "value"],
          [[float(k), v] for k, v in est.samples])


def cmd_homogenize(args) -> None:
    f0 = get_integrand(args.integrand)
    Ts = tuple(int(t) for t in args.T_schedule.split(","))
    spec = HomogSpec(f0=f0, A=parse_matrix(args.A), T_schedule=Ts,
                     mesh_per_period=args.mesh, solver=_solver_params(args))
    payload: dict = {}
    rows = []
    if args.formula in ("dirichlet", "both"):
        est = fhom_dirichlet(spec)
        payload["dirichlet"] = _estimate_payload(est)
        rows = [[k, v] for k, v in est.samples]
    if args.formula in ("periodic", "both"):
        payload["periodic"] = fhom_periodic(spec)
    _emit(args, "homogenize", payload, ["T", "value"], rows)


def cmd_blowup(args) -> None:
    u = _load_bd_spec(args.bd_spec)
    rows = blowup_sequence(u, tuple(parse_vector(args.point)),
                           parse_schedule(args.eps_schedule), rho=args.rho,
                           grid_per_axis=args.grid)
    payload = {"rows": [{"eps": r["eps"], "emass": r["emass"], "residual": r["residual"],
                         "beta": r["beta"], "flagged": r["flagged"]} for r in rows]}
    _emit(args, "blowup", payload, ["eps", "emass", "residual", "beta"],
          [[r["eps"], r["emass"], r["residual"], r["beta"]] for r in rows])


def cmd_represent(args) -> None:
    u = _load_bd_spec(args.bd_spec)
    box = parse_box(args.box)
    if args.density_source == "analytic":
        f, g, finf = densities_from_integrand(get_integrand(args.integrand))
    else:
        if args.table is None:
            raise ValidationError("--density-source table needs --table")
        consts = _load_json(args.table, "density table", _table_constants)
        f, g, finf = (lambda X, *rest, _c=c: np.full(len(np.atleast_2d(X)), _c) for c in consts)
    rep = assemble(u, box, f, g, finf, quad=args.quad)
    _emit(args, "represent",
          {"bulk": rep.bulk, "jump": rep.jump, "cantor": rep.cantor, "total": rep.total})


def cmd_mueller(args) -> None:
    A = parse_matrix(args.matrix)
    meshes = tuple(int(m) for m in args.mesh.split(","))
    est = sq_envelope(mueller_h_integrand(), A, mesh_schedule=meshes,
                      solver=SolverParams(multistarts=max(args.multistarts, 8),
                                          seed=args.seed, jobs=args.jobs))
    wit = convex_envelope_witness_A0()
    payload = {"h": mueller_h(A), "envelope": _estimate_payload(est),
               "witness": {"h_values": wit["h_values"], "mean_is_A0": wit["mean_is_A0"]}}
    _emit(args, "mueller", payload, ["key", "value"], [[k, v] for k, v in est.samples])


def cmd_korn(args) -> None:
    u = _load_bd_spec(args.bd_spec)
    box = parse_box(args.box)
    rows = korn_ratio(u, box, [float(e) for e in parse_schedule(args.eps_schedule)],
                      quad_cells=args.quad)
    _emit(args, "korn", {"rows": rows}, ["eps", "l1_residual", "ev_mass", "ratio"],
          [[r["eps"], r["l1_residual"], r["ev_mass"], r["ratio"]] for r in rows])


def cmd_selftest(args) -> None:
    from .selftest import run_all

    ok = run_all(verbose=True)
    if not ok:
        raise SolverError("acceptance suite failed")


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bdrelax", description=__doc__)
    ap.add_argument("--config", help="JSON file of default argument values")
    ap.add_argument("--out", default=".", help="output directory")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs", type=int, default=1,
                    help="accepted, no effect; multistarts run in lockstep on one thread")
    ap.add_argument("--format", choices=("csv", "json", "both"), default="both")
    ap.add_argument("--log", default=None, help="log level (or env BDRELAX_LOG)")
    ap.add_argument("--multistarts", type=int, default=1)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="bulk density estimate on the unit cell")
    p.add_argument("--integrand", default="abs-sym")
    p.add_argument("--x0", default="0,0")
    p.add_argument("--v", default="0,0")
    p.add_argument("--A", required=True)
    p.add_argument("--eps-schedule", default="1,0.5,0.25")
    p.add_argument("--mesh", type=int, default=16)
    p.set_defaults(fn=cmd_density)

    p = sub.add_parser("sq", help="discrete quasiconvex envelope across meshes")
    p.add_argument("--integrand", default="abs-sym")
    p.add_argument("--A", required=True)
    p.add_argument("--x0", default="0,0")
    p.add_argument("--mesh", default="8,16,32")
    p.set_defaults(fn=cmd_sq)

    p = sub.add_parser("jump", help="jump density on the oriented unit cell")
    p.add_argument("--integrand", default="abs-sym")
    p.add_argument("--x0", default="0,0")
    p.add_argument("--v-minus", default="0,0")
    p.add_argument("--v-plus", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--eps-schedule", default="1,0.5,0.25")
    p.add_argument("--mesh", type=int, default=32)
    p.add_argument("--variant", choices=("eps", "bis"), default="eps")
    p.add_argument("--sbd", action="store_true")
    p.add_argument("--g1", default="odot")
    p.set_defaults(fn=cmd_jump)

    p = sub.add_parser("recession", help="recession secant slopes")
    p.add_argument("--integrand", default="sqrt1plus-sym")
    p.add_argument("--x0", default="0,0")
    p.add_argument("--v", default="0,0")
    p.add_argument("--A", required=True)
    p.add_argument("--t-schedule", default="1e2,1e3,1e4")
    p.set_defaults(fn=cmd_recession)

    p = sub.add_parser("homogenize", help="growing-cube / periodic cell formulas")
    p.add_argument("--integrand", default="laminate-a")
    p.add_argument("--A", required=True)
    p.add_argument("--T-schedule", default="1,2,4")
    p.add_argument("--mesh", type=int, default=16, help="mesh per period")
    p.add_argument("--formula", choices=("dirichlet", "periodic", "both"), default="both")
    p.set_defaults(fn=cmd_homogenize)

    p = sub.add_parser("blowup", help="rescaled windows with profile fits")
    p.add_argument("--bd-spec", required=True)
    p.add_argument("--point", default="0,0")
    p.add_argument("--eps-schedule", default="1,1/3,1/9")
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--grid", type=int, default=48)
    p.set_defaults(fn=cmd_blowup)

    p = sub.add_parser("represent", help="assemble the three-term representation")
    p.add_argument("--bd-spec", required=True)
    p.add_argument("--box", default="-0.5,-0.5;0.5,0.5")
    p.add_argument("--density-source", choices=("analytic", "table"), default="analytic")
    p.add_argument("--integrand", default="abs-sym")
    p.add_argument("--table", help="JSON {f, g, finf} constants for --density-source table")
    p.add_argument("--quad", type=int, default=64)
    p.set_defaults(fn=cmd_represent)

    p = sub.add_parser("mueller", help="skew-sensitivity suite")
    p.add_argument("--matrix", default="A0")
    p.add_argument("--mesh", default="8,16,32")
    p.set_defaults(fn=cmd_mueller)

    p = sub.add_parser("korn", help="scaled rigidity ratios")
    p.add_argument("--bd-spec", required=True)
    p.add_argument("--box", default="-0.5,-0.5;0.5,0.5")
    p.add_argument("--eps-schedule", default="1,1/3,1/9")
    p.add_argument("--quad", type=int, default=243)
    p.set_defaults(fn=cmd_korn)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.set_defaults(fn=cmd_selftest)
    return ap


def _config_defaults(ap: argparse.ArgumentParser, command: str, path: str) -> None:
    """Make each entry of the JSON object in `path` the default of the
    option it names ("eps-schedule" or "eps_schedule"), on the top-level or
    the `command` parser. Values are parsed by the option's type and checked
    against its choices; a flag takes true or false. Keys that name no
    option, and "config", are ignored. A bad file or value exits 2.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError("expected a JSON object")
        subparsers = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
        for parser in (ap, subparsers.choices[command]):
            options = {a.dest: a for a in parser._actions
                       if a.option_strings and a.dest not in ("config", "help")}
            for key, val in cfg.items():
                action = options.get(key.replace("-", "_"))
                if action is None:
                    continue
                if action.nargs == 0 and not isinstance(val, bool):
                    raise ValueError(f"{key}: expected true or false, got {val!r}")
                if action.nargs != 0:
                    val = action.type(str(val)) if action.type else str(val)
                    if action.choices is not None and val not in action.choices:
                        raise ValueError(f"{key}: {val!r} is not one of {list(action.choices)}")
                parser.set_defaults(**{action.dest: val})
    except (OSError, ValueError) as exc:
        ap.error(f"bad config {path}: {exc}")


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        if args.config:
            # the config's entries become parser defaults, so a second parse
            # lets every explicit flag win, abbreviated or not
            _config_defaults(ap, args.command, args.config)
            args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        configure_logging(args.log)
        args.fn(args)
        return 0
    except (KeyError, ValueError) as exc:  # every validation error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
