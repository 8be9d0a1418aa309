"""Acceptance gate: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (run pytest with -s to see them on success)."""

import re

import numpy as np
import pytest

from bdrelax import homog, selftest
from bdrelax.density import DensityEstimate


def _run(num, name, fn):
    ok, detail = fn()
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.mark.parametrize("num,name,fn", selftest.CHECKS,
                         ids=[f"{n:02d}-{name.replace(' ', '-')}" for n, name, _ in selftest.CHECKS])
def test_acceptance(num, name, fn):
    _run(num, name, fn)


def test_mueller_check_names_each_sample_stop(monkeypatch):
    # check 04 names the stop reason of every Qh(Id) and Qh(A0) sample,
    # passing or failing. Its integrand declares only the floor 0, whose
    # bound 0 |box| certifies no positive value, so each note says that no
    # certificate was made where it read "rel gap 1.0e+00" before; a
    # certified cell still reads its relative gap, and a zero value 0
    reasons = ("gtol", "max_iters", "line_search_stall")
    for a0_values, passed in (((2.0, 1.5, 1.25), True), ((2.0, 1.5, 0.01), False)):
        def sq_envelope(h, A, mesh_schedule, solver):
            values = (0.0, 0.0, 0.0) if np.array_equal(A, np.eye(2)) else a0_values
            return DensityEstimate.from_samples(
                (mesh, v, {"reason": r, "lower_bound": 0.0, "gap": v})
                for mesh, v, r in zip(mesh_schedule, values, reasons))

        monkeypatch.setattr(selftest, "sq_envelope", sq_envelope)
        ok, detail = selftest.check_mueller_suite()
        assert ok is passed
        stops = re.findall(r"Qh\((\w+)\) mesh (\d+) stopped on (\w+), "
                           r"(no certificate \(floor bound only\)|rel gap \S+?)[,)]", detail)
        assert stops == [(name, mesh, reason, "no certificate (floor bound only)")
                         for name in ("Id", "A0")
                         for mesh, reason in zip(("8", "16", "32"), reasons)]
    for d, rel in (({"reason": "gap", "lower_bound": 0.5, "gap": 5e-6}, "1.0e-05"),
                   ({"reason": "gap", "lower_bound": 0.0, "gap": 0.0}, "0.0e+00"),
                   ({"reason": "gtol"}, "n/a")):
        assert selftest._stop_note("cell", d) == f"cell stopped on {d['reason']}, rel gap {rel}"


def test_folding_check_reports_the_mass_gap_it_measured(monkeypatch):
    # check 07 gates the mass gap at exactly 0 and prints the gap it
    # measured: a fold off by one rounding fails it and reads so
    assert selftest.check_folding() == (
        True, "energy gap 0.00e+00 (tol 1e-8), mass gap 0.00e+00 (tol 0)")
    folded, fold_emass = set(), selftest.fold_emass

    def fold(*args, **kwargs):
        wj = homog.fold(*args, **kwargs)
        folded.add(id(wj))
        return wj

    def off_by_one_ulp(w):
        mass = fold_emass(w)
        return np.nextafter(mass, np.inf) if id(w) in folded else mass

    monkeypatch.setattr(selftest, "fold", fold)
    monkeypatch.setattr(selftest, "fold_emass", off_by_one_ulp)
    ok, detail = selftest.check_folding()
    assert not ok and detail.endswith("mass gap 4.44e-16 (tol 0)")
