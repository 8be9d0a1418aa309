"""Limited-memory quasi-Newton minimizer with Armijo backtracking.

Deterministic given the starting point: no randomized components, fixed
memory of 10 curvature pairs, and a plain backtracking line search, which
is robust for the smoothed nonsmooth energies the cell solvers produce.
The search reads values only: a gradient is asked for at the start point
and at each accepted step, never at a rejected trial point.
"""

import numpy as np

ARMIJO_C1 = 1e-4
MEMORY = 10  # curvature pairs kept
BACKTRACK = 0.5
MIN_STEP = 1e-16


class SolverError(RuntimeError):
    pass


def lbfgs_steps(x0, max_iters: int = 2000):
    """L-BFGS by reverse communication, value first: yields each point to
    evaluate and receives its value by send; yields None when it needs the
    gradient of the point it last valued and receives that gradient. It asks
    for a gradient only at x0 and at each Armijo-accepted trial point, since
    the backtracking search reads values alone. Returns the result dict once
    the gradient norm falls to grad_tol = 1e-8 * (initial norm + 1).

    A non-finite value or gradient at x0 raises SolverError("integrand
    overflow"); a non-finite value at a trial point shortens the step.
    The result holds x, f, grad_norm, grad_tol, iters, converged, nfev (the
    count of values) and reason: "gtol", "max_iters" or "line_search_stall".
    """
    x = np.asarray(x0, dtype=float).copy()
    f = yield x
    nfev = 1
    if not np.isfinite(f):
        raise SolverError("integrand overflow")
    g = yield None
    if not np.isfinite(g).all():
        raise SolverError("integrand overflow")
    gnorm = float(np.linalg.norm(g))
    grad_tol = 1e-8 * (gnorm + 1.0)

    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    rho: list[float] = []
    iters = 0

    while gnorm > grad_tol and iters < max_iters:
        # two-loop recursion
        q = g.copy()
        alphas = []
        for s, y, r in zip(reversed(s_hist), reversed(y_hist), reversed(rho)):
            a = r * float(s @ q)
            q -= a * y
            alphas.append(a)
        if y_hist:
            y_last = y_hist[-1]
            gamma = float(s_hist[-1] @ y_last) / float(y_last @ y_last)
            q *= gamma
        for (s, y, r), a in zip(zip(s_hist, y_hist, rho), reversed(alphas)):
            b = r * float(y @ q)
            q += (a - b) * s
        d = -q
        slope = float(g @ d)
        if slope >= 0.0:  # not a descent direction; restart from steepest descent
            d = -g
            slope = -gnorm * gnorm
            s_hist.clear(), y_hist.clear(), rho.clear()

        step = 1.0 if y_hist else min(1.0, 1.0 / max(gnorm, 1.0))
        f_new = f
        x_new, g_new = x, g
        while step >= MIN_STEP:
            x_try = x + step * d
            f_try = yield x_try
            nfev += 1
            if not np.isfinite(f_try):
                step *= BACKTRACK
                continue
            if f_try <= f + ARMIJO_C1 * step * slope:
                x_new, f_new = x_try, f_try
                g_new = yield None
                break
            step *= BACKTRACK
        else:
            break  # line search stalled

        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-12 * float(np.linalg.norm(s)) * max(float(np.linalg.norm(y)), 1e-300):
            s_hist.append(s)
            y_hist.append(y)
            rho.append(1.0 / sy)
            if len(s_hist) > MEMORY:
                s_hist.pop(0), y_hist.pop(0), rho.pop(0)
        x, f, g = x_new, f_new, g_new
        gnorm = float(np.linalg.norm(g))
        iters += 1

    reason = ("gtol" if gnorm <= grad_tol else "max_iters" if iters >= max_iters
              else "line_search_stall")
    return {"x": x, "f": f, "grad_norm": gnorm,
            "iters": iters, "converged": gnorm <= grad_tol, "nfev": nfev,
            "grad_tol": grad_tol, "reason": reason}


def minimize_lbfgs(fun_grad, x0, max_iters: int = 2000) -> dict:
    """lbfgs_steps from x0, evaluating fun_grad: x -> (value, gradient) at
    every point and sending the gradient where lbfgs_steps asks for it."""
    steps = lbfgs_steps(x0, max_iters)
    x = next(steps)
    try:
        while True:
            f, g = fun_grad(x)
            x = steps.send(f)
            if x is None:
                x = steps.send(g)
    except StopIteration as stop:
        return stop.value
