"""Limited-memory quasi-Newton minimizer with Armijo backtracking.

Deterministic given the starting point: no randomized components, fixed
memory of 10 curvature pairs, and a plain backtracking line search, which
is robust for the smoothed nonsmooth energies the cell solvers produce.
"""

import numpy as np

ARMIJO_C1 = 1e-4
MEMORY = 10  # curvature pairs kept
BACKTRACK = 0.5
MIN_STEP = 1e-16


class SolverError(RuntimeError):
    pass


def minimize_lbfgs(fun_grad, x0, max_iters: int = 2000) -> dict:
    """Minimize fun_grad, which maps x to (value, gradient), until the
    gradient norm falls to grad_tol = 1e-8 * (initial gradient norm + 1).

    A non-finite value or gradient at x0 raises SolverError("integrand
    overflow"); a non-finite value at a trial point shortens the step.
    Returns a dict with x, f, grad_norm, grad_tol, iters, converged, and
    nfev.
    """
    x = np.asarray(x0, dtype=float).copy()
    f, g = fun_grad(x)
    nfev = 1
    if not np.isfinite(f) or not np.isfinite(g).all():
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
            f_try, g_try = fun_grad(x_try)
            nfev += 1
            if not np.isfinite(f_try):
                step *= BACKTRACK
                continue
            if f_try <= f + ARMIJO_C1 * step * slope:
                x_new, f_new, g_new = x_try, f_try, g_try
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

    return {"x": x, "f": f, "grad_norm": gnorm,
            "iters": iters, "converged": gnorm <= grad_tol, "nfev": nfev,
            "grad_tol": grad_tol}
