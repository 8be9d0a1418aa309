"""Rescaled windows around a base point with exact mass normalization, and
the normalization algebra for one-directional profiles (the kappa/beta
identities).

The rescaling maps a structured field u to

    (u(x + eps y) - rigid projection) / (eps |Eu|(W) / |W|),   W = x + eps K,

which carries total variation exactly |K| over the window shape K. The
mass identity is verified with rational arithmetic: the pushed-forward
atom bookkeeping must reproduce the window mass term by term, and the
reported mass is |K| times that exact ratio.

Profile normalization follows the two-vector case (kappa correction into
the skew part, beta absorbing it) and the parallel case (monotone, no skew
correction); both are computed in exact rational arithmetic, so they are
idempotent to the bit.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bdmodel import (ExplicitStaircase, JumpPlane, Mass, Profile, SmoothAffine, SmoothMapped,
                      StructuredBD, _as_fraction, _axis_of, _mass, total_variation, tv_mass_exact)
from .geometry import Box
from .rigid import rigid_projection

J_SKEW = np.array([[0.0, -1.0], [1.0, 0.0]])


class BlowupError(ValueError):
    pass


@dataclass(frozen=True)
class BlowupFrame:
    """Window x + eps K around the base point x; K contains the origin.

    eps may be passed as a Fraction (e.g. Fraction(1, 3)**k) to make the
    window coordinates exact for the mass identity.
    """

    x: tuple
    K: Box
    eps: object

    def __post_init__(self):
        if float(self.eps) <= 0:
            raise BlowupError("eps must be positive")
        lo, hi = np.asarray(self.K.lo), np.asarray(self.K.hi)
        if not (np.all(lo < 0) and np.all(hi > 0)):
            raise BlowupError("window shape K must contain the origin")

    @property
    def x_fr(self) -> tuple[Fraction, Fraction]:
        return (_as_fraction(self.x[0]), _as_fraction(self.x[1]))

    @property
    def eps_fr(self) -> Fraction:
        return _as_fraction(self.eps)

    def window_fr(self):
        xf, ef = self.x_fr, self.eps_fr
        lo = tuple(xf[k] + ef * _as_fraction(self.K.lo[k]) for k in range(2))
        hi = tuple(xf[k] + ef * _as_fraction(self.K.hi[k]) for k in range(2))
        return lo, hi

    @property
    def window(self) -> Box:
        lo, hi = self.window_fr()
        return Box(lo=(float(lo[0]), float(lo[1])), hi=(float(hi[0]), float(hi[1])))


def _pushed_mass(u: StructuredBD, frame: BlowupFrame) -> Mass:
    """Window mass recomputed through the pushforward y = (p - x)/eps: atom
    positions are transported into K and chord lengths rescaled, so the
    result must equal the window mass exactly when the bookkeeping is
    consistent."""
    xf, ef = frame.x_fr, frame.eps_fr
    Klo = (_as_fraction(frame.K.lo[0]), _as_fraction(frame.K.lo[1]))
    Khi = (_as_fraction(frame.K.hi[0]), _as_fraction(frame.K.hi[1]))
    ext = (Khi[0] - Klo[0], Khi[1] - Klo[1])

    def chord(nu, pos) -> Fraction:
        ax = _axis_of(nu)
        if ax is None:
            raise ValueError("exact mass requires axis-aligned atom planes")
        k, sign = ax
        y = (sign * _as_fraction(pos) - xf[k]) / ef
        if y == Klo[k] or y == Khi[k]:
            raise BlowupError("boundary-charged window")
        if Klo[k] < y < Khi[k]:
            return ext[1 - k] * ef
        return Fraction(0)

    return _mass(u, frame.window.center, ext[0] * ext[1] * ef * ef, chord)


@dataclass
class RescaledField:
    structured: StructuredBD
    points: np.ndarray  # (g*g, 2) sample points in K
    samples: np.ndarray  # (g*g, 2) field values
    emass: float  # |E u_resc|(K); equals |K| exactly for exact inputs
    emass_ratio: object  # Fraction 1 when the bookkeeping closes
    normalization: float  # |Eu|(W) / |W|


def rescale(u: StructuredBD, frame: BlowupFrame, grid_per_axis: int = 48) -> RescaledField:
    """Sample the normalized rescaled field and certify its E-mass.

    Fields with a zero or affine smooth part and axis-aligned atoms go
    through the exact rational path (the reported mass equals |K| to the
    bit); other smooth parts fall back to quadrature masses.
    """
    if grid_per_axis < 1:
        raise BlowupError(f"grid per axis must be >= 1, got {grid_per_axis}")
    Wlo, Whi = frame.window_fr()
    W = frame.window
    exact = True
    try:
        m_window = tv_mass_exact(u, Wlo, Whi)
        tv = m_window.value
    except ValueError:
        exact = False
        m_window = None
        tv = total_variation(u, W)
    if tv <= 0.0:
        raise BlowupError("rigid window")
    eps = float(frame.eps)
    volK = frame.K.volume
    t_norm = tv / (eps * eps * volK)
    s = 1.0 / (eps * t_norm)

    r = rigid_projection(u, W)
    x = np.array([float(frame.x[0]), float(frame.x[1])])
    # constant carried by the transverse profile slope at the base point
    beta_const = np.zeros(2)
    if u.profile is not None and u.profile.beta != 0.0:
        p = u.profile
        beta_const = p.beta * float(x @ p.xi) * p.eta
    if isinstance(u.smooth, SmoothAffine):
        A2 = u.smooth.A - r.L
        v2 = u.smooth.v - (r.v - r.L @ r.anchor)
        smooth = SmoothAffine(s * eps * A2, s * (v2 + A2 @ x + beta_const))
    else:
        smooth = SmoothMapped(u.smooth, x, eps, s, r.L, r.v - beta_const, r.anchor)
    jumps = []
    for j in u.jumps:
        c_new = (j.c - float(x @ j.nu)) / eps
        jumps.append(JumpPlane(nu=j.nu, c=c_new, dv=s * j.dv))
    profile = None
    if u.profile is not None:
        p = u.profile
        xf, ef = frame.x_fr, frame.eps_fr
        if _axis_of(p.eta) is None:
            raise BlowupError("rescale requires an axis-aligned profile direction")
        x_eta_fr = xf[0] * _as_fraction(p.eta[0]) + xf[1] * _as_fraction(p.eta[1])
        s_fr = _as_fraction(s)
        stair = ExplicitStaircase(
            atom_list=tuple(((t - x_eta_fr) / ef, s_fr * q) for t, q in p.staircase.atoms()),
            offset=s * p.staircase.offset,
        )
        profile = Profile(eta=p.eta, xi=p.xi, beta=s * eps * p.beta, staircase=stair)
    resc = StructuredBD(smooth=smooth, jumps=tuple(jumps), profile=profile)

    volK_fr = ((_as_fraction(frame.K.hi[0]) - _as_fraction(frame.K.lo[0]))
               * (_as_fraction(frame.K.hi[1]) - _as_fraction(frame.K.lo[1])))
    if exact:
        m_pushed = _pushed_mass(u, frame)
        ratio = m_pushed.exact_ratio(m_window)
        if isinstance(ratio, Fraction):
            emass = float(ratio * volK_fr)
        else:
            emass = ratio * float(volK_fr)
    else:
        ratio = None
        emass = total_variation(resc, frame.K)

    g = grid_per_axis
    xs = np.asarray(frame.K.lo)[None, :] + ((np.arange(g) + 0.5) / g)[:, None] * frame.K.extent[None, :]
    X1, X2 = np.meshgrid(xs[:, 0], xs[:, 1], indexing="ij")
    pts = np.stack([X1.ravel(), X2.ravel()], axis=1)
    samples = resc.value(pts)
    return RescaledField(structured=resc, points=pts, samples=samples, emass=emass,
                         emass_ratio=ratio, normalization=t_norm)


# ---------------------------------------------------------------------------
# profile normalization algebra


@dataclass(frozen=True)
class ProfilePair:
    """One-directional profile psi_bar(y . eta) xi + beta_bar (y . xi) eta on
    the slab |y . eta| < rho/2, with psi_bar = offset + slope t + jumps."""

    atoms: tuple  # ((t, jump), ...) with -rho/2 < t < rho/2
    slope: Fraction
    offset: Fraction
    beta_bar: Fraction
    rho: Fraction
    eta: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rho", _as_fraction(self.rho))
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        object.__setattr__(self, "slope", _as_fraction(self.slope))
        object.__setattr__(self, "offset", _as_fraction(self.offset))
        object.__setattr__(self, "beta_bar", _as_fraction(self.beta_bar))
        atoms = tuple(sorted((_as_fraction(t), _as_fraction(q)) for t, q in self.atoms))
        half = self.rho / 2
        if any(not (-half < t < half) for t, _ in atoms):
            raise ValueError("atom positions must lie inside (-rho/2, rho/2)")
        object.__setattr__(self, "atoms", atoms)
        e = np.asarray(self.eta, dtype=float).reshape(2)
        x = np.asarray(self.xi, dtype=float).reshape(2)
        object.__setattr__(self, "eta", e / np.linalg.norm(e))
        object.__setattr__(self, "xi", x / np.linalg.norm(x))

    @property
    def parallel(self) -> bool:
        return bool(abs(abs(float(self.eta @ self.xi)) - 1.0) < 1e-12)

    def mean(self) -> Fraction:
        acc = self.offset
        for t, q in self.atoms:
            acc += q * (self.rho / 2 - t) / self.rho
        return acc

    def derivative_mass(self) -> Fraction:
        """D psi((-rho/2, rho/2)) = slope * rho + sum of jumps (signed)."""
        return self.slope * self.rho + sum((q for _, q in self.atoms), Fraction(0))

    def total_variation(self) -> Fraction:
        return abs(self.slope) * self.rho + sum((abs(q) for _, q in self.atoms), Fraction(0))


@dataclass(frozen=True)
class NormalizedProfile:
    psi: ProfilePair  # zero-average, beta folded out (beta_bar field = beta)
    beta: Fraction
    kappa: Fraction
    rigid_L: np.ndarray
    rigid_v: np.ndarray


def normalize_profile(p: ProfilePair) -> NormalizedProfile:
    """Two-vector normalization: remove the skew part generated by the
    profile's linear drift.

    kappa = (D psi_bar(I) - beta_bar rho) / (2 rho), I = (-rho/2, rho/2);
    psi = psi_bar - kappa t - mean(psi_bar); beta = beta_bar + kappa. The
    output has exact zero average and D psi(I) = beta rho; applying the map
    twice returns the first output bit for bit.
    """
    if p.parallel:
        raise ValueError("xi = +-eta: route to the parallel (case-three) variant")
    kappa = (p.derivative_mass() - p.beta_bar * p.rho) / (2 * p.rho)
    mean = p.mean()
    psi = ProfilePair(atoms=p.atoms, slope=p.slope - kappa, offset=p.offset - mean,
                      beta_bar=p.beta_bar + kappa, rho=p.rho, eta=p.eta, xi=p.xi)
    beta = p.beta_bar + kappa
    L = float(kappa) * (np.outer(p.xi, p.eta) - np.outer(p.eta, p.xi))
    v = float(mean) * p.xi
    return NormalizedProfile(psi=psi, beta=beta, kappa=kappa, rigid_L=L, rigid_v=v)


def normalize_profile_parallel(p: ProfilePair) -> NormalizedProfile:
    """Parallel-vector normalization: mean shift only; the profile must be
    nondecreasing (slope and jumps nonnegative up to 1e-10)."""
    if not p.parallel:
        raise ValueError("normalize_profile_parallel requires xi = +-eta")
    if float(p.slope) < -1e-10 or any(float(q) < -1e-10 for _, q in p.atoms):
        raise ValueError("hypothesis violated")
    mean = p.mean()
    psi = ProfilePair(atoms=p.atoms, slope=p.slope, offset=p.offset - mean,
                      beta_bar=Fraction(0), rho=p.rho, eta=p.eta, xi=p.xi)
    return NormalizedProfile(psi=psi, beta=Fraction(0), kappa=Fraction(0),
                             rigid_L=np.zeros((2, 2)), rigid_v=float(mean) * p.xi)


# ---------------------------------------------------------------------------
# blow-up sequences with profile fitting


def fit_profile_form(resc: RescaledField, eta, xi, cell_area: float) -> dict:
    """Least-squares fit of a rescaled field to
    psi(y . eta) xi + beta (y . xi) eta + L y + v with psi a staircase whose
    atoms sit at the exact discontinuity locations of the field."""
    eta = np.asarray(eta, dtype=float).reshape(2)
    xi = np.asarray(xi, dtype=float).reshape(2)
    pts, vals = resc.points, resc.samples
    te = pts @ eta
    tx = pts @ xi
    cols = []
    prof = resc.structured.profile
    atom_pos = [float(t) for t, _ in prof.staircase.atoms()] if prof is not None else []
    for t in atom_pos:
        cols.append(((te >= t).astype(float))[:, None] * xi[None, :])
    cols.append(te[:, None] * xi[None, :])  # affine part of psi
    cols.append(tx[:, None] * eta[None, :])  # beta term
    cols.append(pts @ J_SKEW.T)  # skew rigid
    cols.append(np.broadcast_to(np.array([1.0, 0.0]), pts.shape))
    cols.append(np.broadcast_to(np.array([0.0, 1.0]), pts.shape))
    Amat = np.stack([c.ravel() for c in cols], axis=1)
    coef, *_ = np.linalg.lstsq(Amat, vals.ravel(), rcond=None)
    fitted = (Amat @ coef).reshape(vals.shape)
    resid = float(np.abs(vals - fitted).sum() * cell_area)
    n_atoms = len(atom_pos)
    return {
        "residual_l1": resid,
        "atom_values": coef[:n_atoms],
        "psi_slope": coef[n_atoms],
        "beta": float(coef[n_atoms + 1]),
        "skew": float(coef[n_atoms + 2]),
        "shift": coef[n_atoms + 3: n_atoms + 5],
    }


def blowup_sequence(u: StructuredBD, x, eps_schedule, rho: float = 1.0,
                    grid_per_axis: int = 48) -> list[dict]:
    """Rescale u around x along the schedule and fit each window to the
    one-directional profile form; the fit residual is reported per eps and
    flagged (not fatal) above 1e-6."""
    if u.profile is None:
        raise BlowupError("blowup_sequence expects a field with a profile part")
    eta, xi = u.profile.eta, u.profile.xi
    K = Box(lo=(-rho / 2.0, -0.5), hi=(rho / 2.0, 0.5)) if abs(eta[0]) > 0.5 else \
        Box(lo=(-0.5, -rho / 2.0), hi=(0.5, rho / 2.0))
    rows = []
    for eps in eps_schedule:
        frame = BlowupFrame(x=tuple(x), K=K, eps=eps)
        resc = rescale(u, frame, grid_per_axis=grid_per_axis)
        fit = fit_profile_form(resc, eta, xi, cell_area=K.volume / len(resc.points))
        rows.append({"eps": float(eps), "emass": resc.emass, "residual": fit["residual_l1"],
                     "beta": fit["beta"], "flagged": fit["residual_l1"] > 1e-6,
                     "fit": fit, "rescaled": resc})
    return rows
