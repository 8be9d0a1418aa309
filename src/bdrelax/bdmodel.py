"""Synthetic two-dimensional BD fields with exactly queryable symmetrized
derivative: a closed-form smooth part, a finite list of jump planes, and an
optional Cantor-staircase profile.

The symmetrized distributional derivative of such a field splits into an
absolutely continuous density, jump atoms carried by the planes, and
"singular-profile" atoms carried by the staircase. The staircase lives at
finite construction depth, so its derivative is technically atomic; both
kinds of atom sit in the one list `StructuredBD.atoms()`, where a staircase
atom has no jump-plane index, so downstream consumers can pair it with a
recession density rather than a surface density.

Masses are tracked with exact rational coefficients (one irrational unit
factor per atom family), which lets rescaling identities be verified with
zero tolerance.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as P

from .geometry import Box, box_integral, box_plane_segment, clip_halfplane, polygon_area
from .tensor import frob, odot, sym


class BoundaryChargedBox(ValueError):
    pass


# ---------------------------------------------------------------------------
# exact mass bookkeeping


class Mass:
    """A nonnegative measure total written as sum_k q_k * u_k with rational
    coefficients q_k and one float "unit" u_k per atom family k."""

    __slots__ = ("terms",)

    def __init__(self):
        self.terms: dict[tuple, list] = {}

    def add(self, key: tuple, coeff: Fraction, unit: float) -> None:
        if coeff == 0:
            return
        if key in self.terms:
            self.terms[key][0] += coeff
        else:
            self.terms[key] = [coeff, float(unit)]

    @property
    def value(self) -> float:
        return math.fsum(float(q) * u for q, u in self.terms.values())

    def exact_ratio(self, other: "Mass"):
        """self / other as an exact Fraction when the two masses are
        term-by-term proportional; plain float ratio otherwise."""
        if set(self.terms) == set(other.terms) and self.terms:
            ratios = {self.terms[k][0] / other.terms[k][0] for k in self.terms}
            if len(ratios) == 1:
                return ratios.pop()
        return self.value / other.value


# ---------------------------------------------------------------------------
# Cantor staircase


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(float(x))  # exact: binary floats are rationals


class Staircase:
    """offset + the sum of the atom jumps at or left of t. Subclasses give
    the sorted exact (position, jump) tuple `atoms()` and the float `offset`."""

    def value(self, t) -> np.ndarray:
        """Staircase value, right-continuous at the atoms."""
        pos, levels = self._steps
        return levels[np.searchsorted(pos, np.asarray(t, dtype=float), side="right")] + self.offset

    @cached_property
    def _steps(self) -> tuple[np.ndarray, np.ndarray]:
        # float atom positions and the raw level of each plateau (0 left of
        # every atom): the one float view of the atoms, built once per instance
        atoms = self.atoms()
        return (np.array([float(p) for p, _ in atoms]),
                np.cumsum([0.0] + [float(q) for _, q in atoms]))


@dataclass(frozen=True)
class CantorProfile(Staircase):
    """Triadic staircase at finite depth: 2**depth jumps of equal mass at
    the midpoints of the depth-d construction intervals of [a, b].

    The distributional derivative is purely atomic, nonnegative, of total
    mass `total_mass`; refining to depth d+1 splits every atom into two of
    half the mass, preserving the total exactly. Values are reported with
    the zero-average shift over the support applied.
    """

    depth: int
    total_mass: Fraction
    support: tuple[Fraction, Fraction]

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.total_mass <= 0:
            raise ValueError("total mass must be positive")
        a, b = self.support
        if not b > a:
            raise ValueError("empty support")

    @classmethod
    def make(cls, depth: int, total_mass, support) -> "CantorProfile":
        a, b = support
        return cls(depth=depth, total_mass=_as_fraction(total_mass),
                   support=(_as_fraction(a), _as_fraction(b)))

    def atoms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """Sorted (position, jump) pairs, all entries exact rationals."""
        return self._atoms

    @cached_property
    def _atoms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        # built once per instance: every staircase value reads it
        a, b = self.support
        intervals = [(a, b)]
        for _ in range(self.depth):
            nxt = []
            for lo, hi in intervals:
                third = (hi - lo) / 3
                nxt.append((lo, lo + third))
                nxt.append((hi - third, hi))
            intervals = nxt
        step = self.total_mass / len(intervals)
        return tuple(((lo + hi) / 2, step) for lo, hi in intervals)

    def refine(self) -> "CantorProfile":
        return CantorProfile(self.depth + 1, self.total_mass, self.support)

    def mean_raw(self) -> Fraction:
        """Average over the support of the raw (unshifted) staircase."""
        a, b = self.support
        return sum((q * (b - p) for p, q in self.atoms()), Fraction(0)) / (b - a)

    @cached_property
    def offset(self) -> float:
        """The zero-average shift: the value left of every atom."""
        return -float(self.mean_raw())


@dataclass(frozen=True)
class ExplicitStaircase(Staircase):
    """Monotone staircase given by an explicit sorted atom list plus an
    additive offset (no automatic zero-average shift). Atom positions and
    jumps are kept as exact rationals."""

    atom_list: tuple
    offset: float = 0.0

    def __post_init__(self):
        atoms = tuple((_as_fraction(p), _as_fraction(q)) for p, q in self.atom_list)
        if any(q < 0 for _, q in atoms):
            raise ValueError("staircase jumps must be nonnegative")
        if any(b <= a for (a, _), (b, _) in zip(atoms, atoms[1:])):
            raise ValueError("atom positions must be strictly increasing")
        _finite(self.offset, "staircase offset")
        object.__setattr__(self, "atom_list", atoms)

    def atoms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return self.atom_list


# ---------------------------------------------------------------------------
# smooth parts


def _finite(x, name: str) -> np.ndarray:
    """x as a float array; a NaN or infinite entry is a ValueError."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite")
    return x


def _unit(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (2,):
        raise ValueError(f"{name} must be a 2-vector")
    if not abs(float(v @ v) - 1.0) <= 2e-12:  # "not <=", so a NaN norm fails too
        raise ValueError(f"{name} must be unit norm")
    return v


class SmoothAffine:
    kind = "affine"

    def __init__(self, A, v):
        self.A = _finite(A, "affine A").reshape(2, 2)
        self.v = _finite(v, "affine v").reshape(2)

    def value(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return X @ self.A.T + self.v

    def grad(self, X):
        m = len(np.atleast_2d(X))
        return np.broadcast_to(self.A, (m, 2, 2)).copy()

    def mean(self, box: Box):
        return self.v + self.A @ box.center

    def to_json(self):
        return {"type": "affine", "A": self.A.tolist(), "v": self.v.tolist()}


def _zero_smooth() -> SmoothAffine:
    return SmoothAffine(np.zeros((2, 2)), np.zeros(2))


class SmoothPolynomial:
    """u_k(x, y) = sum_ij c[k, i, j] x^i y^j, of degree <= 3 in each variable
    (so up to x^3 y^3)."""

    kind = "polynomial"

    def __init__(self, coeffs):
        c = _finite(coeffs, "polynomial coeffs")
        if c.ndim != 3 or c.shape[0] != 2 or c.shape[1] > 4 or c.shape[2] > 4:
            raise ValueError("coeffs must have shape (2, <=4, <=4)")
        self.c = c
        self._cxy = np.moveaxis(c, 0, -1)  # (i, j, k): the layout numpy.polynomial reads

    @staticmethod
    def _eval(cxy, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return P.polyval2d(X[:, 0], X[:, 1], cxy).T

    def value(self, X):
        return self._eval(self._cxy, X)

    def grad(self, X):
        return np.stack([self._eval(P.polyder(self._cxy, axis=d), X) for d in (0, 1)],
                        axis=-1)  # (m, comp, deriv)

    def mean(self, box: Box):
        F = P.polyint(P.polyint(self._cxy, axis=0), axis=1)
        (x0, y0), (x1, y1) = box.lo, box.hi
        corners = P.polyval2d(np.array([x1, x0, x1, x0]), np.array([y1, y1, y0, y0]), F)
        return corners @ np.array([1.0, -1.0, -1.0, 1.0]) / box.volume

    def to_json(self):
        return {"type": "polynomial", "coeffs": self.c.tolist()}


class SmoothSinusoid:
    """u(x) = sum_t a_t sin(2 pi f_t . x + phase_t)."""

    kind = "sinusoid"

    def __init__(self, terms):
        self.terms = [
            (_finite(a, "sinusoid a").reshape(2), _finite(f, "sinusoid f").reshape(2),
             float(_finite(ph, "sinusoid phase")))
            for a, f, ph in terms
        ]

    def value(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.zeros_like(X)
        for a, f, ph in self.terms:
            out += a[None, :] * np.sin(2 * np.pi * (X @ f) + ph)[:, None]
        return out

    def grad(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.zeros((len(X), 2, 2))
        for a, f, ph in self.terms:
            c = np.cos(2 * np.pi * (X @ f) + ph)
            out += c[:, None, None] * np.outer(a, 2 * np.pi * f)[None, :, :]
        return out

    def mean(self, box: Box):
        # the mean of sin over a box is its value at the centre times one
        # sinc factor per axis; np.sinc(0) = 1 covers zero frequencies
        c, e = box.center, box.extent
        out = np.zeros(2)
        for a, f, ph in self.terms:
            out += a * (np.sin(2 * np.pi * (f @ c) + ph) * np.prod(np.sinc(f * e)))
        return out

    def to_json(self):
        return {
            "type": "sinusoid",
            "terms": [{"a": a.tolist(), "f": f.tolist(), "phase": ph} for a, f, ph in self.terms],
        }


class SmoothMapped:
    """scale * (base(x0 + eps y) - (L (x0 + eps y - anchor) + b)): the smooth
    part of a rescaled window of another field."""

    kind = "mapped"

    def __init__(self, base, x0, eps: float, scale: float, L, b, anchor):
        self.base = base
        self.x0 = np.asarray(x0, dtype=float).reshape(2)
        self.eps = float(eps)
        self.scale = float(scale)
        self.L = np.asarray(L, dtype=float).reshape(2, 2)
        self.b = np.asarray(b, dtype=float).reshape(2)
        self.anchor = np.asarray(anchor, dtype=float).reshape(2)

    def _map(self, Y):
        return self.x0[None, :] + self.eps * np.atleast_2d(np.asarray(Y, dtype=float))

    def value(self, Y):
        Z = self._map(Y)
        rig = (Z - self.anchor) @ self.L.T + self.b
        return self.scale * (self.base.value(Z) - rig)

    def grad(self, Y):
        Z = self._map(Y)
        return self.scale * self.eps * (self.base.grad(Z) - self.L[None, :, :])

    def mean(self, box: Box):
        zbox = Box(lo=tuple(self.x0 + self.eps * np.asarray(box.lo)),
                   hi=tuple(self.x0 + self.eps * np.asarray(box.hi)))
        rig_mean = self.L @ (zbox.center - self.anchor) + self.b
        return self.scale * (np.asarray(self.base.mean(zbox)) - rig_mean)

    def to_json(self):
        raise NotImplementedError("mapped smooth parts are runtime objects only")


def _smooth_from_json(d) -> object:
    t = d.get("type")
    if t == "zero":
        return _zero_smooth()
    if t == "affine":
        return SmoothAffine(d["A"], d["v"])
    if t == "polynomial":
        return SmoothPolynomial(d["coeffs"])
    if t == "sinusoid":
        return SmoothSinusoid([(e["a"], e["f"], e.get("phase", 0.0)) for e in d["terms"]])
    raise ValueError(f"unknown smooth part type {t!r}")


# ---------------------------------------------------------------------------
# structured field


@dataclass(frozen=True)
class JumpPlane:
    """Jump of dv across {x . nu = c}; the field gains dv where x . nu >= c.

    nu must have its lexicographically first nonzero component positive,
    so that each plane has one description.
    """

    nu: np.ndarray
    c: float
    dv: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nu", _unit(self.nu, "nu"))
        if self.nu[np.flatnonzero(self.nu)[0]] < 0:
            raise ValueError("jump normal must have its first nonzero component positive")
        _finite(self.c, "jump offset c")
        object.__setattr__(self, "dv", _finite(self.dv, "jump dv").reshape(2))


@dataclass(frozen=True)
class Profile:
    """Cantor-type part psi(x . eta) xi + beta (x . xi) eta."""

    eta: np.ndarray
    xi: np.ndarray
    staircase: Staircase
    beta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "eta", _unit(self.eta, "eta"))
        object.__setattr__(self, "xi", _unit(self.xi, "xi"))
        _finite(self.beta, "profile beta")


@dataclass(frozen=True)
class Atom:
    """One plane of the singular part of Eu: the field gains q * a across
    {x . n = c}. A jump plane has q = 1 and `plane` its index in u.jumps; a
    staircase atom has n = eta, a = xi, its exact position c and jump q, and
    plane = None. Its mass is q |a (.) n| per unit plane length."""

    n: np.ndarray
    c: float | Fraction
    a: np.ndarray
    q: Fraction
    plane: int | None

    @cached_property
    def norm(self) -> float:
        """|a (.) n|."""
        return float(frob(odot(self.a, self.n)))

    @cached_property
    def polar(self) -> np.ndarray:
        """(a (.) n) / |a (.) n|; read only where norm > 0."""
        return odot(self.a, self.n) / self.norm


@dataclass(frozen=True)
class StructuredBD:
    """smooth closed-form part + finite jump-plane list + staircase profile."""

    smooth: object = field(default_factory=_zero_smooth)
    jumps: tuple[JumpPlane, ...] = ()
    profile: Profile | None = None

    def __post_init__(self):
        object.__setattr__(self, "jumps", tuple(self.jumps))
        seen = set()
        for j in self.jumps:
            key = (round(j.nu[0], 12), round(j.nu[1], 12), round(j.c, 12))
            if key in seen:
                raise ValueError("jump planes must be pairwise distinct")
            seen.add(key)

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def affine(A, v=(0.0, 0.0)) -> "StructuredBD":
        return StructuredBD(smooth=SmoothAffine(A, v))

    @staticmethod
    def two_constant(v_minus, v_plus, nu) -> "StructuredBD":
        """u = v_plus where x . nu >= 0, v_minus otherwise."""
        v_minus = np.asarray(v_minus, dtype=float)
        v_plus = np.asarray(v_plus, dtype=float)
        jump = JumpPlane(nu=nu, c=0.0, dv=v_plus - v_minus)
        return StructuredBD(smooth=SmoothAffine(np.zeros((2, 2)), v_minus), jumps=(jump,))

    @staticmethod
    def staircase(depth: int, total_mass=1, support=(0, 1), eta=(1.0, 0.0),
                  xi=(0.0, 1.0), beta: float = 0.0) -> "StructuredBD":
        prof = Profile(eta=eta, xi=xi, beta=beta,
                       staircase=CantorProfile.make(depth, total_mass, support))
        return StructuredBD(profile=prof)

    def plus_rigid(self, L, v) -> "StructuredBD":
        """Add the rigid motion L x + v (exact on the affine part)."""
        L = np.asarray(L, dtype=float).reshape(2, 2)
        v = np.asarray(v, dtype=float).reshape(2)
        if not isinstance(self.smooth, SmoothAffine):
            raise NotImplementedError("plus_rigid needs an affine smooth part")
        return StructuredBD(smooth=SmoothAffine(self.smooth.A + L, self.smooth.v + v),
                            jumps=self.jumps, profile=self.profile)

    def without_jump(self, i: int) -> "StructuredBD":
        """The field with jump plane i removed: continuous across that plane."""
        i = range(len(self.jumps))[i]  # IndexError when out of range; -1 is the last plane
        return StructuredBD(smooth=self.smooth, jumps=self.jumps[:i] + self.jumps[i + 1:],
                            profile=self.profile)

    def atoms(self) -> tuple["Atom", ...]:
        """The singular part of Eu as one list of planes: the jump planes in
        order, then one atom per staircase jump, in staircase order."""
        return self._atoms

    @cached_property
    def _atoms(self) -> tuple["Atom", ...]:
        # built once per field: every measure, moment and representation walk reads it
        out = [Atom(n=j.nu, c=j.c, a=j.dv, q=Fraction(1), plane=i)
               for i, j in enumerate(self.jumps)]
        if self.profile is not None:
            p = self.profile
            out += [Atom(n=p.eta, c=t, a=p.xi, q=q, plane=None) for t, q in p.staircase.atoms()]
        return tuple(out)

    # -- evaluation ----------------------------------------------------------

    def value(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = self.smooth.value(X)
        for j in self.jumps:
            out = out + np.where((X @ j.nu >= j.c)[:, None], j.dv[None, :], 0.0)
        if self.profile is not None:
            p = self.profile
            out = out + p.staircase.value(X @ p.eta)[:, None] * p.xi[None, :]
            out = out + p.beta * (X @ p.xi)[:, None] * p.eta[None, :]
        return out

    def grad_ac(self, X) -> np.ndarray:
        """Absolutely continuous part of the full gradient at X."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        G = self.smooth.grad(X)
        if self.profile is not None:
            p = self.profile
            G = G + p.beta * np.outer(p.eta, p.xi)[None, :, :]
        return G

    def e_ac(self, X) -> np.ndarray:
        return sym(self.grad_ac(X))

    def mean(self, box: Box) -> np.ndarray:
        """Exact average of the field over the box: each atom adds q a times the
        area fraction of its plus side, the profile its offset and slope terms.

        Only the planes that cross the box are clipped: an atom's minus
        side is the whole box where no corner lies above its plane and empty
        where every corner does. The corner heights are clip_halfplane's
        own, and a rounded difference h - c has the sign of h - c, so every
        area is clip_halfplane's, bit for bit."""
        out = np.asarray(self.smooth.mean(box), dtype=float)
        vol, corners = box.volume, box.corners()
        full = polygon_area(corners)

        def heights(n):  # the lowest and highest corner along n
            h = [float(p @ n) for p in corners]
            return min(h), max(h)

        stair = None if self.profile is None else heights(self.profile.eta)
        for atom in self.atoms():
            c = float(atom.c)
            lo, hi = stair if atom.plane is None else heights(atom.n)
            area = (full if hi <= c else 0.0 if lo > c
                    else polygon_area(clip_halfplane(corners, atom.n, c)))
            out = out + atom.a * (float(atom.q) * (vol - area) / vol)
        if self.profile is not None:
            p = self.profile
            out = out + p.staircase.offset * p.xi + p.beta * float(box.center @ p.xi) * p.eta
        return out

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        prof = None
        if self.profile is not None:
            p = self.profile
            if isinstance(p.staircase, CantorProfile):
                sc = {
                    "kind": "cantor",
                    "depth": p.staircase.depth,
                    "totalMass": float(p.staircase.total_mass),
                    "support": [float(p.staircase.support[0]), float(p.staircase.support[1])],
                }
            else:
                sc = {
                    "kind": "explicit",
                    "atoms": [[float(t), float(q)] for t, q in p.staircase.atoms()],
                    "offset": float(p.staircase.offset),
                }
            prof = {
                "eta": p.eta.tolist(),
                "xi": p.xi.tolist(),
                "beta": p.beta,
                "staircase": sc,
            }
        return {
            "dim": 2,
            "smooth": self.smooth.to_json(),
            "jumps": [{"nu": j.nu.tolist(), "c": j.c, "dv": j.dv.tolist()} for j in self.jumps],
            "profile": prof,
        }

    @staticmethod
    def from_json(d: dict) -> "StructuredBD":
        if not isinstance(d, dict):
            raise ValueError("StructuredBD spec must be a JSON object")
        if d.get("dim", 2) != 2:
            raise ValueError("only dim = 2 specs are supported")
        smooth = _smooth_from_json(d.get("smooth", {"type": "zero"}))
        jumps = [JumpPlane(nu=e["nu"], c=float(e["c"]), dv=e["dv"])
                 for e in d.get("jumps", []) or []]
        prof = None
        pd = d.get("profile")
        if pd:
            sc = pd["staircase"]
            if sc.get("kind", "cantor") == "cantor":
                stair = CantorProfile.make(sc["depth"], sc["totalMass"], tuple(sc["support"]))
            else:
                stair = ExplicitStaircase(atom_list=tuple((t, q) for t, q in sc["atoms"]),
                                          offset=float(sc.get("offset", 0.0)))
            prof = Profile(eta=pd["eta"], xi=pd["xi"], beta=float(pd.get("beta", 0.0)),
                           staircase=stair)
        return StructuredBD(smooth=smooth, jumps=tuple(jumps), profile=prof)


def combine(u1: StructuredBD, u2: StructuredBD) -> StructuredBD:
    """Superpose two structured fields (at most one may carry a profile)."""
    if u1.profile is not None and u2.profile is not None:
        raise ValueError("cannot combine two fields with profiles")
    s1, s2 = u1.smooth, u2.smooth
    if not (isinstance(s1, SmoothAffine) and isinstance(s2, SmoothAffine)):
        raise NotImplementedError("general smooth-part superposition not supported")
    return StructuredBD(smooth=SmoothAffine(s1.A + s2.A, s1.v + s2.v), jumps=u1.jumps + u2.jumps,
                        profile=u1.profile or u2.profile)


# ---------------------------------------------------------------------------
# measures over boxes


def _check_boundary_charge(u: StructuredBD, box: Box, what: str) -> None:
    lo, hi = np.asarray(box.lo), np.asarray(box.hi)
    for atom in u.atoms():
        for k in range(2):
            if abs(abs(atom.n[k]) - 1.0) < 1e-12:
                coord = float(atom.c) / atom.n[k]
                if abs(coord - lo[k]) < 1e-12 or abs(coord - hi[k]) < 1e-12:
                    raise BoundaryChargedBox(what)


def _mass(u: StructuredBD, center, area, chord) -> Mass:
    """|Eu| of a region as exact per-family terms: the constant ac density
    at `center` times `area` (skipped when area is None), every jump atom,
    and the staircase atoms summed into one profile term. `chord(n, c)`
    is the exact length of {x . n = c} inside the region, as a Fraction."""
    out = Mass()
    if area is not None:
        e0 = u.e_ac(center[None, :])[0]
        dens = float(frob(e0))
        if dens > 0.0:
            out.add(("ac", e0.tobytes()), area, dens)
    for atom in u.atoms():
        # chord raises on a charged or oblique plane, also for an atom of no mass
        coef = atom.q * chord(atom.n, atom.c)
        if atom.norm > 0.0:
            family = "jump" if atom.plane is not None else "prof"
            out.add((family, atom.n.tobytes(), atom.a.tobytes()), coef, atom.norm)
    return out


def tv_mass(u: StructuredBD, box: Box, ac_cells: int = 64) -> Mass:
    """|Eu|(box) with per-family exact rational coefficients.

    The box is taken open, and any atom hyperplane coinciding with a box
    face raises BoundaryChargedBox (the open/closed box masses differ).
    A non-affine smooth part enters as one quadrature term, run in fixed
    blocks of points (box_integral): memory is bounded by the block, not by
    ac_cells^2, and the value equals the full-array sum bit for bit.
    """
    _check_boundary_charge(u, box, "boundary-charged box")
    affine = isinstance(u.smooth, SmoothAffine)
    out = _mass(u, box.center, _as_fraction(box.volume) if affine else None,
                lambda nu, c: _as_fraction(box_plane_segment(box, nu, float(c))))
    if not affine:
        val = box_integral(box, ac_cells, 3, lambda X: frob(u.e_ac(X)))
        if val > 0.0:
            out.add(("ac-quad",), Fraction(1), val)
    return out


def total_variation(u: StructuredBD, box: Box, ac_cells: int = 64) -> float:
    """Exact |Eu|(box): integral of |e(u)| plus jump and profile atom sums."""
    return tv_mass(u, box, ac_cells=ac_cells).value


def _axis_of(v) -> tuple[int, int] | None:
    """(axis, sign) when v is exactly +-e_k, else None."""
    for k in range(2):
        if v[k] == 1.0 and v[1 - k] == 0.0:
            return k, +1
        if v[k] == -1.0 and v[1 - k] == 0.0:
            return k, -1
    return None


def tv_mass_exact(u: StructuredBD, lo, hi) -> Mass:
    """|Eu|(box) over a rational open box, in exact rational arithmetic.

    Requires an affine smooth part and axis-aligned atom planes so chord
    lengths are rational. Used by the blow-up mass identities.
    """
    lo = (_as_fraction(lo[0]), _as_fraction(lo[1]))
    hi = (_as_fraction(hi[0]), _as_fraction(hi[1]))
    if not (hi[0] > lo[0] and hi[1] > lo[1]):
        raise ValueError("empty box")
    if not isinstance(u.smooth, SmoothAffine):
        raise ValueError("exact mass requires an affine smooth part")
    ext = (hi[0] - lo[0], hi[1] - lo[1])
    center = np.array([float((lo[0] + hi[0]) / 2), float((lo[1] + hi[1]) / 2)])

    def chord(nu, c) -> Fraction:
        ax = _axis_of(nu)
        if ax is None:
            raise ValueError("exact mass requires axis-aligned atom planes")
        k, sign = ax
        pos = sign * _as_fraction(c)
        if pos == lo[k] or pos == hi[k]:
            raise BoundaryChargedBox("boundary-charged box")
        if lo[k] < pos < hi[k]:
            return ext[1 - k]
        return Fraction(0)

    return _mass(u, center, ext[0] * ext[1], chord)


def trace_pair(u: StructuredBD, plane_index: int, at=None, orientation: int = +1):
    """One-sided limits (v-, v+, nu) of u across the indexed jump plane.

    `at` picks the evaluation point on the plane (defaults to the point of
    the plane closest to the origin); orientation = -1 swaps the sides and
    flips the reported normal.
    """
    j = u.jumps[plane_index]
    if at is None:
        at = j.c * j.nu
    at = np.asarray(at, dtype=float).reshape(2)
    if abs(float(at @ j.nu) - j.c) > 1e-9:
        raise ValueError("evaluation point is not on the jump plane")
    base = u.without_jump(plane_index).value(at[None, :])[0]
    v_minus, v_plus = base, base + j.dv
    if orientation >= 0:
        return v_minus, v_plus, j.nu.copy()
    return v_plus, v_minus, -j.nu
