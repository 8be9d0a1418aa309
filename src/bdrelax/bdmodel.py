"""Synthetic two-dimensional BD fields with exactly queryable symmetrized
derivative: a closed-form smooth part, a finite list of jump planes, and an
optional Cantor-staircase profile.

The symmetrized distributional derivative of such a field splits into an
absolutely continuous density, jump atoms carried by the planes, and
"singular-profile" atoms carried by the staircase. The staircase lives at
finite construction depth, so its derivative is technically atomic; the
atoms are tagged separately so downstream consumers can pair them with a
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

from .geometry import Box, box_halfplane_area, box_plane_segment, box_quadrature, box_slab_area
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

    def __iadd__(self, other: "Mass") -> "Mass":
        for k, (q, u) in other.terms.items():
            self.add(k, q, u)
        return self

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
        t = np.asarray(t, dtype=float)
        atoms = self.atoms()
        pos = np.array([float(p) for p, _ in atoms] or [0.0])
        cum = np.cumsum([float(q) for _, q in atoms] or [0.0])
        idx = np.searchsorted(pos, t, side="right")
        raw = np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)
        return raw + self.offset

    def plateaus(self) -> list[tuple[float, float, float]]:
        """(t_lo, t_hi, value) pieces covering all of R."""
        offset = self.offset
        pieces = []
        lo = -np.inf
        level = 0.0
        for p, q in self.atoms():
            pieces.append((lo, float(p), level + offset))
            lo = float(p)
            level += float(q)
        pieces.append((lo, np.inf, level + offset))
        return pieces


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
        object.__setattr__(self, "atom_list", atoms)

    def atoms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return self.atom_list


# ---------------------------------------------------------------------------
# smooth parts


def _unit(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (2,):
        raise ValueError(f"{name} must be a 2-vector")
    if abs(float(v @ v) - 1.0) > 2e-12:
        raise ValueError(f"{name} must be unit norm")
    return v


class SmoothAffine:
    kind = "affine"

    def __init__(self, A, v):
        self.A = np.asarray(A, dtype=float).reshape(2, 2)
        self.v = np.asarray(v, dtype=float).reshape(2)

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
    """u_k(x, y) = sum_ij c[k, i, j] x^i y^j with total degree <= 3."""

    kind = "polynomial"

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=float)
        if c.ndim != 3 or c.shape[0] != 2 or c.shape[1] > 4 or c.shape[2] > 4:
            raise ValueError("coeffs must have shape (2, <=4, <=4)")
        self.c = c

    def value(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        xp = X[:, 0][:, None] ** np.arange(self.c.shape[1])[None, :]
        yp = X[:, 1][:, None] ** np.arange(self.c.shape[2])[None, :]
        return np.einsum("kij,mi,mj->mk", self.c, xp, yp)

    def grad(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        ni, nj = self.c.shape[1], self.c.shape[2]
        xp = X[:, 0][:, None] ** np.arange(ni)[None, :]
        yp = X[:, 1][:, None] ** np.arange(nj)[None, :]
        dx = np.zeros((len(X), ni))
        dx[:, 1:] = np.arange(1, ni)[None, :] * (X[:, 0][:, None] ** np.arange(ni - 1)[None, :])
        dy = np.zeros((len(X), nj))
        dy[:, 1:] = np.arange(1, nj)[None, :] * (X[:, 1][:, None] ** np.arange(nj - 1)[None, :])
        gx = np.einsum("kij,mi,mj->mk", self.c, dx, yp)
        gy = np.einsum("kij,mi,mj->mk", self.c, xp, dy)
        return np.stack([gx, gy], axis=-1)  # (m, comp, deriv)

    def mean(self, box: Box):
        (x0, y0), (x1, y1) = box.lo, box.hi
        ni, nj = self.c.shape[1], self.c.shape[2]
        ix = np.array([(x1 ** (i + 1) - x0 ** (i + 1)) / (i + 1) for i in range(ni)])
        iy = np.array([(y1 ** (j + 1) - y0 ** (j + 1)) / (j + 1) for j in range(nj)])
        return np.einsum("kij,i,j->k", self.c, ix, iy) / box.volume

    def to_json(self):
        return {"type": "polynomial", "coeffs": self.c.tolist()}


class SmoothSinusoid:
    """u(x) = sum_t a_t sin(2 pi f_t . x + phase_t)."""

    kind = "sinusoid"

    def __init__(self, terms):
        self.terms = [
            (np.asarray(a, dtype=float).reshape(2), np.asarray(f, dtype=float).reshape(2), float(ph))
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
            out += c[:, None, None] * np.einsum("i,j->ij", a, 2 * np.pi * f)[None, :, :]
        return out

    def mean(self, box: Box):
        (x0, y0), (x1, y1) = box.lo, box.hi
        out = np.zeros(2)
        for a, f, ph in self.terms:
            p, q = 2 * np.pi * f[0], 2 * np.pi * f[1]
            if p != 0.0 and q != 0.0:
                s = (
                    np.sin(p * x1 + q * y0 + ph)
                    - np.sin(p * x0 + q * y0 + ph)
                    - np.sin(p * x1 + q * y1 + ph)
                    + np.sin(p * x0 + q * y1 + ph)
                ) / (p * q)
            elif p == 0.0 and q != 0.0:
                s = (x1 - x0) * (np.cos(q * y0 + ph) - np.cos(q * y1 + ph)) / q
            elif q == 0.0 and p != 0.0:
                s = (y1 - y0) * (np.cos(p * x0 + ph) - np.cos(p * x1 + ph)) / p
            else:
                s = np.sin(ph) * box.volume
            out += a * (s / box.volume)
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

    nu is stored with its lexicographically first nonzero component
    positive; constructors normalize the orientation.
    """

    nu: np.ndarray
    c: float
    dv: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nu", _unit(self.nu, "nu"))
        object.__setattr__(self, "dv", np.asarray(self.dv, dtype=float).reshape(2))


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


@dataclass(frozen=True)
class StructuredBD:
    """smooth closed-form part + finite jump-plane list + staircase profile."""

    smooth: object = field(default_factory=_zero_smooth)
    jumps: tuple[JumpPlane, ...] = ()
    profile: Profile | None = None
    dim: int = 2

    def __post_init__(self):
        if self.dim != 2:
            raise ValueError("StructuredBD is implemented for dim = 2")
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
        nu = _unit(nu, "nu")
        jump = JumpPlane(nu=nu, c=0.0, dv=v_plus - v_minus)
        return StructuredBD(smooth=SmoothAffine(np.zeros((2, 2)), v_minus), jumps=(jump,))

    @staticmethod
    def staircase(depth: int, total_mass=1, support=(0, 1), eta=(1.0, 0.0),
                  xi=(0.0, 1.0), beta: float = 0.0) -> "StructuredBD":
        prof = Profile(eta=eta, xi=xi, beta=beta,
                       staircase=CantorProfile.make(depth, total_mass, support))
        return StructuredBD(profile=prof)

    def with_smooth(self, smooth) -> "StructuredBD":
        return StructuredBD(smooth=smooth, jumps=self.jumps, profile=self.profile)

    def plus_rigid(self, L, v) -> "StructuredBD":
        """Add the rigid motion L x + v (exact on the affine part)."""
        L = np.asarray(L, dtype=float).reshape(2, 2)
        v = np.asarray(v, dtype=float).reshape(2)
        if not isinstance(self.smooth, SmoothAffine):
            raise NotImplementedError("plus_rigid needs an affine smooth part")
        return self.with_smooth(SmoothAffine(self.smooth.A + L, self.smooth.v + v))

    def without_jump(self, i: int) -> "StructuredBD":
        """The field with jump plane i removed: continuous across that plane."""
        i = range(len(self.jumps))[i]  # IndexError when out of range; -1 is the last plane
        return StructuredBD(smooth=self.smooth, jumps=self.jumps[:i] + self.jumps[i + 1:],
                            profile=self.profile)

    def planes(self) -> list[tuple[np.ndarray, float]]:
        """(nu, c) of every atom plane {x . nu = c}: the jump planes, then
        one plane x . eta = t per staircase atom."""
        out = [(j.nu, j.c) for j in self.jumps]
        if self.profile is not None:
            out += [(self.profile.eta, float(t)) for t, _ in self.profile.staircase.atoms()]
        return out

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

    def __call__(self, X) -> np.ndarray:
        return self.value(X)

    def grad_ac(self, X) -> np.ndarray:
        """Absolutely continuous part of the full gradient at X."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        G = self.smooth.grad(X)
        if self.profile is not None:
            p = self.profile
            G = G + p.beta * np.einsum("i,j->ij", p.eta, p.xi)[None, :, :]
        return G

    def e_ac(self, X) -> np.ndarray:
        return sym(self.grad_ac(X))

    def mean(self, box: Box) -> np.ndarray:
        """Exact average of the field over the box."""
        out = np.asarray(self.smooth.mean(box), dtype=float)
        vol = box.volume
        for j in self.jumps:
            area_plus = vol - box_halfplane_area(box, j.nu, j.c)
            out = out + j.dv * (area_plus / vol)
        if self.profile is not None:
            p = self.profile
            acc = 0.0
            tvals = box.corners() @ p.eta
            tmin, tmax = float(tvals.min()), float(tvals.max())
            for lo, hi, val in p.staircase.plateaus():
                a, b = max(lo, tmin), min(hi, tmax)
                if b > a:
                    acc += val * box_slab_area(box, p.eta, a, b)
            out = out + (acc / vol) * p.xi
            out = out + p.beta * float(box.center @ p.xi) * p.eta
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
            "dim": self.dim,
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
        jumps = []
        for e in d.get("jumps", []) or []:
            nu = np.asarray(e["nu"], dtype=float)
            c = float(e["c"])
            dv = np.asarray(e["dv"], dtype=float)
            nz = np.nonzero(np.abs(nu) > 0)[0]
            if len(nz) and nu[nz[0]] < 0:
                raise ValueError("jump normal must have its first nonzero component positive")
            jumps.append(JumpPlane(nu=nu, c=c, dv=dv))
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
# E-measure decomposition


@dataclass(frozen=True)
class JumpAtom:
    plane: int  # index of the carrying plane in u.jumps
    nu: np.ndarray
    c: float
    dv: np.ndarray
    polar: np.ndarray
    surface_density: float  # |dv (.) nu| per unit plane length


@dataclass(frozen=True)
class SingularAtom:
    """One staircase jump, tagged singular-profile for recession pairing."""

    eta: np.ndarray
    xi: np.ndarray
    t: Fraction
    coeff: Fraction  # psi-jump size; E-mass per unit cross-section = coeff * unit_norm
    polar: np.ndarray
    unit_norm: float  # |eta (.) xi|
    kind: str = "singular-profile"


@dataclass(frozen=True)
class EMeasure:
    ac_density: object  # X (m,2) -> (m,2,2) symmetric
    jump_atoms: tuple[JumpAtom, ...]
    singular_atoms: tuple[SingularAtom, ...]


def emeasure(u: StructuredBD) -> EMeasure:
    """Exact decomposition of Eu into ac / jump / singular-profile parts."""
    jump_atoms = []
    for i, j in enumerate(u.jumps):
        m = odot(j.dv, j.nu)
        dens = float(frob(m))
        if dens == 0.0:
            continue
        jump_atoms.append(JumpAtom(plane=i, nu=j.nu, c=j.c, dv=j.dv, polar=m / dens,
                                   surface_density=dens))
    singular = []
    if u.profile is not None:
        p = u.profile
        m = odot(p.eta, p.xi)
        un = float(frob(m))
        if un == 0.0:
            raise ValueError("profile with eta (.) xi = 0")
        polar = m / un
        for t, q in p.staircase.atoms():
            singular.append(SingularAtom(eta=p.eta, xi=p.xi, t=t, coeff=q, polar=polar, unit_norm=un))
    return EMeasure(ac_density=u.e_ac, jump_atoms=tuple(jump_atoms), singular_atoms=tuple(singular))


def _check_boundary_charge(u: StructuredBD, box: Box, what: str) -> None:
    lo, hi = np.asarray(box.lo), np.asarray(box.hi)
    for nu, c in u.planes():
        for k in range(2):
            if abs(abs(nu[k]) - 1.0) < 1e-12:
                coord = c / nu[k]
                if abs(coord - lo[k]) < 1e-12 or abs(coord - hi[k]) < 1e-12:
                    raise BoundaryChargedBox(what)


def _mass(u: StructuredBD, center, area, chord) -> Mass:
    """|Eu| of a region as exact per-family terms: the constant ac density
    at `center` times `area` (skipped when area is None), every jump atom,
    and the staircase atoms summed into one profile term. `chord(nu, c)`
    is the exact length of {x . nu = c} inside the region, as a Fraction."""
    out = Mass()
    if area is not None:
        e0 = u.e_ac(center[None, :])[0]
        dens = float(frob(e0))
        if dens > 0.0:
            out.add(("ac", e0.tobytes()), area, dens)
    for j in u.jumps:
        seg = chord(j.nu, j.c)
        if seg > 0:
            dens = float(frob(odot(j.dv, j.nu)))
            if dens > 0.0:
                out.add(("jump", j.nu.tobytes(), j.dv.tobytes()), seg, dens)
    if u.profile is not None:
        p = u.profile
        un = float(frob(odot(p.eta, p.xi)))
        coef = sum((q * chord(p.eta, t) for t, q in p.staircase.atoms()), Fraction(0))
        if coef > 0 and un > 0.0:
            out.add(("prof", p.eta.tobytes(), p.xi.tobytes()), coef, un)
    return out


def tv_mass(u: StructuredBD, box: Box, ac_cells: int = 64) -> Mass:
    """|Eu|(box) with per-family exact rational coefficients.

    The box is taken open, and any atom hyperplane coinciding with a box
    face raises BoundaryChargedBox (the open/closed box masses differ).
    A non-affine smooth part enters as one quadrature term.
    """
    _check_boundary_charge(u, box, "boundary-charged box")
    affine = isinstance(u.smooth, SmoothAffine)
    out = _mass(u, box.center, _as_fraction(box.volume) if affine else None,
                lambda nu, c: _as_fraction(box_plane_segment(box, nu, float(c))))
    if not affine:
        pts, w = box_quadrature(box, cells=ac_cells, npts=3)
        val = float(np.sum(w * frob(u.e_ac(pts))))
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
