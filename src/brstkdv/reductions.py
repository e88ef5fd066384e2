"""Catalog of gauge-fixed integrable systems with their odd symmetries.

Partially gauge-fixing the sl(2,R) zero-curvature equation on the slice
R = 0, S = 1 (in the component variables P, Q, R, S, T, u of the
connection) leaves one residual equation

    Upsilon = T_t - 1/2 u_xxx - 2 u_x T - u T_x = 0,

and the residual odd symmetry acts through a single ghost c.  Fixing the
remaining freedom by u = s T^beta produces a one-parameter family of
evolution equations

    T_t = (s/2) d^3/dx^3 (T^beta) + (2 beta + 1) s T^beta T_x,

with beta=1, s=2 the KdV equation and beta=1/2, s=1 a Harry Dym-type
equation, together with a ghost flow that is linear in c.  An equivalent
"u-form" family is parametrised by (alpha, s) with u_t =
((alpha+2)/alpha) u u_x + (s/(2 alpha)) u^(1-alpha) u_xxx.  A second gauge
slice (A1+ = sqrt(2), A1- = 0) yields mKdV in R; the Miura map
u = 2(R_x - R^2) sends its solutions to KdV solutions, and composing with
R = v + w, w_x - 2vw - w^2 = 0 yields the CKdV equation in w.

Note on the CKdV right-hand side: eliminating v = (w_x - w^2)/(2w) from
the mKdV flow gives

    w_t = w_xxx - 1/2 d/dx (w^3 + 3 w_x^2 / w)
        = w_xxx - 3/2 w^2 w_x - 3 w_x w_xx / w + 3/2 w_x^3 / w^2,

i.e. the cubic terms enter under an overall x-derivative.  (Dropping that
derivative would make constant data non-stationary and break the map back
to mKdV; the identity 2 v_t = 2(v_xxx - 6 v^2 v_x) under this flow is an
exact polynomial consequence, which the test suite checks.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import sympy as sp

from .graded import (
    DerivationRuleSet,
    GradedPoly,
    as_scalar,
    s_add,
    s_div,
    s_mul,
    to_string,
    total_x_derivative,
)
from .grammar import parse
from .solver import FieldState, SingularityError, spectral_derivative

__all__ = [
    "EvolutionSystem",
    "ConservedDensity",
    "SYSTEM_NAMES",
    "SLICE_A",
    "SLICE_B",
    "build_system",
    "system_from_config",
    "catalog_manifest",
    "upsilon_poly",
    "upsilon_rules",
    "miura_substitution",
    "ckdv_substitution",
    "miura_map",
    "ckdv_to_mkdv",
    "zero_curvature_components",
    "reconstruct_connection",
    "ghost_multiplet",
]

SYSTEM_NAMES = ("kdv", "harry-dym", "t-form", "mkdv", "ckdv", "upsilon")

SLICE_A = "slice-A"  # R = 0, S = 1; state carries u and T
SLICE_B = "slice-B"  # A1+ = sqrt(2), A1- = 0; state carries R


@dataclass(frozen=True)
class ConservedDensity:
    """A density whose spatial integral is constant along the flow.

    kind is "classical" (even, ghost-free) or "brst-invariant" (odd,
    linear in the ghost family).
    """

    name: str
    density: GradedPoly
    kind: str

    def __post_init__(self):
        if self.kind not in ("classical", "brst-invariant"):
            raise ValueError(f"unknown density kind {self.kind!r}")
        par = self.density.parity()
        if self.kind == "classical" and par != 0:
            raise ValueError(f"classical density {self.name} must be even")
        if self.kind == "brst-invariant" and par != 1:
            raise ValueError(f"odd density {self.name} must be ghost-linear")


@dataclass(frozen=True)
class EvolutionSystem:
    """An evolution system with its graded symmetry and densities.

    ``rhs`` maps each field symbol to its time-evolution polynomial (None
    for fields carried along without an evolution law of their own, as for
    u in the unreduced slice system).  ``brst`` is the odd symmetry;
    ``symbolic_invariance`` records whether the symmetry closes on the
    catalogued rules alone (False when the variation involves generators
    with no transformation law in scope, as for mkdv/ckdv).
    """

    name: str
    parameters: dict
    even_fields: tuple
    odd_fields: tuple
    rhs: dict
    brst: DerivationRuleSet
    densities: dict = field(default_factory=dict)
    symbolic_invariance: bool = True

    def evolving_fields(self):
        return tuple(f for f in self.even_fields + self.odd_fields
                     if self.rhs.get(f) is not None)

    def density(self, name):
        if name not in self.densities:
            raise KeyError(
                f"system {self.name!r} has no density {name!r}; "
                f"available: {', '.join(sorted(self.densities)) or 'none'}"
            )
        return self.densities[name]


def _dx3(p):
    return total_x_derivative(total_x_derivative(total_x_derivative(p)))


def _coerce_param(v):
    """Numeric strings ("3", "-1/2", "1.5") become exact Fractions and
    identifiers become symbols; any other string is rejected."""
    if not isinstance(v, str):
        return as_scalar(v)
    try:
        return as_scalar(Fraction(v))
    except (ValueError, ZeroDivisionError):
        if v.isidentifier():
            return as_scalar(sp.Symbol(v))
        raise ValueError(f"family parameter {v!r} is neither a number nor a name") from None


# --- the (beta, s) family in T ---------------------------------------------

def _t_family(beta, s, name="t-form"):
    odd = frozenset({"c"})
    T = GradedPoly.gen("T")
    Tx = GradedPoly.gen("T", 1)
    Tb = GradedPoly.gen("T", 0, beta, odd_syms=odd)
    cx = GradedPoly.gen("c", 1, odd_syms=odd)
    c3 = GradedPoly.gen("c", 3, odd_syms=odd)
    half_s = s_div(s, 2)
    big = s_mul(s, s_add(s_mul(2, beta), 1))  # (2 beta + 1) s

    rhs_T = half_s * _dx3(Tb) + big * (Tb * Tx)
    # ghost coefficient (s/2) beta T^(beta-1)
    gcoef = s_mul(half_s, beta)
    Tbm1 = GradedPoly.gen("T", 0, s_add(beta, -1), odd_syms=odd)
    rhs_c = gcoef * (Tbm1 * c3) + big * (Tb * cx)

    delta_T = parse("1/2*c_xxx + T_x*c + 2*T*c_x", odd=("c",))
    rules = DerivationRuleSet(name + "-brst", parity=1, base={
        "T": delta_T,
        "c": parse("c*c_x", odd=("c",)),
    })

    Tb1 = GradedPoly.gen("T", 0, s_add(beta, 1), odd_syms=odd)
    densities = {
        "H0": ConservedDensity("H0", GradedPoly.gen("T", odd_syms=odd), "classical"),
        "H1": ConservedDensity("H1", Tb1, "classical"),
        "Ht0": ConservedDensity("Ht0", parse("T*c_x", odd=("c",)), "brst-invariant"),
        "Ht1": ConservedDensity(
            "Ht1", s_add(beta, 1) * (Tb * delta_T), "brst-invariant"),
    }
    return EvolutionSystem(
        name=name,
        parameters={"beta": beta, "s": s},
        even_fields=("T",),
        odd_fields=("c",),
        rhs={"T": rhs_T, "c": rhs_c},
        brst=rules,
        densities=densities,
    )


# --- the (alpha, s) family in u --------------------------------------------

def _u_family(alpha, s, name="kdv"):
    odd = frozenset({"c"})
    u = GradedPoly.gen("u")
    ux = GradedPoly.gen("u", 1)
    u3 = GradedPoly.gen("u", 3)
    c = GradedPoly.gen("c", 0, odd_syms=odd)
    cx = GradedPoly.gen("c", 1, odd_syms=odd)
    c3 = GradedPoly.gen("c", 3, odd_syms=odd)
    if s_add(alpha, 0) == 0 or (isinstance(alpha, sp.Basic) and alpha.is_zero):
        raise ValueError("alpha must be nonzero")

    adv = s_div(s_add(alpha, 2), alpha)        # (alpha+2)/alpha
    disp = s_div(s, s_mul(2, alpha))           # s/(2 alpha)
    two_over = s_div(2, alpha)
    upow = GradedPoly.gen("u", 0, s_add(1, -alpha), odd_syms=odd)

    rhs_u = adv * (u * ux) + disp * (upow * u3)
    rhs_c = disp * (upow * c3) + s_add(two_over, 1) * (u * cx)
    delta_u = disp * (upow * c3) + c * ux + two_over * (u * cx)

    rules = DerivationRuleSet(name + "-brst", parity=1, base={
        "u": delta_u,
        "c": parse("c*c_x", odd=("c",)),
    })

    densities = {}
    if (alpha, s) == (1, 2):
        dens = {
            "H0": ("1/2*u", "classical"),
            "H1": ("1/4*u^2", "classical"),
            "Ht0": ("1/2*u*c_x", "brst-invariant"),
            "Ht1": ("1/2*u*c_xxx + 1/2*u*u_x*c + u^2*c_x", "brst-invariant"),
            "H1g": ("u*c_x", "brst-invariant"),
            "H3": ("u*c_xxx + 3/2*u^2*c_x", "brst-invariant"),
            "H5": ("2/3*u_xx*c_xxx + 5/3*u^3*c_x + u^2*c_xxx"
                   " + 1/3*u_x^2*c_x - 4/3*u*u_xxx*c", "brst-invariant"),
        }
        densities = {
            k: ConservedDensity(k, parse(t, odd=("c",)), kind)
            for k, (t, kind) in dens.items()
        }
    return EvolutionSystem(
        name=name,
        parameters={"alpha": alpha, "s": s},
        even_fields=("u",),
        odd_fields=("c",),
        rhs={"u": rhs_u, "c": rhs_c},
        brst=rules,
        densities=densities,
    )


def _mkdv():
    odd = ("c", "cm")
    rules = DerivationRuleSet("mkdv-brst", parity=1, base={
        "R": parse("1/2*c_xx + R_x*c + R*c_x + cm", odd=odd),
        "c": parse("c*c_x", odd=odd),
        # no law for the covariantly constant cm is in scope
    }, xrules={"cm": parse("2*R*cm", odd=odd)})
    densities = {
        "H0": ConservedDensity("H0", parse("R"), "classical"),
        "H1": ConservedDensity("H1", parse("R^2"), "classical"),
    }
    return EvolutionSystem(
        name="mkdv",
        parameters={},
        even_fields=("R",),
        odd_fields=("c",),
        rhs={
            "R": parse("R_xxx - 6*R^2*R_x"),
            "c": parse("c_xxx + 6*R_x*c_x - 6*R^2*c_x", odd=("c",)),
        },
        brst=rules,
        densities=densities,
        symbolic_invariance=False,
    )


def _ckdv():
    odd = ("c", "cw")
    rules = DerivationRuleSet("ckdv-brst", parity=1, base={
        "w": parse("w_x*c + w*c_x + cw", odd=odd),
        "c": parse("c*c_x", odd=odd),
    })
    return EvolutionSystem(
        name="ckdv",
        parameters={},
        even_fields=("w",),
        odd_fields=("c",),
        rhs={
            # w_xxx - 1/2 d/dx (w^3 + 3 w_x^2 w^-1), expanded
            "w": parse("w_xxx - 3/2*w^2*w_x - 3*w^-1*w_x*w_xx + 3/2*w^-2*w_x^3"),
            # c_xxx + 6(v_x - v^2) c_x at v = (w_x - w^2)/(2w), expanded
            "c": parse("c_xxx + 3*w^-1*w_xx*c_x - 9/2*w^-2*w_x^2*c_x"
                       " - 3/2*w^2*c_x", odd=("c",)),
        },
        brst=rules,
        densities={},
        symbolic_invariance=False,
    )


def upsilon_poly():
    """The residual slice equation as a polynomial with time markers."""
    return parse("T_t - 1/2*u_xxx - 2*u_x*T - u*T_x", odd=("c",))


def upsilon_rules():
    """Odd symmetry of the partially gauge-fixed slice: the u variation
    keeps the ghost's time derivative as a marker."""
    return DerivationRuleSet("slice-brst", parity=1, base={
        "u": parse("c_t - u*c_x + u_x*c", odd=("c",)),
        "T": parse("1/2*c_xxx + T_x*c + 2*T*c_x", odd=("c",)),
        "c": parse("c*c_x", odd=("c",)),
    })


def _upsilon_system():
    return EvolutionSystem(
        name="upsilon",
        parameters={},
        even_fields=("u", "T"),
        odd_fields=("c",),
        rhs={
            "u": None,  # u is unconstrained on this slice
            "T": parse("1/2*u_xxx + 2*u_x*T + u*T_x"),
            "c": None,
        },
        brst=upsilon_rules(),
        densities={},
        symbolic_invariance=False,
    )


def build_system(name, **params):
    """Construct a catalog system; family parameters may be Fractions,
    ints, strings like "1/2", or sympy symbols for exact parametric work.

    kdv accepts (alpha, s) to reach the whole u-form family (default
    alpha=1, s=2); t-form requires (beta, s); harry-dym is t-form at
    beta=1/2, s=1.
    """
    params = {k: _coerce_param(v) for k, v in params.items()}

    def only(allowed):
        extra = set(params) - set(allowed)
        if extra:
            raise ValueError(f"system {name!r} does not take parameters {sorted(extra)}")

    if name == "kdv":
        only({"alpha", "s"})
        return _u_family(params.get("alpha", 1), params.get("s", 2), name="kdv")
    if name == "t-form":
        only({"beta", "s"})
        if "beta" not in params or "s" not in params:
            raise ValueError("t-form requires beta and s")
        return _t_family(params["beta"], params["s"])
    if name == "harry-dym":
        only(set())
        return _t_family(Fraction(1, 2), 1, name="harry-dym")
    if name == "mkdv":
        only(set())
        return _mkdv()
    if name == "ckdv":
        only(set())
        return _ckdv()
    if name == "upsilon":
        only(set())
        return _upsilon_system()
    raise ValueError(f"unknown system {name!r}; catalog: {', '.join(SYSTEM_NAMES)}")


def system_from_config(cfg):
    """Build a system from a flat {key: value} mapping (e.g. a parsed
    key=value file): 'system' selects the catalog entry, remaining keys
    are its parameters."""
    cfg = dict(cfg)
    try:
        name = cfg.pop("system")
    except KeyError:
        raise ValueError("config must set system=<name>") from None
    return build_system(name, **cfg)


def catalog_manifest():
    """Human-readable catalog: systems, parameters, equations, densities."""
    lines = []
    shown = [
        build_system("kdv"),
        build_system("harry-dym"),
        build_system("t-form", beta=1, s=2),
        build_system("mkdv"),
        build_system("ckdv"),
        build_system("upsilon"),
    ]
    for sys_ in shown:
        pars = ", ".join(f"{k}={v}" for k, v in sorted(sys_.parameters.items()))
        lines.append(f"{sys_.name}" + (f"  ({pars})" if pars else ""))
        for f in sys_.even_fields + sys_.odd_fields:
            r = sys_.rhs.get(f)
            lines.append(f"  {f}_t = " + (to_string(r) if r is not None else "(none)"))
        for f in sorted(sys_.brst.base):
            lines.append(f"  delta {f} = {to_string(sys_.brst.base[f])}")
        for xf in sorted(sys_.brst.xrules):
            lines.append(f"  d/dx {xf} = {to_string(sys_.brst.xrules[xf])}")
        if sys_.densities:
            for nm in sorted(sys_.densities):
                d = sys_.densities[nm]
                lines.append(f"  density {nm} [{d.kind}] = {to_string(d.density)}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


# ---------------------------------------------------------------------------
# maps between systems

def miura_substitution():
    """u in terms of R: the map sending mKdV solutions to KdV solutions."""
    return parse("2*R_x - 2*R^2")


def ckdv_substitution():
    """v in terms of w (from w_x - 2vw - w^2 = 0)."""
    return parse("1/2*w^-1*w_x - 1/2*w")


def miura_map(R, length):
    """Grid version of u = 2(R_x - R^2)."""
    R = np.asarray(R, dtype=float)
    return 2.0 * (spectral_derivative(R, 1, length) - R * R)


def ckdv_to_mkdv(w, length, floor=1e-8):
    """Grid version of v = (w_x - w^2)/(2w); fails when w approaches zero."""
    w = np.asarray(w, dtype=float)
    small = np.min(np.abs(w))
    if small <= floor:
        raise SingularityError(
            f"ckdv_to_mkdv: |w| reaches {small:.3e} (floor {floor:.1e})")
    return (spectral_derivative(w, 1, length) - w * w) / (2.0 * w)


# ---------------------------------------------------------------------------
# zero curvature and reconstruction

def _check_same_shape(named):
    shapes = {k: np.shape(v) for k, v in named.items()}
    if len(set(shapes.values())) != 1:
        raise ValueError(f"grid size mismatch: {shapes}")


def zero_curvature_components(P, Q, R, S, T, u, R_t, S_t, T_t, length):
    """The three component residuals of the flat-connection condition in
    the (P,Q,R,S,T,u) variables, with spectral x-derivatives:

        R_t - P_x - u T - Q S
        S_t - u_x + 2 P S - 2 u R
        T_t + Q_x - 2 P T - 2 Q R
    """
    grids = dict(P=P, Q=Q, R=R, S=S, T=T, u=u, R_t=R_t, S_t=S_t, T_t=T_t)
    grids = {k: np.asarray(v, dtype=float) for k, v in grids.items()}
    _check_same_shape(grids)
    P, Q, R, S, T, u = (grids[k] for k in "PQRSTu")
    R_t, S_t, T_t = grids["R_t"], grids["S_t"], grids["T_t"]
    r1 = R_t - spectral_derivative(P, 1, length) - u * T - Q * S
    r2 = S_t - spectral_derivative(u, 1, length) + 2 * P * S - 2 * u * R
    r3 = T_t + spectral_derivative(Q, 1, length) - 2 * P * T - 2 * Q * R
    return r1, r2, r3


def reconstruct_connection(state, gauge_slice):
    """Lift reduced data back to the sl(2,R) connection components.

    slice-A (state carries u and T):
        A1 = (0, sqrt2, -sqrt2 T),
        A0 = (u_x, sqrt2 u, sqrt2 (-u_xx/2 - u T)).
    slice-B (state carries R):
        A1 = (2R, sqrt2, 0), A0^0 = u_x + 2 u R and A0^+ = sqrt2 u with
        u = 2(R_x - R^2); the remaining lower component is not determined
        by this slice and is filled with zeros.
    """
    from .sl2 import ConnectionGrid  # local import: keep module load light

    n = state.N
    length = state.L
    rt2 = np.sqrt(2.0)
    if gauge_slice == SLICE_A:
        for needed in ("u", "T"):
            if needed not in state.fields:
                raise KeyError(f"slice-A reconstruction needs field {needed!r}")
        u = state.fields["u"]
        T = state.fields["T"]
        ux = spectral_derivative(u, 1, length)
        uxx = spectral_derivative(u, 2, length)
        a1 = np.stack([np.zeros(n), rt2 * np.ones(n), -rt2 * T])
        a0 = np.stack([ux, rt2 * u, rt2 * (-0.5 * uxx - u * T)])
        return ConnectionGrid(x=state.x, length=length, a0=a0, a1=a1)
    if gauge_slice == SLICE_B:
        if "R" not in state.fields:
            raise KeyError("slice-B reconstruction needs field 'R'")
        R = state.fields["R"]
        u = miura_map(R, length)
        ux = spectral_derivative(u, 1, length)
        a1 = np.stack([2.0 * R, rt2 * np.ones(n), np.zeros(n)])
        a0 = np.stack([ux + 2.0 * u * R, rt2 * u, np.zeros(n)])
        return ConnectionGrid(x=state.x, length=length, a0=a0, a1=a1)
    raise ValueError(f"unknown gauge slice {gauge_slice!r}")


def ghost_multiplet(ghost, T, length):
    """Recover the dependent ghost components from the surviving one:
    returns (middle, lower) = (d/dx ghost, -sqrt2 T ghost - sqrt2/2 d2/dx2 ghost)."""
    ghost = np.asarray(ghost, dtype=float)
    T = np.asarray(T, dtype=float)
    _check_same_shape({"ghost": ghost, "T": T})
    rt2 = np.sqrt(2.0)
    mid = spectral_derivative(ghost, 1, length)
    low = -rt2 * T * ghost - (rt2 / 2.0) * spectral_derivative(ghost, 2, length)
    return mid, low
