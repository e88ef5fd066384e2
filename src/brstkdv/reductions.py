"""Catalog of gauge-fixed integrable systems with their odd symmetries.

Every system comes from the sl(2,R) zero-curvature equation
F = d_t A1 - d_x A0 + [A0, A1] = 0 and its odd symmetry delta A = Dc =
dc + [A, c], delta c = -1/2 [c, c].  Each gauge slice is stated once
(``slice_connection``) as component triples in the basis E0 = T0,
E+- = sqrt2 T+-, where the structure constants are integers; slice A is

    A1 = (0, 1, -T),  A0 = (u_x, u, -1/2 u_xx - u T),
    ghost triple C = (c_x, c, -1/2 c_xx - T c).

The rest is computed with the sl(2) bracket, not typed in.  F^0 and F^+
vanish and Upsilon = -F^- = T_t - 1/2 u_xxx - 2 u_x T - u T_x is the
residual equation (``upsilon_poly``).  The laws of ``upsilon_rules()``
are components of the symmetry: the T law -(d_x C + [A1, C])^-, the u law
(d_t C + [A0, C])^+ = c_t - u c_x + u_x c, and the ghost law
delta c = c c_x = -1/2 [C, C]^+, which every catalog system shares.  Both
parameter families are gauge-fixed from Upsilon, each ghost flow solved
from the u law:

- the t-form gauge u = s T^beta gives T_t = (s/2) d^3/dx^3 (T^beta) +
  (2 beta + 1) s T^beta T_x: KdV at beta=1, s=2 and a Harry Dym-type
  equation at beta=1/2, s=1;
- the u-form gauge s T = u^alpha gives u_t = ((alpha+2)/alpha) u u_x +
  (s/(2 alpha)) u^(1-alpha) u_xxx, and delta u from the T law likewise.

Slice B, A1 = (2R, 1, 0) and A0 = (u_x + 2uR, u, 0) at the Miura map
u = 2(R_x - R^2), is flat on the mKdV flow in R; composing with R = v + w,
w_x - 2vw - w^2 = 0 yields the CKdV equation in w.  The mkdv and ckdv flows
and ghost flows are stated, not derived, so that the tests can check them
against the maps independently.

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
from functools import cache, lru_cache
from types import MappingProxyType

import numpy as np

from .graded import (
    DerivationRuleSet,
    GradedPoly,
    ParamPoly,
    apply_derivation,
    as_scalar,
    marker,
    parameter,
    s_is_zero,
    substitute_family,
    t_prolong,
    to_string,
    total_x_derivative,
)
from .grammar import is_name, parse
from .sl2 import (
    E_WEIGHTS,
    ConnectionGrid,
    commutator_components,
    curvature_residual,
    rescaled_table,
)
from .solver import SingularityError, evaluator, spectral_derivative

__all__ = [
    "EvolutionSystem",
    "ConservedDensity",
    "SYSTEM_NAMES",
    "SLICE_A",
    "SLICE_B",
    "build_system",
    "catalog_manifest",
    "slice_connection",
    "slice_curvature",
    "upsilon_poly",
    "upsilon_rules",
    "miura_substitution",
    "ckdv_substitution",
    "miura_map",
    "ckdv_to_mkdv",
    "zero_curvature_components",
    "reconstruct_connection",
]

SYSTEM_NAMES = ("kdv", "harry-dym", "t-form", "mkdv", "ckdv", "upsilon")

SLICE_A = "slice-A"  # A1 = (0, 1, -T); state carries u and T
SLICE_B = "slice-B"  # A1 = (2R, 1, 0); state carries R

_ODD = frozenset({"c"})


def _gen(sym, order=0, exp=1):
    return GradedPoly.gen(sym, order, exp, odd_syms=_ODD)


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
    with no transformation law in scope, as for mkdv/ckdv).  Built systems
    are cached and shared, so ``parameters``, ``rhs`` and ``densities`` are
    read-only; ``dataclasses.replace`` makes a changed copy.
    """

    name: str
    parameters: dict
    even_fields: tuple
    odd_fields: tuple
    rhs: dict
    brst: DerivationRuleSet
    densities: dict = field(default_factory=dict)
    symbolic_invariance: bool = True

    def __post_init__(self):
        for name in ("parameters", "rhs", "densities"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))

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


def _coerce_param(v):
    """Numeric strings ("3", "-1/2", "1.5") become exact Fractions and
    identifiers become parameters; any other string is rejected."""
    try:
        return as_scalar(v)
    except (ValueError, ZeroDivisionError):
        if v.isidentifier():
            return parameter(v)
        raise ValueError(f"family parameter {v!r} is neither a number nor a name") from None


# --- the two gauges of the slice -------------------------------------------

def _slice_flow():
    """The T flow that the slice equation Upsilon = 0 states."""
    return GradedPoly.gen(marker("T"), odd_syms=frozenset({"c"})) - upsilon_poly()


def _ghost_flow(u_law, u, delta_u):
    """c_t solved from the u law delta u = c_t + rest(u, c) at the gauge u."""
    rest = u_law - GradedPoly.gen(marker("c"), odd_syms=u_law.odd_syms)
    return delta_u - substitute_family(rest, "u", u)


@lru_cache(maxsize=128)  # one system per parameter point, shared by every caller
def _t_family(beta, s, name="t-form"):
    """The gauge u = s T^beta, which leaves T and the ghost c."""
    odd = frozenset({"c"})
    laws = upsilon_rules().base
    Tb = GradedPoly.gen("T", 0, beta, odd_syms=odd)
    u = s * Tb
    rules = DerivationRuleSet(name + "-brst", parity=1, base={"T": laws["T"], "c": laws["c"]})
    delta_u = apply_derivation(u, rules)
    densities = {
        "H0": ConservedDensity("H0", GradedPoly.gen("T", odd_syms=odd), "classical"),
        "H1": ConservedDensity("H1", GradedPoly.gen("T", 0, beta + 1, odd_syms=odd), "classical"),
        "Ht0": ConservedDensity("Ht0", parse("T*c_x", odd=("c",)), "brst-invariant"),
        "Ht1": ConservedDensity("Ht1", (beta + 1) * (Tb * laws["T"]), "brst-invariant"),
    }
    return EvolutionSystem(
        name=name,
        parameters={"beta": beta, "s": s},
        even_fields=("T",),
        odd_fields=("c",),
        rhs={"T": substitute_family(_slice_flow(), "u", u),
             "c": _ghost_flow(laws["u"], u, delta_u)},
        brst=rules,
        densities=densities,
    )


@lru_cache(maxsize=128)
def _u_family(alpha, s, name="kdv"):
    """The gauge s T = u^alpha, which leaves u and the ghost c."""
    if s_is_zero(alpha) or isinstance(alpha, ParamPoly):
        raise ValueError("alpha must be a nonzero number: the flow divides by alpha")
    odd = frozenset({"c"})
    laws = upsilon_rules().base
    u = GradedPoly.gen("u", odd_syms=odd)
    ua = GradedPoly.gen("u", 0, alpha, odd_syms=odd)
    lift = Fraction(1) / alpha * GradedPoly.gen("u", 0, 1 - alpha, odd_syms=odd)

    def pull_back(p):
        # on the gauge, alpha u^(alpha-1) u_t = s T_t (and alike for delta),
        # with s p at T = u^alpha / s taken term by term: p is affine in the
        # T family, so no step divides by s
        at_zero = substitute_family(p, "T", GradedPoly.zero(odd))
        return lift * (s * at_zero + substitute_family(p - at_zero, "T", ua))

    delta_u = pull_back(laws["T"])
    rules = DerivationRuleSet(name + "-brst", parity=1, base={"u": delta_u, "c": laws["c"]})

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
        rhs={"u": pull_back(_slice_flow()), "c": _ghost_flow(laws["u"], u, delta_u)},
        brst=rules,
        densities=densities,
    )


@cache
def _mkdv():
    odd = ("c", "cm")
    rules = DerivationRuleSet("mkdv-brst", parity=1, base={
        "R": parse("1/2*c_xx + R_x*c + R*c_x + cm", odd=odd),
        "c": upsilon_rules().base["c"],
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


@cache
def _ckdv():
    rules = DerivationRuleSet("ckdv-brst", parity=1, base={
        "w": parse("w_x*c + w*c_x + cw", odd=("c", "cw")),
        "c": upsilon_rules().base["c"],
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


# ---------------------------------------------------------------------------
# the gauge slices of the zero-curvature equation

@cache
def slice_connection(gauge_slice):
    """The component triples (A1, A0, ghost) of a gauge slice in the basis
    E0 = T0, E+- = sqrt2 T+-; slice B states no ghost triple (None)."""
    one, zero = GradedPoly.number(1, _ODD), GradedPoly.zero(_ODD)
    half = Fraction(1, 2)
    if gauge_slice == SLICE_A:
        T, u, c = _gen("T"), _gen("u"), _gen("c")
        return ((zero, one, -T),
                (_gen("u", 1), u, -half * _gen("u", 2) - u * T),
                (_gen("c", 1), c, -half * _gen("c", 2) - T * c))
    if gauge_slice == SLICE_B:
        R, u = _gen("R"), miura_substitution()
        return (2 * R, one, zero), (total_x_derivative(u) + 2 * (u * R), u, zero), None
    raise ValueError(f"unknown gauge slice {gauge_slice!r}")


def slice_curvature(gauge_slice, structure=None):
    """The E-basis components of F = d_t A1 - d_x A0 + [A0, A1] on a slice,
    with time derivatives as markers; ``structure`` is a T-basis table
    (default the shipped one), rescaled by ``sl2.rescaled_table``."""
    a1, a0, _ = slice_connection(gauge_slice)
    return curvature_residual([t_prolong(a) for a in a1], [total_x_derivative(a) for a in a0],
                              a0, a1, f=rescaled_table(structure))


@cache
def _slice_a_laws():
    """Upsilon = -F^- and, from delta A = Dc and delta c = -1/2 [c, c],
    the u, T and ghost laws, all on slice A."""
    g = rescaled_table()
    a1, a0, c = slice_connection(SLICE_A)
    laws = {
        "u": t_prolong(c[1]) + commutator_components(a0, c, g)[1],
        "T": -(total_x_derivative(c[2]) + commutator_components(a1, c, g)[2]),
        "c": Fraction(-1, 2) * commutator_components(c, c, g)[1],
    }
    return -slice_curvature(SLICE_A)[2], laws


def upsilon_poly():
    """The residual slice equation as a polynomial with time markers."""
    return _slice_a_laws()[0]


def upsilon_rules():
    """Odd symmetry of slice A: the ghost law, the T law and the u law,
    which keeps the ghost's time derivative as a marker."""
    return DerivationRuleSet("slice-brst", parity=1, base=dict(_slice_a_laws()[1]))


@cache
def _upsilon_system():
    return EvolutionSystem(
        name="upsilon",
        parameters={},
        even_fields=("u", "T"),
        odd_fields=("c",),
        rhs={
            "u": None,  # u is unconstrained on this slice
            "T": _slice_flow(),
            "c": None,
        },
        brst=upsilon_rules(),
        densities={},
        symbolic_invariance=False,
    )


_FIXED = {
    "harry-dym": lambda: _t_family(Fraction(1, 2), 1, name="harry-dym"),
    "mkdv": _mkdv,
    "ckdv": _ckdv,
    "upsilon": _upsilon_system,
}


def build_system(name, **params):
    """Construct a catalog system; family parameters may be Fractions, ints,
    strings like "1/2" or "beta", or ``parameter("beta")`` for exact
    parametric work.  kdv's alpha must be a number: its flow divides by it.

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
        system = _u_family(params.get("alpha", 1), params.get("s", 2), name="kdv")
    elif name == "t-form":
        only({"beta", "s"})
        if "beta" not in params or "s" not in params:
            raise ValueError("t-form requires beta and s")
        system = _t_family(params["beta"], params["s"])
    elif name in _FIXED:
        only(set())
        return _FIXED[name]()
    else:
        raise ValueError(f"unknown system {name!r}; catalog: {', '.join(SYSTEM_NAMES)}")
    fields = system.even_fields + system.odd_fields
    for key, value in sorted(params.items()):
        for nm in sorted(value.names) if isinstance(value, ParamPoly) else ():
            if nm in fields or not is_name(nm):
                why = f"a field of {name}" if nm in fields else "not a name the grammar reads"
                raise ValueError(f"family parameter {key} is named {nm!r}, {why}")
    return system


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
    """u = 2 R_x - 2 R^2: the map sending mKdV solutions to KdV solutions."""
    R = GradedPoly.gen("R")
    return 2 * GradedPoly.gen("R", 1) - 2 * (R * R)


def ckdv_substitution():
    """v = 1/2 w^-1 w_x - 1/2 w, from w_x - 2vw - w^2 = 0."""
    w = GradedPoly.gen("w")
    return Fraction(1, 2) * (GradedPoly.gen("w", 0, -1) * GradedPoly.gen("w", 1) - w)


_MAP_FLOOR = 1e-8  # ckdv_to_mkdv divides by w, so |w| must stay above this


@cache
def _grid_map(substitution):
    """The grid evaluator of a substitution map, compiled once."""
    return evaluator([substitution()])


def miura_map(R, length):
    """``miura_substitution()`` evaluated on the grid R."""
    return _grid_map(miura_substitution)({"R": np.asarray(R, dtype=float)}, length)[0]


def ckdv_to_mkdv(w, length):
    """``ckdv_substitution()`` evaluated on the grid w; fails when w
    approaches zero."""
    w = np.asarray(w, dtype=float)
    small = np.min(np.abs(w))
    if not small > _MAP_FLOOR:  # NaN fails this test too
        raise SingularityError(
            f"ckdv_to_mkdv: |w| reaches {small:.3e} (floor {_MAP_FLOOR:.1e})")
    return _grid_map(ckdv_substitution)({"w": w}, length)[0]


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
    """Lift reduced data back to the sl(2,R) connection: the slice's A0 and
    A1 triples (``slice_connection``) evaluated on the state's grids, in
    the basis T_a of ``sl2`` (the E-basis rows scaled by 1, sqrt2, sqrt2).
    On slice B, A0^- is not determined by the slice and is zero, and
    A0^0 = 2 R_xx - 4 R R_x + 2 u R is formed pointwise from spectral
    derivatives of R: exact at the grid points for R below Nyquist, where
    a spectral derivative of the grid u would carry the aliasing of R^2."""
    scale = np.sqrt(2.0) ** np.array(E_WEIGHTS * 2)[:, None]  # E_a = 2^(n_a/2) T_a
    rows = _lift(gauge_slice)(state.fields, state.L) * scale
    return ConnectionGrid(a0=rows[:3], a1=rows[3:])


@cache
def _lift(gauge_slice):
    """The grid evaluator of a slice's A0 and A1 triples, compiled once."""
    a1, a0, _ = slice_connection(gauge_slice)
    return evaluator(a0 + a1)
