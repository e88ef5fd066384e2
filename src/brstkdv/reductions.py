"""Catalog of gauge-fixed integrable systems with their odd symmetries.

Every system comes from the sl(2,R) zero-curvature equation
F = d_t A1 - d_x A0 + [A0, A1] = 0 and its odd symmetry delta A = Dc =
dc + [A, c], delta c = -1/2 [c, c].  Each gauge slice is stated once
(``slice_connection``) as component triples in the basis E0 = T0,
E+- = sqrt2 T+-, where the structure constants are integers; slice A is

    A1 = (0, 1, -T),  A0 = (u_x, u, -1/2 u_xx - u T),
    ghost triple C = (c_x, c, -1/2 c_xx - T c).

The rest is computed with the sl(2) bracket, not typed in: ``_slice_laws``
gives each slice's F, delta A1 = d_x C + [A1, C], u law (d_t C + [A0, C])^+
and ghost law -1/2 [C, C]^+.  On slice A, F^0 and F^+ vanish, Upsilon =
-F^- = T_t - 1/2 u_xxx - 2 u_x T - u T_x is the residual equation
(``upsilon_poly``), and ``upsilon_rules()`` holds the T law -(delta A1)^-,
the u law c_t - u c_x + u_x c and the ghost law c c_x, which every catalog
system shares.  Both parameter families are gauge-fixed from Upsilon, and
one routine (``_gauged``) builds every gauge-fixed system, solving its ghost
flow from the u law at the gauge function u:

- the t-form gauge u = s T^beta gives T_t = (s/2) d^3/dx^3 (T^beta) +
  (2 beta + 1) s T^beta T_x: KdV at beta=1, s=2 and a Harry Dym-type
  equation at beta=1/2, s=1;
- the u-form gauge s T = u^alpha gives u_t = ((alpha+2)/alpha) u u_x +
  (s/(2 alpha)) u^(1-alpha) u_xxx, and delta u from the T law likewise.

The t-form's Ht1 is delta H1, kdv's H0, H1, Ht0 and Ht1 are the t-form's
at beta=1, s=2 pulled back by T = u/2, and kdv's H1g is 2 Ht0.  Only the
t-form's Ht0 and kdv's H3 and H5, which equal delta of a classical density
just modulo total derivatives, are typed.  Kind is read off parity.

Slice B is A1 = (2R, 1, 0), A0 = (u_x + 2uR, u, 0) at the Miura map
u = 2(R_x - R^2), with C = (c_x + 2Rc, c, cm) for a covariantly constant
second ghost cm.  Its laws come the same way: the mkdv flow from F^0,
delta R from (delta A1)^0, cm's x rule from (delta A1)^- = 0 and the
ghost flow from the u law.

CKdV is mkdv pulled back by R = v(w) = 1/2 w^-1 w_x - 1/2 w, the solution
of w_x - 2 v w - w^2 = 0, with cm = -cw.  Its w is a weight-one density:
at the Miura gauge u(w) it flows by the total derivative

    w_t = (w u)_x = w_xxx - 1/2 d/dx (w^3 + 3 w_x^2 / w),

so constant data is stationary and 2 v_t = 2(v_xxx - 6 v^2 v_x) holds
exactly, which the test suite checks.  Its symmetry is delta w = (w c)_x +
cw, and cw's x rule is cm's pulled back, cw_x = 2 v cw = w^-1 w_x cw - w cw.
With it delta v(w) is delta R at (v(w), -cw), and cw cancels from the ghost
flow, solved from the u law as for mkdv.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache, partial
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
    substitute_family,
    t_prolong,
    to_string,
    total_x_derivative,
)
from .grammar import is_name, parse
from .sl2 import (
    E_WEIGHTS,
    commutator_components,
    curvature_residual,
    rescaled_table,
)
from .solver import SingularityError, evaluator, spectral_derivative

__all__ = [
    "EvolutionSystem",
    "ConservedDensity",
    "SYSTEM_NAMES",
    "FAMILY_PARAMETERS",
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

SLICE_A = "slice-A"  # A1 = (0, 1, -T); state carries u and T
SLICE_B = "slice-B"  # A1 = (2R, 1, 0); state carries R

@dataclass(frozen=True)
class ConservedDensity:
    """A density whose spatial integral is constant along the flow.

    ``kind`` is read off the density's parity: "classical" for an even
    (ghost-free) density, "brst-invariant" for an odd one.  A density that
    mixes even and odd terms is rejected.
    """

    name: str
    density: GradedPoly

    def __post_init__(self):
        if self.density.parity() is None:
            raise ValueError(f"density {self.name} mixes even and odd terms")

    @property
    def kind(self):
        return "brst-invariant" if self.density.parity() else "classical"


@dataclass(frozen=True)
class EvolutionSystem:
    """An evolution system with its graded symmetry and densities.

    ``rhs`` maps each field symbol to its time-evolution polynomial (None
    for fields carried along without an evolution law of their own, as for
    u in the unreduced slice system).  ``brst`` is the odd symmetry.  Built
    systems are cached and shared, so ``parameters``, ``rhs`` and
    ``densities`` are read-only; ``dataclasses.replace`` makes a changed copy.
    """

    name: str
    parameters: dict
    even_fields: tuple
    odd_fields: tuple
    rhs: dict
    brst: DerivationRuleSet
    densities: dict = field(default_factory=dict)

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


def _coerce_param(key, v):
    """Numeric strings ("3", "-1/2", "1.5") become exact Fractions and
    identifiers become parameters; any other string, and every value that
    is not exact (a float), is rejected."""
    try:
        return as_scalar(v)
    except TypeError:
        raise ValueError(f"family parameter {key} must be exact, got {v!r}; "
                         "give an int, a Fraction or a string such as '3/2'") from None
    except (ValueError, ZeroDivisionError):
        if v.isidentifier():
            return parameter(v)
        raise ValueError(f"family parameter {v!r} is neither a number nor a name") from None


# --- the two gauges of the slice -------------------------------------------

def _slice_flow():
    """The T flow that the slice equation Upsilon = 0 states."""
    return GradedPoly.gen(marker("T"), odd_syms=frozenset({"c"})) - upsilon_poly()


def _gauged(name, parameters, field, flow, rules, u_law, u, densities):
    """The system of one gauge: the even ``field`` with its ``flow`` and the
    ghost c, whose flow is solved from the slice's u law delta u = c_t +
    rest(u, c) at the gauge function ``u``."""
    rest = u_law - GradedPoly.gen(marker("c"), odd_syms=u_law.odd_syms)
    return EvolutionSystem(
        name=name,
        parameters=parameters,
        even_fields=(field,),
        odd_fields=("c",),
        rhs={field: flow, "c": apply_derivation(u, rules) - substitute_family(rest, "u", u)},
        brst=rules,
        densities={k: ConservedDensity(k, d) for k, d in densities.items()},
    )


@lru_cache(maxsize=128)  # one system per parameter point, shared by every caller
def _t_family(beta, s, name="t-form"):
    """The gauge u = s T^beta, which leaves T and the ghost c."""
    odd = frozenset({"c"})
    laws = upsilon_rules().base
    rules = DerivationRuleSet(name + "-brst", base={"T": laws["T"], "c": laws["c"]})
    u = s * GradedPoly.gen("T", 0, beta, odd_syms=odd)
    h1 = GradedPoly.gen("T", 0, beta + 1, odd_syms=odd)
    densities = {
        "H0": GradedPoly.gen("T", odd_syms=odd),
        "H1": h1,
        "Ht0": parse("T*c_x", odd=("c",)),
        "Ht1": apply_derivation(h1, rules),
    }
    return _gauged(name, {"beta": beta, "s": s}, "T", substitute_family(_slice_flow(), "u", u),
                   rules, laws["u"], u, densities)


@lru_cache(maxsize=128)
def _u_family(alpha, s):
    """The gauge s T = u^alpha, which leaves u and the ghost c."""
    if alpha == 0 or isinstance(alpha, ParamPoly):
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

    rules = DerivationRuleSet("kdv-brst", base={"u": pull_back(laws["T"]), "c": laws["c"]})
    densities = {}
    if (alpha, s) == (1, 2):  # the t-form's densities at T = u/2, and two typed ones
        densities = {k: substitute_family(d.density, "T", Fraction(1, 2) * u)
                     for k, d in _t_family(1, 2).densities.items()}
        densities["H1g"] = 2 * densities["Ht0"]
        densities.update((k, parse(t, odd=("c",))) for k, t in (
            ("H3", "u*c_xxx + 3/2*u^2*c_x"),
            ("H5", "2/3*u_xx*c_xxx + 5/3*u^3*c_x + u^2*c_xxx"
                   " + 1/3*u_x^2*c_x - 4/3*u*u_xxx*c"),
        ))
    return _gauged("kdv", {"alpha": alpha, "s": s}, "u", pull_back(_slice_flow()),
                   rules, laws["u"], u, densities)


@cache
def _mkdv():
    """Slice B's flow, symmetry and ghost flow at the Miura gauge u."""
    f, d_a1, u_law, c_law = _slice_laws(SLICE_B)
    half, odd = Fraction(1, 2), d_a1[2].odd_syms
    rules = DerivationRuleSet("mkdv-brst", base={"R": half * d_a1[0], "c": c_law},
                              # no law for the covariantly constant cm is in scope
                              xrules={"cm": GradedPoly.gen("cm", 1, odd_syms=odd) - d_a1[2]})
    return _gauged("mkdv", {}, "R", GradedPoly.gen(marker("R"), odd_syms=odd) - half * f[0],
                   rules, u_law, miura_substitution(), {"H0": parse("R"), "H1": parse("R^2")})


@cache
def _ckdv():
    """mkdv pulled back by R = v(w), cm = -cw: the weight-one density w flows
    by (w u)_x at the gauge function u(w), and delta w = (w c)_x + cw."""
    mkdv, odd = _mkdv(), frozenset({"c", "cw"})
    w, c, cw = (GradedPoly.gen(s, odd_syms=odd) for s in ("w", "c", "cw"))
    v = ckdv_substitution()
    u = substitute_family(miura_substitution(), "R", v)
    cm_x = substitute_family(mkdv.brst.xrules["cm"], "R", v)
    rules = DerivationRuleSet("ckdv-brst",
                              base={"w": total_x_derivative(w * c) + cw, "c": mkdv.brst.base["c"]},
                              xrules={"cw": -substitute_family(cm_x, "cm", -cw)})
    return _gauged("ckdv", {}, "w", total_x_derivative(w * u), rules,
                   upsilon_rules().base["u"], u, {})


# ---------------------------------------------------------------------------
# the gauge slices of the zero-curvature equation

@cache
def slice_connection(gauge_slice):
    """The component triples (A1, A0, ghost C) of a gauge slice in the basis
    E0 = T0, E+- = sqrt2 T+-.  Slice A's ghosts are the jets of c; slice B
    adds the covariantly constant cm, so that triple's odd set is {c, cm}."""
    if gauge_slice not in (SLICE_A, SLICE_B):
        raise ValueError(f"unknown gauge slice {gauge_slice!r}")
    odd = frozenset({"c"} if gauge_slice == SLICE_A else {"c", "cm"})
    gen = partial(GradedPoly.gen, odd_syms=odd)
    one, zero, half, c = GradedPoly.number(1, odd), GradedPoly.zero(odd), Fraction(1, 2), gen("c")
    if gauge_slice == SLICE_A:
        T, u = gen("T"), gen("u")
        return ((zero, one, -T),
                (gen("u", 1), u, -half * gen("u", 2) - u * T),
                (gen("c", 1), c, -half * gen("c", 2) - T * c))
    R, u = gen("R"), miura_substitution()
    return ((2 * R, one, zero), (total_x_derivative(u) + 2 * (u * R), u, zero),
            (gen("c", 1) + 2 * (R * c), c, gen("cm")))


def slice_curvature(gauge_slice, structure=None):
    """The E-basis components of F = d_t A1 - d_x A0 + [A0, A1] on a slice,
    with time derivatives as markers; ``structure`` is a T-basis table
    (default the shipped one), rescaled by ``sl2.rescaled_table``."""
    a1, a0, _ = slice_connection(gauge_slice)
    return curvature_residual([t_prolong(a) for a in a1], [total_x_derivative(a) for a in a0],
                              a0, a1, f=rescaled_table(structure))


@cache
def _slice_laws(gauge_slice):
    """F and, from delta A = Dc and delta c = -1/2 [c, c], delta A1 =
    d_x C + [A1, C], the u law (d_t C + [A0, C])^+ and the ghost law
    -1/2 [C, C]^+, all on one slice."""
    g = rescaled_table()
    a1, a0, c = slice_connection(gauge_slice)
    d_a1 = tuple(total_x_derivative(x) + b for x, b in zip(c, commutator_components(a1, c, g)))
    return (tuple(slice_curvature(gauge_slice)), d_a1,
            t_prolong(c[1]) + commutator_components(a0, c, g)[1],
            Fraction(-1, 2) * commutator_components(c, c, g)[1])


def upsilon_poly():
    """The residual slice equation as a polynomial with time markers."""
    return -_slice_laws(SLICE_A)[0][2]


def upsilon_rules():
    """Odd symmetry of slice A: the ghost law, the T law and the u law,
    which keeps the ghost's time derivative as a marker."""
    _, d_a1, u_law, c_law = _slice_laws(SLICE_A)
    return DerivationRuleSet("slice-brst", base={"u": u_law, "T": -d_a1[2], "c": c_law})


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
    )


# each system's builder and its family parameters, in the order the builder
# takes them, with their defaults (None when required)
_CATALOG = {
    "kdv": (_u_family, {"alpha": 1, "s": 2}),
    "harry-dym": (partial(_t_family, Fraction(1, 2), 1, name="harry-dym"), {}),
    "t-form": (_t_family, {"beta": None, "s": None}),
    "mkdv": (_mkdv, {}),
    "ckdv": (_ckdv, {}),
    "upsilon": (_upsilon_system, {}),
}
SYSTEM_NAMES = tuple(_CATALOG)
FAMILY_PARAMETERS = tuple(sorted({k for _, row in _CATALOG.values() for k in row}))


def build_system(name, **params):
    """Construct a catalog system at the family parameters its row of
    ``_CATALOG`` names; harry-dym is t-form at beta=1/2, s=1.  Parameters may
    be Fractions, ints, strings like "1/2" or "beta", or ``parameter("beta")``
    for exact parametric work.  kdv's alpha must be a number: its flow divides
    by it.  ``system.density(name)`` looks a density up by name, which is how
    ``evolve`` reads a diagnostic given as a string.
    """
    if name not in _CATALOG:
        raise ValueError(f"unknown system {name!r}; catalog: {', '.join(SYSTEM_NAMES)}")
    builder, row = _CATALOG[name]
    extra = set(params) - set(row)
    if extra:
        raise ValueError(f"system {name!r} does not take parameters {sorted(extra)}")
    required = [k for k, default in row.items() if default is None]
    if not set(required) <= set(params):
        raise ValueError(f"{name} requires {' and '.join(required)}")
    params = {k: _coerce_param(k, v) for k, v in params.items()}
    system = builder(*{**row, **params}.values())
    fields = system.even_fields + system.odd_fields
    for key, value in sorted(params.items()):
        for nm in sorted(value.names) if isinstance(value, ParamPoly) else ():
            if nm in fields or not is_name(nm):
                why = f"a field of {name}" if nm in fields else "not a name the grammar reads"
                raise ValueError(f"family parameter {key} is named {nm!r}, {why}")
    return system


def catalog_manifest():
    """Human-readable catalog: systems, parameters, equations, densities."""
    lines, params = [], {"t-form": {"beta": 1, "s": 2}}
    for sys_ in (build_system(nm, **params.get(nm, {})) for nm in SYSTEM_NAMES):
        pars = ", ".join(f"{k}={v}" for k, v in sorted(sys_.parameters.items()))
        lines.append(f"{sys_.name}" + (f"  ({pars})" if pars else ""))
        for f in sys_.even_fields + sys_.odd_fields:
            r = sys_.rhs.get(f)
            lines.append(f"  {f}_t = " + (to_string(r) if r is not None else "(none)"))
        for f in sorted(sys_.brst.base):
            lines.append(f"  delta {f} = {to_string(sys_.brst.base[f])}")
        for xf in sorted(sys_.brst.xrules):
            lines.append(f"  d/dx {xf} = {to_string(sys_.brst.xrules[xf])}")
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

def zero_curvature_components(P, Q, R, S, T, u, R_t, S_t, T_t, length):
    """The three component residuals of the flat-connection condition in
    the (P,Q,R,S,T,u) variables: the E-basis curvature (F^0/2, F^+, -F^-)
    of A1 = (2R, S, -T), A0 = (2P, u, Q) with spectral x-derivatives,

        R_t - P_x - u T - Q S
        S_t - u_x + 2 P S - 2 u R
        T_t + Q_x - 2 P T - 2 Q R
    """
    grids = dict(P=P, Q=Q, R=R, S=S, T=T, u=u, R_t=R_t, S_t=S_t, T_t=T_t)
    grids = {k: np.asarray(v, dtype=float) for k, v in grids.items()}
    shapes = {k: np.shape(v) for k, v in grids.items()}
    if len(set(shapes.values())) != 1:
        raise ValueError(f"grid size mismatch: {shapes}")
    P, Q, R, S, T, u, R_t, S_t, T_t = grids.values()
    a0 = (2 * P, u, Q)
    f = curvature_residual((2 * R_t, S_t, -T_t), [spectral_derivative(a, 1, length) for a in a0],
                           a0, (2 * R, S, -T), f=rescaled_table())
    return f[0] / 2, f[1], -f[2]


def reconstruct_connection(state, gauge_slice):
    """Lift reduced data back to the sl(2,R) connection: the slice's A0 and
    A1 triples (``slice_connection``) evaluated on the state's grids, as one
    (2, 3, N) array, A0 then A1, in the basis T_a of ``sl2`` (the E-basis
    rows scaled by 1, sqrt2, sqrt2).
    On slice B, A0^- is not determined by the slice and is zero, and
    A0^0 = 2 R_xx - 4 R R_x + 2 u R is formed pointwise from spectral
    derivatives of R: exact at the grid points for R below Nyquist, where
    a spectral derivative of the grid u would carry the aliasing of R^2."""
    scale = np.sqrt(2.0) ** np.array(E_WEIGHTS * 2)[:, None]  # E_a = 2^(n_a/2) T_a
    return (_lift(gauge_slice)(state.fields, state.L) * scale).reshape(2, 3, -1)


@cache
def _lift(gauge_slice):
    """The grid evaluator of a slice's A0 and A1 triples, compiled once."""
    a1, a0, _ = slice_connection(gauge_slice)
    return evaluator(a0 + a1)
