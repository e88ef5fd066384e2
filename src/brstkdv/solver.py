"""Periodic pseudospectral time integration for the catalog systems.

Space is discretised by a Fourier collocation grid (N a power of two,
domain [0, L)); derivatives are the multipliers (ik)^order, with the
unpaired Nyquist mode dropped for odd orders.  The stepper holds the
spectra of all evolving fields as the rows of one (F, N/2+1) array, so each
RK stage is one array expression.  The right-hand sides are compiled once
into an evaluation plan that reads all (field, order) grids in one irfft,
filters all powers in one rfft/irfft round trip, filters each product by
the 2/3 rule as it is formed, and sums the terms in spectral space.
Quadrature of conserved densities, the step-size advisory and
:func:`evaluate` share one unfiltered pointwise evaluator on physical
grids; :func:`evaluate` is what the CLI's initial data and the modified-flow
residual of ``verify.check_miura_chain`` call.
Time stepping is classical RK4 composed with an exact
integrating factor for the constant-coefficient dispersive part of each
field (a term a*f_xxx with constant a is detected in the right-hand side
and propagated exactly per mode), which removes the k^3 stiffness; systems
whose dispersion has a variable coefficient (e.g. the T^(-1/2) T_xxx term
of the Harry Dym flow) fall back to plain RK4 on the full right-hand side
and are subject to the usual third-order CFL restriction, for which a
warning is emitted when dt looks too large.

The ghost field is odd, but every ghost evolution equation in scope is
linear in the ghost and every density is at most linear in it, so a single
real coefficient array per odd field is a faithful representation: the
odd generator is factored out and the coefficient function is evolved.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .graded import ParamPoly, base_symbol

__all__ = [
    "SolverError",
    "BlowUpError",
    "SingularityError",
    "FieldState",
    "Trajectory",
    "spectral_derivative",
    "dealias",
    "step",
    "evolve",
    "evaluate",
    "evaluate_functional",
    "initial_state",
    "soliton_initial",
]

_RK4_IMAG_LIMIT = 2.0 * np.sqrt(2.0)
_FLOOR = 1e-6  # positivity / nonvanishing floor of fractional and negative powers


class SolverError(RuntimeError):
    pass


class BlowUpError(SolverError):
    """Non-finite values appeared during stepping."""

    def __init__(self, message, t):
        super().__init__(f"{message} (t = {t:.6g})")
        self.t = t


class SingularityError(SolverError):
    """A positivity/nonvanishing precondition failed."""


def _require_power_of_two(n):
    if n < 4 or n & (n - 1):
        raise ValueError(f"grid size must be a power of two >= 4, got {n}")


def _multiplier(n, length, order):
    """(ik)^order on the rfft modes; odd orders drop the unpaired Nyquist mode."""
    k = 2.0 * np.pi / length * np.fft.rfftfreq(n, d=1.0 / n)
    mult = (1j * k) ** order
    if order % 2:
        mult[-1] = 0.0
    return mult


def spectral_derivative(f, order, length):
    """Fourier differentiation of periodic samples; order 1..4."""
    if order not in (1, 2, 3, 4):
        raise ValueError(f"derivative order must be 1..4, got {order}")
    f = np.asarray(f, dtype=float)
    n = f.shape[-1]
    _require_power_of_two(n)
    return np.fft.irfft(np.fft.rfft(f) * _multiplier(n, length, order), n)


def _dealias_mask(n):
    return np.arange(n // 2 + 1) <= n // 3


def dealias(f):
    """Project onto the lowest third of the spectrum (2/3 rule)."""
    f = np.asarray(f, dtype=float)
    n = f.shape[-1]
    return np.fft.irfft(np.fft.rfft(f) * _dealias_mask(n), n)


@dataclass(frozen=True)
class FieldState:
    """Grid samples of all fields at one time."""

    t: float
    L: float
    N: int
    fields: dict

    def __post_init__(self):
        _require_power_of_two(self.N)
        if not (math.isfinite(self.L) and self.L > 0):
            raise ValueError(f"domain length must be finite and positive, got {self.L!r}")
        fields = {}
        for sym, arr in self.fields.items():
            a = np.asarray(arr, dtype=float)
            if a.shape != (self.N,):
                raise ValueError(f"field {sym!r} has shape {a.shape}, want ({self.N},)")
            fields[sym] = a
        object.__setattr__(self, "fields", fields)

    @property
    def x(self):
        return self.L * np.arange(self.N) / self.N

    def replace(self, t=None, fields=None):
        return FieldState(
            t=self.t if t is None else t,
            L=self.L,
            N=self.N,
            fields=self.fields if fields is None else fields,
        )


@dataclass
class Trajectory:
    """Recorded snapshots plus diagnostic time series."""

    states: list
    diagnostics: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    @property
    def times(self):
        return np.array([s.t for s in self.states])

    def __post_init__(self):
        ts = [s.t for s in self.states]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("snapshot times must be strictly increasing")

    def export_csv(self, path):
        syms = sorted(self.states[0].fields)
        with open(path, "w") as fh:
            fh.write(",".join(["t", "x"] + syms) + "\n")
            x = list(map(repr, self.states[0].x.tolist()))
            for st in self.states:
                cols = [x] + [map(repr, st.fields[s].tolist()) for s in syms]
                t = repr(float(st.t)) + ","
                fh.writelines(t + ",".join(row) + "\n" for row in zip(*cols))

    def export_manifest(self, path, config=None):
        doc = {
            "meta": {k: _jsonable(v) for k, v in sorted(self.meta.items())},
            "times": [float(s.t) for s in self.states],
            "diagnostics": {k: [float(v) for v in vs]
                            for k, vs in sorted(self.diagnostics.items())},
            "fields": sorted(self.states[0].fields),
            "grid": {"L": float(self.states[0].L), "N": int(self.states[0].N)},
        }
        if config is not None:
            doc["config"] = {k: _jsonable(v) for k, v in sorted(config.items())}
        text = json.dumps(doc, sort_keys=True, indent=2)
        with open(path, "w") as fh:
            fh.write(text + "\n")
        return text


def _jsonable(v):
    if isinstance(v, (bool, int, float, str)) or v is None:
        return v
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in sorted(v.items())}
    return str(v)


# ---------------------------------------------------------------------------
# compiling polynomials to spectral evaluation plans

def _number(value, what):
    try:
        return float(value)
    except TypeError:
        free = ", ".join(sorted(value.names)) if isinstance(value, ParamPoly) else ""
        raise ValueError(
            f"{what} {value} is not numeric (free symbols: {free or 'none'}); "
            "only numbers can be evaluated on a grid") from None


def _compile_terms(poly, odd_fields):
    """Flatten a polynomial into (coeff, factors) pairs.

    Factors are (sym, order, float exponent): the even factors, then the
    ghost factor with exponent 1 if there is one.  Only ghost-linear
    polynomials with numeric coefficients and exponents compile.
    """
    if poly.has_markers():
        raise ValueError("cannot evaluate a polynomial containing time markers")
    out = []
    for coeff, even, odd in poly.terms():
        if len(odd) > 1:
            raise ValueError(
                "polynomial is quadratic in odd generators; a single ghost "
                "coefficient array cannot represent it")
        factors = [(sym, order, _number(e, "exponent")) for (sym, order), e in even]
        for sym, order in odd:
            if base_symbol(sym) not in odd_fields:
                raise ValueError(f"odd generator {sym!r} is not a ghost field here")
            factors.append((sym, order, 1.0))
        out.append((_number(coeff, "coefficient"), tuple(factors)))
    return tuple(out)


def _grids(terms, fields, length):
    """Physical grids of every (field, order) that the compiled terms read."""
    keys = {x[:2] for _, fs in terms for x in fs}
    missing = sorted({s for s, _ in keys} - set(fields))
    if missing:
        raise KeyError(f"no field {missing[0]!r} in state")
    return {(s, o): spectral_derivative(fields[s], o, length) if o else fields[s]
            for s, o in keys}


def _pointwise(terms, grids, n):
    """Sum of coeff * prod grid^e over compiled terms, unfiltered, on n points."""
    out = np.zeros(n)
    for coeff, fs in terms:
        acc = 1.0
        for s, o, e in fs:
            acc = acc * (grids[s, o] if e == 1.0 else np.power(grids[s, o], e))
        out += coeff * acc
    return out


def _is_lone(factors):
    return len(factors) == 1 and factors[0][2] == 1.0


class _Plan:
    """Compiled right-hand sides, evaluated from rfft data with the 2/3 rule.

    The spectral state is one (F, N/2+1) array with a row per field.  Each
    evaluation reads every (field, order) grid in one irfft and filters
    every power other than 1 in one rfft/irfft round trip.  Products are
    filtered as they are formed, and each right-hand side's terms are summed
    in spectral space into its output row; a lone linear factor adds
    hat * (ik)^order with no FFT.
    """

    def __init__(self, fields, terms, n, length):
        self.terms = terms
        self.n = n
        self.mask = _dealias_mask(n)
        self.row = {f: i for i, f in enumerate(fields)}
        formed = [fs for ts in terms for _, fs in ts if not _is_lone(fs)]
        self.reads = sorted({(s, o) for fs in formed for s, o, _ in fs})
        self.powers = sorted({x for fs in formed for x in fs if x[2] != 1.0})
        orders = {o for ts in terms for _, fs in ts for _, o, _ in fs}
        self.mult = {o: _multiplier(n, length, o) for o in orders if o}

    def _filter(self, a):
        return np.fft.irfft(np.fft.rfft(a) * self.mask, self.n)

    def _spectrum(self, hats, s, o):
        return hats[self.row[s]] * self.mult[o] if o else hats[self.row[s]]

    def grids(self, hats):
        """Physical values of the (field, order) grids the plan reads."""
        spectra = [self._spectrum(hats, s, o) for s, o in self.reads]
        return dict(zip(self.reads, np.fft.irfft(np.stack(spectra), self.n))) if spectra else {}

    def __call__(self, hats, grids):
        """The rfft of every compiled right-hand side, one row per field."""
        vals = dict(grids)
        if self.powers:
            raised = np.stack([np.power(grids[s, o], e) for s, o, e in self.powers])
            vals.update(zip(self.powers, self._filter(raised)))
        out = np.zeros((len(self.terms), self.n // 2 + 1), dtype=complex)
        for spec, terms in zip(out, self.terms):
            for coeff, fs in terms:
                if _is_lone(fs):
                    spec += coeff * self._spectrum(hats, *fs[0][:2])
                    continue
                factors = [vals[x[:2] if x[2] == 1.0 else x] for x in fs] or [np.ones(self.n)]
                acc = factors[0]
                for f in factors[1:-1]:
                    acc = self._filter(acc * f)
                if len(factors) > 1:
                    acc = acc * factors[-1]
                spec += coeff * (np.fft.rfft(acc) * self.mask)
        return out


# ---------------------------------------------------------------------------
# the stepper

class _Stepper:
    def __init__(self, system, length, n, dt):
        _require_power_of_two(n)
        self.length = length
        self.n = n
        self.dt = dt
        self.fields = system.evolving_fields()
        if not self.fields:
            raise ValueError(f"system {system.name!r} has no evolution equations")
        missing = [f for f in system.even_fields + system.odd_fields
                   if system.rhs.get(f) is None]
        if missing:
            raise ValueError(
                f"system {system.name!r} leaves {missing} without an evolution "
                "law and cannot be integrated")
        self.odd = set(system.odd_fields)

        # a constant-coefficient a*f_xxx is propagated exactly by the
        # integrating factor and kept out of the plan
        linear, terms = [], []
        for f in self.fields:
            disp = ((f, 3, 1.0),)
            compiled = _compile_terms(system.rhs[f], self.odd)
            linear.append(sum(c for c, fs in compiled if fs == disp))
            terms.append(tuple(t for t in compiled if t[1] != disp))
        self.plan = _Plan(self.fields, terms, n, length)
        # preconditions implied by the exponents of undifferentiated powers
        powers = [(s, e) for s, o, e in self.plan.powers if not o]
        self.positive = {s for s, e in powers if e != int(e)}
        self.nonzero = {s for s, e in powers if e == int(e) and e < 0}

        lam = np.outer(linear, _multiplier(n, length, 3))
        self.E, self.E2 = np.exp(dt * lam), np.exp(0.5 * dt * lam)

    def to_hats(self, state):
        """The spectral state: one rfft row per field, in self.fields order."""
        return np.fft.rfft(np.stack([state.fields[f] for f in self.fields]))

    def to_fields(self, hats, state):
        return {**state.fields, **dict(zip(self.fields, np.fft.irfft(hats, self.n)))}

    def _check_guards(self, grids, t):
        for sym in self.positive:
            m = float(np.min(grids[sym, 0]))
            if m <= _FLOOR:
                raise SingularityError(
                    f"field {sym!r} reached {m:.3e} <= positivity floor "
                    f"{_FLOOR:.1e} at t = {t:.6g}")
        for sym in self.nonzero:
            m = float(np.min(np.abs(grids[sym, 0])))
            if m <= _FLOOR:
                raise SingularityError(
                    f"|{sym}| reached {m:.3e} <= nonvanishing floor "
                    f"{_FLOOR:.1e} at t = {t:.6g}")

    def nonlinear_hat(self, hats, t, check=False):
        grids = self.plan.grids(hats)
        if check:
            self._check_guards(grids, t)
        return self.plan(hats, grids)

    def advance(self, hats, t):
        """One integrating-factor RK4 step in spectral space.

        Guards run on the first stage only; if the state degenerates inside
        a step the resulting non-finite values are caught by the caller, so
        numpy's intermediate invalid-value warnings are suppressed here.
        """
        dt, E, E2 = self.dt, self.E, self.E2
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            a = self.nonlinear_hat(hats, t, check=True)
            b = self.nonlinear_hat(E2 * (hats + 0.5 * dt * a), t + 0.5 * dt)
            c = self.nonlinear_hat(E2 * hats + 0.5 * dt * b, t + 0.5 * dt)
            d = self.nonlinear_hat(E * hats + dt * E2 * c, t + dt)
            return E * hats + dt / 6.0 * (E * a + 2.0 * E2 * (b + c) + d)

    def cfl_advisory(self, state):
        """Warn when an unextracted third-derivative term looks unstable."""
        kmax = 2.0 * np.pi / self.length * (self.n // 3)
        # |coeff| and the even factors other than the third derivative, for
        # each term that carries one
        stiff = {f: [(abs(c), [x for x in fs if x[1] != 3 and x[0] not in self.odd])
                     for c, fs in terms if any(x[1] == 3 for x in fs)]
                 for f, terms in zip(self.fields, self.plan.terms)}
        grids = _grids([t for amps in stiff.values() for t in amps], state.fields, self.length)
        # |x^e| via |x|^e: fractional e on negative data would NaN
        grids = {k: np.abs(g) for k, g in grids.items()}
        for f, amps in stiff.items():
            worst = max((float(np.max(_pointwise([t], grids, self.n))) for t in amps),
                        default=0.0)
            if self.dt * worst * kmax ** 3 > _RK4_IMAG_LIMIT:
                warnings.warn(
                    f"field {f!r}: variable-coefficient dispersion with "
                    f"dt*|a|*kmax^3 ~ {self.dt * worst * kmax**3:.2f} exceeds the "
                    "RK4 stability bound ~2.83; reduce dt or N", stacklevel=3)


def step(state, system, dt):
    """Advance one RK4/integrating-factor step; convenience wrapper."""
    return evolve(state, system, state.t + dt, dt).states[-1]


def evolve(state, system, t_end, dt, record_every=1, diagnostics=()):
    """Integrate to t_end, recording every record_every-th step (plus the
    initial and final states) and evaluating the given conserved densities
    on each recorded snapshot."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    if not isinstance(record_every, (int, np.integer)) or record_every < 1:
        raise ValueError(f"record_every must be an int >= 1, got {record_every!r}")
    if t_end <= state.t:
        raise ValueError("t_end must exceed the initial time")
    bad = [f for f in sorted(state.fields) if not np.isfinite(state.fields[f]).all()]
    if bad:
        raise ValueError(f"initial field {bad[0]!r} is not finite")
    span = t_end - state.t
    n_steps = int(round(span / dt))
    if abs(n_steps * dt - span) > 1e-9 * max(1.0, abs(t_end)):
        raise ValueError("t_end - t must be an integer number of steps")
    diagnostics = list(diagnostics)
    names = [d.name if hasattr(d, "name") else str(d) for d in diagnostics]
    twice = sorted({nm for nm in names if names.count(nm) > 1})
    if twice:
        raise ValueError(f"diagnostic {twice[0]!r} is given more than once")
    compiled = [_density_terms(d) for d in diagnostics]
    stepper = _Stepper(system, state.L, state.N, dt)
    stepper.cfl_advisory(state)

    states = [state]
    records = [_quadrature(compiled, state)]
    hats = stepper.to_hats(state)
    t0 = state.t
    for i in range(1, n_steps + 1):
        hats = stepper.advance(hats, t0 + (i - 1) * dt)
        bad = ~np.isfinite(hats).all(axis=1)
        if bad.any():
            raise BlowUpError(f"non-finite values in field {stepper.fields[bad.argmax()]!r}",
                              t0 + i * dt)
        if i % record_every == 0 or i == n_steps:
            snap = state.replace(t=t0 + i * dt, fields=stepper.to_fields(hats, state))
            states.append(snap)
            records.append(_quadrature(compiled, snap))
    return Trajectory(
        states=states,
        diagnostics={nm: list(vs) for nm, vs in zip(names, zip(*records))},
        meta={
            "system": system.name,
            "parameters": {k: str(v) for k, v in system.parameters.items()},
            "dt": dt,
            "record_every": record_every,
            "t_end": t_end,
        },
    )


def _density_terms(density):
    poly = density.density if hasattr(density, "density") else density
    return _compile_terms(poly, {base_symbol(s) for s in poly.odd_syms})


def _quadrature(compiled, state):
    """Mean * L of each compiled density, all read from one set of grids."""
    grids = _grids([t for terms in compiled for t in terms], state.fields, state.L)
    return [float(np.mean(_pointwise(terms, grids, state.N)) * state.L)
            for terms in compiled]


def evaluate(poly, fields, length):
    """Values of ``poly`` on the grids ``fields`` (equal-length periodic
    samples on [0, length), keyed by symbol), pointwise and unfiltered.
    Odd generators read the coefficient arrays of their ghost fields."""
    terms = _density_terms(poly)
    n = len(next(iter(fields.values())))
    return _pointwise(terms, _grids(terms, fields, length), n)


def evaluate_functional(density, state):
    """Trapezoid quadrature of a density over the periodic domain (exact
    mean * L on the equispaced grid).  Ghost generators are replaced by
    derivatives of the ghost coefficient array."""
    return _quadrature([_density_terms(density)], state)[0]


def soliton_initial(k, x0, system, length=40.0, n=512, ghost="gradient"):
    """Localized initial data for the kdv/mkdv families.

    kdv: u = 4 k^2 sech^2(k (x - x0)), the traveling wave of
    u_t = 3 u u_x + u_xxx with speed -4k^2 (substituting A sech^2(kappa z),
    z = x - ct fixes A = 4 kappa^2, c = -4 kappa^2).

    mkdv: R = k sech(k (x - x0)) is *initial data only*: for
    R_t = R_xxx - 6 R^2 R_x the same ansatz forces A^2 = -k^2, so no real
    sech traveling wave exists for this sign of the cubic term.

    ghost: as for :func:`initial_state`.
    """
    name = system if isinstance(system, str) else system.name
    if name not in ("kdv", "mkdv"):
        raise ValueError(f"soliton data is defined for kdv/mkdv, not {name!r}")
    x = length * np.arange(n) / n
    z = x - x0
    if name == "kdv":
        sym = "u"
        f = 4.0 * k * k / np.cosh(k * z) ** 2 if k else np.zeros(n)
    else:
        sym = "R"
        f = k / np.cosh(k * z) if k else np.zeros(n)
    return initial_state(sym, f, length, ghost)


def initial_state(sym, f, length, ghost="gradient"):
    """The t = 0 state with the even field ``sym`` sampled as ``f`` and the
    ghost c: "gradient" initialises it to d/dx of f, "none" to zero; an
    array gives it explicitly."""
    f = np.asarray(f, dtype=float)
    if isinstance(ghost, str):
        if ghost == "gradient":
            ghost = spectral_derivative(f, 1, length)
        elif ghost == "none":
            ghost = np.zeros(len(f))
        else:
            raise ValueError(f"unknown ghost profile {ghost!r}")
    return FieldState(t=0.0, L=length, N=len(f), fields={sym: f, "c": ghost})
