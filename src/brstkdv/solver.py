"""Periodic pseudospectral time integration for the catalog systems.

Space is discretised by a Fourier collocation grid (N a power of two,
domain [0, L)); nonlinear products are dealiased by the 2/3 rule, and
fractional powers are computed pointwise in physical space and then
filtered.  Time stepping is classical RK4 composed with an exact
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
odd generator is factored out ond the coefficient function is evolved.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .graded import GradedPoly, base_symbol

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
    "evaluate_functional",
    "soliton_initial",
]

_RK4_IMAG_LIMIT = 2.0 * np.sqrt(2.0)


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


def _wavenumbers(n, length):
    return 2.0 * np.pi / length * np.fft.rfftfreq(n, d=1.0 / n)


def spectral_derivative(f, order, length):
    """Fourier differentiation of periodic samples; order 1..4."""
    if order not in (1, 2, 3, 4):
        raise ValueError(f"derivative order must be 1..4, got {order}")
    f = np.asarray(f, dtype=float)
    n = f.shape[-1]
    _require_power_of_two(n)
    k = _wavenumbers(n, length)
    mult = (1j * k) ** order
    if order % 2:
        mult[-1] = 0.0  # drop the unpaired Nyquist mode of odd derivatives
    return np.fft.irfft(np.fft.rfft(f) * mult, n)


def _dealias_mask(n):
    idx = np.arange(n // 2 + 1)
    return idx <= n // 3


def dealias(f, length=None):
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
            for st in self.states:
                x = st.x
                cols = [st.fields[s] for s in syms]
                for i in range(st.N):
                    row = [repr(float(st.t)), repr(float(x[i]))]
                    row += [repr(float(c[i])) for c in cols]
                    fh.write(",".join(row) + "\n")

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
# compiling polynomials to grid evaluators

def _compile_terms(poly, odd_fields):
    """Flatten a polynomial into (coeff, even factors, ghost factor) triples.

    Even factors are (sym, order, float exponent); the ghost factor is a
    (sym, order) pair or None.  Only ghost-linear polynomials compile.
    """
    if poly.has_markers():
        raise ValueError("cannot evaluate a polynomial containing time markers")
    out = []
    for coeff, even, odd in poly.terms():
        if len(odd) > 1:
            raise ValueError(
                "polynomial is quadratic in odd generators; a single ghost "
                "coefficient array cannot represent it")
        ghost = None
        if odd:
            sym, order = odd[0]
            if base_symbol(sym) not in odd_fields:
                raise ValueError(f"odd generator {sym!r} is not a ghost field here")
            ghost = (sym, order)
        evens = []
        for (sym, order), e in even:
            evens.append((sym, order, float(e)))
        out.append((float(coeff), tuple(evens), ghost))
    return tuple(out)


class _GridCache:
    """Physical-space views (field, derivative order) backed by rfft data."""

    def __init__(self, hats, n, length):
        self.hats = hats
        self.n = n
        self.k = _wavenumbers(n, length)
        self.cache = {}

    def __call__(self, sym, order):
        key = (sym, order)
        if key not in self.cache:
            if sym not in self.hats:
                raise KeyError(f"no field {sym!r} in state")
            h = self.hats[sym]
            if order:
                mult = (1j * self.k) ** order
                if order % 2:
                    mult = mult.copy()
                    mult[-1] = 0.0
                h = h * mult
            self.cache[key] = np.fft.irfft(h, self.n)
        return self.cache[key]


def _eval_terms(terms, grids, n, mask):
    """Evaluate compiled triples; every nonlinear product is dealiased."""

    def filt(a):
        return np.fft.irfft(np.fft.rfft(a) * mask, n)

    out = np.zeros(n)
    for coeff, evens, ghost in terms:
        acc = None
        for sym, order, e in evens:
            g = grids(sym, order)
            f = g if e == 1.0 else filt(np.power(g, e))
            acc = f if acc is None else filt(acc * f)
        if ghost is not None:
            g = grids(ghost[0], ghost[1])
            acc = g if acc is None else filt(acc * g)
        out += coeff * (acc if acc is not None else np.ones(n))
    return out


def _guards_for(polys):
    """Positivity / nonvanishing preconditions implied by the exponents."""
    positive, nonzero = set(), set()
    for poly in polys:
        if poly is None:
            continue
        for _, even, _ in poly.terms():
            for (sym, order), e in even:
                if order:
                    continue
                fe = float(e)
                if fe != int(fe):
                    positive.add(sym)
                elif fe < 0:
                    nonzero.add(sym)
    return positive, nonzero


# ---------------------------------------------------------------------------
# the stepper

class _Stepper:
    def __init__(self, system, length, n, dt, floor=1e-6):
        _require_power_of_two(n)
        self.system = system
        self.length = length
        self.n = n
        self.dt = dt
        self.floor = floor
        self.mask = _dealias_mask(n)
        self.k = _wavenumbers(n, length)
        self.fields = system.evolving_fields()
        if not self.fields:
            raise ValueError(f"system {system.name!r} has no evolution equations")
        missing = [f for f in system.even_fields + system.odd_fields
                   if system.rhs.get(f) is None]
        if missing:
            raise ValueError(
                f"system {system.name!r} leaves {missing} without an evolution "
                "law and cannot be integrated")
        odd_fields = set(system.odd_fields)

        self.linear = {}
        self.terms = {}
        self.has_stiff_tail = {}
        for f in self.fields:
            a = 0.0
            rest = []
            for coeff, evens, ghost in _compile_terms(system.rhs[f], odd_fields):
                if f in odd_fields:
                    is_disp = evens == () and ghost == (f, 3)
                else:
                    is_disp = ghost is None and evens == ((f, 3, 1.0),)
                if is_disp:
                    a += coeff
                else:
                    rest.append((coeff, evens, ghost))
            self.linear[f] = a
            self.terms[f] = tuple(rest)
            self.has_stiff_tail[f] = any(
                any(order == 3 for _, order, _ in evens) or (g and g[1] == 3)
                for _, evens, g in rest
            )

        self.positive, self.nonzero = _guards_for(
            [system.rhs[f] for f in self.fields])

        self.E = {}
        self.E2 = {}
        for f in self.fields:
            lam = self.linear[f] * (1j * self.k) ** 3
            lam[-1] = 0.0
            self.E[f] = np.exp(dt * lam)
            self.E2[f] = np.exp(0.5 * dt * lam)

    def to_hats(self, state):
        return {f: np.fft.rfft(state.fields[f]) for f in self.fields}

    def to_fields(self, hats, state):
        out = dict(state.fields)
        for f in self.fields:
            out[f] = np.fft.irfft(hats[f], self.n)
        return out

    def _check_guards(self, grids, t):
        for sym in self.positive:
            m = float(np.min(grids(sym, 0)))
            if m <= self.floor:
                raise SingularityError(
                    f"field {sym!r} reached {m:.3e} <= positivity floor "
                    f"{self.floor:.1e} at t = {t:.6g}")
        for sym in self.nonzero:
            m = float(np.min(np.abs(grids(sym, 0))))
            if m <= self.floor:
                raise SingularityError(
                    f"|{sym}| reached {m:.3e} <= nonvanishing floor "
                    f"{self.floor:.1e} at t = {t:.6g}")

    def nonlinear_hat(self, hats, t, check=False):
        grids = _GridCache(hats, self.n, self.length)
        if check:
            self._check_guards(grids, t)
        out = {}
        for f in self.fields:
            val = _eval_terms(self.terms[f], grids, self.n, self.mask)
            out[f] = np.fft.rfft(val)
        return out

    def advance(self, hats, t):
        """One integrating-factor RK4 step in spectral space.

        Guards run on the first stage only; if the state degenerates inside
        a step the resulting non-finite values are caught by the caller, so
        numpy's intermediate invalid-value warnings are suppressed here.
        """
        dt, E, E2 = self.dt, self.E, self.E2
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            a = self.nonlinear_hat(hats, t, check=True)
            u1 = {f: E2[f] * (hats[f] + 0.5 * dt * a[f]) for f in self.fields}
            b = self.nonlinear_hat(u1, t + 0.5 * dt)
            u2 = {f: E2[f] * hats[f] + 0.5 * dt * b[f] for f in self.fields}
            c = self.nonlinear_hat(u2, t + 0.5 * dt)
            u3 = {f: E[f] * hats[f] + dt * E2[f] * c[f] for f in self.fields}
            d = self.nonlinear_hat(u3, t + dt)
            out = {}
            for f in self.fields:
                out[f] = E[f] * hats[f] + dt / 6.0 * (
                    E[f] * a[f] + 2.0 * E2[f] * (b[f] + c[f]) + d[f])
        return out

    def cfl_advisory(self, state):
        """Warn when an unextracted third-derivative term looks unstable."""
        kmax = 2.0 * np.pi / self.length * (self.n // 3)
        grids = _GridCache(self.to_hats(state), self.n, self.length)
        for f in self.fields:
            if not self.has_stiff_tail[f]:
                continue
            worst = 0.0
            for coeff, evens, ghost in self.terms[f]:
                carries_3 = any(order == 3 for _, order, _ in evens) or (
                    ghost is not None and ghost[1] == 3)
                if not carries_3:
                    continue
                amp = abs(coeff) * np.ones(self.n)
                for sym, order, e in evens:
                    if order == 3:
                        continue
                    # |x^e| via |x|^e: fractional e on negative data would NaN
                    amp = amp * np.power(np.abs(grids(sym, order)), e)
                worst = max(worst, float(np.max(amp)))
            if self.dt * worst * kmax ** 3 > _RK4_IMAG_LIMIT:
                warnings.warn(
                    f"field {f!r}: variable-coefficient dispersion with "
                    f"dt*|a|*kmax^3 ~ {self.dt * worst * kmax**3:.2f} exceeds the "
                    "RK4 stability bound ~2.83; reduce dt or N", stacklevel=3)


def step(state, system, dt, floor=1e-6):
    """Advance one RK4/integrating-factor step; convenience wrapper."""
    return evolve(state, system, state.t + dt, dt, floor=floor).states[-1]


def evolve(state, system, t_end, dt, record_every=1, diagnostics=(), floor=1e-6):
    """Integrate to t_end, recording every record_every-th step (plus the
    initial and final states) and evaluating the given conserved densities
    on each recorded snapshot."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    if not isinstance(record_every, (int, np.integer)) or record_every < 1:
        raise ValueError(f"record_every must be an int >= 1, got {record_every!r}")
    if t_end <= state.t:
        raise ValueError("t_end must exceed the initial time")
    span = t_end - state.t
    n_steps = int(round(span / dt))
    if abs(n_steps * dt - span) > 1e-9 * max(1.0, abs(t_end)):
        raise ValueError("t_end - t must be an integer number of steps")
    stepper = _Stepper(system, state.L, state.N, dt, floor=floor)
    stepper.cfl_advisory(state)

    names = []
    dens = []
    for d in diagnostics:
        names.append(d.name if hasattr(d, "name") else str(d))
        dens.append(d)

    states = [state]
    diag = {nm: [evaluate_functional(d, state)] for nm, d in zip(names, dens)}
    hats = stepper.to_hats(state)
    t0 = state.t
    for i in range(1, n_steps + 1):
        hats = stepper.advance(hats, t0 + (i - 1) * dt)
        bad = [f for f in stepper.fields if not np.all(np.isfinite(hats[f]))]
        if bad:
            raise BlowUpError(f"non-finite values in field {bad[0]!r}", t0 + i * dt)
        if i % record_every == 0 or i == n_steps:
            snap = state.replace(t=t0 + i * dt, fields=stepper.to_fields(hats, state))
            states.append(snap)
            for nm, d in zip(names, dens):
                diag[nm].append(evaluate_functional(d, snap))
    return Trajectory(
        states=states,
        diagnostics=diag,
        meta={
            "system": system.name,
            "parameters": {k: str(v) for k, v in system.parameters.items()},
            "dt": dt,
            "record_every": record_every,
            "t_end": t_end,
        },
    )


def evaluate_functional(density, state):
    """Trapezoid quadrature of a density over the periodic domain (exact
    mean * L on the equispaced grid).  Ghost generators are replaced by
    derivatives of the ghost coefficient array."""
    poly = density.density if hasattr(density, "density") else density
    odd_fields = {base_symbol(s) for s in poly.odd_syms}
    terms = _compile_terms(poly, odd_fields)
    hats = {sym: np.fft.rfft(state.fields[sym]) for sym in state.fields}
    grids = _GridCache(hats, state.N, state.L)
    mask = np.ones(state.N // 2 + 1, dtype=bool)  # no dealiasing in quadrature
    val = _eval_terms(terms, grids, state.N, mask)
    return float(np.mean(val) * state.L)


def soliton_initial(k, x0, system, length=40.0, n=512, ghost="gradient"):
    """Localized initial data for the kdv/mkdv families.

    kdv: u = 4 k^2 sech^2(k (x - x0)), the traveling wave of
    u_t = 3 u u_x + u_xxx with speed -4k^2 (substituting A sech^2(kappa z),
    z = x - ct fixes A = 4 kappa^2, c = -4 kappa^2).

    mkdv: R = k sech(k (x - x0)) is *initial data only*: for
    R_t = R_xxx - 6 R^2 R_x the same ansatz forces A^2 = -k^2, so no real
    sech traveling wave exists for this sign of the cubic term.

    ghost: "gradient" initialises the ghost to d/dx of the even field,
    "none" to zero; an array gives it explicitly.
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
    if isinstance(ghost, str):
        if ghost == "gradient":
            g = spectral_derivative(f, 1, length)
        elif ghost == "none":
            g = np.zeros(n)
        else:
            raise ValueError(f"unknown ghost profile {ghost!r}")
    else:
        g = np.asarray(ghost, dtype=float)
    return FieldState(t=0.0, L=length, N=n, fields={sym: f, "c": g})
