"""Periodic pseudospectral time integration for the catalog systems.

Space is discretised by a Fourier collocation grid (N a power of two,
domain [0, L)); derivatives are the multipliers (ik)^order, with the
unpaired Nyquist mode dropped for odd orders.  The stepper holds the
spectra of the evolving fields of one or more runs as the rows of one
(sum F, N/2+1) array, so each RK stage is one array expression for all of
them: :func:`evolve_many` integrates runs on a shared grid in lockstep, each
to its own end, and :func:`evolve` is its one-run case.  Polynomials are
compiled once into a term table whose one product pass raises each power
once and multiplies level by level, pointwise.  An RK stage makes one irfft
for all grids, that pass, and one rfft for all terms, whose modes above N/3
it then drops: the 2/3 rule, applied once per stage to the whole right-hand
side.  So every step makes 8 FFT calls, however many runs are stacked and
whatever their systems.  Quadrature (:func:`evaluator`) and the step-size
advisory make the same pass and sum the terms on the grids.  Every pass but
the advisory's is guarded: a power's base at or below one floor raises.
Time stepping is RK4 with an exact integrating factor exp(t sum c (ik)^o)
over each field's constant-coefficient linear terms c*f_(o x), any order o;
a variable-coefficient dispersion (Harry Dym's T^(-1/2) T_xxx) stays in the
right-hand side, and a warning is emitted when dt breaks its RK4 limit.

Every ghost evolution equation and density in scope is at most linear in
the odd ghost, so the odd generator is factored out and one real
coefficient array per odd field is evolved.  A zero ghost whose law has
a factor of it in every term stays +0.0 and is no row of the stepper.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .graded import ParamPoly, base_symbol

__all__ = ["SolverError", "BlowUpError", "SingularityError", "FieldState", "Trajectory",
           "spectral_derivative", "evolve", "evolve_many", "evaluator", "evaluate_functional",
           "initial_state", "soliton_initial"]

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
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 4 or n & (n - 1):
        raise ValueError(f"grid size must be a power of two >= 4, got {n}")


def _require_length(length):
    if not (math.isfinite(length) and length > 0):
        raise ValueError(f"domain length must be finite and positive, got {length!r}")


@functools.lru_cache(maxsize=256)
def _multiplier(n, length, order):
    """(ik)^order on the rfft modes, read-only; odd orders drop the Nyquist mode."""
    _require_length(length)
    # a float product overflows to inf where numpy's power would warn
    if not math.isfinite(math.prod([2.0 * np.pi / length * (n // 2)] * order)):
        raise ValueError(f"domain length {length!r} is too small for {n} points: "
                         f"(ik)^{order} overflows")
    k = 2.0 * np.pi / length * np.fft.rfftfreq(n, d=1.0 / n)
    mult = (1j * k) ** order
    if order % 2:
        mult[-1] = 0.0
    mult.flags.writeable = False
    return mult


def _grid_points(length, n):
    """The n grid points of [0, length), finite up to the largest float length."""
    return np.arange(n) * (length / n)


def spectral_derivative(f, order, length):
    """Fourier differentiation along the last axis; any int order >= 1."""
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)) or order < 1:
        raise ValueError(f"derivative order must be an int >= 1, got {order!r}")
    f = np.asarray(f, dtype=float)
    n = f.shape[-1]
    _require_power_of_two(n)
    return np.fft.irfft(np.fft.rfft(f) * _multiplier(n, length, order), n)


@dataclass(frozen=True)
class FieldState:
    """Grid samples of all fields at one time."""

    t: float
    L: float
    N: int
    fields: dict

    def __post_init__(self):
        _require_power_of_two(self.N)
        _require_length(self.L)
        fields = {}
        for sym, arr in self.fields.items():
            a = np.asarray(arr, dtype=float)
            if a.shape != (self.N,):
                raise ValueError(f"field {sym!r} has shape {a.shape}, want ({self.N},)")
            fields[sym] = a
        object.__setattr__(self, "fields", fields)

    @property
    def x(self):
        return _grid_points(self.L, self.N)


@dataclass
class Trajectory:
    """Recorded snapshots plus diagnostic time series."""

    states: list
    diagnostics: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.states:
            raise ValueError("a trajectory needs at least one state")
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
            "meta": self.meta,
            "times": [float(s.t) for s in self.states],
            "diagnostics": {k: [float(v) for v in vs]
                            for k, vs in sorted(self.diagnostics.items())},
            "fields": sorted(self.states[0].fields),
            "grid": {"L": float(self.states[0].L), "N": int(self.states[0].N)},
        }
        if config is not None:
            doc["config"] = config
        text = json.dumps(doc, sort_keys=True, indent=2, default=str)
        with open(path, "w") as fh:
            fh.write(text + "\n")
        return text


# ---------------------------------------------------------------------------
# compiling polynomials to term tables

def _number(value, what):
    try:
        return float(value)
    except TypeError:
        free = ", ".join(sorted(value.names)) if isinstance(value, ParamPoly) else ""
        raise ValueError(
            f"{what} {value} is not numeric (free symbols: {free or 'none'}); "
            "only numbers can be evaluated on a grid") from None
    except OverflowError:  # beyond float range; its digits may be too many to print
        raise ValueError(f"{what} is too large to evaluate on a grid") from None


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


def _grids(reads, fields, length):
    """The physical grids of the (field, order) pairs ``reads``, stacked in
    that order, one derivative call per order on the stacked (..., N) fields."""
    missing = sorted({s for s, _ in reads} - set(fields))
    if missing:
        raise KeyError(f"no field {missing[0]!r} in state")
    grids = {(s, o): fields[s] for s, o in reads if not o}
    for order in sorted({o for _, o in reads} - {0}):
        read = [k for k in reads if k[1] == order]
        grids.update(zip(read, spectral_derivative(
            np.stack([fields[s] for s, _ in read]), order, length)))
    return np.array([grids[k] for k in reads])


def _raise(g, e):
    """g**e, a small nonzero integer e by products (libm's pow is slow on g < 0)."""
    if e != int(e) or not 0 < abs(e) <= 8:
        return np.power(g, e)
    p = g
    for _ in range(abs(int(e)) - 1):
        p = p * g
    return 1.0 / p if e < 0 else p


class _Terms:
    """The compiled-term table of ``rows`` of (coeff, factors) pairs, each
    factor (key, order, exponent) keyed by the field it reads: the sorted
    (key, order) ``reads``, then the distinct ``powers`` other than 1.  The
    products are formed longest first, so those that reach level j are a
    prefix: ``first`` holds their first factors, ``levels`` per level j
    their factors j, ``coeffs`` their coefficients.
    ``adds`` is (row, product index or None for a constant, coeff) in each
    row's own term order."""

    def __init__(self, rows):
        self.rows = rows
        every = [(r, c, fs) for r, ts in enumerate(rows) for c, fs in ts]
        order = sorted((k for k, t in enumerate(every) if t[2]),
                       key=lambda k: -len(every[k][2]))
        formed = [every[k][2] for k in order]
        self.reads = sorted({x[:2] for fs in formed for x in fs})
        self.powers = sorted({x for fs in formed for x in fs if x[2] != 1.0})
        slot = {x: i for i, x in enumerate(self.reads + self.powers)}
        self.raise_from = [(slot[x[:2]], x[2]) for x in self.powers]
        index = [[slot[x[:2] if x[2] == 1.0 else x] for x in fs] for fs in formed]
        self.first = np.array([ix[0] for ix in index], dtype=int)
        self.levels = [np.array([ix[j] for ix in index if len(ix) > j])
                       for j in range(1, max(map(len, index), default=1))]
        self.coeffs = np.array([every[k][1] for k in order])
        self.adds = [(r, order.index(k) if fs else None, c) for k, (r, c, fs) in enumerate(every)]
        # (key, must stay positive) of undifferentiated reads under negative or fractional powers
        frac = {k for k, o, e in self.powers if not o and e != int(e)}
        self.guards = sorted({(k, k in frac) for k, o, e in self.powers
                              if not o and (e < 0 or k in frac)})

    def guard(self, grids, t=None, names=None):
        """Raise SingularityError unless each guarded ``grids[key]`` clears _FLOOR (in
        modulus for a negative power); ``names[key]`` is its (symbol, run words)."""
        for key, positive in self.guards:
            m = float(np.min(grids[key] if positive else np.abs(grids[key])))
            if not m > _FLOOR:  # NaN fails this test too
                sym, where = names[key] if names else (key, "")
                what, kind = ((f"field {sym!r}", "positivity") if positive
                              else (f"|{sym}|", "nonvanishing"))
                raise SingularityError(f"{what}{where} reached {m:.3e} <= {kind} floor "
                                       f"{_FLOOR:.1e}" + ("" if t is None else f" at t = {t:.6g}"))

    def products(self, vals):
        """Every product on ``vals`` (the grids in ``reads`` order), longest
        first, pointwise: nothing is truncated between the factors."""
        if self.powers:
            vals = np.concatenate((vals, np.stack([_raise(vals[i], e)
                                                   for i, e in self.raise_from])))
        acc = vals[self.first]
        for idx in self.levels:
            acc[:len(idx)] *= vals[idx]
        return acc

    def sums(self, vals, shape):
        """Each row's sum on grids of ``shape``, in term order."""
        prods = self.products(vals)
        out = np.zeros((len(self.rows),) + shape)
        for r, k, c in self.adds:
            out[r] += c if k is None else c * prods[k]
        return out


# ---------------------------------------------------------------------------
# the stepper

class _Stepper:
    """IF-RK4 for one or more systems: the spectra of each one's evolving
    fields, less the ``idle`` ghosts that stay zero, are the rows of one
    stacked array read by one term table; errors name rows by ``where``."""

    def __init__(self, systems, length, n, dt, where=None, zero=None):
        _require_power_of_two(n)
        self.length, self.n, self.dt = length, n, dt
        self.fields, self.names, self.spans, self.idle, by_row, lam = (), [], [], [], [], []
        for k, system in enumerate(systems):
            laws = {f: _compile_terms(system.rhs[f], system.odd_fields)
                    for f in system.evolving_fields()}
            # a ghost in zero[k] with a factor of itself in every term stays 0
            idle = {f for f in system.odd_fields if zero and f in zero[k]
                    and all(f in [s for s, _, _ in fs] for _, fs in laws[f])}
            fields = tuple(f for f in laws if f not in idle)
            row = {f: len(self.fields) + j for j, f in enumerate(fields)}
            for f in fields:
                # a constant-coefficient linear term in f itself, of any
                # order, goes to the integrating factor, the rest to the table
                lam.append(np.zeros(n // 2 + 1, dtype=complex))
                rest = []
                for c, fs in laws[f]:
                    if len(fs) == 1 and fs[0][::2] == (f, 1.0):  # c * f_(o x)
                        lam[-1] += c * _multiplier(n, length, fs[0][1])
                    elif idle.isdisjoint(s for s, _, _ in fs):  # else it reads a zero
                        rest.append((c, tuple((row[s], o, e) for s, o, e in fs)))
                by_row.append(tuple(rest))
            self.spans.append(slice(len(self.fields), len(self.fields) + len(fields)))
            self.idle.append(idle)
            self.fields += fields
            self.names += [(f, where[k] if where else "") for f in fields]
        self.terms = t = _Terms(by_row)
        self.cutoff = n // 3  # the 2/3 rule: the highest mode a stage keeps
        self.read_rows = np.array([r for r, _ in t.reads], dtype=int)
        self.read_mult = np.array([_multiplier(n, length, o)
                                   for _, o in t.reads]).reshape(-1, n // 2 + 1)
        self.scale = t.coeffs[:, None] * (np.arange(n // 2 + 1) <= self.cutoff)
        self.adds = [(r, k) for r, k, _ in t.adds if k is not None]
        self.consts = [(r, c * n) for r, k, c in t.adds if k is None]
        self.guard_reads = [(r, t.reads.index((r, 0))) for r, _ in t.guards]
        with np.errstate(over="ignore", invalid="ignore"):  # inf blows up at t = dt
            self.E, self.E2 = (np.exp(h * dt * np.array(lam)) for h in (1.0, 0.5))
            # the RK4 weights folded into the factors, once
            self.half_E2, self.dt_E2 = 0.5 * dt * self.E2, dt * self.E2
            self.sixth_E, self.third_E2 = dt / 6.0 * self.E, dt / 3.0 * self.E2

    def nonlinear_hat(self, hats, t):
        """The rfft of every row's terms at one RK stage, truncated once by
        the 2/3 rule: the products are formed pointwise on the guarded grids,
        and ``scale`` zeroes every mode above the cutoff of their one rfft
        as it applies the coefficients; constants add to mode 0."""
        grids = np.fft.irfft(hats[self.read_rows] * self.read_mult, self.n)
        self.terms.guard({r: grids[i] for r, i in self.guard_reads}, t, self.names)
        spec = np.fft.rfft(self.terms.products(grids)) * self.scale
        out = np.zeros((len(self.fields), self.n // 2 + 1), dtype=complex)
        for r, k in self.adds:
            out[r] += spec[k]
        for r, c in self.consts:
            out[r, 0] += c
        return out

    def advance(self, hats, t):
        """One integrating-factor RK4 step in spectral space.  Each stage guards its own
        grids at its own time; the caller catches other non-finite values, unwarned."""
        dt = self.dt
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            e2_hats, e_hats = self.E2 * hats, self.E * hats
            a = self.nonlinear_hat(hats, t)
            b = self.nonlinear_hat(e2_hats + self.half_E2 * a, t + 0.5 * dt)
            c = self.nonlinear_hat(e2_hats + 0.5 * dt * b, t + 0.5 * dt)
            d = self.nonlinear_hat(e_hats + self.dt_E2 * c, t + dt)
            return e_hats + self.sixth_E * a + self.third_E2 * (b + c) + dt / 6.0 * d

    def cfl_advisory(self, rows):
        """Warn for each row whose stiffest table term looks unstable on the
        initial field ``rows``: a term's stiff factor is its highest derivative
        of the row's own field, of order m >= 3, and its bound dt * |coeff *
        other factors| * kmax^m.  The warning points at evolve's caller."""
        kmax = 2.0 * np.pi / self.length * self.cutoff
        # (row, m, |coeff| and the factors other than the stiff one) per term
        stiff = [(r, m, (abs(c), tuple(x for x in fs if x[:2] != (r, m))))
                 for r, terms in enumerate(self.terms.rows) for c, fs in terms
                 for m in [max((o for s, o, _ in fs if s == r), default=0)] if m >= 3]
        table = _Terms([(t,) for *_, t in stiff])
        # |x^e| via |x|^e: fractional e on negative data would NaN
        grids = np.abs(_grids(table.reads, dict(enumerate(rows)), self.length))
        worst = {}
        for (r, m, _), amp in zip(stiff, table.sums(grids, (self.n,))):
            # a product overflows to inf where a float ** raises
            bound = self.dt * float(np.max(amp)) * math.prod([kmax] * m)
            worst[r] = max(worst.get(r, (0.0, m)), (bound, m))
        for r, (bound, m) in worst.items():
            if bound > _RK4_IMAG_LIMIT:
                frame, level = sys._getframe(1), 2  # the first frame outside this module
                while frame.f_globals is globals():
                    frame, level = frame.f_back, level + 1
                warnings.warn(
                    f"field {self.fields[r]!r}{self.names[r][1]}: variable-coefficient "
                    f"dispersion with dt*|a|*kmax^{m} ~ {bound:.3g} exceeds the "
                    "RK4 stability bound ~2.83; reduce dt or N", stacklevel=level)


def evolve(state, system, t_end, dt, record_every=1, diagnostics=()):
    """Integrate to t_end, recording every record_every-th step (plus the
    initial and final states) and evaluating the given conserved densities
    on each recorded snapshot; a density may be given by its catalog name."""
    return evolve_many([(state, system, t_end, record_every, diagnostics)], dt)[0]


def evolve_many(runs, dt):
    """:func:`evolve` of runs ``(state, system, t_end, record_every,
    diagnostics)`` that start at the same t on the same L and N, in lockstep
    on one stacked spectral state.  A run leaves the stack at its own last
    step, a step makes 8 FFT calls for all the runs still going, and each
    trajectory is bit for bit the run's own :func:`evolve`.
    A diagnostic named by a string is the run's ``system.density(name)``.
    Errors name the run by its index in ``runs`` when there are several."""
    where = [f" of run {i} ({run[1].name})" if len(runs) > 1 else "" for i, run in enumerate(runs)]
    runs = [(state, system, t_end, every, _diagnostics(system, diags, of))
            for (state, system, t_end, every, diags), of in zip(runs, where)]
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    grid = {(state.t, state.L, state.N) for state, *_ in runs}
    if len(grid) != 1:
        raise ValueError("evolve_many needs runs that start at the same t on the same L and N"
                         if runs else "evolve_many needs at least one run")
    [(t0, length, n)] = grid
    ends, names, evaluators = [], [], []
    for (state, system, t_end, every, diagnostics), of in zip(runs, where):
        missing = [f for f in system.even_fields + system.odd_fields
                   if system.rhs.get(f) is None]
        if missing:
            raise ValueError(f"system {system.name!r}{of} leaves {missing} without an "
                             "evolution law and cannot be integrated")
        missing = [f for f in system.evolving_fields() if f not in state.fields]
        if missing:
            raise ValueError(f"initial state{of} has no field {missing[0]!r}")
        if not math.isfinite(t_end):
            raise ValueError(f"t_end{of} must be finite, got {t_end!r}")
        if t_end <= t0:
            raise ValueError(f"t_end{of} must exceed the initial time")
        steps = (t_end - t0) / dt
        if not steps <= 2 ** 53:  # beyond it a float step count is not an exact integer
            raise ValueError(f"dt {dt!r} is too small: (t_end - t){of} / dt " + (
                "overflows" if math.isinf(steps) else f"= {steps:.3g} exceeds 2**53 steps"))
        ends.append(int(round(steps)))
        if ends[-1] < 1 or abs(ends[-1] * dt - (t_end - t0)) > 1e-9 * (t_end - t0):
            raise ValueError(f"t_end - t{of} must be an integer number of steps")
        if isinstance(every, bool) or not isinstance(every, (int, np.integer)) or every < 1:
            raise ValueError(f"record_every{of} must be an int >= 1, got {every!r}")
        bad = [f for f in sorted(state.fields) if not np.isfinite(state.fields[f]).all()]
        if bad:
            raise ValueError(f"initial field {bad[0]!r}{of} is not finite")
        names.append([d.name if hasattr(d, "name") else str(d) for d in diagnostics])
        twice = sorted({nm for nm in names[-1] if names[-1].count(nm) > 1})
        if twice:
            raise ValueError(f"diagnostic {twice[0]!r}{of} is given more than once")
        evaluators.append(evaluator(diagnostics))
        for nm, d, row in zip(names[-1], diagnostics, evaluators[-1].table.rows):
            unread = sorted(getattr(d, "density", d).symbols() - set(state.fields))
            if unread:
                raise ValueError(f"diagnostic {nm!r}{of} reads field {unread[0]!r}, "
                                 "which the state does not have")
            try:  # a diagnostic outside its powers' domain fails before step 1
                _Terms([row]).guard(state.fields)
            except SingularityError as e:
                raise SingularityError(f"diagnostic {nm!r}{of} at t = {t0:.6g}: {e}") from None
    zero = [{f for f in state.fields if not state.fields[f].any()} for state, *_ in runs]
    live, stepper = [*range(len(runs))], _Stepper([r[1] for r in runs], length, n, dt, where, zero)
    grids = [state.fields[f] for (state, *_), rows in zip(runs, stepper.spans)
             for f in stepper.fields[rows]]
    # the advisory raises |field| to negative powers, so the guards go first
    stepper.terms.guard(grids, t0, stepper.names)
    stepper.cfl_advisory(grids)

    states = [[state] for state, *_ in runs]
    values = [_quadrature(ev, [state], of) for (state, *_), ev, of in zip(runs, evaluators, where)]
    hats = np.fft.rfft(grids)
    for i in range(1, max(ends) + 1):
        hats = stepper.advance(hats, t0 + (i - 1) * dt)
        bad = ~np.isfinite(hats).all(axis=1)
        if bad.any():
            r = bad.argmax()
            raise BlowUpError(f"non-finite values in field {stepper.fields[r]!r}"
                              f"{stepper.names[r][1]}", t0 + i * dt)
        last = np.fft.irfft(hats, n) if i in ends and stepper.terms.guards else None
        if last is not None:  # no stage reads a run's last state: guard it, record from it
            stepper.terms.guard(last, t0 + i * dt, stepper.names)
        for k, rows, idle in zip(live, stepper.spans, stepper.idle):
            state, _, _, every, _ = runs[k]
            if i % every == 0 or i == ends[k]:
                grids = np.fft.irfft(hats[rows], n) if last is None else last[rows]
                fields = dict(zip(stepper.fields[rows], grids))
                fields.update((f, np.zeros(n)) for f in idle)
                fields = {**state.fields, **fields}
                states[k].append(dataclasses.replace(state, t=t0 + i * dt, fields=fields))
                for col, v in zip(values[k], _quadrature(evaluators[k], states[k][-1:], where[k])):
                    col += v  # each snapshot's diagnostics as it is recorded
        if i in ends and i < max(ends):  # the runs that end here leave the stack
            going = [j for j, k in enumerate(live) if ends[k] > i]
            hats = np.concatenate([hats[stepper.spans[j]] for j in going])
            live = [live[j] for j in going]
            stepper = _Stepper([runs[k][1] for k in live], length, n, dt,
                               [where[k] for k in live], [zero[k] for k in live])
    return [Trajectory(
        states=snaps,
        diagnostics=dict(zip(nms, vals)),
        meta={"system": system.name,
              "parameters": {k: str(v) for k, v in system.parameters.items()},
              "dt": dt, "record_every": every, "t_end": t_end},
    ) for (_, system, t_end, every, _), snaps, nms, vals in zip(runs, states, names, values)]


def _diagnostics(system, diags, of):
    """``diags`` with each name replaced by the system's density of that name."""
    if isinstance(diags, str):
        raise ValueError(f"diagnostics{of} is a sequence of names or densities, "
                         f"not the string {diags!r}")
    try:
        return [system.density(d) if isinstance(d, str) else d for d in diags]
    except KeyError as e:
        raise KeyError(f"diagnostics{of}: {e.args[0]}" if of else e.args[0]) from None


def _quadrature(values, states, of=""):
    """Mean * L of each row of an :func:`evaluator` on ``states``, one list per row, one
    snapshot's products held at a time; a SingularityError names the run ``of`` and t."""
    out = []
    for s in states:
        try:
            out.append(np.mean(values(s.fields, s.L), axis=-1) * s.L)
        except SingularityError as e:
            raise SingularityError(f"diagnostics{of} at t = {s.t:.6g}: {e}") from None
    return np.transpose(out).tolist()


def evaluator(polys):
    """Compile ``polys`` (polynomials or densities) once.  The callable it
    returns maps ``(fields, length)`` to the values of each on the grids
    ``fields`` (periodic samples on [0, length) along the last axis, all of
    one shape (..., N), keyed by symbol), one row each, pointwise and
    unfiltered; odd generators read their ghosts' coefficient arrays, and a
    base of a negative or fractional power at the floor raises SingularityError."""
    polys = [p.density if hasattr(p, "density") else p for p in polys]
    table = _Terms([_compile_terms(p, {base_symbol(s) for s in p.odd_syms}) for p in polys])

    def rows(fields, length):
        shapes = {s: np.shape(f) for s, f in sorted(fields.items())}
        if len(set(shapes.values())) > 1:
            raise ValueError("fields of unequal shape: " + ", ".join(
                f"{s!r} {shape}" for s, shape in shapes.items()))
        vals = _grids(table.reads, fields, length)
        table.guard(fields)
        return table.sums(vals, next(iter(shapes.values())))
    rows.table = table
    return rows


def evaluate_functional(density, state):
    """Trapezoid quadrature (exact mean * L) of a density; raises as :func:`evaluator` does."""
    return float(np.mean(evaluator([density])(state.fields, state.L), axis=-1)[0] * state.L)


def soliton_initial(k, x0, system, length=40.0, n=512, ghost="gradient"):
    """Localized initial data for the kdv/mkdv families; ``system`` is the
    catalog name "kdv" or "mkdv".

    kdv: u = 4 k^2 sech^2(k (x - x0)), the traveling wave of
    u_t = 3 u u_x + u_xxx with speed -4k^2 (substituting A sech^2(kappa z),
    z = x - ct fixes A = 4 kappa^2, c = -4 kappa^2).

    mkdv: R = k sech(k (x - x0)) is *initial data only*: for
    R_t = R_xxx - 6 R^2 R_x the same ansatz forces A^2 = -k^2, so no real
    sech traveling wave exists for this sign of the cubic term.

    The soliton sits on the periodic domain: x - x0 is taken to its minimal
    image in [-L/2, L/2], so x0 and x0 + L give the same data and a soliton
    near an end is not cut.  Where cosh overflows, far in a tail, the
    profile is 0 without a warning.

    ghost: as for :func:`initial_state`.
    """
    if system not in ("kdv", "mkdv"):
        raise ValueError(f"soliton data is defined for kdv/mkdv, not {system!r}")
    sym, amplitude, power = ("u", 4.0 * k * k, 2) if system == "kdv" else ("R", k, 1)
    if not np.isfinite(amplitude):
        raise ValueError(f"soliton amplitude {amplitude!r} at k = {k!r} is not finite")
    d = _grid_points(length, n) - x0
    z = d - length * np.round(d / length)
    with np.errstate(over="ignore"):
        profile = amplitude / np.cosh(k * z) ** power
    return initial_state(sym, profile, length, ghost)


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
