"""Command-line interface: catalog listing, simulation with CSV/JSON
export, verification checks, substitution maps, and variational gradients.

Config precedence: command-line flags override key=value pairs from
--config, which override built-in defaults; the effective configuration is
echoed into the run manifest so outputs are reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .graded import euler_operator, to_string
from .grammar import is_name, parse
from .reductions import (
    FAMILY_PARAMETERS,
    SYSTEM_NAMES,
    build_system,
    catalog_manifest,
    ckdv_to_mkdv,
    miura_map,
)
from .solver import (
    SingularityError,
    SolverError,
    _grid_points,
    _require_length,
    _require_power_of_two,
    evaluator,
    evolve,
    initial_state,
    soliton_initial,
)
from .verify import CHECKS, run_all


def _load_config(path):
    cfg = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected key=value")
            key, val = (p.strip() for p in line.split("=", 1))
            if key in cfg:
                raise ValueError(f"{path}:{ln}: key {key!r} is given more than once")
            cfg[key] = val
    return cfg


def _effective(args, defaults):
    """flags > config file > defaults, with the winning values returned.  The
    keys are the command's flags as spelled on the command line (t-end)."""
    keys = [dest.replace("_", "-") for dest in vars(args) if dest not in ("command", "config")]
    cfg = _load_config(args.config) if args.config else {}
    unknown = sorted(set(cfg) - set(keys))
    if unknown:
        raise ValueError(f"{args.config}: unknown key {unknown[0]!r}; keys: {', '.join(keys)}")
    out = {}
    for key in keys:
        flag = getattr(args, key.replace("-", "_"), None)
        if flag is not None:
            out[key] = flag
        elif key in cfg:
            out[key] = cfg[key]
        elif key in defaults:
            out[key] = defaults[key]
    return out


def _family_params(eff):
    return {k: str(eff[k]) for k in FAMILY_PARAMETERS if k in eff and eff[k] is not None}


def _number(eff, key, kind=float):
    """``eff[key]`` as an int or a float; a value that is neither names its option."""
    try:
        return kind(eff[key])
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"--{key} must be {what}, got {eff[key]!r}") from None


def _grid(eff):
    length = _number(eff, "L")
    _require_length(length)
    n = _number(eff, "n", int)
    _require_power_of_two(n)
    return length, n, _grid_points(length, n)


def _eval_expression(text, x, length):
    """Evaluate a grammar expression on the grid.  Besides numbers, the
    bound names are x (coordinate), cx = cos(2 pi x / L), and
    sx = sin(2 pi x / L); derivative suffixes are not allowed here."""
    poly = parse(text)
    if any(odd for _, _, odd in poly.terms()):
        raise ValueError("initial-data expressions must be even")
    for sym in sorted(poly.symbols()):
        if poly.max_order(sym) > 0:
            raise ValueError(
                f"derivative generator {sym!r} is not allowed in initial data")
        if sym not in ("x", "cx", "sx"):
            raise ValueError(
                f"unknown name {sym!r} in initial data; bound names: x, cx, sx")
    with np.errstate(all="ignore"):
        z = 2 * np.pi * x / length
        try:
            values = evaluator([poly])({"x": x, "cx": np.cos(z), "sx": np.sin(z)}, length)[0]
        except SingularityError as exc:
            raise ValueError(f"initial data {text!r} leaves the domain of its "
                             f"powers: {exc}") from None
    if not np.all(np.isfinite(values)):
        raise ValueError(f"initial data {text!r} is not finite on the grid")
    return values


def _parse_soliton(spec):
    vals = {"k": None, "x0": None}
    for piece in filter(str.strip, spec.split(",")):
        key, eq, v = (p.strip() for p in piece.partition("="))
        if not eq:
            raise ValueError("soliton spec is k=<value>[,x0=<value>]")
        if key not in vals:
            raise ValueError(f"unknown soliton key {key!r}")
        if vals[key] is not None:
            raise ValueError(f"soliton key {key!r} is given more than once")
        try:
            vals[key] = float(v)
        except ValueError:
            vals[key] = float("nan")
        if not np.isfinite(vals[key]):
            raise ValueError(f"--soliton {key} must be a finite number, got {v!r}")
    if vals["k"] is None:
        raise ValueError("soliton spec must set k")
    return vals["k"], vals["x0"]


def _cmd_list_systems(args):
    sys.stdout.write(catalog_manifest())
    return 0


def _cmd_simulate(args):
    defaults = {"L": "40", "n": "512", "dt": "1e-3", "t-end": "1",
                "record-every": "10", "ghost-initial": "gradient",
                "out": ".", "seed": "0"}
    eff = _effective(args, defaults)
    if "system" not in eff:
        raise ValueError("--system is required")
    system = build_system(eff["system"], **_family_params(eff))
    length, n, x = _grid(eff)
    dt, t_end = _number(eff, "dt"), _number(eff, "t-end")

    ghost = eff["ghost-initial"]
    if ghost not in ("gradient", "none"):
        ghost = _eval_expression(ghost, x, length)
    if eff.get("soliton"):
        k, x0 = _parse_soliton(eff["soliton"])
        state = soliton_initial(k, length / 2 if x0 is None else x0,
                                system.name, length, n, ghost=ghost)
    elif eff.get("initial"):
        state = initial_state(system.even_fields[0],
                              _eval_expression(eff["initial"], x, length), length, ghost)
    else:
        raise ValueError("provide --soliton or --initial")

    diagnostics = [nm.strip() for nm in str(eff["diag"]).split(",")] if eff.get("diag") else []
    traj = evolve(state, system, t_end, dt,
                  record_every=_number(eff, "record-every", int),
                  diagnostics=diagnostics)
    outdir = eff["out"]
    os.makedirs(outdir, exist_ok=True)
    traj.export_csv(os.path.join(outdir, "trajectory.csv"))
    traj.export_manifest(os.path.join(outdir, "manifest.json"),
                         config={k: str(v) for k, v in sorted(eff.items())})
    print(f"wrote {outdir}/trajectory.csv and {outdir}/manifest.json "
          f"({len(traj.states)} snapshots)")
    return 0


def _cmd_verify(args):
    if args.check == "all":
        reports = run_all()
    elif args.check in CHECKS:
        reports = [CHECKS[args.check]()]
    else:
        raise ValueError(f"unknown check {args.check!r}; available: "
                         f"{', '.join(list(CHECKS) + ['all'])}")
    doc = [r.to_dict() for r in reports]
    text = json.dumps(doc if len(doc) > 1 else doc[0], sort_keys=True, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0 if all(r.status == "pass" for r in reports) else 1


def _cmd_miura(args):
    eff = _effective(args, {"direction": "mkdv-to-kdv", "L": "40", "n": "512"})
    if not eff.get("initial"):
        raise ValueError("--initial expression is required")
    length, n, x = _grid(eff)
    f = _eval_expression(eff["initial"], x, length)
    if eff["direction"] == "mkdv-to-kdv":
        g = miura_map(f, length)
        src, dst = "R", "u"
    elif eff["direction"] == "ckdv-to-mkdv":
        g = ckdv_to_mkdv(f, length)
        src, dst = "w", "v"
    else:
        raise ValueError(f"unknown direction {eff['direction']!r}")
    lines = [f"x,{src},{dst}"]
    lines += [f"{repr(float(x[i]))},{repr(float(f[i]))},{repr(float(g[i]))}"
              for i in range(n)]
    text = "\n".join(lines) + "\n"
    if eff.get("out"):
        with open(eff["out"], "w") as fh:
            fh.write(text)
        print(f"wrote {eff['out']}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_conserved(args):
    eff = _effective(args, {})
    if "system" not in eff:
        raise ValueError("--system is required")
    system = build_system(eff["system"], **_family_params(eff))
    if not system.densities:
        print(f"(no catalogued densities for {system.name})")
        return 0
    for nm in sorted(system.densities):
        d = system.densities[nm]
        print(f"{nm:6s} [{d.kind}] {to_string(d.density)}")
    return 0


def _cmd_euler(args):
    odd = tuple(s.strip() for s in (args.odd or "").split(",") if s.strip())
    for flag, name in [("--field", args.field)] + [("--odd", nm) for nm in odd]:
        if not is_name(name):
            raise ValueError(f"{flag} {name!r} is not a name the grammar reads")
    density = parse(args.density, odd=odd)
    print(to_string(euler_operator(density, args.field)))
    return 0


def _build_parser():
    p = argparse.ArgumentParser(
        prog="brstkdv",
        description="Graded-symmetric integrable hierarchies: catalog, "
                    "simulation, verification, and variational tools.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list-systems", help="print the system catalog manifest")

    sim = sub.add_parser("simulate", help="integrate a catalog system and export CSV/JSON")
    sim.add_argument("--system", choices=SYSTEM_NAMES)
    for key in FAMILY_PARAMETERS:
        sim.add_argument(f"--{key}", help=f"family parameter {key} (exact rational)")
    sim.add_argument("--L", help="domain length (default 40)")
    sim.add_argument("--n", help="grid size, power of two (default 512)")
    sim.add_argument("--dt", help="time step (default 1e-3)")
    sim.add_argument("--t-end", help="final time (default 1)")
    sim.add_argument("--record-every", help="snapshot stride in steps (default 10)")
    sim.add_argument("--soliton", metavar="k=K[,x0=X]",
                     help="localized initial data (kdv/mkdv)")
    sim.add_argument("--initial", metavar="EXPR",
                     help="even-field initial data; names x, cx, sx are bound")
    sim.add_argument("--ghost-initial", metavar="EXPR|gradient|none")
    sim.add_argument("--diag", metavar="NAMES", help="comma-separated density names")
    sim.add_argument("--out", help="output directory (default .)")
    sim.add_argument("--config", help="key=value config file")
    sim.add_argument("--seed", help="echoed into the manifest")

    ver = sub.add_parser("verify", help="run a named check or all of them")
    ver.add_argument("check", help="check name or 'all'")
    ver.add_argument("--out", help="also write the JSON report here")

    miu = sub.add_parser("miura", help="apply a substitution map to grid data")
    miu.add_argument("--direction", choices=["mkdv-to-kdv", "ckdv-to-mkdv"])
    miu.add_argument("--initial", metavar="EXPR")
    miu.add_argument("--L")
    miu.add_argument("--n")
    miu.add_argument("--out")
    miu.add_argument("--config", help="key=value config file")

    con = sub.add_parser("conserved", help="list a system's catalogued densities")
    con.add_argument("--system", choices=SYSTEM_NAMES)
    for key in FAMILY_PARAMETERS:
        con.add_argument(f"--{key}")
    con.add_argument("--config", help="key=value config file")

    eul = sub.add_parser("euler", help="variational gradient of a density")
    eul.add_argument("--density", required=True, metavar="EXPR")
    eul.add_argument("--field", required=True)
    eul.add_argument("--odd", help="comma-separated odd symbols")
    return p


_COMMANDS = {
    "list-systems": _cmd_list_systems,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "miura": _cmd_miura,
    "conserved": _cmd_conserved,
    "euler": _cmd_euler,
}


def run(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits itself on --help/usage errors
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError, OSError) as exc:  # OSError names its path
        # str() of a KeyError is its message's repr, in quotes
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"{args.command}: {msg}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
