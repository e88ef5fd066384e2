"""Seeded workload inputs.

The program only ever sees what these functions return: command-line
arguments for ``simulate`` and polynomial text for ``algebra``.  The same
seed gives byte-identical inputs (``random.Random`` is specified to repeat
across platforms).
"""

from __future__ import annotations

import itertools
import random

SIMULATE_OUT = ".bench_tmp/simulate"
SIMULATE_T_END = "1"
DIAGNOSTICS = ("H0", "H1", "Ht0", "Ht1", "H1g", "H3", "H5")
EVEN_DIAGNOSTICS = ("H0", "H1")

# Rational phase: every monomial in u, u_x, u_xx, u_xxx of each scaling
# weight (u counts 2, each x-derivative 1 more), alone and times c_x.  The
# monomials are fixed and only the coefficients are seeded, so every seed
# asks for the same amount of work.
JETS = ("u", "u_x", "u_xx", "u_xxx")
WEIGHTS = (6, 7, 8, 9, 10)
COPIES = 5


def simulate_args(seed):
    """Soliton parameters and the argv for ``brstkdv simulate``.

    k in [0.7, 0.9] keeps the periodic images of the soliton below 1e-11 on
    the default L = 40; x0 stays within 1 of L/2.  Grid, step and record
    stride are left at the command's defaults.
    """
    rng = random.Random(seed)
    k = f"{0.7 + 0.2 * rng.random():.6f}"
    x0 = f"{20.0 + rng.uniform(-1.0, 1.0):.6f}"
    argv = ["simulate", "--system", "kdv", "--soliton", f"k={k},x0={x0}",
            "--t-end", SIMULATE_T_END, "--diag", ",".join(DIAGNOSTICS),
            "--out", SIMULATE_OUT, "--seed", str(seed)]
    return float(k), float(x0), argv


def _monomials(weight):
    for exps in itertools.product(range(6), repeat=len(JETS)):
        if sum(e * (2 + order) for order, e in enumerate(exps)) == weight:
            yield exps


def rational_texts(seed):
    """Polynomials with random nonzero rational coefficients, as parser text."""
    rng = random.Random(seed)
    texts = []
    for _ in range(COPIES):
        for weight in WEIGHTS:
            for ghost in (False, True):
                terms = []
                for exps in _monomials(weight):
                    factors = [j if e == 1 else f"{j}^{e}"
                               for j, e in zip(JETS, exps) if e]
                    if ghost:
                        factors.append("c_x")
                    coeff = f"{rng.randint(1, 9)}/{rng.randint(1, 9)}"
                    terms.append(f"{rng.choice('+-')} {coeff}*" + "*".join(factors))
                texts.append(("odd: c; " if ghost else "") + " ".join(terms))
    return texts

