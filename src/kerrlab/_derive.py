"""Symbolic derivation of the Kerr closed forms and the emitter of `_closed_forms.py`.

Development only: this module needs sympy, which kerrlab does not need at
run time.  `_exprs` derives every closed form symbolically, with its own
arguments; `emit` compiles each one the way `sp.lambdify(args, entries,
modules="numpy", cse=True)` does over its entries that are not identically
zero and writes the kernel sources, with the entries' flat positions, shape
and dtype, as the module `_closed_forms.py`.

    python -m kerrlab._derive           # rewrite _closed_forms.py
    python -m kerrlab._derive --check   # exit 1 if it is stale
"""

from __future__ import annotations

import argparse
import inspect
import sys
from functools import lru_cache
from pathlib import Path

import mpmath
import numpy as np
import sympy as sp

TARGET = Path(__file__).with_name("_closed_forms.py")


@lru_cache(maxsize=1)
def _exprs():
    """Symbolic closed forms: {name: (argument symbols, sympy expression)}.

    Tensor forms are sympy matrices or nested lists indexed like the
    numeric arrays; scalar forms are plain expressions.  Every form is of
    (m, a, r, th) but `accel`, the geodesic acceleration
    a^c = -Gamma^c_ab u^a u^b, which is also of (u0, u1, u2, u3).
    """
    m, a, r, th = sp.symbols("m a r th", real=True)
    u = sp.symbols("u0:4", real=True)
    sin, cos = sp.sin(th), sp.cos(th)
    Sigma = r**2 + a**2 * cos**2
    Delta = r**2 - 2 * m * r + a**2
    Pi = (r**2 + a**2) ** 2 - Delta * a**2 * sin**2

    g = sp.zeros(4, 4)
    g[0, 0] = -1 + 2 * m * r / Sigma
    g[0, 3] = g[3, 0] = -2 * m * r * a * sin**2 / Sigma
    g[1, 1] = Sigma / Delta
    g[2, 2] = Sigma
    g[3, 3] = Pi * sin**2 / Sigma

    ginv = sp.zeros(4, 4)
    ginv[0, 0] = -Pi / (Sigma * Delta)
    ginv[0, 3] = ginv[3, 0] = -2 * m * r * a / (Sigma * Delta)
    ginv[1, 1] = Delta / Sigma
    ginv[2, 2] = 1 / Sigma
    ginv[3, 3] = (Delta - a**2 * sin**2) / (Sigma * Delta * sin**2)

    sqrtg = Sigma * sin

    coords = [None, r, th, None]  # stationary and axisymmetric

    def d(expr, c):
        if coords[c] is None:
            return sp.Integer(0)
        return sp.diff(expr, coords[c])

    dg = [[[d(g[i, j], c) for j in range(4)] for i in range(4)] for c in range(4)]
    gamma = [[[sum(ginv[c, dd] * (dg[aa][dd][bb] + dg[bb][dd][aa] - dg[dd][aa][bb]) for dd in range(4)) / 2
               for bb in range(4)] for aa in range(4)] for c in range(4)]

    # Killing-Yano 2-form:
    #   Y = a cos(th) dr ^ (dt - a sin^2 dphi) + r sin(th) dth ^ ((r^2+a^2) dphi - a dt)
    Y = sp.zeros(4, 4)
    Y[1, 0] = a * cos
    Y[1, 3] = -(a**2) * cos * sin**2
    Y[2, 3] = r * (r**2 + a**2) * sin
    Y[2, 0] = -a * r * sin
    Y[0, 1] = -Y[1, 0]
    Y[3, 1] = -Y[1, 3]
    Y[3, 2] = -Y[2, 3]
    Y[0, 2] = -Y[2, 0]

    K = Y * ginv * Y  # K_ab = Y_ac g^{cd} Y_db

    dY = [[[d(Y[i, j], c) for j in range(4)] for i in range(4)] for c in range(4)]
    dK = [[[d(K[i, j], c) for j in range(4)] for i in range(4)] for c in range(4)]

    # Hodge dual of Y with eps_{trthph} = +sqrtg: (*Y)_ij = eps_ijcd Y^cd / 2
    Y_up = [[sum(ginv[c, p] * ginv[dd, q] * Y[p, q] for p in range(4) for q in range(4)) for dd in range(4)]
            for c in range(4)]
    starY = sp.Matrix(4, 4, lambda i, j: sum(sp.LeviCivita(i, j, c, dd) * sqrtg * Y_up[c][dd] / 2
                                             for c in range(4) for dd in range(4)))

    def mixed(M):
        # M_a{}^b = M_ac g^{cb}
        return M * ginv

    def div_mixed(Mx):
        # nabla_b M_a{}^b for a (down, up) tensor
        out = []
        for aa in range(4):
            s = sp.Integer(0)
            for bb in range(4):
                s += d(Mx[aa, bb], bb)
                for c in range(4):
                    s += gamma[bb][bb][c] * Mx[aa, c]
                    s -= gamma[c][bb][aa] * Mx[c, bb]
            out.append(s)
        return out

    divY = div_mixed(mixed(Y))
    divStarY = div_mixed(mixed(starY))
    xi = [sp.Rational(1, 3) * sp.I * divY[aa] - sp.Rational(1, 3) * divStarY[aa] for aa in range(4)]

    # Kinnersley principal tetrad (contravariant components)
    sqrt2 = sp.sqrt(2)
    l_up = [(r**2 + a**2) / Delta, sp.Integer(1), sp.Integer(0), a / Delta]
    n_up = [(r**2 + a**2) / (2 * Sigma), -Delta / (2 * Sigma), sp.Integer(0), a / (2 * Sigma)]
    mden = sqrt2 * (r + sp.I * a * cos)
    m_up = [sp.I * a * sin / mden, sp.Integer(0), 1 / mden, sp.I / (sin * mden)]

    # Coulomb test potential and field strength, unit charge:
    #   A = -(r/Sigma) (dt - a sin^2 dphi)
    A = [-(r / Sigma), sp.Integer(0), sp.Integer(0), r * a * sin**2 / Sigma]
    F = sp.Matrix(4, 4, lambda i, j: d(A[j], i) - d(A[i], j))

    # Uniform-magnetic-field test solution (unit field strength): for any
    # Killing vector of a vacuum spacetime, d(xi-flat) solves Maxwell; the
    # aligned-at-infinity combination uses (d/dphi)-flat + 2a (d/dt)-flat.
    A_unif = [(g[0, 3] + 2 * a * g[0, 0]) / 2, sp.Integer(0), sp.Integer(0), (g[3, 3] + 2 * a * g[0, 3]) / 2]
    F_unif = sp.Matrix(4, 4, lambda i, j: d(A_unif[j], i) - d(A_unif[i], j))

    # ten products, as Gamma^c_ab = Gamma^c_ba
    accel = [-sum((2 - (i == j)) * gamma[c][i][j] * u[i] * u[j] for i in range(4) for j in range(i, 4))
             for c in range(4)]
    exprs = {
        "g": g,
        "ginv": ginv,
        "sqrtg": sqrtg,
        "gamma": gamma,
        "Y": Y,
        "dY": dY,
        "K": K,
        "dK": dK,
        "xi": xi,
        "l": l_up,
        "n": n_up,
        "m_vec": m_up,
        "F_coulomb": F,
        "F_uniform": F_unif,
    }
    forms = {name: ((m, a, r, th), expr) for name, expr in exprs.items()}
    forms["accel"] = ((m, a, r, th) + u, accel)
    return forms


PREAMBLE = '''"""Kerr closed forms in Boyer-Lindquist coordinates: one kernel per form.

Generated by `python -m kerrlab._derive` from the symbolic forms in
`kerrlab._derive`; do not edit.  Each kernel of (m, a, r, th), and `accel`
of (m, a, r, th, u0, u1, u2, u3), returns the entries of its form that are
not identically zero, in flat order, with common subexpressions eliminated.
`kerr._forms` scatters them into arrays, except accel's, which are all four.
"""

from numpy import {names}

# name -> (kernel, shape, non-zero flat indices, dtype)
FORMS = {{}}
'''


# exterior points (m, a, r, th, u0, u1, u2, u3) at which an entry is evaluated to 40 digits
PROBES = (("1", "0.5", "3.5", "0.7", "1.3", "-0.2", "0.05", "0.11"),
          ("1.5", "-0.9", "2.5", "1.9", "2.1", "0.4", "-0.03", "-0.07"),
          ("0.3", "0.2", "3.7", "1.2", "1.1", "0.1", "0.2", "0.3"))


def _nonzero(args, flat):
    """Flat indices of the entries that are not identically zero.  An entry
    that vanishes at every probe is simplified, and dropped if that gives 0:
    in floating point it would compute rounding noise."""
    f = sp.lambdify(args, list(flat), modules="mpmath", cse=True)
    with mpmath.workdps(40):
        values = [f(*map(mpmath.mpf, probe[:len(args)])) for probe in PROBES]
    return [i for i, e in enumerate(flat)
            if e != 0 and (any(abs(v[i]) > 1e-30 for v in values) or sp.simplify(e) != 0)]


def _kernel(name, args, expr):
    """(source, numpy names used, shape, non-zero flat indices, dtype) of the
    named kernel: its dtype is complex where an emitted entry holds i, else float."""
    entries = np.array(expr.tolist() if isinstance(expr, sp.MatrixBase) else expr, dtype=object)
    flat = entries.ravel()
    idx = _nonzero(args, flat)
    kernel = sp.lambdify(args, list(flat[idx]), modules="numpy", cse=True)
    names = set(kernel.__code__.co_names)
    for n in names:  # the emitted module binds these names from numpy, as lambdify did
        if n not in vars(np) or kernel.__globals__.get(n) is not vars(np)[n]:
            raise RuntimeError(f"{name}: {n} is not a numpy function")
    source = inspect.getsource(kernel).strip()
    head = f"def {kernel.__name__}("
    if not source.startswith(head) or name in names:
        raise RuntimeError(f"{name}: cannot rename the kernel {source[:40]!r}")
    dtype = "complex" if any(e.has(sp.I) for e in flat[idx]) else "float"
    return f"def {name}(" + source[len(head):], names, entries.shape, tuple(idx), dtype


@lru_cache(maxsize=1)
def emit() -> str:
    """The source of `_closed_forms.py`, derived once per process."""
    blocks, numpy_names = [], set()
    for name, (args, expr) in _exprs().items():
        source, names, shape, idx, dtype = _kernel(name, args, expr)
        numpy_names |= names
        blocks.append(f"{source}\n\n\nFORMS[{name!r}] = ({name}, {shape}, {idx}, {dtype})\n")
    return "\n\n".join([PREAMBLE.format(names=", ".join(sorted(numpy_names)))] + blocks)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m kerrlab._derive",
                                     description="Regenerate the compiled Kerr closed forms.")
    parser.add_argument("--check", action="store_true",
                        help=f"write nothing; exit 1 if {TARGET.name} differs from a fresh derivation")
    ns = parser.parse_args(argv)
    source = emit()
    if ns.check:
        if not TARGET.exists() or TARGET.read_text() != source:
            print(f"{TARGET} is stale: run python -m kerrlab._derive", file=sys.stderr)
            return 1
        return 0
    TARGET.write_text(source)
    return 0


if __name__ == "__main__":
    sys.exit(main())
