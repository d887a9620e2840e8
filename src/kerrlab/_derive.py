"""Symbolic derivation of the Kerr closed forms and the emitter of `_closed_forms.py`.

Development only: this module needs sympy, which kerrlab does not need at
run time.  `_exprs` derives every closed form symbolically, with its own
arguments; `emit` compiles each one the way `sp.lambdify(args, entries,
modules="numpy", cse=True)` does over its entries that are not identically
zero and writes the kernel sources, with the entries' flat positions, shape
and dtype, as the module `_closed_forms.py`.

    python -m kerrlab._derive           # rewrite _closed_forms.py
    python -m kerrlab._derive --check   # exit 1 if it is stale or an identity fails
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
from sympy.printing.numpy import NumPyPrinter

TARGET = Path(__file__).with_name("_closed_forms.py")


@lru_cache(maxsize=1)
def _exprs():
    """Symbolic closed forms: {name: (argument symbols, sympy expression)}.

    Tensor forms are sympy matrices or nested lists indexed like the
    numeric arrays; scalar forms are plain expressions.  Every form is of
    (m, a, r, th) but the two of the geodesics, `flow` and `integrals`, which
    are also of the momenta (pv, pr, pth, ppsi) of the ingoing chart.
    """
    m, a, r, th = sp.symbols("m a r th", real=True)
    p = sp.symbols("pv pr pth ppsi", real=True)
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

    # The ingoing Kerr chart (v, r, th, psi), dv = dt + (r^2 + a^2)/Delta dr and
    # dpsi = dphi + a/Delta dr (Kerr 1963; Teukolsky 2015): its inverse metric
    # g' is M / Sigma, which has no Delta in a denominator (`identities` checks
    # it against J ginv J^T), and H = g'^{ab} p_a p_b / 2 the geodesics'
    # super-Hamiltonian (MTW 33.5), written over one Sigma.
    M = sp.Matrix([[a**2 * sin**2, r**2 + a**2, 0, a], [r**2 + a**2, Delta, 0, a],
                   [0, 0, 1, 0], [a, a, 0, 1 / sin**2]])
    H = sum(M[i, j] * p[i] * p[j] for i in range(4) for j in range(4)) / (2 * Sigma)
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
    forms.update((name, ((m, a, r, th) + p, expr))
                 for name, expr in _hamiltonian_forms((m, a, r, th) + p, H, l_up).items())
    return forms


def _hamiltonian_forms(args, H, l):
    """The geodesics' two forms of H(m, a, r, th, pv, pr, pth, ppsi), the
    super-Hamiltonian of the ingoing chart, derived from H as one expression.
    flow is Hamilton's equations with the position in Boyer-Lindquist t and
    phi: [u^t, u^r, u^th, u^phi, -dH/dr, -dH/dth], where u^r = dH/dpr,
    u^th = dH/dpth, u^t = dH/dpv - (r^2 + a^2)/Delta dH/dpr (t = v - r*) and
    u^phi = dH/dppsi - a/Delta dH/dpr, with l = ((r^2 + a^2)/Delta, 1, 0,
    a/Delta), the chart map's r column; dpv/dtau = dppsi/dtau = 0, as v and
    psi are cyclic.  integrals is [k, 2H]: Carter's constant in its theta
    form, in the repo's sign (k = K_ab u^a u^b; Carter 1968), and the norm,
    neither with Delta in a denominator."""
    m, a, r, th, pv, pr, pth, ppsi = args
    dv, dr, dth, dpsi = (sp.diff(H, x) for x in (pv, pr, pth, ppsi))
    flow = [dv - l[0] * dr, dr, dth, dpsi - l[3] * dr, -sp.diff(H, r), -sp.diff(H, th)]
    sin, cos = sp.sin(th), sp.cos(th)
    k = -(pth**2 + (a * pv * sin + ppsi / sin) ** 2 - a**2 * cos**2 * 2 * H)
    return {"flow": flow, "integrals": [k, 2 * H]}


PREAMBLE = '''"""Kerr closed forms in Boyer-Lindquist coordinates: one kernel per form.

Generated by `python -m kerrlab._derive` from the symbolic forms in
`kerrlab._derive`; do not edit.  Each kernel of (m, a, r, th), and `flow`
and `integrals` of (m, a, r, th, pv, pr, pth, ppsi), returns the entries of
its form that are not identically zero, in flat order, with common
subexpressions eliminated.  `kerr._forms` scatters them into arrays, except
flow's and integrals', which are lists.
"""

from numpy import {names}

# name -> (kernel, shape, non-zero flat indices, dtype)
FORMS = {{}}
'''


# exterior points (m, a, r, th, pv, pr, pth, ppsi) at which an entry is evaluated to 40 digits
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


class _ProductPowers(NumPyPrinter):
    """lambdify's numpy printer, but x**n for a symbol x (after common
    subexpressions are eliminated, most bases are) and an integer
    0 < |n| <= 8 is written as a product or its reciprocal: numpy takes x**2
    on arrays as x*x and Python floats take pow(), which may round apart, and
    a product is faster."""

    def _print_Pow(self, expr, rational=False):
        base, n = expr.args
        if not (base.is_Symbol and n.is_Integer and 0 < abs(n) <= 8):
            return super()._print_Pow(expr, rational=rational)
        product = "*".join([self._print(base)] * abs(int(n)))
        return f"({product})" if n > 0 else f"(1/{product})" if abs(n) == 1 else f"(1/({product}))"


# The geodesics' kernels, which run on Python floats at one state and on
# arrays of samples: with integer powers as products both round alike.
PRODUCT_POWERS = ("flow", "integrals")


def _kernel(name, args, expr):
    """(source, numpy names used, shape, non-zero flat indices, dtype) of the
    named kernel: its dtype is complex where an emitted entry holds i, else float."""
    entries = np.array(expr.tolist() if isinstance(expr, sp.MatrixBase) else expr, dtype=object)
    flat = entries.ravel()
    idx = _nonzero(args, flat)
    printer = (_ProductPowers({"fully_qualified_modules": False, "inline": True, "allow_unknown_functions": True})
               if name in PRODUCT_POWERS else None)  # None: lambdify's own, with these settings
    kernel = sp.lambdify(args, list(flat[idx]), modules="numpy", cse=True, printer=printer)
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


@lru_cache(maxsize=1)
def identities():
    """{name: (argument symbols, entries of `_exprs` that vanish for every (m, a))},
    once per process: xi, g^{ab} xi_b - delta^a_t; Killing-Yano, nabla_(a Y_b)c
    (Penrose 1973, Floyd 1973); conformal Killing-Yano, the same less its
    trace terms; Killing tensor, nabla_(a K_bc); Maxwell F_*,
    d_a(sqrtg F^{ab}) / sqrtg (Wald 1974); ingoing chart and Carter k, half the
    momentum Hessians of the norm 2H and of k less J ginv J^T and J ginv K ginv
    J^T, with J = d(v, r, th, psi)/d(t, r, th, phi)."""
    args, forms = _exprs()["g"][0], {name: expr for name, (_args, expr) in _exprs().items()}
    g, ginv, gamma, Y, dY, K, dK, sqrtg = (forms[name] for name in
                                          ("g", "ginv", "gamma", "Y", "dY", "K", "dK", "sqrtg"))
    nabla = lambda T, dT, c, i, j: dT[c][i][j] - sum(gamma[d][c][i] * T[d, j] + gamma[d][c][j] * T[i, d]
                                                     for d in range(4))  # nabla_c T_ij
    nabla_Y = lambda c, i, j: nabla(Y, dY, c, i, j)
    killing_yano = {(i, j, k): nabla_Y(i, j, k) + nabla_Y(j, i, k)
                    for i in range(4) for j in range(i, 4) for k in range(4)}
    div = [sum(nabla_Y(d, i, c) * ginv[c, d] for c in range(4) for d in range(4)) for i in range(4)]
    table = {"xi": [sum(ginv[i, b] * forms["xi"][b] for b in range(4)) - int(i == 0) for i in range(4)],
             "Killing-Yano": list(killing_yano.values()),
             # 2 nabla_(a Y_b)c = -2/3 g_ab div_c + (g_ac div_b + g_bc div_a)/3, div_a = nabla_d Y_a^d
             "conformal Killing-Yano": [e + sp.Rational(2, 3) * g[i, j] * div[k]
                                        - (g[i, k] * div[j] + g[j, k] * div[i]) / 3
                                        for (i, j, k), e in killing_yano.items()],
             "Killing tensor": [nabla(K, dK, i, j, k) + nabla(K, dK, j, k, i) + nabla(K, dK, k, i, j)
                                for i in range(4) for j in range(i, 4) for k in range(j, 4)]}
    for name in ("F_coulomb", "F_uniform"):
        F_up = ginv * forms[name] * ginv  # d_a for a = r, th: the forms are stationary and axisymmetric
        table[f"Maxwell {name}"] = [sum(sp.diff(sqrtg * F_up[c, b], args[c + 1]) for c in (1, 2)) / sqrtg
                                    for b in range(4)]
    J = sp.eye(4)
    J[0, 1], J[3, 1] = forms["l"][0], forms["l"][3]  # l, the principal null direction, is J's r column
    p = _exprs()["integrals"][0][4:]
    k, norm = forms["integrals"]
    for name, form, want in (("ingoing chart", norm, J * ginv * J.T), ("Carter k", k, J * ginv * K * ginv * J.T)):
        table[name] = [sp.diff(form, p[i], p[j]) / 2 - want[i, j] for i in range(4) for j in range(i, 4)]
    return {name: (args, entries) for name, entries in table.items()}


# Identity testing at points (Schwartz 1980, Zippel 1979): an identity fails at
# a probe (m, a, r, th) where an entry, to 50 digits, exceeds IDENTITY_BOUND
# times its scale.  Rounding reads about 1e-51; a sign flipped in Y, a term
# dropped from xi and a factor 1 + 1e-6 on an F_uniform entry read >= 5.3e-11.
IDENTITY_BOUND = 1e-30
IDENTITY_PROBES = (("1", "0.5", "3.5", "0.7"), ("1.5", "-0.9", "2.5", "1.9"),
                   ("1e10", "0.999e10", "3.3e10", "1.2"), ("1e-6", "3e-7", "9e-6", "0.4"))
_FUNCTIONS = {sp.sin: mpmath.sin, sp.cos: mpmath.cos, sp.Pow: pow}


def _evaluate(expr, memo):
    """(value, scale) of a sympy expression, memo holding those of the argument
    symbols and of what was evaluated so far.  The scale takes every sum over
    its terms' absolute values, at every depth: the size of what cancels."""
    if expr not in memo:
        pairs = [_evaluate(arg, memo) for arg in expr.args]
        values = [value for value, _ in pairs]
        if expr.is_Add or expr.is_Mul:
            total = mpmath.fsum if expr.is_Add else mpmath.fprod
            memo[expr] = total(values), total(scale for _, scale in pairs)
        elif expr.is_Pow and values[1] > 0:
            memo[expr] = values[0] ** values[1], pairs[0][1] ** values[1]
        else:
            value = _FUNCTIONS[expr.func](*values) if pairs else mpmath.mpmathify(expr)
            memo[expr] = value, abs(value)
    return memo[expr]


def check_identities() -> list:
    """A message for each identity and probe at which an entry exceeds
    IDENTITY_BOUND times its scale (of scale 0, it vanishes term by term)."""
    failures = []
    for name, (args, entries) in identities().items():
        for probe in IDENTITY_PROBES:
            with mpmath.workdps(50):
                memo = {arg: (x, abs(x)) for arg, x in zip(args, map(mpmath.mpf, probe))}
                pairs = [_evaluate(entry, memo) for entry in entries]
                residual = float(max(abs(value) / scale if scale else 0 for value, scale in pairs))
            if not residual <= IDENTITY_BOUND:
                failures.append(f"identity {name} fails at (m, a, r, th) = ({', '.join(probe)}): "
                                f"residual {residual:.3g} above {IDENTITY_BOUND:g}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m kerrlab._derive",
                                     description="Regenerate the compiled Kerr closed forms.")
    parser.add_argument("--check", action="store_true",
                        help=f"write nothing; exit 1 if {TARGET.name} is stale or an identity fails")
    ns = parser.parse_args(argv)
    source = emit()
    if ns.check:
        failures = check_identities()
        if not TARGET.exists() or TARGET.read_text() != source:
            failures.insert(0, f"{TARGET} is stale: run python -m kerrlab._derive")
        sys.stderr.writelines(f"{failure}\n" for failure in failures)
        return 1 if failures else 0
    TARGET.write_text(source)
    return 0


if __name__ == "__main__":
    sys.exit(main())
