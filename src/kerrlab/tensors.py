"""Dense point-value tensor algebra in a four dimensional chart.

Tensors are small dense arrays of complex components together with an
explicit up/down flag per slot.  The orientation convention used by the
Hodge dual is eps_{t r theta phi} = +sqrt|g| (coordinate order of the
chart is positively oriented).

`_covariant`, the one holder of the Christoffel terms of a covariant
derivative, the finite-difference helpers (stencil points, coordinate and
covariant derivatives over a stencil), the symmetrizing projector and the
Hodge formula act on plain arrays and broadcast over leading point axes, so
a caller can evaluate a whole nested stencil at once.  The stencil
helpers take the chart dimension from the points, so the same layer serves
the 4D spacetime chart and the 3D slices.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._stencils import STENCILS, combine

DIM = 4

UP = "u"
DOWN = "d"


def _permutation_sign(perm):
    sign = 1
    p = list(perm)
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


# Levi-Civita symbol, eps[0,1,2,3] = +1.
_LEVI_CIVITA = np.zeros((DIM,) * 4)
for _perm in itertools.permutations(range(DIM)):
    _LEVI_CIVITA[_perm] = _permutation_sign(_perm)


@dataclass(frozen=True)
class TensorValue:
    """Dense tensor at a single chart point.

    components has shape (4,)*rank and complex dtype; variance is a tuple
    of 'u'/'d' flags, one per slot.
    """

    variance: tuple
    components: np.ndarray

    def __post_init__(self):
        comp = np.asarray(self.components, dtype=complex)
        if comp.shape != (DIM,) * len(self.variance):
            raise ValueError(
                f"components shape {comp.shape} does not match rank {len(self.variance)}"
            )
        if not np.all(np.isfinite(comp)):
            raise ValueError("non-finite tensor components")
        object.__setattr__(self, "components", comp)
        object.__setattr__(self, "variance", tuple(self.variance))

    def real_part(self):
        """Return the real components, asserting that the imaginary part is
        below 1e-12 times max(1, max |components|)."""
        scale = max(1.0, np.max(np.abs(self.components)))
        if np.max(np.abs(self.components.imag)) > 1e-12 * scale:
            raise ValueError("tensor has a non-negligible imaginary part")
        return self.components.real


@dataclass(frozen=True)
class MetricData:
    """Metric, inverse, volume density and Christoffel symbols at a point.

    christoffel[c, a, b] = Gamma^c_{ab}.
    """

    g: TensorValue
    g_inv: TensorValue
    sqrt_abs_det: float
    christoffel: np.ndarray

    def __post_init__(self):
        if self.sqrt_abs_det <= 0:
            raise ValueError("sqrt_abs_det must be positive")


def _projector(comp, slots):
    """The symmetrization of comp over the given slots."""
    # negative slots count from the last axis, leaving leading point axes alone
    slots = [s % comp.ndim for s in slots]
    out = np.zeros_like(comp)
    axes_base = list(range(comp.ndim))
    for perm in itertools.permutations(range(len(slots))):
        axes = axes_base.copy()
        for pos, p in enumerate(perm):
            axes[slots[pos]] = slots[p]
        out += np.transpose(comp, axes)
    out /= float(math.factorial(len(slots)))
    return out


def _hodge(F, ginv, sqrtg):
    """(*F)_ab = 1/2 sqrt|g| eps_abcd F^cd for 2-forms F[..., a, b], broadcasting
    over leading point axes of F, ginv[..., a, b] and sqrtg[...]."""
    F_up = np.einsum("...ce,...df,...ef->...cd", ginv, ginv, F)
    eps_F = np.einsum("abcd,...cd->...ab", _LEVI_CIVITA, F_up)
    return 0.5 * np.asarray(sqrtg)[..., None, None] * eps_F


def _stencil(p, step, name):
    """Stencil points [..., s, dim] around chart points p[..., dim]: the centre
    (s = 0), then p + k step e_c for each axis c and each offset k of STENCILS[name]."""
    if step <= 0:
        raise ValueError("step must be positive")
    p = np.asarray(p, dtype=float)
    dim, shift = p.shape[-1], np.multiply(STENCILS[name][0], step)[:, None]
    return p[..., None, :] + np.vstack((np.zeros(dim), np.kron(np.eye(dim), shift)))


def _partial_fd(samples, step, name, rank):
    """d_c T[..., c, slots] from rank-`rank` samples T[..., s, slots] on a _stencil."""
    axis = samples.ndim - rank - 1
    moved = np.moveaxis(samples, axis, -1)[..., 1:]
    n = len(STENCILS[name][0])  # the samples of offset j are every n-th from j
    partial = combine([moved[..., j::n] for j in range(n)], STENCILS[name], step)
    return np.moveaxis(partial, -1, axis)


def _covariant(partial, gamma, t0, variance):
    """nabla_c T[..., c, slots] from partial[..., c, slots] = d_c T (analytic or
    finite-difference), t0[..., slots] = T and gamma[..., e, a, b] = Gamma^e_ab
    at the same points: one Christoffel term per slot, + if up and - if down."""
    out = partial
    slots = "pqrs"[:len(variance)]
    for s, var in enumerate(variance):
        summed = slots[:s] + "e" + slots[s + 1:]
        if var == UP:
            out = out + np.einsum(f"...{slots[s]}ce,...{summed}->...c{slots}", gamma, t0)
        else:
            out = out - np.einsum(f"...ec{slots[s]},...{summed}->...c{slots}", gamma, t0)
    return out


def _cov_fd(samples, gamma, variance, step, name):
    """nabla_c T[..., c, slots] from samples T[..., s, slots] on a _stencil and
    the Christoffel symbols gamma[..., e, a, b] = Gamma^e_ab at the centre."""
    rank = len(variance)
    t0 = np.take(samples, 0, axis=samples.ndim - rank - 1)
    return _covariant(_partial_fd(samples, step, name, rank), gamma, t0, variance)
