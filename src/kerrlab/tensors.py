"""Dense point-value tensor algebra in a four dimensional chart.

Tensors are small dense arrays of complex components together with an
explicit up/down flag per slot.  The orientation convention used by the
Hodge dual is eps_{t r theta phi} = +sqrt|g| (coordinate order of the
chart is positively oriented).

The finite-difference helpers (stencil points, coordinate derivatives and
covariant derivatives over a stencil) and the Hodge formula act on plain
arrays and broadcast over leading point axes, so a caller can evaluate a
whole nested stencil at once; cov_deriv_fd is the one-point form.  The
stencil helpers take the chart dimension from the points, so the same
layer serves the 4D spacetime chart and the 3D slices.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ChartMismatchError

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
    basis: str = "bl"

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

    @property
    def rank(self):
        return len(self.variance)

    def real_part(self, tol=1e-12):
        """Return the real components, asserting the imaginary part is below tol."""
        scale = max(1.0, np.max(np.abs(self.components)))
        if np.max(np.abs(self.components.imag)) > tol * scale:
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
    basis: str = "bl"
    point: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.sqrt_abs_det <= 0:
            raise ValueError("sqrt_abs_det must be positive")


def _check_chart(t: TensorValue, metric: MetricData):
    if t.basis != metric.basis:
        raise ChartMismatchError(f"tensor chart {t.basis!r} != metric chart {metric.basis!r}")


def _check_slots(t: TensorValue, slots):
    for s in slots:
        if not (0 <= s < t.rank):
            raise IndexError(f"slot {s} out of range for rank {t.rank}")


def _contract_slot(comp, matrix, slot):
    # result[..., i, ...] = matrix[i, j] comp[..., j, ...]
    moved = np.moveaxis(comp, slot, 0)
    out = np.tensordot(matrix, moved, axes=(1, 0))
    return np.moveaxis(out, 0, slot)


def _projector(comp, slots, antisym):
    # negative slots count from the last axis, leaving leading point axes alone
    slots = [s % comp.ndim for s in slots]
    out = np.zeros_like(comp)
    axes_base = list(range(comp.ndim))
    for perm in itertools.permutations(range(len(slots))):
        axes = axes_base.copy()
        for pos, p in enumerate(perm):
            axes[slots[pos]] = slots[p]
        term = np.transpose(comp, axes)
        if antisym:
            out += _permutation_sign(perm) * term
        else:
            out += term
    out /= float(math.factorial(len(slots)))
    return out


def index_ops(t: TensorValue, metric: MetricData, action: str, slots) -> TensorValue:
    """Raise/lower or (anti)symmetrize the given slots of a tensor.

    action is one of 'raise', 'lower', 'symmetrize', 'antisymmetrize'.
    (Anti)symmetrization is the exact idempotent projector over the slots.
    """
    _check_chart(t, metric)
    slots = list(slots)
    _check_slots(t, slots)
    comp = t.components.copy()
    variance = list(t.variance)

    if action == "raise":
        ginv = metric.g_inv.components.real
        for s in slots:
            if variance[s] == UP:
                raise ValueError(f"slot {s} is already up")
            comp = _contract_slot(comp, ginv, s)
            variance[s] = UP
    elif action == "lower":
        g = metric.g.components.real
        for s in slots:
            if variance[s] == DOWN:
                raise ValueError(f"slot {s} is already down")
            comp = _contract_slot(comp, g, s)
            variance[s] = DOWN
    elif action in ("symmetrize", "antisymmetrize"):
        if len(set(variance[s] for s in slots)) > 1:
            raise ValueError("cannot (anti)symmetrize slots of mixed variance")
        comp = _projector(comp, slots, antisym=(action == "antisymmetrize"))
    else:
        raise ValueError(f"unknown action {action!r}")

    return TensorValue(tuple(variance), comp, t.basis)


def _hodge(F, ginv, sqrtg):
    """(*F)_ab = 1/2 sqrt|g| eps_abcd F^cd for 2-forms F[..., a, b], broadcasting
    over leading point axes of F, ginv[..., a, b] and sqrtg[...]."""
    F_up = np.einsum("...ce,...df,...ef->...cd", ginv, ginv, F)
    eps_F = np.einsum("abcd,...cd->...ab", _LEVI_CIVITA, F_up)
    return 0.5 * np.asarray(sqrtg)[..., None, None] * eps_F


def hodge_dual2(F: TensorValue, metric: MetricData, antisym_tol=1e-10) -> TensorValue:
    """Hodge dual of an antisymmetric rank-2 down-down tensor.

    (*F)_ab = 1/2 eps_{ab}{}^{cd} F_cd with eps_{0123} = +sqrt|g| in the
    chart coordinate order.
    """
    _check_chart(F, metric)
    if F.variance != (DOWN, DOWN):
        raise ValueError("hodge_dual2 expects a down-down rank-2 tensor")
    comp = F.components
    scale = max(1.0, np.max(np.abs(comp)))
    if np.max(np.abs(comp + comp.T)) > antisym_tol * scale:
        raise ValueError("input 2-form is not antisymmetric within tolerance")
    dual = _hodge(comp, metric.g_inv.components.real, metric.sqrt_abs_det)
    return TensorValue((DOWN, DOWN), dual, F.basis)


# order -> (offsets, weights) of the central first-derivative stencils
_FD_RULES = {
    2: ((-1, 1), (-0.5, 0.5)),
    4: ((-2, -1, 1, 2), (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0)),
}


def _fd_rule(order):
    if order not in _FD_RULES:
        raise ValueError("order must be 2 or 4")
    return _FD_RULES[order]


def _stencil(p, step, offsets):
    """Stencil points [..., s, dim] around chart points p[..., dim]: the centre
    (s = 0), then p + k step e_c for each axis c and, within it, each offset k."""
    if step <= 0:
        raise ValueError("step must be positive")
    p = np.asarray(p, dtype=float)
    dim = p.shape[-1]
    shifts = np.zeros((1 + dim * len(offsets), dim))
    for c in range(dim):
        shifts[1 + c * len(offsets): 1 + (c + 1) * len(offsets), c] = np.multiply(offsets, step)
    return p[..., None, :] + shifts


def _partial_fd(samples, step, weights, rank):
    """d_c T[..., c, slots] from rank-`rank` samples T[..., s, slots] on a _stencil."""
    axis = samples.ndim - rank - 1
    moved = np.moveaxis(samples, axis, -1)[..., 1:]
    moved = moved.reshape(moved.shape[:-1] + (moved.shape[-1] // len(weights), len(weights)))
    partial = sum(w * moved[..., j] for j, w in enumerate(weights)) / step
    return np.moveaxis(partial, -1, axis)


def _cov_fd(samples, gamma, variance, step, weights):
    """nabla_c T[..., c, slots] from samples T[..., s, slots] on a _stencil and
    the Christoffel symbols gamma[..., e, a, b] = Gamma^e_ab at the centre."""
    rank = len(variance)
    t0 = np.take(samples, 0, axis=samples.ndim - rank - 1)
    out = _partial_fd(samples, step, weights, rank)
    slots = "pqrs"[:rank]
    for s, var in enumerate(variance):
        summed = slots[:s] + "e" + slots[s + 1:]
        if var == UP:
            out = out + np.einsum(f"...{slots[s]}ce,...{summed}->...c{slots}", gamma, t0)
        else:
            out = out - np.einsum(f"...ec{slots[s]},...{summed}->...c{slots}", gamma, t0)
    return out


def cov_deriv_fd(field, p, metric_provider, step, order=4) -> TensorValue:
    """Covariant derivative of a point-sampled tensor field by finite differences.

    field: point -> TensorValue; p: length-4 chart point; metric_provider:
    point -> MetricData (christoffel must be populated).  The derivative
    slot (down) is prepended: result_{c a...} = (nabla_c T)_{a...}.
    Central differences of the stated order plus analytic Christoffel terms.
    """
    offsets, weights = _fd_rule(order)
    p = np.asarray(p, dtype=float)
    samples = [field(q) for q in _stencil(p, step, offsets)]
    t0 = samples[0]
    metric = metric_provider(p)
    _check_chart(t0, metric)
    comps = np.array([t.components for t in samples])
    nabla = _cov_fd(comps, metric.christoffel, t0.variance, step, weights)
    return TensorValue((DOWN,) + t0.variance, nabla, t0.basis)
