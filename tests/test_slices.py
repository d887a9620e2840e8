import math

import numpy as np
import pytest

from kerrlab import (DomainError, SliceData, constraint_residual, flat_slice,
                     round_sphere_slice, scalar_curvature, schwarzschild_slice)

SCHW_POINTS = [np.array([r, th, 0.7]) for r in (3.0, 5.0, 8.0) for th in (0.8, 1.9)]


def test_flat_slice_residuals_vanish():
    hams, moms = constraint_residual(flat_slice(), [np.array([0.3, -1.2, 2.0])])
    assert abs(hams[0]) < 1e-10
    assert np.max(np.abs(moms)) < 1e-10


def test_schwarzschild_hamiltonian_residual_small():
    data = schwarzschild_slice(1.0)
    hams, moms = constraint_residual(data, SCHW_POINTS, step=1e-3)
    assert np.max(np.abs(hams)) < 1e-7
    assert np.max(np.abs(moms)) < 1e-10  # time-symmetric: momentum exact


def test_schwarzschild_residual_refinement_order():
    data = schwarzschild_slice(1.0)
    p = [np.array([4.0, 1.1, 0.2])]
    h1 = abs(constraint_residual(data, p, step=4e-3)[0][0])
    h2 = abs(constraint_residual(data, p, step=2e-3)[0][0])
    order = math.log2(h1 / h2)
    assert order > 1.9


def test_round_sphere_flagged_non_vacuum():
    data = round_sphere_slice(1.0)
    pts = [np.array([1.2, 1.0, 0.5]), np.array([1.8, 2.0, 3.0])]
    hams, moms = constraint_residual(data, pts, step=1e-3)
    # scal = 6 on the unit round 3-sphere; k = 0, so the Hamiltonian
    # residual equals the scalar curvature
    assert np.max(np.abs(hams - 6.0)) < 1e-3
    assert np.max(np.abs(moms)) < 1e-8
    assert abs(scalar_curvature(data, pts[0]) - 6.0) < 1e-3


def test_sphere_radius_scaling():
    data = round_sphere_slice(2.0)
    assert abs(scalar_curvature(data, np.array([1.3, 1.1, 0.4])) - 1.5) < 1e-3


def test_non_positive_metric_rejected():
    bad = SliceData(h_sampler=lambda p: -np.eye(3), k_sampler=lambda p: np.zeros((3, 3)))
    with pytest.raises(DomainError):
        constraint_residual(bad, [np.zeros(3)])


def test_non_symmetric_sampler_rejected():
    bad = SliceData(h_sampler=lambda p: np.eye(3) + np.triu(np.ones((3, 3)), 1),
                    k_sampler=lambda p: np.zeros((3, 3)))
    with pytest.raises(DomainError):
        constraint_residual(bad, [np.zeros(3)])


def test_constraint_residual_samples_each_stencil_point_once():
    # one pass per point: h on the nested 13 x 13 fourth-order stencil, k on
    # the outer 13 points
    base = schwarzschild_slice(1.0)
    calls = {"h": 0, "k": 0}

    def counted(name, sampler):
        def wrapped(p):
            calls[name] += 1
            return sampler(p)
        return wrapped

    data = SliceData(counted("h", base.h_sampler), counted("k", base.k_sampler), base.chart)
    hams, moms = constraint_residual(data, SCHW_POINTS[:2], step=1e-2)
    assert calls == {"h": 2 * 169, "k": 2 * 13}
    ref_hams, ref_moms = constraint_residual(base, SCHW_POINTS[:2], step=1e-2)
    assert np.array_equal(hams, ref_hams) and np.array_equal(moms, ref_moms)


def test_constraint_residual_of_no_points_is_empty():
    hams, moms = constraint_residual(flat_slice(), [])
    assert hams.size == 0 and moms.size == 0
