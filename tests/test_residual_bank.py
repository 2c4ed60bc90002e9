"""The residual bank against the scalar loop: every maximum must be the
same float, bit for bit, as max |T(x) - x| over the operators in their
order."""

import math

import numpy as np
import pytest

from evfam import cfp
from evfam.analysis import follows_reports
from evfam.cfp import (
    AffineEquality,
    AlmostCyclicControl,
    Ball,
    Box,
    ConstantRelaxation,
    Halfspace,
    Hyperplane,
    Relaxed,
    ResidualBank,
    StopRule,
    Trace,
    acsa_run,
    random_almost_cyclic_pattern,
    random_feasible_instance,
)


def scalar_max(ops, x):
    return max(float(np.linalg.norm(op.apply(x) - x)) for op in ops)


def assert_exact(ops, x):
    got = ResidualBank(ops).max_residual(x)
    assert float.hex(got) == float.hex(scalar_max(ops, x))
    return got


class ShiftedHalfspace(Halfspace):
    """A half-space whose apply moves every point: the bank must not stack
    it, or its rows would claim a residual of 0 on the feasible side."""

    def apply(self, x):
        return x + 1.0


def test_exact_ties_from_duplicated_rows():
    rng = np.random.default_rng(0)
    ops, _ = random_feasible_instance(6, 5, rng)
    x = rng.normal(size=6) * 5
    twins = [Halfspace(op.a, op.b) for op in ops]
    assert_exact(ops + twins, x)
    assert_exact(twins + ops + twins, x)
    near = [Halfspace(op.a, math.nextafter(op.b, -math.inf)) for op in ops]
    assert_exact([op for pair in zip(ops, near) for op in pair], x)


def test_equal_exact_residuals_round_apart():
    # every operator has residual 0.37 in exact arithmetic; the bank and
    # the scalar loop round them into different orders
    rng = np.random.default_rng(11)
    for k in range(20):
        x = rng.normal(size=50) * 10
        ops = []
        for j in range(60):
            a = rng.normal(size=50)
            b = float(a @ x) - float(np.linalg.norm(a)) * 0.37
            ops.append((Halfspace if j % 2 else Hyperplane)(a, b))
        assert_exact(ops, x)


@pytest.mark.parametrize("ulps", range(-4, 5))
def test_slacks_a_few_ulps_around_zero(ulps):
    rng = np.random.default_rng(1)
    x = rng.normal(size=50) * 100
    ops = []
    for _ in range(60):
        a = rng.normal(size=50)
        b = float(a @ x)
        for _ in range(abs(ulps)):
            b = math.nextafter(b, math.copysign(math.inf, -ulps))
        ops.append(Halfspace(a, b))
    assert_exact(ops, x)
    assert_exact(ops + [Hyperplane(op.a, op.b) for op in ops], x)


def test_slack_one_ulp_outside_among_feasible_rows():
    # the first half-space of each pair has a slack one ulp above 0, so its
    # residual is tiny but positive, among rows of residual exactly 0: a
    # slack summed in another order than apply's could round to 0 or below
    rng = np.random.default_rng(12)
    for _ in range(300):
        dim = int(rng.integers(2, 40))
        x = rng.normal(size=dim) * 10.0 ** rng.uniform(0, 4)
        ops = []
        for _ in range(8):
            a = rng.normal(size=dim)
            ops.append(Halfspace(a, math.nextafter(float(a @ x), -math.inf)))
            ops.append(Halfspace(a, float(a @ x) + 1.0))
        assert_exact(ops, x)


def test_residuals_whose_squared_norm_underflows():
    # |d|^2 ~ 1e-320 keeps a few bits: the scalar residuals scatter far
    # beyond the relative part of the bound
    rng = np.random.default_rng(13)
    for _ in range(10):
        ops = []
        for k in range(30):
            a = rng.normal(size=20)
            ops.append(Halfspace(a, -float(np.linalg.norm(a)) * 1e-160 * (1 + 1e-7 * k)))
        assert_exact(ops, np.zeros(20))


def test_boundary_points_left_by_a_projection():
    rng = np.random.default_rng(2)
    ops, center = random_feasible_instance(10, 40, rng)
    x = center + 30 * rng.normal(size=10)
    for k in range(200):
        x = ops[k % len(ops)].apply(x)
        assert_exact(ops, x)


@pytest.mark.parametrize("scale", [1e-3, 1e-1, 1.0, 1e2, 1e4, 1e7])
def test_point_scales(scale):
    rng = np.random.default_rng(3)
    ops, center = random_feasible_instance(20, 60, rng)
    ops += [Hyperplane(rng.normal(size=20), rng.normal()) for _ in range(5)]
    for _ in range(20):
        assert_exact(ops, scale * rng.normal(size=20))
        assert_exact(ops[:60], center + scale * 1e-9 * rng.normal(size=20))


def test_residuals_straddling_tol_and_tol_zero():
    rng = np.random.default_rng(4)
    ops, center = random_feasible_instance(5, 30, rng)
    bank = ResidualBank(ops)
    x = center + 3 * rng.normal(size=5)
    for k in range(60):
        x = ops[k % len(ops)].apply(x)
        res = assert_exact(ops, x)
        for tol in (math.nextafter(res, 0.0), res, math.nextafter(res, math.inf), 0.0):
            assert (bank.max_residual(x) <= tol) == (scalar_max(ops, x) <= tol)
    # the center is strictly inside every half-space: residual exactly 0
    assert float.hex(assert_exact(ops, center)) == float.hex(0.0)
    assert bank.max_residual(center) <= 0.0


def test_hyperplanes():
    rng = np.random.default_rng(5)
    ops = [Hyperplane(rng.normal(size=4), rng.normal()) for _ in range(15)]
    x = rng.normal(size=4)
    assert_exact(ops, x)
    for k in range(30):
        x = ops[k % len(ops)].apply(x)
        assert_exact(ops, x)
    assert_exact(ops + ops, x)


def test_mixed_lists_keep_the_scalar_path_for_other_kinds():
    rng = np.random.default_rng(6)
    halfspaces, center = random_feasible_instance(3, 8, rng)
    others = [
        Ball(center, 0.5),
        Box(center - 0.2, center + 0.2),
        AffineEquality([[1.0, 0.0, 1.0]], [float(center[0] + center[2])]),
        Relaxed(halfspaces[0], 0.5),
        ShiftedHalfspace(halfspaces[1].a, halfspaces[1].b),
    ]
    ops = halfspaces[:4] + others + halfspaces[4:]
    for _ in range(20):
        assert_exact(ops, center + 4 * rng.normal(size=3))
    # at the center every stacked half-space has residual 0; the subclass
    # still reports its own, about sqrt(3)
    assert assert_exact(ops, center) > 1.7


def test_tiny_huge_and_subnormal_normals_match_the_scalar_loop():
    rng = np.random.default_rng(7)
    x = rng.normal(size=4)
    for scale in (1e-120, 1e-60, 1e60, 1e120):
        ops = [Halfspace(scale * rng.normal(size=4), scale * rng.normal()) for _ in range(6)]
        ops += [Hyperplane(scale * rng.normal(size=4), 0.0)]
        assert_exact(ops, x)
        assert_exact(ops + [Halfspace(rng.normal(size=4), 0.0)], x)
    # a.a ~ 1e-321 is subnormal: its few bits make slack / a.a and
    # slack / sqrt(a.a) disagree in the third digit
    for _ in range(10):
        y = rng.normal(size=5)
        ops = []
        for k in range(30):
            a = rng.normal(size=5) * 1e-161
            ops.append(Halfspace(a, float(a @ y) - float(np.sqrt(a @ a)) * (1 + 1e-5 * k)))
        assert_exact(ops, y)


@pytest.mark.parametrize("entry", [1e150, 1e154, 1e200, 1e300, 1.7e308])
def test_huge_points_give_the_scalar_result(entry):
    rng = np.random.default_rng(8)
    x = np.full(6, entry)
    x[::2] *= -1
    ops = [Halfspace(rng.normal(size=6), 0.0) for _ in range(5)]
    ops += [Hyperplane(np.eye(6)[0], 0.0), Ball(np.zeros(6), 1.0)]
    with np.errstate(all="ignore"):
        for order in (ops, ops[::-1], ops[3:] + ops[:3]):
            assert_exact(order, x)


def test_an_overflowing_slack_gives_the_scalar_nan():
    # <a, x> overflows: the hyperplane's scalar residual is NaN, and the
    # scalar max keeps whichever comes first of NaN and 0
    x = np.array([1e308, 1e308, 0.0])
    ops = [Hyperplane([1.0, 1.0, 0.0], 0.0), Ball(x, 1.0)]
    with np.errstate(all="ignore"):
        assert math.isnan(assert_exact(ops, x))
        assert assert_exact(ops[::-1], x) == 0.0


def test_a_nan_step_of_a_tiny_normal_lands_where_the_scalar_max_puts_it():
    # the first half-space is far from x (residual exactly 0); the
    # hyperplane's a.a = 1e-240 makes slack / a.a overflow, and its step is
    # inf * 0 = NaN; max(0, NaN, 0.5) is 0.5, max(NaN, 0.5) is NaN
    x = np.array([1e200, 0.0])
    ops = [Halfspace([1.0, 0.0], 2e200), Hyperplane([1e-120, 0.0], 0.0), Ball([1e200, 1.0], 0.5)]
    with np.errstate(all="ignore"):
        assert assert_exact(ops, x) == 0.5
        assert math.isnan(assert_exact(ops[1:], x))


def test_a_bank_that_stacks_nothing_gives_empty_slacks():
    ops = [Ball([0.0, 0.0], 1.0), Box([-1.0, -1.0], [1.0, 1.0]), ShiftedHalfspace([1.0, 0.0], 0.0)]
    bank = ResidualBank(ops)
    assert bank.banked.size == 0
    for X in (np.zeros(2), np.zeros((5, 2)), np.zeros((0, 2))):
        slacks = bank.slacks(X)
        assert slacks.shape == (*X.shape[:-1], 0) and slacks.dtype == float
    assert_exact(ops, np.array([3.0, -0.5]))


def test_random_lists_match_the_scalar_loop():
    rng = np.random.default_rng(9)
    for _ in range(300):
        dim, m = int(rng.integers(1, 12)), int(rng.integers(1, 30))
        x = rng.normal(size=dim) * 10.0 ** rng.uniform(-3, 7)
        ops = []
        for _ in range(m):
            a = rng.normal(size=dim)
            # on the boundary or anywhere
            b = float(a @ x) if rng.random() < 0.5 else float(rng.normal() * np.abs(x).max())
            ops.append((Hyperplane if rng.random() < 0.2 else Halfspace)(a, b))
        if rng.random() < 0.5:
            x = ops[int(rng.integers(m))].apply(x)
        assert_exact(ops, x)


def test_slacks_equal_the_slacks_of_apply_bit_for_bit():
    # every dimension the dot kernel unrolls differently, a strided point,
    # and blocks on either side of the holds block of 256 rows
    rng = np.random.default_rng(14)
    for dim in [*range(1, 130), 200, 257, 500]:
        ops = [(Hyperplane if k % 3 else Halfspace)(rng.normal(size=dim), rng.normal())
               for k in range(5)]
        bank = ResidualBank(ops)
        wide = rng.normal(size=2 * dim) * 10.0 ** rng.uniform(-3, 3)
        for x in (wide[:dim], wide[::2]):
            want = [float.hex(float(op.a @ x) - op.b) for op in ops]
            assert [float.hex(s) for s in bank.slacks(x).tolist()] == want
    for dim in (50, 257):
        ops = [Halfspace(rng.normal(size=dim), rng.normal()) for _ in range(3)]
        bank = ResidualBank(ops)
        for n in (1, 255, 256, 257):
            wide = rng.normal(size=(n, 2 * dim))
            for X in (wide[:, :dim], wide[:, ::2]):
                want = [[float.hex(float(op.a @ x) - op.b) for op in ops] for x in X]
                assert [[float.hex(s) for s in row] for row in bank.slacks(X).tolist()] == want


def test_strided_normals_are_stacked_as_apply_reads_them():
    # a strided a would sum its dot product in another order than the
    # bank's contiguous stack
    rng = np.random.default_rng(15)
    for dim in (7, 50, 129):
        ops = [Halfspace(rng.normal(size=2 * dim)[::2], 0.0) for _ in range(20)]
        for _ in range(5):
            assert_exact(ops, rng.normal(size=dim) * 100)


def test_a_nan_slack_moves_the_point():
    # a.x overflows to inf in one partial sum of the dot kernel and to -inf
    # in another: the slack is NaN, and apply moves x to a NaN point
    for dim in (2, 16, 64):
        a = np.tile([1e150, -1e150], dim // 2)
        x = np.full(dim, 1e160)
        with np.errstate(all="ignore"):
            if math.isnan(float(a @ x)):
                break
    else:
        pytest.skip("this dot kernel gives no NaN slack")
    ops = [Halfspace(a, 0.0), Ball(x, 1.0)]
    with np.errstate(all="ignore"):
        # the scalar max keeps whichever comes first of NaN and 0
        assert math.isnan(assert_exact(ops, x))
        assert assert_exact(ops[::-1], x) == 0.0
        # a held step is no witness of a half-space that moves the point
        held = Trace([x, x], [1], [1.0])
        assert follows_reports(held, ops)[0].witnesses.size == 0
        assert follows_reports(held, ops)[1].witnesses.tolist() == [0]


def test_acsa_run_checkpoints_equal_a_scalar_loop_run(monkeypatch):
    rng = np.random.default_rng(10)
    ops, center = random_feasible_instance(8, 40, rng)
    ctrl = AlmostCyclicControl(random_almost_cyclic_pattern(40, rng), 40)
    x0 = center + 20 * rng.normal(size=8)
    stop = StopRule(tol=1e-9, max_iter=20000, stride=3)
    banked = acsa_run(ops, ctrl, ConstantRelaxation(1.0), x0, stop)
    monkeypatch.setattr(cfp.ResidualBank, "max_residual", lambda self, x: scalar_max(self.ops, x))
    scalar = acsa_run(ops, ctrl, ConstantRelaxation(1.0), x0, stop)
    assert banked.stop_reason == scalar.stop_reason == "converged"
    assert [(n, float.hex(r)) for n, r in banked.checkpoints] == [
        (n, float.hex(r)) for n, r in scalar.checkpoints]
    assert banked.iterates.tobytes() == scalar.iterates.tobytes()
