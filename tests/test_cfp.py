"""Operator and iteration tests: hand-computed projections, cutter and
firm-nonexpansiveness properties, control validation, runs, and replay."""

import numpy as np
import pytest

from evfam.cfp import (
    AcsaDivergence,
    AffineEquality,
    AlmostCyclicControl,
    Averaged,
    Ball,
    Box,
    ConstantRelaxation,
    CyclicControl,
    CyclicRelaxation,
    ExplicitControl,
    Halfspace,
    Hyperplane,
    Operator,
    Relaxed,
    StopRule,
    SubgradientProjector,
    Trace,
    acsa_run,
    control_from_json,
    control_validate,
    cutter_check,
    fejer_slack,
    fne_check,
    operator_from_json,
    operator_to_json,
    problem_from_json,
    problem_to_json,
    random_almost_cyclic_pattern,
    random_feasible_instance,
    relax,
    relaxation_from_json,
    replay_trace,
    row_distances,
    trace_from_records,
    trace_records,
    trace_summary,
)


class Doubling(Operator):
    """x -> 2x; fixes only the origin, not a cutter, not firmly nonexpansive."""

    kind = "doubling"
    is_cutter = False

    def apply(self, x):
        return 2.0 * x


def sample_ops():
    return [
        Halfspace([1.0, 0.0], 0.0),
        Hyperplane([1.0, 1.0], 1.0),
        Ball([0.0, 0.0], 1.0),
        Box([-1.0, -1.0], [1.0, 1.0]),
        AffineEquality([[1.0, 0.0]], [1.0]),
        SubgradientProjector([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0]),
    ]


# ---------------------------------------------------------------------------
# projections


def test_halfspace_projection():
    keep = Halfspace([1.0, 0.0], 0.0)  # u1 <= 0
    assert np.allclose(keep([-1.0, -1.0]), [-1.0, -1.0])
    pos = Halfspace([-1.0, 0.0], 0.0)  # u1 >= 0
    assert np.allclose(pos([-1.0, -1.0]), [0.0, -1.0])
    assert np.allclose(keep([1.0, 0.0]), [0.0, 0.0])


def test_ball_projection():
    ball = Ball([0.0, 0.0], 1.0)
    assert np.allclose(ball([2.0, 0.0]), [1.0, 0.0])
    assert np.allclose(ball([0.3, 0.1]), [0.3, 0.1])


def test_box_and_hyperplane():
    box = Box([-1.0, -1.0], [1.0, 1.0])
    assert np.allclose(box([3.0, -0.5]), [1.0, -0.5])
    hp = Hyperplane([0.0, 1.0], 2.0)
    assert np.allclose(hp([5.0, 7.0]), [5.0, 2.0])


def test_affine_projection():
    aff = AffineEquality([[1.0, 0.0]], [1.0])
    assert np.allclose(aff([3.0, 4.0]), [1.0, 4.0])
    with pytest.raises(ValueError):
        AffineEquality([[1.0, 0.0], [2.0, 0.0]], [1.0, 2.0])  # rank deficient


def test_subgradient_projector_step():
    sp = SubgradientProjector([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
    assert np.allclose(sp([2.0, 1.0]), [0.0, 1.0])
    assert np.allclose(sp([-1.0, -2.0]), [-1.0, -2.0])
    # tie at the seam resolves to the first piece
    assert np.allclose(sp([2.0, 2.0]), [0.0, 2.0])
    with pytest.raises(ValueError):
        SubgradientProjector([[0.0, 0.0]], [1.0])


def batch_rows():
    """Rows strictly inside, strictly outside and exactly on the boundary of
    every sample operator's set, seams of the subgradient projector and the
    ball's center included."""
    rng = np.random.default_rng(7)
    on = [[0.0, 0.5], [0.0, -2.0], [1.0, 0.0], [0.0, -1.0], [-1.0, 0.0], [0.0, 0.0],
          [1.0, 1.0], [0.5, 0.5], [1.0, -1.0], [-1.0, 1.0], [2.0, 2.0]]
    return np.vstack([on, rng.uniform(-0.05, 0.05, (20, 2)), rng.normal(size=(40, 2)) * 3])


def test_apply_many_equals_apply_bit_for_bit():
    X = batch_rows()
    # the rows reach each boundary exactly: slack 0 and distance = radius
    assert (X[:, 0] == 0.0).sum() >= 3
    assert (row_distances(X, 0.0) == 1.0).sum() >= 3
    ops = sample_ops() + [Doubling(2)]
    ops += [Averaged(op) for op in ops] + [Relaxed(op, 0.7) for op in ops]
    ops += [Averaged(Relaxed(Halfspace([1.0, 0.0], 0.0), lam)) for lam in (0.0, 0.5, 1.5)]
    for op in ops:
        for rows in (X, X[:0]):
            expected = np.array([op.apply(x) for x in rows]).reshape(rows.shape)
            got = op.apply_many(rows)
            assert got.shape == rows.shape and got.dtype == float, op
            assert got.tobytes() == expected.tobytes(), op


def test_projections_are_idempotent():
    # the subgradient projector is excluded: one step need not reach the
    # level set, so it is not a projection in this sense
    rng = np.random.default_rng(0)
    for op in sample_ops():
        if op.kind == "subgradient_projector":
            continue
        for _ in range(50):
            x = rng.normal(size=2) * 3
            once = op(x)
            assert np.linalg.norm(op(once) - once) <= 1e-12


# ---------------------------------------------------------------------------
# cutter / fne checks


def test_cutter_example():
    op = Halfspace([1.0, 0.0], 0.0)
    assert cutter_check(op, [1.0, 0.0], [-1.0, 0.0])
    tx = op(np.array([1.0, 0.0]))
    assert float((tx - np.array([1.0, 0.0])) @ (tx - np.array([-1.0, 0.0]))) == -1.0


def test_cutter_rejects_non_fixed_reference():
    op = Halfspace([1.0, 0.0], 0.0)
    with pytest.raises(ValueError):
        cutter_check(op, [1.0, 0.0], [5.0, 0.0])


def test_cutter_property_all_kinds():
    rng = np.random.default_rng(1)
    inner_ball = Ball([0.0, 0.0], 1.0)
    for op in sample_ops() + [Averaged(inner_ball)]:
        for _ in range(200):
            x = rng.normal(size=2) * 4
            z = rng.normal(size=2) * 4
            if op.kind == "subgradient_projector":
                z = -np.abs(z)  # the level set is the negative orthant
            elif op.kind == "firmly_nonexpansive_avg":
                z = inner_ball(z)  # shares the inner fixed points
            else:
                z = op(z)
            assert cutter_check(op, x, z)


def test_doubling_map_is_no_cutter():
    dbl = Doubling(1)
    assert not cutter_check(dbl, [1.0], [0.0])
    assert not fne_check(dbl, [1.0], [0.0])


def test_fne_property_for_projections():
    rng = np.random.default_rng(2)
    fne_ops = [op for op in sample_ops() if op.kind != "subgradient_projector"]
    fne_ops.append(Averaged(Halfspace([1.0, 2.0], 0.5)))
    fne_ops.append(Relaxed(Ball([0.5, 0.5], 2.0), 0.7))
    for op in fne_ops:
        for _ in range(200):
            x = rng.normal(size=2) * 4
            y = rng.normal(size=2) * 4
            assert fne_check(op, x, y)
            assert fne_check(op, x, x)


def test_subgradient_projector_is_not_fne():
    # discontinuity across the seam between pieces breaks firmness
    sp = SubgradientProjector([[1.0, 2.0], [2.0, 1.0]], [0.0, 0.0])
    rng = np.random.default_rng(3)
    violations = 0
    for _ in range(500):
        x = rng.normal(size=2) * 3
        y = rng.normal(size=2) * 3
        if not fne_check(sp, x, y):
            violations += 1
    assert violations > 0


def test_relax_examples():
    op = Halfspace([1.0, 0.0], 0.0)
    assert np.allclose(relax(op, 0.0)([3.0, 4.0]), [3.0, 4.0])
    assert np.allclose(relax(op, 1.0)([1.0, 0.0]), op([1.0, 0.0]))
    assert np.allclose(relax(op, 0.5)([1.0, 0.0]), [0.5, 0.0])
    with pytest.raises(ValueError):
        relax(op, 2.5)
    with pytest.raises(ValueError):
        relax(op, -0.1)


def test_relax_preserves_cutter_up_to_one():
    rng = np.random.default_rng(4)
    base = Ball([0.0, 1.0], 1.5)
    for _ in range(200):
        lam = float(rng.uniform(0.0, 1.0))
        op = relax(base, lam)
        x = rng.normal(size=2) * 4
        z = base(rng.normal(size=2) * 4)
        assert cutter_check(op, x, z)
    # past lambda = 1 the step overshoots the projection z = P(x)
    x = np.array([0.0, 5.0])
    assert not cutter_check(relax(base, 1.5), x, base(x))


def test_relax_keeps_fixed_points():
    base = Halfspace([1.0, 0.0], 0.0)
    for lam in (0.25, 1.0, 2.0):
        op = relax(base, lam)
        assert op.in_fix([-2.0, 5.0])
        assert not op.in_fix([2.0, 5.0])


# ---------------------------------------------------------------------------
# controls


def test_control_validate_examples():
    assert control_validate(CyclicControl(3)) == 3
    assert control_validate(AlmostCyclicControl([1, 1, 2])) == 3
    assert control_validate(AlmostCyclicControl([1, 2, 2, 1])) == 3
    assert control_validate(AlmostCyclicControl([1, 2])) == 2


def test_control_validate_missing_operator():
    with pytest.raises(ValueError):
        control_validate(AlmostCyclicControl([1, 1], m=2))


def test_explicit_control_window():
    ctrl = ExplicitControl([1, 2, 1, 2, 1, 2, 1, 2], m=2)
    assert control_validate(ctrl) == 2
    short = ExplicitControl([1, 2, 1], m=2)
    with pytest.raises(ValueError):
        control_validate(short)  # too short to certify


def test_cyclic_labels_follow_the_mod_rule():
    ctrl = CyclicControl(3)
    assert [ctrl.label(n) for n in range(7)] == [1, 2, 3, 1, 2, 3, 1]


def test_random_patterns_stay_within_twice_m():
    rng = np.random.default_rng(5)
    for m in (1, 2, 5, 10):
        for _ in range(20):
            pattern = random_almost_cyclic_pattern(m, rng)
            c = control_validate(AlmostCyclicControl(pattern, m))
            assert c <= 2 * m


# ---------------------------------------------------------------------------
# runs


def two_halfspace_problem():
    ops = [Halfspace([-1.0, 0.0], 0.0), Halfspace([0.0, -1.0], 0.0)]
    return ops, CyclicControl(2), ConstantRelaxation(1.0)


def test_two_halfspace_run():
    ops, ctrl, sched = two_halfspace_problem()
    trace = acsa_run(ops, ctrl, sched, [-1.0, -1.0], StopRule(stride=1))
    assert trace.converged and trace.stop_reason == "converged"
    assert trace.n_steps == 2
    assert np.array_equal(trace.iterates[1], [0.0, -1.0])
    assert np.array_equal(trace.iterates[2], [0.0, 0.0])
    assert trace_summary(ops, trace)["max_residual"] == 0.0


def test_feasible_start_stops_immediately():
    ops, ctrl, sched = two_halfspace_problem()
    trace = acsa_run(ops, ctrl, sched, [0.5, 0.5])
    assert trace.converged and trace.n_steps == 0
    assert np.array_equal(trace.final, [0.5, 0.5])


def test_zero_relaxation_never_moves():
    ops, ctrl, _ = two_halfspace_problem()
    trace = acsa_run(ops, ctrl, ConstantRelaxation(0.0), [-1.0, -1.0], StopRule(max_iter=30))
    assert trace.stop_reason == "max_iter"
    assert all(np.array_equal(x, [-1.0, -1.0]) for x in trace.iterates)


def test_iteration_cap():
    ops, ctrl, sched = two_halfspace_problem()
    trace = acsa_run(ops, ctrl, sched, [-1.0, -1.0], StopRule(max_iter=1, stride=10))
    assert trace.stop_reason == "max_iter"
    assert trace.n_steps == 1


def test_control_exhaustion():
    ops, _, sched = two_halfspace_problem()
    ctrl = ExplicitControl([1], m=2)
    trace = acsa_run(ops, ctrl, sched, [-1.0, -1.0], StopRule(stride=10))
    assert trace.stop_reason == "control_exhausted"
    assert trace.n_steps == 1


def test_empty_operator_list():
    with pytest.raises(ValueError):
        acsa_run([], CyclicControl(1), ConstantRelaxation(1.0), [0.0])


def test_divergence_detection():
    class Blowup(Operator):
        is_cutter = False

        def apply(self, x):
            return x * 1e200

    with np.errstate(over="ignore"), pytest.raises(AcsaDivergence):
        acsa_run(
            [Blowup(1)],
            CyclicControl(1),
            ConstantRelaxation(1.0),
            [1e200],
            StopRule(max_iter=5, stride=100),
        )


def test_fejer_monotone_on_random_instances():
    rng = np.random.default_rng(6)
    for _ in range(10):
        ops, center = random_feasible_instance(3, 6, rng)
        pattern = random_almost_cyclic_pattern(6, rng)
        ctrl = AlmostCyclicControl(pattern, 6)
        x0 = rng.normal(size=3) * 5
        trace = acsa_run(ops, ctrl, ConstantRelaxation(1.0), x0, StopRule(max_iter=5000))
        assert trace.converged
        assert fejer_slack(trace, center) <= 1e-10
        assert all(op.fix_residual(trace.final) <= 1e-6 for op in ops)


@pytest.mark.parametrize("scale", [1e-12, 1e-6, 1e-3, 1.0, 1e3])
def test_row_distances_equal_per_row_norm_bit_for_bit(scale):
    rng = np.random.default_rng(12)
    for dim in range(1, 102):
        points = rng.normal(size=(40, dim)) * scale
        y = rng.normal(size=dim) * scale
        expected = np.array([np.linalg.norm(p - y) for p in points])
        assert np.array_equal(row_distances(points, y), expected)
        paired = rng.normal(size=(40, dim)) * scale
        expected = np.array([np.linalg.norm(p - q) for p, q in zip(points, paired)])
        assert np.array_equal(row_distances(points, paired), expected)


def test_trace_is_a_struct_of_arrays():
    ops, ctrl, sched = two_halfspace_problem()
    trace = acsa_run(ops, ctrl, sched, [-1.0, -1.0], StopRule(stride=1))
    assert trace.iterates.shape == (3, 2) and trace.iterates.dtype == float
    assert trace.controls.tolist() == [1, 2]
    assert trace.relaxations.tolist() == [1.0, 1.0]
    assert trace.residuals.tolist() == [1.0, 1.0]
    built = Trace([[0.0, 1.0], [2.0, 3.0]], [1], [0.5], [2.0])
    assert built.iterates.shape == (2, 2) and built.n_steps == 1
    assert built.controls.dtype.kind == "i" and built.residuals.dtype == float


def test_relaxation_schedules():
    sched = CyclicRelaxation([0.5, 1.5])
    assert sched.lam(0) == 0.5 and sched.lam(3) == 1.5
    assert sched.bounds() == (0.5, 1.5)
    with pytest.raises(ValueError):
        CyclicRelaxation([0.5, 2.5])


# ---------------------------------------------------------------------------
# serialization and replay


def test_operator_json_round_trip():
    for op in sample_ops() + [Averaged(Ball([0.0, 0.0], 1.0)), Relaxed(Halfspace([1.0, 0.0], 0.0), 0.5)]:
        obj = operator_to_json(op)
        back = operator_from_json(obj)
        assert operator_to_json(back) == obj
        x = np.array([0.7, -2.3])
        assert np.allclose(op(x), back(x))


@pytest.mark.parametrize(
    "obj",
    [
        {"kind": "affine", "A": [[True, 0.0]], "d": [1.0]},
        {"kind": "subgradient_projector", "slopes": [[1.0, "0"]], "offsets": [0.0]},
        {"kind": "subgradient_projector", "slopes": [[1.0, 0.0]], "offsets": [None]},
        {"kind": "ball", "center": [0.0, False], "radius": 1.0},
        {"kind": "ball", "center": [0.0, 0.0], "radius": "1"},
        {"kind": "hyperplane", "a": [1.0, 0.0], "b": None},
        {"kind": "relaxed", "inner": {"kind": "box", "lo": [0.0], "hi": [1.0]}, "lambda": "1"},
    ],
)
def test_operator_json_rejects_non_numbers(obj):
    with pytest.raises(ValueError, match="number"):
        operator_from_json(obj)


def test_normalization_rescales_halfspaces():
    op = operator_from_json({"kind": "halfspace", "a": [3.0, 4.0], "b": 10.0}, normalize=True)
    assert np.isclose(np.linalg.norm(op.a), 1.0)
    assert np.isclose(op.b, 2.0)
    raw = operator_from_json({"kind": "halfspace", "a": [3.0, 4.0], "b": 10.0})
    x = np.array([5.0, 5.0])
    assert np.allclose(op(x), raw(x))


def test_problem_json_round_trip():
    ops, ctrl, sched = two_halfspace_problem()
    stop = StopRule(tol=1e-8, max_iter=500, stride=2)
    obj = problem_to_json(ops, ctrl, sched, [-1.0, -1.0], stop)
    ops2, ctrl2, sched2, x0, stop2 = problem_from_json(obj)
    assert problem_to_json(ops2, ctrl2, sched2, x0, stop2) == obj

    bad = dict(obj, operators=[])
    with pytest.raises(ValueError):
        problem_from_json(bad)


def test_trace_records_round_trip_and_replay():
    ops, ctrl, sched = two_halfspace_problem()
    trace = acsa_run(ops, ctrl, sched, [-1.0, -1.0], StopRule(stride=1))
    records = trace_records(trace)
    assert records[0] == {"n": 0, "x": [-1.0, -1.0]}
    assert records[1]["i"] == 1 and records[1]["res"] == 1.0
    back = trace_from_records(records)
    assert replay_trace(ops, back) <= 1e-12


def test_replay_on_random_runs():
    rng = np.random.default_rng(7)
    for _ in range(5):
        ops, _ = random_feasible_instance(2, 4, rng)
        ctrl = CyclicControl(4)
        sched = CyclicRelaxation([1.0, 0.8])
        trace = acsa_run(ops, ctrl, sched, rng.normal(size=2) * 4, StopRule(max_iter=2000))
        assert replay_trace(ops, trace) <= 1e-12
        rebuilt = trace_from_records(trace_records(trace))
        assert replay_trace(ops, rebuilt) <= 1e-12


def test_instance_generator_contains_the_stated_ball():
    rng = np.random.default_rng(8)
    ops, center = random_feasible_instance(4, 8, rng, radius=0.1)
    for op in ops:
        for _ in range(50):
            d = rng.normal(size=4)
            u = center + 0.1 * d / np.linalg.norm(d)
            assert float(op.a @ u) <= op.b + 1e-12
