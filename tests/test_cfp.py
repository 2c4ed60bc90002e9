"""Operator and iteration tests: hand-computed projections, cutter and
firm-nonexpansiveness properties, control validation, runs, and replay."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evfam import cfp
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
    ResidualBank,
    StopRule,
    SubgradientProjector,
    Trace,
    acsa_run,
    control_validate,
    cutter_check,
    fejer_slack,
    fne_check,
    norm,
    operator_from_json,
    operator_to_json,
    problem_from_json,
    problem_to_json,
    random_almost_cyclic_pattern,
    random_feasible_instance,
    relax,
    replay_trace,
    row_distances,
    trace_from_records,
    trace_records,
    trace_summary,
)
from evfam.analysis import certify_fixed_points, follows_reports
from evfam.families import CofiniteFamily, family_to_json


class Doubling(Operator):
    """x -> 2x; fixes only the origin, not a cutter, not firmly nonexpansive."""

    kind = "doubling"

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


@pytest.mark.parametrize("build, message", [
    (lambda: Ball([0.0, 0.0], 0.0), "the radius must be positive"),
    (lambda: Halfspace([0.0, 0.0], 0.0), "the normal vector must be nonzero"),
    (lambda: Hyperplane([1e-162, 0.0], 0.0),
     "the normal vector's squared norm a.a underflows to 0"),
    (lambda: Halfspace([1e308, 1e308], 0.0), "the normal vector's squared norm a.a overflows"),
    (lambda: Ball([0.0, 0.0], math.inf), "the radius must be finite, got inf"),
    (lambda: Halfspace([1.0, 0.0], math.inf), "the offset b must be finite, got inf"),
    (lambda: Hyperplane([1.0, 0.0], -math.inf), "the offset b must be finite, got -inf"),
    (lambda: Box([0.0, 0.0], [1.0]), "bound shapes differ"),
    (lambda: Box([0.0, 2.0], [1.0, 1.0]), "need lo <= hi componentwise"),
    (lambda: AffineEquality([[1.0, 0.0]], [1.0, 2.0]), "matrix and right-hand side shapes differ"),
    (lambda: AffineEquality([1.0, 0.0], [1.0, 2.0]), "matrix and right-hand side shapes differ"),
    (lambda: AffineEquality([[1.0, math.inf]], [1.0]), "matrix entries must be finite"),
    (lambda: SubgradientProjector([[1.0, 0.0]], [0.0, 1.0]), "slope and offset shapes differ"),
    (lambda: SubgradientProjector(np.zeros((0, 2)), []), "need at least one affine piece"),
    (lambda: SubgradientProjector([[1.0, math.nan]], [0.0]), "pieces must be finite"),
    (lambda: SubgradientProjector([[1.0, 0.0]], [math.inf]), "pieces must be finite"),
])
def test_operator_constructors_refuse_malformed_data(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_projections_are_idempotent():
    # the subgradient projector is excluded: one step need not reach the
    # level set, so it is not a projection in this sense
    rng = np.random.default_rng(0)
    for op in sample_ops():
        if isinstance(op, SubgradientProjector):
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
            if isinstance(op, SubgradientProjector):
                z = -np.abs(z)  # the level set is the negative orthant
            elif isinstance(op, Averaged):
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
    fne_ops = [op for op in sample_ops() if not isinstance(op, SubgradientProjector)]
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


def brute_window_constant(labels, m, cyclic):
    """Smallest c whose every window of c consecutive steps, read off a
    scan of all windows (wrapping when ``cyclic``), applies all m labels."""
    n, every = len(labels), set(range(1, m + 1))
    for c in range(1, n + 1):
        starts = range(n) if cyclic else range(n - c + 1)
        if all({labels[(a + k) % n] for k in range(c)} == every for a in starts):
            return c
    return None


def test_control_validate_matches_a_window_scan():
    rng = np.random.default_rng(22)
    for _ in range(300):
        m = int(rng.integers(1, 5))
        labels = rng.integers(1, m + 1, size=int(rng.integers(1, 25))).tolist()
        for ctrl in (AlmostCyclicControl(labels, m=m), ExplicitControl(labels, m=m)):
            c = brute_window_constant(labels, m, ctrl.repeats)
            if c is None:
                with pytest.raises(ValueError, match="never appears"):
                    control_validate(ctrl)
            elif not ctrl.repeats and len(labels) < 2 * c:
                with pytest.raises(ValueError, match="too short"):
                    control_validate(ctrl)
            else:
                assert control_validate(ctrl) == c


def _run_words(ctrl, relaxation, steps):
    """acsa_run for at most ``steps`` steps over one hyperplane per label in
    one dimension, checkpointed only at the start (never held there) and at
    the cap, unrolled: its labels and relaxations are the words the solver
    read at every step of the run."""
    ops = [Hyperplane([1.0], float(k)) for k in range(1, ctrl.m + 1)]
    stop = StopRule(tol=0.0, max_iter=steps, stride=steps + 1)
    return acsa_run(ops, ctrl, relaxation, [0.0], stop).unrolled()


def test_cyclic_labels_follow_the_mod_rule():
    trace = _run_words(CyclicControl(3), ConstantRelaxation(1.0), 7)
    assert trace.controls.tolist() == [1, 2, 3, 1, 2, 3, 1]


def _brute_almost_cyclicity(word, m, repeats):
    """The smallest w such that every w consecutive steps of the word,
    repeated when ``repeats``, hold every label 1..m, by scanning every
    window; None when no w does."""
    seen = word * 2 if repeats else word
    for w in range(1, len(word) + 1):
        starts = range(len(word) if repeats else len(word) - w + 1)
        if all(set(seen[s:s + w]) >= set(range(1, m + 1)) for s in starts):
            return w
    return None


def test_control_validate_equals_a_brute_force_window_scan():
    rng = np.random.default_rng(11)
    for _ in range(300):
        m = int(rng.integers(1, 6))
        word = [int(i) for i in rng.integers(1, m + 1, size=int(rng.integers(1, 16)))]
        cases = [
            (CyclicControl(m), list(range(1, m + 1)), True),
            (AlmostCyclicControl(word, m), word, True),
            (ExplicitControl(word, m), word, False),
        ]
        for ctrl, w, repeats in cases:
            assert ctrl.labels == tuple(w) and ctrl.repeats == repeats
            trace = _run_words(ctrl, ConstantRelaxation(1.0), 3 * len(w))
            if repeats:
                assert trace.controls.tolist() == w * 3
            else:
                # the word ends the run, with a checkpoint at its end; for
                # m = 1 the one hyperplane x = 1 is met after the first step,
                # so that checkpoint is within tol = 0
                assert trace.controls.tolist() == w
                assert trace.stop_reason == ("converged" if m == 1 else "control_exhausted")
                assert trace.checkpoints[-1][0] == len(w)
            c = _brute_almost_cyclicity(w, m, repeats)
            if c is None or not repeats and len(w) < 2 * c:
                with pytest.raises(ValueError):
                    control_validate(ctrl)
            else:
                assert control_validate(ctrl) == c


@pytest.mark.parametrize("build, message", [
    (lambda: AlmostCyclicControl([]), "the pattern must be nonempty"),
    (lambda: ExplicitControl([]), "the index list must be nonempty"),
    (lambda: AlmostCyclicControl([1, 3], m=2), "label 3 outside 1..2"),
    (lambda: ExplicitControl([0, 1]), "label 0 outside 1..1"),
    (lambda: CyclicControl(0), "need at least one operator"),
    (lambda: CyclicRelaxation(()), "need at least one relaxation value"),
    (lambda: control_validate(CyclicControl(3), 4), "control covers 3 operators, problem has 4"),
])
def test_controls_and_schedules_refuse_malformed_words(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


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


@pytest.mark.parametrize(
    "fields, needle",
    [
        # each was once read silently: checkpoints at 0, 5, 10, ..., four
        # steps, and a tol of 1.0
        ({"stride": 2.5}, "stride must be an integer"),
        ({"max_iter": 3.5}, "max_iter must be an integer"),
        ({"tol": True}, "tol must be a number"),
    ],
)
def test_stop_rule_refuses_misread_fields(fields, needle):
    with pytest.raises(ValueError, match=needle):
        StopRule(**fields)


def test_stop_rule_reads_integral_floats_as_ints():
    stop = StopRule(tol=0, max_iter=3.0, stride=np.int64(2))
    assert (stop.tol, stop.max_iter, stop.stride) == (0.0, 3, 2)
    assert type(stop.max_iter) is int and type(stop.stride) is int and type(stop.tol) is float


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


def test_acsa_run_refuses_operators_the_problem_cannot_hold():
    one = ConstantRelaxation(1.0)
    mixed = [Halfspace([1.0, 0.0], 1.0), Halfspace([1.0], 1.0)]
    with pytest.raises(ValueError, match="^operator dimensions differ$"):
        acsa_run(mixed, CyclicControl(2), one, [0.0, 0.0])
    ops, _, _ = two_halfspace_problem()
    with pytest.raises(ValueError, match="^control covers 3 operators, problem has 2$"):
        acsa_run(ops, CyclicControl(3), one, [0.0, 0.0])


def test_divergence_detection():
    class Blowup(Operator):
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


DBL_MAX = np.finfo(float).max
# the largest float whose square is finite: a step of norm at most this
ROOT_MAX = math.sqrt(DBL_MAX)


def _steps(dim):
    """Finite steps, half of whose entries lie within 2^512, where a step's
    norm can be finite."""
    entry = st.one_of(st.floats(-2.0**512, 2.0**512), st.floats(allow_nan=False,
                                                                allow_infinity=False))
    return st.lists(entry, min_size=dim, max_size=dim)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda dim: st.tuples(
           st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=dim, max_size=dim),
           _steps(dim))),
       st.floats(0.0, 2.0))
@example(([DBL_MAX], [ROOT_MAX]), 2.0)
@example(([-DBL_MAX, DBL_MAX], [-ROOT_MAX / 2, ROOT_MAX / 2]), 2.0)
@example(([DBL_MAX, -DBL_MAX, 0.0], [ROOT_MAX / 2, -ROOT_MAX / 2, 5e-324]), 1.0)
def test_a_step_of_finite_norm_keeps_the_iterate_finite(point_and_step, lam):
    # the fact behind acsa_run's one finiteness check per step: a finite
    # norm(step) bounds every |step_i| below 2^512, and x + lam step, with x
    # finite and lam <= 2, then cannot round past the largest float
    x, step = map(np.array, point_and_step)
    with np.errstate(over="ignore"):
        finite_norm = math.isfinite(norm(step))
    if finite_norm:
        assert np.isfinite(x + lam * step).all()


def test_the_step_loop_tests_finiteness_only_after_a_non_finite_residual(monkeypatch):
    ops = [Ball([0.0, 0.0], 1.0), Ball([4.0, 0.0], 1.0)]
    calls = []
    isfinite = np.isfinite

    def counted(x):
        calls.append(np.array(x).tolist())
        return isfinite(x)

    monkeypatch.setattr(np, "isfinite", counted)
    trace = acsa_run(ops, CyclicControl(2), ConstantRelaxation(1.0), [2.0, 3.0],
                     StopRule(max_iter=200))
    assert trace.n_steps == 200
    assert calls == [[2.0, 3.0]]  # the start point, as it is read
    # the first step's norm overflows: only then is its iterate tested
    calls.clear()
    with pytest.raises(AcsaDivergence, match=r"^non-finite residual at step 0 \(operator 1\)$"):
        acsa_run(ops, CyclicControl(2), ConstantRelaxation(1.0), [1e200, 0.0],
                 StopRule(max_iter=5))
    assert calls == [[1e200, 0.0], [0.0, 0.0]]


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


def test_norm_equals_np_linalg_norm_bit_for_bit():
    rng = np.random.default_rng(13)
    for dim in range(1, 60):
        for scale in 10.0 ** np.arange(-150, 151, 25):
            for d in rng.normal(size=(4, dim)) * scale:
                assert float.hex(norm(d)) == float.hex(float(np.linalg.norm(d)))
    special = [[0.0], [-0.0], [0.0, -0.0, 0.0], [-0.0] * 7, [math.inf], [-math.inf, 1.0],
               [2.0, math.inf, -math.inf], [math.nan], [1.0, math.nan, 3.0], [math.inf, math.nan]]
    for d in map(np.array, special):
        got, want = norm(d), float(np.linalg.norm(d))
        assert type(got) is float and float.hex(got) == float.hex(want), d


def test_trace_is_a_struct_of_arrays():
    ops, ctrl, sched = two_halfspace_problem()
    trace = acsa_run(ops, ctrl, sched, [-1.0, -1.0], StopRule(stride=1))
    assert trace.iterates.shape == (3, 2) and trace.iterates.dtype == float
    assert trace.controls.tolist() == [1, 2]
    assert trace.relaxations.tolist() == [1.0, 1.0]
    built = Trace([[0.0, 1.0], [2.0, 3.0]], [1], [0.5], [(1, 0.0)])
    assert built.iterates.shape == (2, 2) and built.n_steps == 1
    assert built.controls.dtype.kind == "i" and built.relaxations.dtype == float
    assert built.checkpoints == [(1, 0.0)]


@pytest.mark.parametrize("columns", [
    ([1], [1.0]),
    ([1, 1], [1.0] * 3),
    ([1] * 3, [1.0] * 4),
    ([1] * 4, [1.0] * 4),  # the columns agree, but not with the iterates
])
def test_trace_refuses_columns_of_another_length(columns):
    with pytest.raises(ValueError, match="^a trace needs one label and relaxation per step$"):
        Trace([[3.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]], *columns)


@pytest.mark.parametrize("iterates", [[], [1.0, 2.0], [[[1.0]]]])
def test_trace_refuses_iterates_that_are_not_one_point_per_row(iterates):
    with pytest.raises(ValueError, match="^a trace's iterates are one point per row"):
        Trace(iterates)


def _reference_run(ops, ctrl, relaxation, x0, stop):
    """The recurrence x + lambda (T(x) - x) of every step, and the scalar
    maximum of |T(x) - x| at every checkpoint: no held-step shortcut and no
    reuse of an earlier checkpoint."""
    x = np.asarray(x0, dtype=float)
    iterates, labels, lams, checkpoints = [x], [], [], []

    def max_residual(x):
        return max(float(np.linalg.norm(op.apply(x) - x)) for op in ops)

    end = stop.max_iter if ctrl.repeats else min(stop.max_iter, len(ctrl.labels))
    n = 0
    while True:
        if n % stop.stride == 0 or n == end:
            checkpoints.append((n, max_residual(x)))
            if checkpoints[-1][1] <= stop.tol:
                reason = "converged"
                break
        if n == end:
            reason = "max_iter" if end == stop.max_iter else "control_exhausted"
            break
        label = ctrl.labels[n % len(ctrl.labels)]
        lam = relaxation.values[n % len(relaxation.values)]
        step = ops[label - 1].apply(x) - x
        x = x + lam * step
        iterates.append(x)
        labels.append(label)
        lams.append(lam)
        n += 1
    return Trace(iterates, labels, lams, checkpoints, reason)


def _three_cuts():
    # at (-0.0, -1.0) the first two cuts are inactive and return x itself
    return [Halfspace([1.0, 0.0], 5.0), Halfspace([1.0, 1.0], 5.0), Halfspace([0.0, 1.0], -2.0)]


def _random_cuts(seed, dim, m):
    return random_feasible_instance(dim, m, np.random.default_rng(seed))[0]


def _seeded_balls(seed):
    """2 or 3 balls in dimension 2 or 3, which may share no point, and a
    start point, drawn from the seed."""
    rng = np.random.default_rng(seed)
    m, dim = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    ops = [Ball(rng.uniform(-4.0, 4.0, dim), float(rng.uniform(0.5, 1.5))) for _ in range(m)]
    return ops, np.round(rng.uniform(-6.0, 6.0, dim), 2)


def _two_balls():
    return [Ball([0.0, 0.0], 1.0), Ball([4.0, 0.0], 1.0)]


def _three_balls():
    # on a line: from a start on it, the iterates stay on it and repeat
    # bit for bit within a few words
    return [Ball([0.0, 0.0], 1.0), Ball([4.0, 0.0], 1.0), Ball([10.0, 0.0], 1.0)]


# (ops, control, relaxation, x0, stop rule)
REFERENCE_RUNS = {
    "halfspaces-from-negative-zeros": (
        _three_cuts(), CyclicControl(3), ConstantRelaxation(1.0), [-0.0, -1.0],
        StopRule(stride=1)),
    "random-halfspaces-from-negative-zeros": (
        _random_cuts(21, 4, 12), CyclicControl(12), ConstantRelaxation(1.0),
        [-0.0, 3.0, -0.0, -2.0], StopRule(tol=1e-9, max_iter=5000)),
    "cyclic-relaxation-with-0-and-2": (
        _random_cuts(22, 3, 7), AlmostCyclicControl((3, 1, 7, 2, 5, 4, 6, 1)),
        CyclicRelaxation([0.0, 2.0, 1.0]), [4.0, -0.0, -3.0],
        StopRule(tol=1e-9, max_iter=3000, stride=4)),
    "ball-holding-its-inside-start": (
        [Ball([0.0, 0.0], 2.0), Halfspace([1.0, 0.0], 0.5)], CyclicControl(2),
        ConstantRelaxation(1.0), [1.0, -0.0], StopRule(stride=1)),
    # the first step is the hyperplane's at a point on it, with slack 0.0
    "hyperplane": (
        [Hyperplane([1.0, 1.0], 1.0), Halfspace([0.0, 1.0], 0.5), Ball([0.0, 0.0], 5.0)],
        CyclicControl(3), CyclicRelaxation([1.0, 0.5]), [-0.0, 1.0],
        StopRule(tol=1e-12, max_iter=200, stride=3)),
    "explicit-control-runs-out-at-a-held-point": (
        [Halfspace([-1.0, 0.0], 0.0), Halfspace([0.0, -1.0], 0.0), Halfspace([1.0, 1.0], -1.0)],
        ExplicitControl([1, 2, 1, 2, 1], m=3), ConstantRelaxation(1.0), [-1.0, -1.0],
        StopRule(stride=3)),
    # the word runs out at step 3, between strides, at a point within tol
    "explicit-control-runs-out-converged-between-strides": (
        [Halfspace([-1.0, 0.0], 0.0), Halfspace([0.0, -1.0], 0.0)],
        ExplicitControl([1, 2, 1], m=2), ConstantRelaxation(1.0), [-1.0, -1.0],
        StopRule(stride=10)),
    "stops-at-max-iter-on-a-limit-cycle": (
        _two_balls(), CyclicControl(2), ConstantRelaxation(1.0), [2.0, -0.0],
        StopRule(max_iter=57, stride=10)),
    # the rows below reach an exactly periodic point, past which acsa_run
    # copies the cycle.  Here x at a boundary of the 3-step word first
    # equals x two words back (seed 53 of _seeded_balls' draw)
    "bits-cycle-with-period-2p": (
        _seeded_balls(53)[0], CyclicControl(3), ConstantRelaxation(1.0), _seeded_balls(53)[1],
        StopRule(max_iter=500)),
    # word lengths 4 and 3: the period is 12
    "relaxation-word-coprime-to-the-pattern": (
        _three_balls(), AlmostCyclicControl((1, 2, 1, 3)), CyclicRelaxation([1.0, 0.5, 1.5]),
        [2.0, -0.0], StopRule(max_iter=500)),
    # the cycle repeats from step 6; stride 11 lands on a point 6.0 from its
    # farthest ball, within tol
    "converges-at-the-first-tail-checkpoint": (
        _three_balls(), CyclicControl(3), ConstantRelaxation(1.0), [2.0, -0.0],
        StopRule(tol=6.0, max_iter=500, stride=11)),
    # the tail's checkpoints at 22 and 33 miss tol, the one at 44 meets it
    "converges-at-a-later-tail-checkpoint": (
        _three_balls(), AlmostCyclicControl((1, 2, 3, 2)), ConstantRelaxation(1.0),
        [2.0, -0.0], StopRule(tol=5.0, max_iter=500, stride=11)),
    # 1003 is a multiple of neither the stride nor the period 2
    "max-iter-off-stride-and-period": (
        _two_balls(), CyclicControl(2), ConstantRelaxation(1.0), [2.0, -0.0],
        StopRule(max_iter=1003, stride=7)),
    # no multiple of a stride beyond int64 falls in the tail: only the end
    # checkpoints it
    "stride-beyond-int64": (
        [Halfspace([1.0], 0.0)], CyclicControl(1), ConstantRelaxation(1.0), [1.0],
        StopRule(max_iter=50, stride=2**63)),
}


def _assert_evaluated_checkpoints(stored, want):
    """The stored run's checkpoints are the reference run's up to its stored
    steps, bit for bit.  Past them a cycled run keeps the checkpoints it
    evaluated, each the reference run's at the same step, bit for bit, and
    the last at the end N."""
    top = len(stored.iterates) - 1
    got, reference = ([(n, v.hex()) for n, v in run.checkpoints] for run in (stored, want))
    assert [c for c in got if c[0] <= top] == [c for c in reference if c[0] <= top]
    assert set(got) <= set(reference)
    assert [n for n, _ in got] == sorted({n for n, _ in got})
    assert got[-1][0] == want.n_steps


@pytest.mark.parametrize("name", REFERENCE_RUNS)
def test_acsa_run_matches_the_plain_recurrence_bit_for_bit(name):
    ops, ctrl, sched, x0, stop = REFERENCE_RUNS[name]
    stored = acsa_run(ops, ctrl, sched, x0, stop)
    got = stored.unrolled()
    want = _reference_run(ops, ctrl, sched, x0, stop)
    assert stored.n_steps == got.n_steps == want.n_steps > 0
    assert stored.final.tobytes() == want.final.tobytes()
    assert got.cycle is None
    for column in ("iterates", "controls", "relaxations"):
        assert getattr(got, column).tobytes() == getattr(want, column).tobytes(), column
    # the unrolled run carries the checkpoints the run evaluated
    assert got.checkpoints == stored.checkpoints
    _assert_evaluated_checkpoints(stored, want)
    assert (got.stop_reason, got.converged) == (want.stop_reason, want.converged)


def test_the_period_2p_row_repeats_its_bits_only_two_periods_back():
    ops, ctrl, sched, x0, stop = REFERENCE_RUNS["bits-cycle-with-period-2p"]
    bounds = [x.tobytes() for x in _reference_run(ops, ctrl, sched, x0, stop).iterates[::3]]
    assert not any(a == b for a, b in zip(bounds, bounds[1:]))
    assert any(a == b for a, b in zip(bounds, bounds[2:]))


def _periodic_corpus(count=60):
    """Seeded runs over balls (which may share no point), half-spaces and
    hyperplanes, with random patterns, relaxation words of length 1-3 and
    strides 1-12."""
    for seed in range(count):
        rng = np.random.default_rng(seed)
        dim, m = int(rng.integers(1, 4)), int(rng.integers(2, 5))
        if seed % 3 == 0:
            ops = [Ball(rng.uniform(-3.0, 3.0, dim), float(rng.uniform(0.5, 1.5)))
                   for _ in range(m)]
        else:
            kind = (Halfspace, Hyperplane)[seed % 3 - 1]
            ops = [kind(rng.normal(size=dim), float(rng.normal())) for _ in range(m)]
        ctrl = AlmostCyclicControl(random_almost_cyclic_pattern(m, rng), m)
        lams = rng.choice([0.5, 1.0, 1.5, 1.0], size=int(rng.integers(1, 4))).tolist()
        stop = StopRule(tol=1e-9, max_iter=int(rng.integers(50, 400)),
                        stride=int(rng.integers(1, 13)))
        yield ops, ctrl, CyclicRelaxation(lams), rng.normal(size=dim) * 4, stop


def _spying_tails(monkeypatch):
    """The steps at which acsa_run hands a run to its periodic tail."""
    tails = []
    periodic_tail = cfp._periodic_tail

    def spied(*args):
        tails.append(args[3])
        return periodic_tail(*args)

    monkeypatch.setattr(cfp, "_periodic_tail", spied)
    return tails


def test_the_periodic_rows_copy_their_tail(monkeypatch):
    tails = _spying_tails(monkeypatch)
    names = list(REFERENCE_RUNS)
    for name in names[names.index("stops-at-max-iter-on-a-limit-cycle"):]:
        tails.clear()
        acsa_run(*REFERENCE_RUNS[name])
        assert len(tails) == 1, name


def test_periodic_runs_match_the_plain_recurrence_on_a_seeded_corpus(monkeypatch):
    tails = _spying_tails(monkeypatch)
    for k, run in enumerate(_periodic_corpus()):
        stored, want = acsa_run(*run), _reference_run(*run)
        got = stored.unrolled()
        for column in ("iterates", "controls", "relaxations"):
            assert getattr(got, column).tobytes() == getattr(want, column).tobytes(), (k, column)
        assert got.checkpoints == stored.checkpoints, k
        _assert_evaluated_checkpoints(stored, want)
        assert got.stop_reason == want.stop_reason, k
    # 24 of the 60 runs reach an exactly periodic point and store one cycle
    assert len(tails) == 24


def _fields(obj):
    """A report's or certification's content, arrays as bytes."""
    if isinstance(obj, np.ndarray):
        return obj.dtype.str, obj.tobytes()
    if isinstance(obj, (list, tuple)):
        return [_fields(item) for item in obj]
    if isinstance(obj, dict):
        return {key: _fields(value) for key, value in obj.items()}
    if hasattr(obj, "__dataclass_fields__"):
        return {name: _fields(getattr(obj, name)) for name in obj.__dataclass_fields__}
    return obj


def test_a_stored_cycle_reads_as_its_unrolled_run():
    cycled = 0
    for run in (*REFERENCE_RUNS.values(), *_periodic_corpus()):
        ops, ctrl, sched, _, stop = run
        stored = acsa_run(*run)
        if stored.cycle is None:
            continue
        cycled += 1
        plain = stored.unrolled()
        s, end = stored.cycle
        top = len(stored.iterates) - 1
        # one cycle of a length the words repeat in, closed bit for bit
        assert (top - s) % math.lcm(len(ctrl.labels), len(sched.values)) == 0
        assert stored.iterates[top].tobytes() == stored.iterates[s].tobytes()
        assert len(stored.controls) == len(stored.relaxations) == top < end == plain.n_steps
        assert len(stored.checkpoints) <= top // stop.stride + (top - s) + 2
        assert replay_trace(ops, stored) == replay_trace(ops, plain)
        for z in (np.zeros(ops[0].dim), stored.final, stored.iterates[s]):
            assert fejer_slack(stored, z) == fejer_slack(plain, z)
        for relaxed in (True, False):
            assert _fields(follows_reports(stored, ops, relaxed)) == _fields(
                follows_reports(plain, ops, relaxed))
            assert _fields(certify_fixed_points(stored, ops, relaxed=relaxed)) == _fields(
                certify_fixed_points(plain, ops, relaxed=relaxed))
        back = trace_from_records(trace_records(stored))
        assert back.cycle == stored.cycle and _same_bytes(back, stored)
    assert cycled == 7 + 24


def test_an_uncycled_trace_is_its_own_unrolled_run():
    trace = acsa_run(*REFERENCE_RUNS["hyperplane"])
    assert trace.cycle is None and trace.unrolled() is trace


def test_rows_name_the_stored_row_of_each_point():
    # rows 1 and 4 agree: a cycle of L = 3 from s = 1, or no cycle
    iterates = [[0.0], [1.0], [2.0], [3.0], [1.0]]
    steps = [1] * 4, [1.0] * 4
    assert Trace(iterates, *steps).rows().tolist() == [0, 1, 2, 3, 4]
    cycled = Trace(iterates, *steps, cycle=(1, 9), checkpoints=[(0, 1.0), (9, 2.0)])
    assert cycled.rows().tolist() == [0, 1, 2, 3, 1, 2, 3, 1, 2, 3]
    assert cycled.final.tolist() == [3.0]
    plain = cycled.unrolled()
    assert plain.iterates[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0, 2.0, 3.0]
    assert plain.checkpoints == cycled.checkpoints and plain.cycle is None
    with pytest.raises(MemoryError, match="^a run of 9007199254740992 steps exceeds any"):
        Trace(iterates, *steps, cycle=(1, 2**53)).rows()


@pytest.mark.parametrize("cycle, message", [
    ((1, 3), "^a cycle from step 1 needs the last row equal to row 1 bit for bit$"),
    ((0, 2), r"^a trace's cycle \(s, N\) needs integers with 0 <= s < 3 <= N, got \(0, 2\)$"),
    ((3, 5), r"^a trace's cycle \(s, N\) needs integers with 0 <= s < 3 <= N"),
    ((-1, 5), r"^a trace's cycle \(s, N\) needs integers with 0 <= s < 3 <= N"),
    ((True, 5), r"^a trace's cycle \(s, N\) needs integers with 0 <= s < 3 <= N"),
    ((0, 5.0), r"^a trace's cycle \(s, N\) needs integers with 0 <= s < 3 <= N"),
])
def test_a_trace_refuses_a_cycle_that_does_not_close(cycle, message):
    # rows 0 and 3 agree; row 1 is -0.0 where row 3 has +0.0: other bits
    iterates = [[0.0, 1.0], [-0.0, 1.0], [2.0, 1.0], [0.0, 1.0]]
    assert Trace(iterates, [1, 1, 1], [1.0] * 3, cycle=(0, 7)).cycle == (0, 7)
    with pytest.raises(ValueError, match=message):
        Trace(iterates, [1, 1, 1], [1.0] * 3, cycle=cycle)


def _counting_applies(monkeypatch, cls):
    calls = []
    apply = cls.apply
    monkeypatch.setattr(cls, "apply", lambda op, x: calls.append(1) or apply(op, x))
    return calls


def test_a_limit_cycle_stops_calling_apply_and_an_explicit_word_never_does(monkeypatch):
    calls = _counting_applies(monkeypatch, Ball)
    ops, ctrl, sched, x0, _ = REFERENCE_RUNS["stops-at-max-iter-on-a-limit-cycle"]
    stored = acsa_run(ops, ctrl, sched, x0, StopRule(max_iter=100000))
    trace = stored.unrolled()
    assert (trace.n_steps, trace.stop_reason) == (100000, "max_iter")
    assert np.array_equal(trace.iterates[-3:], [[3.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    assert len(calls) < 200
    # the stored run is its prefix and one cycle, with the checkpoints evaluated
    s, _ = stored.cycle
    assert len(stored.iterates) < 200 and len(stored.checkpoints) < 20
    assert stored.iterates[-1].tobytes() == stored.iterates[s].tobytes()
    # each is the plain maximum at its step, on stride multiples and the end
    assert trace.checkpoints == stored.checkpoints and trace.checkpoints[-1][0] == 100000
    for n, value in trace.checkpoints:
        x = trace.iterates[n]
        assert n % 10 == 0 and value == max(float(np.linalg.norm(op.apply(x) - x)) for op in ops)
    # the same bits cycle under an explicit word, which is never copied; cuts
    # take their checkpoint maxima without apply, so every call is a step
    calls = _counting_applies(monkeypatch, Halfspace)
    cuts = [Halfspace([1.0], -1.0), Halfspace([-1.0], -1.0)]
    trace = acsa_run(cuts, ExplicitControl([1, 2] * 50), ConstantRelaxation(1.0), [0.0],
                     StopRule(max_iter=1000))
    assert trace.stop_reason == "control_exhausted"
    assert len(calls) == trace.n_steps == 100
    calls.clear()
    trace = acsa_run(cuts, CyclicControl(2), ConstantRelaxation(1.0), [0.0], StopRule(max_iter=100))
    assert trace.n_steps == 100 and len(calls) < 10


def test_a_trace_converged_exactly_when_its_stop_reason_says_so():
    trace = Trace([[0.0]], stop_reason="converged")
    assert trace.converged
    trace.stop_reason = "control_exhausted"
    assert not trace.converged
    # the verdict is read off the stop reason, never held apart from it
    with pytest.raises(AttributeError):
        trace.converged = True
    with pytest.raises(TypeError):
        Trace([[0.0]], converged=True)


def _counting_evaluations(monkeypatch):
    """The points, as bytes, at which ResidualBank.max_residual runs."""
    points = []
    evaluate = ResidualBank.max_residual

    def counted(bank, x):
        points.append(x.tobytes())
        return evaluate(bank, x)

    monkeypatch.setattr(ResidualBank, "max_residual", counted)
    return points


def test_a_checkpoint_at_an_unchanged_point_reuses_its_maximum(monkeypatch):
    points = _counting_evaluations(monkeypatch)
    ops, ctrl, _ = two_halfspace_problem()
    stored = acsa_run(ops, ctrl, ConstantRelaxation(0.0), [-1.0, -1.0], StopRule(max_iter=30))
    assert [n for n, _ in stored.checkpoints] == [0, 10, 30]
    trace = stored.unrolled()
    assert trace.checkpoints == stored.checkpoints
    assert len(set(v for _, v in trace.checkpoints)) == 1
    assert len(points) == 1
    # the control runs out at the point of the checkpoint at step 3
    points.clear()
    trace = acsa_run(*REFERENCE_RUNS["explicit-control-runs-out-at-a-held-point"])
    assert trace.stop_reason == "control_exhausted"
    assert [n for n, _ in trace.checkpoints] == [0, 3, 5]
    assert len(points) == 2


def test_a_checkpoint_after_negative_zero_turns_positive_evaluates_again(monkeypatch):
    points = _counting_evaluations(monkeypatch)
    trace = acsa_run(_three_cuts(), CyclicControl(3), ConstantRelaxation(1.0), [-0.0, -1.0],
                     StopRule(max_iter=2, stride=1))
    assert trace.iterates.tolist() == [[-0.0, -1.0], [0.0, -1.0], [0.0, -1.0]]
    # equal values, other bytes: the key is the point's bits
    assert trace.checkpoints == [(0, 1.0), (1, 1.0), (2, 1.0)]
    assert points == [trace.iterates[0].tobytes(), trace.iterates[1].tobytes()]


def test_relaxation_schedules():
    sched = CyclicRelaxation([0.5, 1.5])
    assert sched.values == (0.5, 1.5)
    trace = _run_words(CyclicControl(3), sched, 5)
    assert trace.relaxations.tolist() == [0.5, 1.5, 0.5, 1.5, 0.5]
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


# a sample JSON form, past its kind, of every row of the three tables
SAMPLE_JSON = {
    "operator": {
        "halfspace": {"a": [1.0, 0.5], "b": 0.25},
        "hyperplane": {"a": [1.0, 2.0], "b": 3.0},
        "ball": {"center": [0.0, 1.0], "radius": 2.5},
        "box": {"lo": [-1.0, 0.0], "hi": [1.0, 2.0]},
        "affine": {"A": [[1.0, 2.0]], "d": [1.0]},
        "subgradient_projector": {"slopes": [[1.0, 0.0], [0.0, 1.0]], "offsets": [0.0, -0.5]},
        "firmly_nonexpansive_avg": {"inner": {"kind": "ball", "center": [0.0, 0.0],
                                              "radius": 1.0}},
        "relaxed": {"inner": {"kind": "halfspace", "a": [1.0, 0.0], "b": 0.0}, "lambda": 1.5},
    },
    "control": {"cyclic": {}, "almost_cyclic": {"pattern": [1, 2, 1]},
                "explicit": {"indices": [2, 1]}},
    "relaxation": {"constant": {"value": 0.5}, "cyclic": {"values": [0.5, 1.0]}},
}
TABLES = {"operator": cfp._OPERATOR_JSON, "control": cfp._CONTROL_JSON,
          "relaxation": cfp._RELAXATION_JSON}


@pytest.mark.parametrize("what, kind", [(what, kind) for what, table in TABLES.items()
                                        for kind in table])
def test_each_repr_names_its_class_and_every_field(what, kind):
    form = {"kind": kind, **SAMPLE_JSON[what][kind]}
    if what == "operator":
        obj = operator_from_json(form)
    else:
        problem = {"dim": 2, "operators": [SAMPLE_JSON["operator"]["relaxed"]["inner"]] * 2,
                   "control": {"kind": "cyclic"}, "x0": [0.0, 0.0], what: form}
        _, ctrl, sched, _, _ = problem_from_json(problem)
        obj = ctrl if what == "control" else sched
    cls, row = TABLES[what][kind]
    text = repr(obj)
    assert type(obj) is cls and text.startswith(f"{cls.__name__}(") and text.endswith(")")
    for attr in row.values():
        assert (repr(obj.inner) if attr == "inner" else f"{attr}=") in text
    if what == "control":
        assert text.endswith(f"m={obj.m})")


def test_reprs_nest_and_a_class_without_a_row_keeps_the_default():
    op = Relaxed(Averaged(Ball([0.0, 0.0], 1.0)), 0.5)
    assert repr(op) == "Relaxed(Averaged(Ball(center=[0.0, 0.0], radius=1.0)), lam=0.5)"
    assert repr(AlmostCyclicControl([1, 2, 1])) == "AlmostCyclicControl(labels=[1, 2, 1], m=2)"
    assert repr(ConstantRelaxation()) == "ConstantRelaxation(value=1.0)"
    dbl = Doubling(1)
    assert repr(dbl) == object.__repr__(dbl)


class ShiftedHalfspace(Halfspace):
    """A half-space whose apply moves every point: no half-space at all."""

    def apply(self, x):
        return x + 1.0


class ReversedControl(AlmostCyclicControl):
    pass


class HalvedRelaxation(ConstantRelaxation):
    pass


class CountedCofinite(CofiniteFamily):
    pass


def _problem_with(ctrl=None, sched=None):
    ops = [Halfspace([1.0, 0.0], 0.0), Halfspace([0.0, 1.0], 0.0)]
    return problem_to_json(ops, ctrl or CyclicControl(2), sched or ConstantRelaxation(),
                           [0.0, 0.0], StopRule())


@pytest.mark.parametrize("write, name", [
    pytest.param(lambda: operator_to_json(ShiftedHalfspace([1.0, 0.0], 0.0)),
                 "operator ShiftedHalfspace", id="operator"),
    pytest.param(lambda: operator_to_json(Relaxed(ShiftedHalfspace([1.0], 0.0), 0.5)),
                 "operator ShiftedHalfspace", id="inner-operator"),
    pytest.param(lambda: _problem_with(ctrl=ReversedControl([2, 1])),
                 "control ReversedControl", id="control"),
    pytest.param(lambda: _problem_with(sched=HalvedRelaxation(0.5)),
                 "relaxation HalvedRelaxation", id="relaxation"),
    pytest.param(lambda: family_to_json(CountedCofinite()), "family CountedCofinite", id="family"),
])
def test_a_subclass_is_refused_not_written_as_its_base(write, name):
    with pytest.raises(ValueError, match=f"^{name} has no JSON form$"):
        write()


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


def test_problem_json_round_trip():
    ops, ctrl, sched = two_halfspace_problem()
    stop = StopRule(tol=1e-8, max_iter=500, stride=2)
    obj = problem_to_json(ops, ctrl, sched, [-1.0, -1.0], stop)
    ops2, ctrl2, sched2, x0, stop2 = problem_from_json(obj)
    assert problem_to_json(ops2, ctrl2, sched2, x0, stop2) == obj

    bad = dict(obj, operators=[])
    with pytest.raises(ValueError):
        problem_from_json(bad)


def test_problem_errors_name_the_operator_position():
    ops = [Halfspace([1.0, float(k)], 1.0) for k in range(20)]
    obj = problem_to_json(ops, CyclicControl(20), ConstantRelaxation(1.0), [0.0, 0.0], StopRule())
    del obj["operators"][16]["a"]
    with pytest.raises(ValueError, match="^operator 17: the halfspace operator lacks the field 'a'$"):
        problem_from_json(obj)
    obj["operators"][16] = operator_to_json(Ball([0.0, 0.0, 0.0], 1.0))
    with pytest.raises(ValueError, match="^operator 17: dimension 3 disagrees"):
        problem_from_json(obj)


def test_trace_records_round_trip_and_replay():
    ops, ctrl, sched = two_halfspace_problem()
    trace = acsa_run(ops, ctrl, sched, [-1.0, -1.0], StopRule(stride=1))
    records = trace_records(trace)
    assert records[0] == {"n": 0, "x": [-1.0, -1.0]}
    assert records[1] == {"n": 1, "i": 1, "lambda": 1.0, "x": [0.0, -1.0]}
    back = trace_from_records(records)
    assert replay_trace(ops, back) <= 1e-12


def _ten_step_records():
    # two lines through the origin at 0.1 rad: every step moves the point
    ops = [Hyperplane([0.0, 1.0], 0.0), Hyperplane([-math.sin(0.1), math.cos(0.1)], 0.0)]
    trace = acsa_run(ops, CyclicControl(2), ConstantRelaxation(1.0), [1.0, 1.0],
                     StopRule(tol=0.0, max_iter=10))
    records = trace_records(trace)
    assert len(records) == 11 and all("x" in rec for rec in records)
    return records


@pytest.mark.parametrize("step, fields", [(7, {"foo": 1}), (5, {"i": True}), (6, {"n": 6.0})])
def test_a_trace_with_two_faults_names_the_first_bad_record(step, fields):
    records = _ten_step_records()
    records[3]["lambda"] = 5.0
    records[step].update(fields)
    with pytest.raises(ValueError) as err:
        trace_from_records(records)
    assert str(err.value) == "the relaxation at step 3 must be a number in [0, 2], got 5.0"


def test_a_non_object_first_record_is_named_as_such():
    records = _ten_step_records()
    records[0] = [1, 2]
    with pytest.raises(ValueError, match="^trace records must be JSON objects$"):
        trace_from_records(records)


def test_the_record_walk_reads_what_the_column_pass_refuses():
    # the column pass refuses every int coordinate; the record walk reads
    # one inside int64, -2^63 included, and refuses 2^63 beside any neighbour
    records = _ten_step_records()
    records[0]["x"] = [-2**63, 0.0]
    trace = trace_from_records(records)
    assert trace.iterates[0].tolist() == [-2.0**63, 0.0]
    records[0]["x"] = [2**63, 0.0]
    with pytest.raises(ValueError, match="^the point at step 0: an integer coordinate must fit"):
        trace_from_records(records)


def _same_bytes(a, b):
    return all(
        getattr(a, col).dtype == getattr(b, col).dtype
        and getattr(a, col).shape == getattr(b, col).shape
        and getattr(a, col).tobytes() == getattr(b, col).tobytes()
        for col in ("iterates", "controls", "relaxations")
    )


def test_trace_records_omit_held_points_and_read_back_byte_for_byte():
    # the point is held, moves, then is held again
    trace = Trace(
        iterates=[[1.0, 2.0], [1.0, 2.0], [0.5, 2.0], [0.5, 2.0], [0.5, 2.0]],
        controls=[1, 2, 1, 2],
        relaxations=[1.0, 1.0, 0.5, 1.0],
    )
    records = trace_records(trace)
    assert ["x" in rec for rec in records] == [True, False, True, False, False]
    assert records[3] == {"n": 3, "i": 1, "lambda": 0.5}
    assert _same_bytes(trace_from_records(records), trace)


def test_trace_records_compare_bytes_not_values():
    # an inactive cut returns x itself: the zero step of operator 1 turns
    # -0.0 into +0.0, and that of operator 2 holds the point
    ops = [Halfspace([1.0, 0.0], 5.0), Halfspace([1.0, 1.0], 5.0), Halfspace([0.0, 1.0], -2.0)]
    trace = acsa_run(ops, CyclicControl(3), ConstantRelaxation(1.0), [-0.0, -1.0],
                     StopRule(stride=1))
    assert trace.iterates.tolist() == [[-0.0, -1.0], [0.0, -1.0], [0.0, -1.0], [0.0, -2.0]]
    assert np.signbit(trace.iterates[:, 0]).tolist() == [True, False, False, False]
    records = trace_records(trace)
    assert ["x" in rec for rec in records] == [True, True, False, True]
    back = trace_from_records(records)
    assert _same_bytes(back, trace)
    assert replay_trace(ops, back) == 0.0


def test_trace_with_every_point_written_still_reads():
    ops, ctrl, sched = two_halfspace_problem()
    ops.insert(0, Halfspace([1.0, 1.0], 10.0))  # never active: holds the point
    trace = acsa_run(ops, CyclicControl(3), sched, [-1.0, -3.0], StopRule(stride=1))
    records = trace_records(trace)
    assert not all("x" in rec for rec in records)
    for rec, x in zip(records, trace.iterates.tolist()):
        rec["x"] = x
    back = trace_from_records(records)
    assert _same_bytes(back, trace)
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


def test_grouped_replay_is_exact_on_every_operator_kind():
    # boxes, the row-loop apply_many of affine equalities and subgradient
    # projectors, and the wrappers included, on one infeasible 2-D problem
    ops = sample_ops()
    ops += [Averaged(ops[2]), Relaxed(ops[0], 0.7), Averaged(ops[3]),
            Relaxed(ops[4], 1.5), Averaged(Relaxed(ops[5], 0.5)), Relaxed(ops[1], 0.0)]
    rng = np.random.default_rng(17)
    for _ in range(5):
        pattern = random_almost_cyclic_pattern(len(ops), rng)
        sched = CyclicRelaxation([1.0, 0.5, 1.7, 0.0, 2.0])
        trace = acsa_run(ops, AlmostCyclicControl(pattern), sched, rng.normal(size=2) * 5,
                         StopRule(tol=0.0, max_iter=400, stride=7))
        assert set(trace.controls.tolist()) == set(range(1, len(ops) + 1))
        assert replay_trace(ops, trace) == 0.0
        assert replay_trace(ops, trace_from_records(trace_records(trace))) == 0.0


def test_a_zero_step_trace_replays_to_zero():
    ops, ctrl, sched = two_halfspace_problem()
    trace = acsa_run(ops, ctrl, sched, [0.5, 0.5])
    assert trace.n_steps == 0
    assert replay_trace(ops, trace) == 0.0
    assert replay_trace(ops, trace_from_records(trace_records(trace))) == 0.0


@pytest.mark.parametrize("labels, step, label", [
    ([1, 2, 5, 0, 3], 3, 5),
    ([0, 2, 1, 7], 1, 0),
    ([1, 2, 1, -4], 4, -4),
])
def test_replay_names_the_first_step_with_a_label_outside_the_operators(labels, step, label):
    ops, _, _ = two_halfspace_problem()
    trace = Trace(np.zeros((len(labels) + 1, 2)), labels, [1.0] * len(labels))
    with pytest.raises(ValueError, match=rf"^step {step} names operator {label}, outside 1\.\.2$"):
        replay_trace(ops, trace)


@pytest.mark.parametrize("column", ["controls", "relaxations", "iterates"])
def test_replay_refuses_columns_of_another_length(column):
    ops = [Ball([0.0, 0.0], 1.0)]
    trace = acsa_run(ops, CyclicControl(1), ConstantRelaxation(1.0), [3.0, 0.0],
                     StopRule(max_iter=3, stride=1))
    setattr(trace, column, getattr(trace, column)[:-1])
    with pytest.raises(ValueError, match="^a trace needs one label and relaxation per step$"):
        replay_trace(ops, trace)


@pytest.mark.parametrize("ops, x0", [
    (two_halfspace_problem()[0], [0.0, 1e155]),
    ([Ball([0.0, 0.0], 1.0), Ball([5.0, 0.0], 1.0)], [1e200, -1e200]),
    ([Box([0.0, 0.0], [1.0, 1.0]), Hyperplane([1e-3, 1.0], 3.0)], [1.7e308, 1.0]),
])
def test_a_huge_start_point_is_refused_without_a_warning(ops, x0):
    trace = acsa_run(ops, CyclicControl(2), ConstantRelaxation(1.0), [-1.0, -1.0],
                     StopRule(max_iter=6, stride=1))
    trace.iterates[0] = x0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        deviation = replay_trace(ops, trace)
    assert not deviation <= 1e-12


def test_every_one_step_edit_is_refused():
    # each recorded step is checked from its recorded point, so an edit of
    # any one point, relaxation or label shows in the deviation
    ops = [Ball([0.0, 0.0], 1.0), Ball([4.0, 0.0], 1.0), Ball([0.0, 4.0], 1.5)]
    trace = acsa_run(ops, AlmostCyclicControl((1, 3, 2, 3)), CyclicRelaxation([1.0, 0.8]),
                     [5.0, 5.0], StopRule(max_iter=40))
    assert replay_trace(ops, trace) == 0.0
    # the run repeats: every stored step is edited, the closing one included
    assert trace.cycle is not None and len(trace.controls) < trace.n_steps

    def edited(column, q, value):
        copy = Trace(trace.iterates.copy(), trace.controls.copy(), trace.relaxations.copy(),
                     cycle=trace.cycle)
        getattr(copy, column)[q] = value
        return replay_trace(ops, copy)

    for q in range(len(trace.controls)):
        x = trace.iterates[q + 1]
        assert edited("iterates", q + 1, [math.nextafter(x[0], math.inf), x[1]]) > 0.0
        assert edited("relaxations", q, 0.5) > 0.0
        assert edited("controls", q, trace.controls[q] % 3 + 1) > 0.0


def test_instance_generator_contains_the_stated_ball():
    rng = np.random.default_rng(8)
    ops, center = random_feasible_instance(4, 8, rng, radius=0.1)
    for op in ops:
        for _ in range(50):
            d = rng.normal(size=4)
            u = center + 0.1 * d / np.linalg.norm(d)
            assert float(op.a @ u) <= op.b + 1e-12
