"""Trace analysis tests: the follows-property on hand-built and solver
traces, accumulation points, recurring-run estimates on the classic
no-classical-limit sequence, and fixed-point certification."""

import json
import math
import signal

import numpy as np
import pytest

from evfam.analysis import (
    DEFAULT_LADDER,
    _cluster_tail,
    _runs,
    accumulation_points,
    certification_json,
    certify_fixed_points,
    cogap_limit_estimate,
    follows_check,
    follows_report_json,
    follows_reports,
    limit_estimate_json,
)
from evfam.cfp import (
    AffineEquality,
    Averaged,
    Ball,
    Box,
    ConstantRelaxation,
    CyclicControl,
    CyclicRelaxation,
    Halfspace,
    Hyperplane,
    Relaxed,
    ResidualBank,
    StopRule,
    SubgradientProjector,
    Trace,
    acsa_run,
    random_almost_cyclic_pattern,
    random_feasible_instance,
    AlmostCyclicControl,
)
from evfam.intseq import INF


def two_halfspace_ops():
    return [Halfspace([-1.0, 0.0], 0.0), Halfspace([0.0, -1.0], 0.0)]


def two_halfspace_trace():
    ops = two_halfspace_ops()
    return ops, acsa_run(
        ops, CyclicControl(2), ConstantRelaxation(1.0), [-1.0, -1.0], StopRule(stride=1)
    )


def constant_trace(point, n_steps, lam=1.0, controls=None):
    """Hand-built stalled trace; the solver never emits one of these because
    a zero residual stops it at the first checkpoint."""
    x = np.asarray(point, dtype=float)
    if controls is None:
        controls = [1] * n_steps
    return Trace(
        iterates=[x.copy() for _ in range(n_steps + 1)],
        controls=list(controls),
        relaxations=[lam] * n_steps,
        checkpoints=[(0, 0.0)],
        stop_reason="max_iter",
    )


def bounce_sequence(pairs):
    """-1, 1, -1, 2, -1, 3, ... : every neighborhood of -1 recurs with runs
    of length one and nothing else recurs at all."""
    xs = []
    for k in range(1, pairs + 1):
        xs.extend([-1.0, float(k)])
    return xs


# ---------------------------------------------------------------------------
# follows_check


def test_follows_two_halfspace_demo():
    ops, trace = two_halfspace_trace()
    rep1 = follows_check(trace, ops[0], label=1)
    rep2 = follows_check(trace, ops[1], label=2)
    assert rep1.witnesses.tolist() == [0]
    assert rep2.witnesses.tolist() == [1]
    # two steps, one witness each: both boundary windows have length 2
    assert rep1.min_c == 2 and rep2.min_c == 2
    assert rep1.ok and rep2.ok


def test_follows_window_parameter_sets_ok():
    ops, trace = two_halfspace_trace()
    assert follows_check(trace, ops[0], c=2).ok
    assert not follows_check(trace, ops[0], c=1).ok
    assert follows_check(trace, ops[0], c=1).min_c == 2


def test_follows_single_operator_every_step():
    op = Averaged(Halfspace([-1.0, 0.0], 0.0))
    trace = acsa_run([op], CyclicControl(1), ConstantRelaxation(1.0), [-8.0, 0.0],
                     StopRule(tol=1e-4, stride=1))
    assert trace.n_steps > 5
    rep = follows_check(trace, op)
    assert rep.min_c == 1
    assert len(rep.witnesses) == trace.n_steps


def test_follows_strict_rejects_relaxed_steps():
    op = Halfspace([-1.0, 0.0], 0.0)
    trace = acsa_run([op], CyclicControl(1), ConstantRelaxation(0.5), [-8.0, 0.0],
                     StopRule(tol=1e-3, stride=1))
    relaxed = follows_check(trace, op, relaxed=True)
    strict = follows_check(trace, op, relaxed=False)
    assert relaxed.min_c == 1 and relaxed.criterion == "relaxed"
    assert strict.min_c is None and not strict.ok
    assert strict.criterion == "strict"


def test_follows_ignores_zero_steps():
    # lambda = 0 makes the update equation vacuous for every operator
    trace = constant_trace([3.0, 3.0], 8, lam=0.0)
    rep = follows_check(trace, Halfspace([-1.0, 0.0], 0.0))
    assert rep.min_c is None and not rep.ok


def test_follows_fixed_point_stall():
    ops = two_halfspace_ops()
    trace = constant_trace([0.0, 0.0], 10, controls=[1, 2] * 5)
    for op in ops:
        rep = follows_check(trace, op)
        assert rep.min_c == 1
        assert len(rep.witnesses) == 10


def test_follows_needs_a_step():
    op = Halfspace([-1.0, 0.0], 0.0)
    trace = acsa_run([op], CyclicControl(1), ConstantRelaxation(1.0), [1.0, 1.0])
    assert trace.n_steps == 0
    rep = follows_check(trace, op)
    assert rep.min_c is None
    assert not rep


def brute_min_c(mask):
    """Smallest w whose every window of w consecutive steps, read off a
    scan of all windows, holds a witness; None without one."""
    n = len(mask)
    for w in range(1, n + 1):
        if all(mask[a:a + w].any() for a in range(n - w + 1)):
            return w
    return None


def masked_trace(mask, lams):
    """A run on the line under the cut x <= 0 whose witnesses are ``mask``:
    from 1 or 0 the cut's update is 0, so step q is a witness exactly
    when x_{q+1} is 0."""
    iterates = [[1.0]] + [[0.0] if hit else [1.0] for hit in mask]
    n = len(mask)
    return Trace(iterates, [1] * n, lams)


@pytest.mark.parametrize("relaxed", [True, False])
def test_follows_min_c_matches_a_window_scan(relaxed):
    rng = np.random.default_rng(22)
    masks = [rng.random(int(rng.integers(1, 40))) < p for p in rng.random(150)]
    masks += [np.eye(1, 17, k, dtype=bool)[0] for k in (0, 8, 16)]  # one witness
    masks += [np.array([True] + [False] * 15 + [True]), np.ones(12, dtype=bool),
              np.zeros(9, dtype=bool), np.ones(1, dtype=bool)]
    op = Halfspace([1.0], 0.0)
    for mask in masks:
        lams = np.where(rng.random(len(mask)) < 0.2, 0.0, 1.0)
        rep = follows_reports(masked_trace(mask, lams), [op], relaxed)[0]
        eligible = lams != 0.0
        assert rep.witnesses.tolist() == np.flatnonzero(mask & eligible).tolist()
        assert rep.min_c == brute_min_c(mask & eligible)
        # every step eligible: the mask itself is the witness word
        rep = follows_reports(masked_trace(mask, np.ones(len(mask))), [op], relaxed)[0]
        assert rep.min_c == brute_min_c(mask)


def reference_witnesses(trace, op, relaxed=True, tol=1e-9):
    """The witness test written point by point, one norm per step of the
    unrolled run."""
    trace = trace.unrolled()
    out = []
    for q in range(trace.n_steps):
        lam = trace.relaxations[q]
        if lam == 0.0 or not relaxed and lam != 1.0:
            continue
        x = trace.iterates[q]
        target = x + lam * (op.apply(x) - x)
        if float(np.linalg.norm(trace.iterates[q + 1] - target)) <= tol:
            out.append((q, q + 1))
    return tuple(out)


def halfspace_problem():
    """(ops, control, relaxation, x0, stop) of a dim-4, 8-halfspace run."""
    rng = np.random.default_rng(21)
    ops, _ = random_feasible_instance(4, 8, rng)
    return (ops, AlmostCyclicControl(random_almost_cyclic_pattern(8, rng)),
            CyclicRelaxation([1.0, 0.7, 1.0, 1.3]), rng.uniform(-50, 50, size=4),
            StopRule(tol=1e-10, max_iter=3000))


def ball_bounce_problem():
    """Three disjoint balls: the run bounces on a limit cycle to its cap."""
    ops = [Ball([0.0, 0.0, 0.0], 1.0), Ball([4.0, 0.0, 0.0], 1.0), Ball([0.0, 4.0, 1.0], 1.5)]
    return (ops, AlmostCyclicControl((1, 3, 2, 3), 3), ConstantRelaxation(1.0),
            [5.0, 5.0, 5.0], StopRule(max_iter=400))


def halfspace_run():
    problem = halfspace_problem()
    return problem[0], acsa_run(*problem)


def ball_bounce_run():
    problem = ball_bounce_problem()
    return problem[0], acsa_run(*problem)


def zero_step_trace():
    # steps of both operators at lambda 1, 0 and 0.5, with every fifth step
    # an off-model jump that witnesses neither
    ops = two_halfspace_ops()
    x = np.array([-4.0, -4.0])
    iterates, controls, lams = [x], [], []
    for q in range(24):
        label, lam = 1 + q % 2, (1.0, 0.0, 0.5)[q % 3]
        x = x + lam * (ops[label - 1].apply(x) - x) if q % 5 else x + 0.25
        iterates.append(x)
        controls.append(label)
        lams.append(lam)
    return ops, Trace(iterates, controls, lams)


def mixed_kind_run():
    # every operator kind, batched or row by row, around the feasible point
    # (0.4, 0.4, 0.2)
    ops = [
        Hyperplane([1.0, 1.0, 1.0], 1.0),
        Box([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]),
        AffineEquality([[1.0, -1.0, 0.0]], [0.0]),
        SubgradientProjector(np.eye(3), [-0.5, -0.5, -0.5]),
        Averaged(Halfspace([0.0, 0.0, 1.0], 0.2)),
        Relaxed(Ball([0.0, 0.0, 0.0], 2.0), 1.5),
        Relaxed(Halfspace([1.0, 0.0, 0.0], 0.9), 0.0),
    ]
    trace = acsa_run(ops, CyclicControl(len(ops)), CyclicRelaxation([1.0, 0.8, 1.0, 1.2]),
                     [5.0, -3.0, 4.0], StopRule(tol=1e-10, max_iter=2000))
    return ops, trace


def random_feasible_run():
    rng = np.random.default_rng(41)
    ops, center = random_feasible_instance(20, 60, rng)
    ctrl = AlmostCyclicControl(random_almost_cyclic_pattern(60, rng), 60)
    trace = acsa_run(ops, ctrl, CyclicRelaxation([1.0, 1.0, 0.8, 1.0, 1.2]),
                     center + 10 * rng.normal(size=20), StopRule(tol=1e-10, max_iter=1500))
    return ops, trace


class ShiftedHalfspace(Halfspace):
    """A half-space whose apply moves every point: where its cut is
    inactive, it is still no witness of a held step."""

    def apply(self, x):
        return x + 1.0

    def apply_many(self, X):
        return X + 1.0


def _nudged(x, j, ulps, direction):
    """x with coordinate j moved ulps steps of one ulp towards direction."""
    x = x.copy()
    for _ in range(ulps):
        x[j] = math.nextafter(x[j], direction)
    return x


def boundary_trace():
    # each half-space's boundary points, moved 0 to 4 ulps to either side
    # of its cut, then held, cut or jumped away from; coordinates of mixed
    # magnitude, so that the large ones round the slack and the small ones
    # register a cut of a few ulps
    rng = np.random.default_rng(31)
    dim = 6
    center = rng.normal(size=dim)
    center[-1] = -0.0
    ops = []
    for _ in range(8):
        a = rng.normal(size=dim)
        ops.append(Halfspace(a, float(a @ center) + float(rng.uniform(0.5, 2.0))))
    ops += [
        Halfspace(np.eye(dim)[0], -1e6),  # every point lies outside: no row is skipped
        Hyperplane(ops[0].a, ops[0].b),
        ShiftedHalfspace(ops[1].a, 1e6),  # inactive everywhere, yet never a witness
    ]
    # a zero step at the interior start turns its -0.0 into +0.0
    held = center.copy()
    held[-1] = 0.0
    iterates, lams = [center, held], [1.0]
    for k in range(160):
        op = ops[k % 8]
        y = rng.normal(size=dim) * 10.0 ** rng.uniform(-4, 3, size=dim)
        p = y - ((float(op.a @ y) - op.b) / op.norm2) * op.a
        j = int(np.argmax(np.abs(op.a) * np.abs(p)))
        outward = math.copysign(math.inf, op.a[j]) * (1 if k % 2 else -1)
        p = _nudged(p, j, (k // 2) % 5, outward)
        lam = (1.0, 1.0, 0.5)[k % 3]
        after = p.copy() if k % 3 == 0 else p + lam * (op.apply(p) - p)
        # the jump to p, then the step from p
        iterates += [p, after]
        lams += [(1.0, 0.5, 0.0, 1.5)[k % 4], lam]
    n = len(lams)
    return ops, Trace(iterates, [1] * n, lams)


@pytest.mark.parametrize("relaxed", [True, False])
@pytest.mark.parametrize(
    "build", [halfspace_run, ball_bounce_run, zero_step_trace, mixed_kind_run,
              random_feasible_run, boundary_trace]
)
def test_follows_witnesses_match_scalar_reference(build, relaxed):
    ops, trace = build()
    # tol 0 leaves no slack for a filter that skips a pair whose cut moves
    # the point by a few ulps
    for tol in (1e-9, 0.0):
        reports = follows_reports(trace, ops, relaxed, tol)
        assert [rep.operator for rep in reports] == list(range(1, len(ops) + 1))
        found = 0
        for label, (op, rep) in enumerate(zip(ops, reports), start=1):
            expected = [q for q, _ in reference_witnesses(trace, op, relaxed, tol)]
            assert rep.witnesses.tolist() == expected
            one = follows_check(trace, op, relaxed, tol=tol, label=label)
            assert one.witnesses.tolist() == expected and one.min_c == rep.min_c
            found += len(expected)
        assert found > 0


def test_follows_applies_closed_forms_in_one_batch(monkeypatch):
    runs = [halfspace_run(), ball_bounce_run()]

    def scalar_apply(self, x):
        raise AssertionError("follows_check applied an operator point by point")

    monkeypatch.setattr(Halfspace, "apply", scalar_apply)
    monkeypatch.setattr(Ball, "apply", scalar_apply)
    for ops, trace in runs:
        for i, op in enumerate(ops):
            assert follows_check(trace, op, label=i + 1).witnesses.size


def test_boundary_trace_covers_both_sides_of_the_filter():
    # the build must hold skipped pairs, exactly applied pairs beside them,
    # and a banked half-space with no skipped row at all
    ops, trace = boundary_trace()
    holds = ResidualBank(ops).holds(trace.iterates[:-1])
    assert holds.shape == (len(ops), trace.n_steps)
    partial = [k for k in range(8) if 0 < holds[k].sum() < trace.n_steps]
    assert len(partial) == 8
    # the half-space every point lies outside, the hyperplane, and the
    # unstacked subclass, though it is inactive everywhere
    assert not holds[8:].any()


def test_holds_marks_exactly_the_half_space_pairs_whose_slack_is_at_most_zero():
    # the mask against apply's own slack, pair by pair, on fewer and on more
    # rows than one block of slacks; the last half-space has slack exactly 0
    # at the first two points
    ops, trace = boundary_trace()
    x = trace.iterates[:-1]
    ops.append(Halfspace(np.eye(x.shape[1])[0], float(x[0, 0])))
    for X in (x, np.tile(x, (3, 1))):
        holds = ResidualBank(ops).holds(X)
        assert holds.shape == (len(ops), len(X))
        for op, mask in zip(ops, holds):
            want = [type(op) is Halfspace and float(op.a @ row) - op.b <= 0.0 for row in X]
            assert mask.tolist() == want
    assert float(ops[-1].a @ x[0]) - ops[-1].b == 0.0 and holds[-1][:2].all()


def test_follows_reports_fall_back_where_the_stacked_values_overflow():
    # <a, x> overflows in the stacked product at the huge points: no pair
    # there may be skipped, and the answer is the operator-by-operator one
    ops = [Halfspace([1.0, 1.0, 0.0], 0.0), Halfspace([-1.0, 0.0, 0.0], 1.0),
           Hyperplane([0.0, 0.0, 1.0], 0.0)]
    big = np.array([1.7e308, 1.7e308, 0.0])
    small = np.array([-3.0, 2.0, 0.0])
    iterates = [big, big, small, small, big, -big, -big, small]
    n = len(iterates) - 1
    trace = Trace(iterates, [1] * n, [1.0] * n)
    with np.errstate(all="ignore"):
        assert not np.isfinite(ResidualBank(ops).slacks(trace.iterates[:-1])).all()
        reports = follows_reports(trace, ops)
        for op, rep in zip(ops, reports):
            expected = [q for q, _ in reference_witnesses(trace, op)]
            assert rep.witnesses.tolist() == expected
    assert reports[1].witnesses.size


def test_follows_reports_apply_only_the_pairs_left_by_the_filter(monkeypatch):
    ops, trace = random_feasible_run()
    expected = follows_reports(trace, ops)
    rows = []
    apply_many = Halfspace.apply_many

    def counted(self, X):
        rows.append(len(X))
        return apply_many(self, X)

    monkeypatch.setattr(Halfspace, "apply_many", counted)
    got = follows_reports(trace, ops)
    assert 0 < sum(rows) < trace.n_steps * len(ops) // 2
    assert [r.witnesses.tolist() for r in got] == [r.witnesses.tolist() for r in expected]


def test_a_cycled_trace_applies_each_operator_once_per_stored_step(monkeypatch):
    # no ball holds a point of the bounce, so each operator is applied at
    # every step it is applied at: the s + L stored ones, not the N of the run
    ops, ctrl, sched, x0, _ = ball_bounce_problem()
    stored = acsa_run(ops, ctrl, sched, x0, StopRule(max_iter=100000))
    top = len(stored.iterates) - 1
    assert stored.cycle is not None and top < 100 < stored.n_steps
    rows = []
    apply_many = Ball.apply_many

    def counted(self, X):
        rows.append(len(X))
        return apply_many(self, X)

    monkeypatch.setattr(Ball, "apply_many", counted)
    got = follows_reports(stored, ops)
    assert 0 < sum(rows) <= len(ops) * top
    rows.clear()
    cert = certify_fixed_points(stored, ops)
    assert 0 < sum(rows) <= len(ops) * top
    plain = stored.unrolled()
    want = follows_reports(plain, ops)
    assert [(r.witnesses.tobytes(), r.min_c) for r in got] == [
        (r.witnesses.tobytes(), r.min_c) for r in want]
    # the pattern (1, 3, 2, 3) runs to the last step, N - 1
    assert [rep.witnesses[-1] for rep in got] == [stored.n_steps - k for k in (4, 2, 1)]
    assert json.dumps(limit_estimate_json(cert.estimate)) == json.dumps(
        limit_estimate_json(certify_fixed_points(plain, ops).estimate))


# ---------------------------------------------------------------------------
# accumulation points


def sequential_greedy(tail, eps):
    """The clustering written point by point: each point joins the first
    representative within eps, or becomes one."""
    reps, assignments = [], []
    for p in tail:
        for k, rep in enumerate(reps):
            if float(np.linalg.norm(p - rep)) <= eps:
                assignments.append(k)
                break
        else:
            reps.append(p)
            assignments.append(len(reps) - 1)
    return assignments


def sequential_runs(flags):
    runs, count = [], 0
    for f in list(flags) + [False]:
        if f:
            count += 1
        elif count:
            runs.append(count)
            count = 0
    return runs


@pytest.mark.parametrize("dim", [1, 3])
def test_clustering_matches_the_sequential_greedy_pass(dim):
    rng = np.random.default_rng(dim)
    for _ in range(30):
        centers = rng.normal(size=(4, dim))
        tail = centers[rng.integers(0, 4, size=60)] + rng.normal(size=(60, dim)) * 0.3
        for eps in (0.05, 0.4, 1.5):
            assignments = _cluster_tail(tail, eps)
            assert assignments.tolist() == sequential_greedy(tail, eps)
            for k in range(assignments.max() + 1):
                members = assignments == k
                starts, lengths = _runs(members)
                assert lengths.tolist() == sequential_runs(members)
                decoded = [q for s, n in zip(starts, lengths) for q in range(s, s + n)]
                assert decoded == np.flatnonzero(members).tolist()


def test_accumulation_alternating_two_points():
    xs = [0.0, 1.0] * 20
    got = sorted(float(p[0]) for p in accumulation_points(xs, eps=0.1, n0=0))
    assert got == [0.0, 1.0]


def test_accumulation_converged_trace_is_final():
    ops, trace = two_halfspace_trace()
    pts = accumulation_points(trace)
    assert len(pts) == 1
    assert np.array_equal(pts[0], np.array([0.0, 0.0]))


def test_accumulation_settled_tail():
    xs = [0.0, 0.0, 0.0, 5.0, 0.0, 0.0, 0.0, 0.0]
    got = accumulation_points(xs, eps=0.1, n0=0)
    assert [float(p[0]) for p in got] == [0.0]


def test_accumulation_transient_never_qualifies():
    # two visits only, and the tail leaves: not an accumulation point
    xs = [7.0, 0.0, 7.0] + [float(k) for k in range(100, 130)]
    got = accumulation_points(xs, eps=0.1, n0=0)
    assert all(abs(float(p[0]) - 7.0) > 1 for p in got)


def test_accumulation_tail_start_validation():
    with pytest.raises(ValueError, match=r"^the tail start must lie in 0\.\.1, got 2$"):
        accumulation_points([1.0, 2.0], n0=2)
    with pytest.raises(ValueError, match=r"^the tail start must lie in 0\.\.1, got -1$"):
        accumulation_points([1.0, 2.0], n0=-1)
    # read, not cast: 1.5 and True are not tail starts, and neither is "2"
    with pytest.raises(ValueError, match=r"^the tail start must be an integer, got 1\.5$"):
        accumulation_points([1.0, 2.0, 3.0], n0=1.5)
    with pytest.raises(ValueError, match=r"^the tail start must be an integer, got True$"):
        accumulation_points([1.0, 2.0, 3.0], n0=True)
    with pytest.raises(ValueError, match=r"^the tail start must be an integer, got '2'$"):
        cogap_limit_estimate([1.0, 2.0, 3.0], n0="2")
    xs = [1.0, 2.0, 3.0]
    assert np.array_equal(accumulation_points(xs, n0=2.0), accumulation_points(xs, n0=2))
    with pytest.raises(ValueError, match="^need at least one point$"):
        accumulation_points([])
    with pytest.raises(ValueError, match="^need at least one point$"):
        accumulation_points(np.empty((0, 2)))


RADII = "^the epsilon ladder needs positive finite radii, got "
TOLERANCE = "^the residual tolerance must be finite and >= 0, got "


@pytest.mark.parametrize("kwargs, message", [
    # a representative never within a negative or NaN radius of itself, or
    # at a non-finite point, once left the clustering loop running for ever
    pytest.param({"eps": -0.1}, RADII + r"-0\.1$", id="eps-negative"),
    pytest.param({"eps": math.nan}, RADII + "nan$", id="eps-nan"),
    pytest.param({"source": [0.0, math.inf, 0.0, 1.0]}, "^points must be finite$",
                 id="inf-point"),
    pytest.param({"source": [[0.0, 0.0], [1.0, math.nan], [0.0, 0.0]]},
                 "^points must be finite$", id="nan-point"),
])
def test_a_bad_radius_or_point_is_refused_and_never_hangs(kwargs, message):
    def hung(signum, frame):
        raise TimeoutError("accumulation_points did not return")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(10)
    try:
        with pytest.raises(ValueError, match=message):
            accumulation_points(**{"source": [0.0, 1.0, 0.0, 1.0], "n0": 0, **kwargs})
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# recurring-run estimates


def test_estimate_bounce_sequence():
    est = cogap_limit_estimate(bounce_sequence(100))
    assert not est.convergent
    assert est.classical_limit is None
    assert len(est.candidates) == 1
    cand = est.candidates[0]
    assert float(cand.point[0]) == -1.0
    assert cand.estimate == 1
    for row in cand.per_eps:
        assert row["run"] == 1
        assert row["estimate"] == 1
    assert not cand.certified_limit


def test_estimate_convergent_trace():
    ops, trace = two_halfspace_trace()
    est = cogap_limit_estimate(trace)
    assert est.convergent
    assert np.array_equal(est.classical_limit, np.array([0.0, 0.0]))
    cand = est.candidates[0]
    assert cand.estimate == INF
    assert cand.certified_limit
    assert all(row["estimate"] == INF for row in cand.per_eps)


def test_estimate_constant_sequence():
    est = cogap_limit_estimate([2.0] * 30)
    assert est.convergent
    assert est.candidates[0].estimate == INF
    assert float(est.classical_limit[0]) == 2.0


def test_estimate_monotone_down_the_ladder():
    # a run that splits as eps shrinks can raise the raw statistic; the
    # reported estimate must still be non-increasing
    rng = np.random.default_rng(7)
    xs = list(rng.uniform(-1, 1, size=400))
    est = cogap_limit_estimate(xs)
    for cand in est.candidates:
        values = [row["estimate"] for row in cand.per_eps]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert cand.estimate == values[-1]


def test_estimate_ladder_validation():
    with pytest.raises(ValueError):
        cogap_limit_estimate([1.0, 2.0], ladder=())
    with pytest.raises(ValueError):
        cogap_limit_estimate([1.0, 2.0], ladder=(1e-2, 1e-1))
    with pytest.raises(ValueError):
        cogap_limit_estimate([1.0, 2.0], ladder=(1e-2, 1e-2))


def _certify_points(xs, **kwargs):
    trace = Trace([[x] for x in xs], [1] * (len(xs) - 1), [1.0] * (len(xs) - 1))
    return certify_fixed_points(trace, [Halfspace([1.0], 0.0)], **kwargs)


@pytest.mark.parametrize("call, kwargs, message", [
    # read, not cast: a string or a boolean is no radius and no tolerance
    pytest.param(cogap_limit_estimate, {"ladder": ("0.1",)}, RADII + "'0.1'$", id="ladder-string"),
    pytest.param(cogap_limit_estimate, {"ladder": (True,)}, RADII + "True$", id="ladder-bool"),
    pytest.param(cogap_limit_estimate, {"ladder": (0.1, None)}, RADII + "None$", id="ladder-none"),
    pytest.param(accumulation_points, {"eps": "0.1"}, RADII + "'0.1'$", id="eps-string"),
    pytest.param(accumulation_points, {"eps": False}, RADII + "False$", id="eps-bool"),
    pytest.param(cogap_limit_estimate, {"tol": True}, TOLERANCE + "True$", id="tol-bool"),
    pytest.param(cogap_limit_estimate, {"tol": "0"}, TOLERANCE + "'0'$", id="tol-string"),
    pytest.param(_certify_points, {"tol": True}, TOLERANCE + "True$", id="certify-tol-bool"),
    # numbers out of range keep their messages
    pytest.param(cogap_limit_estimate, {"ladder": (0.1, math.inf)}, RADII + "inf$",
                 id="ladder-inf"),
    pytest.param(cogap_limit_estimate, {"ladder": (0.1, 0.0)}, RADII + r"0\.0$", id="ladder-zero"),
    pytest.param(cogap_limit_estimate, {"tol": math.nan}, TOLERANCE + "nan$", id="tol-nan"),
    pytest.param(cogap_limit_estimate, {"tol": -1}, TOLERANCE + "-1$", id="tol-negative"),
    pytest.param(cogap_limit_estimate, {"tol": math.inf}, TOLERANCE + "inf$", id="tol-inf"),
    pytest.param(cogap_limit_estimate, {"tol": 10**400}, TOLERANCE + "1" + "0" * 400 + "$",
                 id="tol-beyond-float"),
])
def test_radii_and_tolerances_are_read_as_numbers(call, kwargs, message):
    # a bounce between 0 and 1, whose tail tol True would have taken as
    # convergent
    with pytest.raises(ValueError, match=message):
        call([0.0, 1.0] * 4, **kwargs)



# ---------------------------------------------------------------------------
# certification


def test_certify_two_halfspace_demo():
    ops, trace = two_halfspace_trace()
    cert = certify_fixed_points(trace, ops)
    assert cert.status == "certified"
    assert bool(cert)
    assert len(cert.entries) == 2
    for entry in cert.entries:
        assert entry["residual"] == 0.0
        assert entry["ok"]
    assert {e["operator"] for e in cert.entries} == {1, 2}
    assert np.array_equal(cert.candidates[0], np.array([0.0, 0.0]))


def test_certify_fixed_point_stall():
    ops = two_halfspace_ops()
    trace = constant_trace([0.0, 0.0], 10, controls=[1, 2] * 5)
    cert = certify_fixed_points(trace, ops)
    assert cert.status == "certified"
    assert len(cert.entries) == 2


def test_certify_truncated_run_is_inconclusive():
    op = Averaged(Halfspace([-1.0, 0.0], 0.0))
    full = acsa_run([op], CyclicControl(1), ConstantRelaxation(1.0), [-512.0, 0.0],
                    StopRule(tol=1e-8, stride=1))
    cut = Trace(
        iterates=full.iterates[:11],
        controls=full.controls[:10],
        relaxations=full.relaxations[:10],
        checkpoints=[c for c in full.checkpoints if c[0] <= 10],
        stop_reason="max_iter",
    )
    cert = certify_fixed_points(cut, [op])
    assert cert.status == "inconclusive"
    assert cert.entries == ()
    assert not cert


def test_a_tighter_tol_than_the_run_stopped_at_is_no_violation():
    # converged at tol 1e-6 after 40 halving steps, with max residual
    # 2**-20 at (-2**-20, -2**-20): a tighter tol judges the tail instead
    ops = two_halfspace_ops()
    trace = acsa_run(ops, CyclicControl(2), ConstantRelaxation(0.5), [-1.0, -1.0],
                     StopRule(tol=1e-6, max_iter=1000, stride=1))
    assert (trace.n_steps, trace.stop_reason) == (40, "converged")
    assert certify_fixed_points(trace, ops, tol=1e-6).status == "certified"
    cert = certify_fixed_points(trace, ops, tol=1e-9)
    assert (cert.status, cert.entries, cert.estimate.convergent) == ("inconclusive", (), False)


def test_certify_no_followed_operator_is_inconclusive():
    # the stall provides candidates but no witnesses for a foreign operator
    trace = constant_trace([5.0, 5.0], 10, lam=0.0)
    cert = certify_fixed_points(trace, two_halfspace_ops())
    assert cert.status == "inconclusive"


def test_certify_flags_inconsistent_trace():
    # one genuine projection step grafted onto a stalled tail: the trace
    # claims to follow the operator yet settles off its fixed-point set
    op = Halfspace([-1.0, 0.0], 0.0)
    bad = np.array([-2.0, 0.0])
    iterates = [bad.copy(), np.array([0.0, 0.0])] + [bad.copy() for _ in range(14)]
    trace = Trace(
        iterates=iterates,
        controls=[1] * 15,
        relaxations=[1.0] * 15,
        checkpoints=[(0, 2.0)],
        stop_reason="max_iter",
    )
    cert = certify_fixed_points(trace, [op])
    assert cert.status == "violation"
    assert any(not e["ok"] for e in cert.entries)


def _fuzz_instance(k, rng):
    """Run k of a seeded corpus: feasible half-spaces, radius-1 balls that
    may not meet, or hyperplanes through the origin, in turn, under an
    almost-cyclic control, with a cap that may stop the run early."""
    dim, m = int(rng.integers(2, 5)), int(rng.integers(2, 6))
    if k % 3 == 0:
        ops, _ = random_feasible_instance(dim, m, rng)
    elif k % 3 == 1:
        c0 = rng.normal(size=dim)
        ops = [Ball(c0 + 0.5 * rng.normal(size=dim), 1.0) for _ in range(m)]
    else:
        e1 = np.eye(dim)[0]
        ops = [Hyperplane(e1 + 0.1 * rng.normal(size=dim), 0.0) for _ in range(m)]
    ctrl = AlmostCyclicControl(random_almost_cyclic_pattern(m, rng), m)
    x0 = rng.normal(size=dim) * float(rng.choice([1.0, 10.0, 100.0]))
    stop = StopRule(tol=float(rng.choice([1e-6, 1e-9, 1e-12])),
                    max_iter=int(rng.integers(5, 3000)), stride=int(rng.integers(1, 20)))
    lam = float(rng.choice([0.5, 1.0, 1.5]))
    return ops, acsa_run(ops, ctrl, ConstantRelaxation(lam), x0, stop)


def test_no_correct_operator_gives_violation_on_a_seeded_corpus():
    # projections are nonexpansive, so a violation here would blame a
    # correct operator for a run that was cut off while its tail drifted
    rng = np.random.default_rng(1)
    capped, verdicts = 0, {}
    for k in range(200):
        ops, trace = _fuzz_instance(k, rng)
        capped += not trace.converged
        cert = certify_fixed_points(trace, ops)
        verdicts.setdefault(cert.status, []).append(k)
    assert capped >= 50 and "certified" in verdicts
    assert "violation" not in verdicts, verdicts["violation"]


def test_certify_respects_coverage_eligibility():
    # alternating projections between x1 <= 0 and x1 >= 5, certified against
    # the first operator only: every other step is a genuine witness
    # (min_c = 2), but both candidates recur in runs of one, shorter than
    # the witness window, so neither pairing is covered and no claim is
    # made about the off-set candidate (5, 0)
    checked = Halfspace([1.0, 0.0], 0.0)
    other = Halfspace([-1.0, 0.0], -5.0)
    x = np.array([5.0, 0.0])
    iterates = [x.copy()]
    for i in range(40):
        x = (checked if i % 2 == 0 else other).apply(x)
        iterates.append(x.copy())
    trace = Trace(
        iterates=iterates,
        controls=[1, 2] * 20,
        relaxations=[1.0] * 40,
        checkpoints=[(0, 5.0)],
        stop_reason="max_iter",
    )
    rep = follows_check(trace, checked)
    assert rep.min_c == 2
    cert = certify_fixed_points(trace, [checked])
    assert cert.status == "inconclusive"
    assert len(cert.candidates) == 2


def test_certify_on_random_feasible_runs():
    rng = np.random.default_rng(11)
    for _ in range(5):
        ops, _ = random_feasible_instance(3, 6, rng)
        pattern = random_almost_cyclic_pattern(6, rng)
        trace = acsa_run(ops, AlmostCyclicControl(pattern), ConstantRelaxation(1.0),
                         rng.uniform(-5, 5, size=3), StopRule(tol=1e-8, max_iter=5000))
        assert trace.converged
        cert = certify_fixed_points(trace, ops, tol=1e-5)
        assert cert.status == "certified"


# ---------------------------------------------------------------------------
# JSON


def test_report_json_round():
    ops, trace = two_halfspace_trace()
    rep = follows_check(trace, ops[0], label=1)
    blob = json.dumps(follows_report_json(rep))
    data = json.loads(blob)
    assert data["operator"] == 1
    assert data["min_c"] == 2
    assert data["steps"] == [[0, 1]]  # one run: step 0, length 1


def test_estimate_json_inf_marker():
    ops, trace = two_halfspace_trace()
    data = json.loads(json.dumps(limit_estimate_json(cogap_limit_estimate(trace))))
    assert data["convergent"] is True
    assert data["candidates"][0]["estimate"] == "inf"
    assert data["classical_limit"] == [0.0, 0.0]

    bounce = json.loads(json.dumps(limit_estimate_json(cogap_limit_estimate(bounce_sequence(50)))))
    assert bounce["classical_limit"] is None
    assert bounce["candidates"][0]["estimate"] == 1


def test_certification_json():
    ops, trace = two_halfspace_trace()
    cert = certify_fixed_points(trace, ops)
    data = json.loads(json.dumps(certification_json(cert)))
    assert set(data) == {"status", "entries"}
    assert data["status"] == "certified"
    assert data["entries"][0]["ok"] is True
    # the entries index the candidates of the estimate, stated there once
    points = [c["point"] for c in limit_estimate_json(cert.estimate)["candidates"]]
    assert points == [[0.0, 0.0]]
    for entry in data["entries"]:
        assert points[entry["candidate"]] == [0.0, 0.0]


def test_default_ladder_shape():
    assert DEFAULT_LADDER[0] == 0.1
    assert all(a > b for a, b in zip(DEFAULT_LADDER, DEFAULT_LADDER[1:]))
