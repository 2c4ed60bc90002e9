"""Cutter operators and the sequential projection iteration over R^J.

Operators are exact closed-form projections (half-space, hyperplane, ball,
box, affine equality) plus the subgradient projector for piecewise-affine
convex level sets, with averaging and relaxation wrappers.  The iteration
x_{n+1} = x_n + lambda_n (T_{i(n)}(x_n) - x_n) runs under cyclic,
almost-cyclic, or explicit index controls and records a full replayable
trace.

Operator indices are 1-based in every public artifact (patterns, trace
records, reports) and 0-based only inside internal lists.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .intseq import window_cover

FIX_TOL = 1e-9


def _vec(x, dim=None):
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError("points are flat coordinate vectors")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"expected dimension {dim}, got {v.shape[0]}")
    if not np.isfinite(v).all():
        raise ValueError("points must be finite")
    return v


def _integer(value, what):
    """An integer read from input: 1.5, NaN, true or "3" is an error, not
    a truncation."""
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()
    ):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


class Operator:
    """Base operator on R^J with a declared cutter flag and fix oracle."""

    kind = "abstract"
    is_cutter = True
    demiclosed_at_zero = True

    def __init__(self, dim):
        self.dim = int(dim)
        if self.dim < 1:
            raise ValueError("dimension must be positive")

    def apply(self, x):
        raise NotImplementedError

    def __call__(self, x):
        return self.apply(_vec(x, self.dim))

    def fix_residual(self, x):
        x = _vec(x, self.dim)
        return float(np.linalg.norm(self.apply(x) - x))

    def in_fix(self, x, tol=FIX_TOL):
        return self.fix_residual(x) <= tol


class _AffineCut(Operator):
    """Data shared by the half-space and hyperplane projections: a nonzero
    normal vector a and an offset b."""

    def __init__(self, a, b):
        a = _vec(a)
        super().__init__(a.shape[0])
        self.norm2 = float(a @ a)
        if self.norm2 == 0.0:
            raise ValueError("the normal vector must be nonzero")
        self.a = a
        self.b = float(b)

    def __repr__(self):
        return f"{type(self).__name__}(a={self.a.tolist()}, b={self.b})"


class Halfspace(_AffineCut):
    """Projection onto {u : <a,u> <= b}."""

    kind = "halfspace"

    def apply(self, x):
        slack = float(self.a @ x) - self.b
        if slack <= 0.0:
            return x
        return x - (slack / self.norm2) * self.a


class Hyperplane(_AffineCut):
    """Projection onto {u : <a,u> = b}."""

    kind = "hyperplane"

    def apply(self, x):
        return x - ((float(self.a @ x) - self.b) / self.norm2) * self.a


class Ball(Operator):
    """Projection onto a closed Euclidean ball."""

    kind = "ball"

    def __init__(self, center, radius):
        center = _vec(center)
        super().__init__(center.shape[0])
        if not radius > 0:
            raise ValueError("the radius must be positive")
        self.center = center
        self.radius = float(radius)

    def apply(self, x):
        d = x - self.center
        dist = float(np.linalg.norm(d))
        if dist <= self.radius:
            return x
        return self.center + (self.radius / dist) * d

    def __repr__(self):
        return f"Ball(center={self.center.tolist()}, radius={self.radius})"


class Box(Operator):
    """Componentwise clip onto [lo, hi]."""

    kind = "box"

    def __init__(self, lo, hi):
        lo, hi = _vec(lo), _vec(hi)
        if lo.shape != hi.shape:
            raise ValueError("bound shapes differ")
        if not (lo <= hi).all():
            raise ValueError("need lo <= hi componentwise")
        super().__init__(lo.shape[0])
        self.lo = lo
        self.hi = hi

    def apply(self, x):
        return np.clip(x, self.lo, self.hi)

    def __repr__(self):
        return f"Box(lo={self.lo.tolist()}, hi={self.hi.tolist()})"


class AffineEquality(Operator):
    """Projection onto {u : Au = d} with A of full row rank."""

    kind = "affine"

    def __init__(self, A, d):
        A = np.asarray(A, dtype=float)
        d = _vec(d)
        if A.ndim != 2 or A.shape[0] != d.shape[0]:
            raise ValueError("matrix and right-hand side shapes differ")
        if not np.isfinite(A).all():
            raise ValueError("matrix entries must be finite")
        super().__init__(A.shape[1])
        gram = A @ A.T
        try:
            np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            raise ValueError("the matrix must have full row rank") from None
        self.A = A
        self.d = d
        # pseudo-inverse factor: x - M (Ax - d) lands on the flat
        self.M = np.linalg.solve(gram, A).T

    def apply(self, x):
        return x - self.M @ (self.A @ x - self.d)

    def __repr__(self):
        return f"AffineEquality(A={self.A.tolist()}, d={self.d.tolist()})"


class SubgradientProjector(Operator):
    """Subgradient projector onto {f <= 0} for f = max of affine pieces.

    At x with f(x) > 0 the step is x - f(x)/|g|^2 g with g the slope of
    the lowest-index maximizing piece.  A cutter, but not firmly
    nonexpansive in general (the map is discontinuous across piece seams).
    """

    kind = "subgradient_projector"

    def __init__(self, slopes, offsets):
        slopes = np.asarray(slopes, dtype=float)
        offsets = np.asarray(offsets, dtype=float)
        if slopes.ndim != 2 or slopes.shape[0] != offsets.shape[0]:
            raise ValueError("slope and offset shapes differ")
        if slopes.shape[0] == 0:
            raise ValueError("need at least one affine piece")
        if not (np.isfinite(slopes).all() and np.isfinite(offsets).all()):
            raise ValueError("pieces must be finite")
        for k in range(slopes.shape[0]):
            if not slopes[k].any() and offsets[k] > 0:
                raise ValueError(
                    f"piece {k} is the positive constant {offsets[k]}: level set empty"
                )
        super().__init__(slopes.shape[1])
        self.slopes = slopes
        self.offsets = offsets

    def value(self, x):
        return float(np.max(self.slopes @ x + self.offsets))

    def apply(self, x):
        vals = self.slopes @ x + self.offsets
        fx = float(vals.max())
        if fx <= 0.0:
            return x
        k = int(np.argmax(vals))  # lowest index among maximizers
        g = self.slopes[k]
        return x - (fx / float(g @ g)) * g

    def __repr__(self):
        return (
            f"SubgradientProjector(slopes={self.slopes.tolist()}, "
            f"offsets={self.offsets.tolist()})"
        )


class Averaged(Operator):
    """Midpoint of the identity and an inner operator."""

    kind = "firmly_nonexpansive_avg"

    def __init__(self, inner):
        super().__init__(inner.dim)
        self.inner = inner
        self.is_cutter = inner.is_cutter
        self.demiclosed_at_zero = inner.demiclosed_at_zero

    def apply(self, x):
        return 0.5 * (x + self.inner.apply(x))

    def in_fix(self, x, tol=FIX_TOL):
        return self.inner.in_fix(x, tol)

    def __repr__(self):
        return f"Averaged({self.inner!r})"


class Relaxed(Operator):
    """x + lambda (T(x) - x) for a fixed lambda in [0, 2]."""

    kind = "relaxed"

    def __init__(self, inner, lam):
        lam = float(lam)
        if not 0.0 <= lam <= 2.0:
            raise ValueError("the relaxation parameter must lie in [0, 2]")
        super().__init__(inner.dim)
        self.inner = inner
        self.lam = lam
        # the cutter property survives relaxation only up to lambda = 1
        self.is_cutter = inner.is_cutter and lam <= 1.0
        self.demiclosed_at_zero = inner.demiclosed_at_zero

    def apply(self, x):
        if self.lam == 0.0:
            return x
        return x + self.lam * (self.inner.apply(x) - x)

    def in_fix(self, x, tol=FIX_TOL):
        if self.lam == 0.0:
            return True
        return self.inner.in_fix(x, tol)

    def __repr__(self):
        return f"Relaxed({self.inner!r}, lam={self.lam})"


def relax(op, lam):
    return Relaxed(op, lam)


def cutter_check(op, x, z, tol=1e-10):
    """<T(x) - x, T(x) - z> <= 0 for a fixed point z."""
    x = _vec(x, op.dim)
    z = _vec(z, op.dim)
    if not op.in_fix(z):
        raise ValueError("the reference point is not a fixed point")
    tx = op.apply(x)
    return float((tx - x) @ (tx - z)) <= tol


def fne_check(op, x, y, tol=1e-10):
    """|T(x) - T(y)|^2 <= <T(x) - T(y), x - y>."""
    x = _vec(x, op.dim)
    y = _vec(y, op.dim)
    d = op.apply(x) - op.apply(y)
    return float(d @ d) <= float(d @ (x - y)) + tol


# ---------------------------------------------------------------------------
# controls


class ControlExhausted(Exception):
    pass


class Control:
    kind = "abstract"

    def label(self, n) -> int:
        """1-based operator index at step n (n counts from 0)."""
        raise NotImplementedError


class CyclicControl(Control):
    kind = "cyclic"

    def __init__(self, m):
        self.m = int(m)
        if self.m < 1:
            raise ValueError("need at least one operator")

    def label(self, n):
        return n % self.m + 1

    def __repr__(self):
        return f"CyclicControl(m={self.m})"


def _labels(labels, m, what):
    """Nonempty 1-based labels as a tuple, and the operator count m they
    range over (their maximum when m is not given)."""
    labels = tuple(_integer(i, "a control label") for i in labels)
    if not labels:
        raise ValueError(f"the {what} must be nonempty")
    m = int(m) if m is not None else max(labels)
    for i in labels:
        if not 1 <= i <= m:
            raise ValueError(f"label {i} outside 1..{m}")
    return labels, m


class AlmostCyclicControl(Control):
    """A finite pattern of 1-based labels repeated forever."""

    kind = "almost_cyclic"

    def __init__(self, pattern, m=None):
        self.pattern, self.m = _labels(pattern, m, "pattern")

    def label(self, n):
        return self.pattern[n % len(self.pattern)]

    def __repr__(self):
        return f"AlmostCyclicControl(pattern={self.pattern}, m={self.m})"


class ExplicitControl(Control):
    """A finite list of labels; running past the end stops the solver."""

    kind = "explicit"

    def __init__(self, indices, m=None):
        self.indices, self.m = _labels(indices, m, "index list")

    def label(self, n):
        if n >= len(self.indices):
            raise ControlExhausted(n)
        return self.indices[n]

    def __repr__(self):
        return f"ExplicitControl(indices={self.indices}, m={self.m})"


def _window_constant(labels, m, cyclic):
    """Smallest window length covering every label, by gap analysis."""
    worst = 0
    for j in range(1, m + 1):
        pos = [k for k, i in enumerate(labels) if i == j]
        if not pos:
            raise ValueError(f"operator {j} never appears: no finite window constant")
        worst = max(worst, window_cover(pos, len(labels), cyclic))
    return worst


def control_validate(ctrl, m=None, horizon=None):
    """Minimal validated almost-cyclicality constant of a control."""
    m = ctrl.m if m is None else int(m)
    if m != ctrl.m:
        raise ValueError(f"control covers {ctrl.m} operators, problem has {m}")
    if isinstance(ctrl, CyclicControl):
        return ctrl.m
    if isinstance(ctrl, AlmostCyclicControl):
        c = _window_constant(ctrl.pattern, m, cyclic=True)
    elif isinstance(ctrl, ExplicitControl):
        c = _window_constant(ctrl.indices, m, cyclic=False)
        if len(ctrl.indices) < 2 * c:
            raise ValueError("the index list is too short to certify its window constant")
    else:
        raise TypeError(f"unknown control {ctrl!r}")
    if horizon is not None and horizon < 2 * c:
        raise ValueError("the horizon is too short to certify the window constant")
    return c


# ---------------------------------------------------------------------------
# relaxation schedules


class ConstantRelaxation:
    kind = "constant"

    def __init__(self, value=1.0):
        value = float(value)
        if not 0.0 <= value <= 2.0:
            raise ValueError("relaxation parameters live in [0, 2]")
        self.value = value

    def lam(self, n):
        return self.value

    def bounds(self):
        return (self.value, self.value)

    def __repr__(self):
        return f"ConstantRelaxation({self.value})"


class CyclicRelaxation:
    kind = "cyclic"

    def __init__(self, values):
        self.values = tuple(float(v) for v in values)
        if not self.values:
            raise ValueError("need at least one relaxation value")
        for v in self.values:
            if not 0.0 <= v <= 2.0:
                raise ValueError("relaxation parameters live in [0, 2]")

    def lam(self, n):
        return self.values[n % len(self.values)]

    def bounds(self):
        return (min(self.values), max(self.values))

    def __repr__(self):
        return f"CyclicRelaxation({self.values})"


# ---------------------------------------------------------------------------
# the iteration


@dataclass
class StopRule:
    tol: float = 1e-6
    max_iter: int = 100000
    stride: int = 10

    def __post_init__(self):
        if not 0 <= self.tol < math.inf or self.max_iter < 0 or self.stride < 1:
            raise ValueError("bad stop rule")


class AcsaDivergence(Exception):
    pass


@dataclass
class Trace:
    iterates: list  # numpy vectors x_0 .. x_N
    controls: list = field(default_factory=list)  # 1-based label per step
    relaxations: list = field(default_factory=list)
    residuals: list = field(default_factory=list)  # per-step |T(x_n) - x_n|
    checkpoints: list = field(default_factory=list)  # (n, max residual)
    converged: bool = False
    stop_reason: str = ""

    @property
    def final(self):
        return self.iterates[-1]

    @property
    def n_steps(self):
        return len(self.iterates) - 1


def _max_residual(ops, x):
    return max(op.fix_residual(x) for op in ops)


def acsa_run(ops, ctrl, relaxation, x0, stop=None):
    """Runs the sequential iteration until a checkpoint meets the residual
    tolerance, the iteration cap, or an explicit control runs out."""
    ops = list(ops)
    if not ops:
        raise ValueError("need at least one operator")
    dim = ops[0].dim
    for op in ops:
        if op.dim != dim:
            raise ValueError("operator dimensions differ")
    if ctrl.m != len(ops):
        raise ValueError(f"control covers {ctrl.m} operators, problem has {len(ops)}")
    stop = stop or StopRule()
    x = _vec(x0, dim)

    trace = Trace(iterates=[x])
    n = 0
    while True:
        at_cap = n >= stop.max_iter
        if n % stop.stride == 0 or at_cap:
            maxres = _max_residual(ops, x)
            trace.checkpoints.append((n, maxres))
            if maxres <= stop.tol:
                trace.converged = True
                trace.stop_reason = "converged"
                break
        if at_cap:
            trace.stop_reason = "max_iter"
            break
        try:
            label = ctrl.label(n)
        except ControlExhausted:
            if not trace.checkpoints or trace.checkpoints[-1][0] != n:
                trace.checkpoints.append((n, _max_residual(ops, x)))
            trace.stop_reason = "control_exhausted"
            break
        lam = relaxation.lam(n)
        if not 0.0 <= lam <= 2.0:
            raise ValueError(f"relaxation {lam} at step {n} outside [0, 2]")
        tx = ops[label - 1].apply(x)
        step = tx - x
        x_next = x + lam * step
        if not np.isfinite(x_next).all():
            raise AcsaDivergence(
                f"non-finite iterate at step {n} (operator {label}, lambda {lam})"
            )
        trace.controls.append(label)
        trace.relaxations.append(lam)
        trace.residuals.append(float(np.linalg.norm(step)))
        trace.iterates.append(x_next)
        x = x_next
        n += 1
    return trace


def replay_trace(ops, trace):
    """Re-executes the recurrence over a stored trace; returns the largest
    deviation from the recorded iterates and step residuals.  The iterates
    must share the start point's dimension, as acsa_run and
    trace_from_records guarantee; a label outside 1..m is an error."""
    x = _vec(trace.iterates[0], ops[0].dim)
    worst = 0.0
    for k, (label, lam) in enumerate(zip(trace.controls, trace.relaxations)):
        if not 1 <= label <= len(ops):
            raise ValueError(f"step {k + 1} names operator {label}, outside 1..{len(ops)}")
        step = ops[label - 1].apply(x) - x
        x = x + lam * step
        dev = float(np.linalg.norm(x - trace.iterates[k + 1]))
        res_dev = abs(float(np.linalg.norm(step)) - trace.residuals[k])
        worst = max(worst, dev, res_dev)
    return worst


def fejer_slack(trace, z):
    """Largest per-step increase of the distance to z (negative means the
    distances strictly decrease)."""
    z = np.asarray(z, dtype=float)
    worst = -np.inf
    for a, b in zip(trace.iterates, trace.iterates[1:]):
        before = float(np.linalg.norm(a - z))
        after = float(np.linalg.norm(b - z))
        worst = max(worst, after - before)
    return worst


# ---------------------------------------------------------------------------
# random instances


def random_feasible_instance(dim, m, rng, radius=0.1, margin=0.5):
    """Half-space problem built around a known interior ball.

    Returns (operators, center): each half-space contains the closed ball
    of the given radius around the center, so the intersection is fat and
    the center is a strict interior solution.
    """
    center = rng.normal(size=dim)
    ops = []
    for _ in range(m):
        a = rng.normal(size=dim)
        a = a / np.linalg.norm(a)
        b = float(a @ center) + radius + float(rng.uniform(0.0, margin))
        ops.append(Halfspace(a, b))
    return ops, center


def random_almost_cyclic_pattern(m, rng):
    """A pattern hitting every operator, with window constant at most 2m."""
    pattern = list(range(1, m + 1))
    rng.shuffle(pattern)
    extras = int(rng.integers(0, m + 1))
    for _ in range(extras):
        pos = int(rng.integers(0, len(pattern) + 1))
        pattern.insert(pos, int(rng.integers(1, m + 1)))
    return tuple(pattern)


# ---------------------------------------------------------------------------
# JSON


# kind -> the class and, in constructor order, each JSON field with the
# attribute that holds it; an "inner" field holds a nested operator
_OPERATOR_JSON = {
    "halfspace": (Halfspace, {"a": "a", "b": "b"}),
    "hyperplane": (Hyperplane, {"a": "a", "b": "b"}),
    "ball": (Ball, {"center": "center", "radius": "radius"}),
    "box": (Box, {"lo": "lo", "hi": "hi"}),
    "affine": (AffineEquality, {"A": "A", "d": "d"}),
    "subgradient_projector": (SubgradientProjector, {"slopes": "slopes", "offsets": "offsets"}),
    "firmly_nonexpansive_avg": (Averaged, {"inner": "inner"}),
    "relaxed": (Relaxed, {"inner": "inner", "lambda": "lam"}),
}
_CONTROL_JSON = {
    "cyclic": (CyclicControl, {}),
    "almost_cyclic": (AlmostCyclicControl, {"pattern": "pattern"}),
    "explicit": (ExplicitControl, {"indices": "indices"}),
}
_RELAXATION_JSON = {
    "constant": (ConstantRelaxation, {"value": "value"}),
    "cyclic": (CyclicRelaxation, {"values": "values"}),
}


def _to_json(table, what, obj):
    if obj.kind not in table:
        raise ValueError(f"{what} kind {obj.kind!r} has no JSON form")
    out = {"kind": obj.kind}
    for key, attr in table[obj.kind][1].items():
        value = getattr(obj, attr)
        # arrays, tuples and floats all become plain JSON lists and numbers
        out[key] = operator_to_json(value) if key == "inner" else np.asarray(value).tolist()
    return out


def _from_json(table, what, obj, normalize=False):
    """The class of ``obj``'s kind and its constructor arguments."""
    kind = obj["kind"]
    if kind not in table:
        raise ValueError(f"unknown {what} kind {kind!r}")
    cls, fields = table[kind]
    args = [
        operator_from_json(obj[key], normalize) if key == "inner" else obj[key]
        for key in fields
    ]
    return cls, args


def operator_to_json(op):
    return _to_json(_OPERATOR_JSON, "operator", op)


def operator_from_json(obj, normalize=False):
    cls, args = _from_json(_OPERATOR_JSON, "operator", obj, normalize)
    if normalize and cls in (Halfspace, Hyperplane):
        a, b = np.asarray(args[0], dtype=float), float(args[1])
        scale = np.linalg.norm(a)
        if scale == 0:
            raise ValueError("the normal vector must be nonzero")
        args = [a / scale, b / scale]
    return cls(*args)


def control_to_json(ctrl):
    return _to_json(_CONTROL_JSON, "control", ctrl)


def control_from_json(obj, m):
    cls, args = _from_json(_CONTROL_JSON, "control", obj)
    return cls(*args, m)


def relaxation_to_json(sched):
    return _to_json(_RELAXATION_JSON, "relaxation", sched)


def relaxation_from_json(obj):
    cls, args = _from_json(_RELAXATION_JSON, "relaxation", obj)
    return cls(*args)


def problem_to_json(ops, ctrl, sched, x0, stop):
    return {
        "dim": ops[0].dim,
        "operators": [operator_to_json(op) for op in ops],
        "control": control_to_json(ctrl),
        "relaxation": relaxation_to_json(sched),
        "x0": list(np.asarray(x0, dtype=float)),
        "stop": {"tol": stop.tol, "max_iter": stop.max_iter, "stride": stop.stride},
    }


def problem_from_json(obj, normalize=False):
    if not isinstance(obj, dict):
        raise ValueError("a problem is a JSON object")
    ops = [operator_from_json(o, normalize) for o in obj.get("operators", [])]
    if not ops:
        raise ValueError("the operator list is empty")
    dim = _integer(obj["dim"], "dim")
    for op in ops:
        if op.dim != dim:
            raise ValueError("operator dimensions disagree with the problem")
    ctrl = control_from_json(obj["control"], len(ops))
    sched = relaxation_from_json(obj.get("relaxation", {"kind": "constant", "value": 1.0}))
    x0 = _vec(obj["x0"], dim)
    s = obj.get("stop", {})
    if not isinstance(s, dict):
        raise ValueError("the stop rule is a JSON object")
    stop = StopRule(
        tol=float(s.get("tol", 1e-6)),
        max_iter=_integer(s.get("max_iter", 100000), "max_iter"),
        stride=_integer(s.get("stride", 10), "stride"),
    )
    return ops, ctrl, sched, x0, stop


def trace_records(trace):
    """Flat per-iterate records: the first carries only the start point."""
    records = [{"n": 0, "x": list(map(float, trace.iterates[0]))}]
    for k in range(trace.n_steps):
        records.append(
            {
                "n": k + 1,
                "i": trace.controls[k],
                "lambda": trace.relaxations[k],
                "x": list(map(float, trace.iterates[k + 1])),
                "res": trace.residuals[k],
            }
        )
    return records


def trace_from_records(records):
    """Inverse of trace_records.  Every point must be finite and share the
    start point's dimension, and every relaxation must lie in [0, 2]."""
    records = list(records)
    if not all(isinstance(rec, dict) for rec in records):
        raise ValueError("trace records must be JSON objects")
    if not records or records[0].get("n") != 0:
        raise ValueError("trace records must start at n = 0")
    iterates = [_vec(records[0]["x"])]
    shape = iterates[0].shape
    controls, relaxations, residuals = [], [], []
    for k, rec in enumerate(records[1:], start=1):
        if rec.get("n") != k:
            raise ValueError(f"trace records out of order at {rec.get('n')!r}")
        x = np.asarray(rec["x"], dtype=float)
        if x.shape != shape:
            raise ValueError(f"point {k} has shape {x.shape}, the start point dimension {shape}")
        lam = float(rec["lambda"])
        if not 0.0 <= lam <= 2.0:
            raise ValueError(f"relaxation {lam} at step {k} outside [0, 2]")
        iterates.append(x)
        controls.append(_integer(rec["i"], f"the label at step {k}"))
        relaxations.append(lam)
        residuals.append(float(rec["res"]))
    if not np.isfinite(iterates).all():
        raise ValueError("trace points must be finite")
    return Trace(
        iterates=iterates,
        controls=controls,
        relaxations=relaxations,
        residuals=residuals,
    )


def trace_summary(ops, trace):
    x = trace.final
    return {
        "final": list(map(float, x)),
        "iterations": trace.n_steps,
        "max_residual": _max_residual(ops, x),
        "converged": trace.converged,
        "stop_reason": trace.stop_reason,
    }
