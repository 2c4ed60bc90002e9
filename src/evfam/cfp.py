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


def _floats(x):
    """x as a float array: strings, booleans and null are errors, not casts."""
    v = np.asarray(x)
    # a list mixing booleans with numbers still gets a numeric dtype
    mixed = isinstance(x, list) and bool in map(type, np.asarray(x, dtype=object).flat)
    if mixed or v.dtype.kind not in "iuf":
        raise ValueError("coordinates must be JSON numbers")
    return v.astype(float, copy=False)


def _vec(x, dim=None):
    v = _floats(x)
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


def _number(value, what, lo=-math.inf, hi=math.inf):
    """A real number in [lo, hi] read from input: "1", true, null and NaN
    are errors, not casts."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not lo <= value <= hi:
        bounds = "" if (lo, hi) == (-math.inf, math.inf) else f" in [{lo:g}, {hi:g}]"
        raise ValueError(f"{what} must be a number{bounds}, got {value!r}")
    return float(value)


def row_distances(points, ref):
    """Euclidean distance from each row of ``points`` to ``ref`` (a point,
    or a matrix of one point per row), equal bit for bit to
    ``np.linalg.norm`` taken row by row: each row's dot product is a
    (1, J) @ (J, 1) matmul, the same dot kernel norm uses."""
    d = np.asarray(points, dtype=float) - ref
    return np.sqrt(np.matmul(d[:, None, :], d[:, :, None]))[:, 0, 0]


class Operator:
    """Base operator T on R^J with a fix oracle, |T(x) - x| <= tol.

    Certification assumes that I - T is demiclosed at 0, as it is for
    every shipped operator, so that a limit of points whose residual
    vanishes is a fixed point.
    """

    kind = "abstract"

    def __init__(self, dim):
        self.dim = int(dim)
        if self.dim < 1:
            raise ValueError("dimension must be positive")

    def apply(self, x):
        raise NotImplementedError

    def apply_many(self, X):
        """apply to each row of a float (N, J) array.  Closed forms override
        this with one array pass, equal bit for bit to this row loop."""
        return np.array([self.apply(x) for x in X]).reshape(X.shape)

    def __call__(self, x):
        return self.apply(_vec(x, self.dim))

    def fix_residual(self, x):
        return _residual(self, _vec(x, self.dim))

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
        self.b = _number(b, "the offset b")

    def _slacks(self, X):
        """<a, x> - b for each row x of X, bit for bit float(a @ x) - b: each
        row's dot product is a (1, J) @ (J, 1) matmul, the 1-D product's
        dot kernel."""
        return np.matmul(X[:, None, :], self.a[:, None])[:, 0, 0] - self.b

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

    def apply_many(self, X):
        slack = self._slacks(X)
        cut = ~(slack <= 0.0)  # a NaN slack cuts, as in apply
        out = X.copy()
        out[cut] -= (slack[cut] / self.norm2)[:, None] * self.a
        return out


class Hyperplane(_AffineCut):
    """Projection onto {u : <a,u> = b}."""

    kind = "hyperplane"

    def apply(self, x):
        return x - ((float(self.a @ x) - self.b) / self.norm2) * self.a

    def apply_many(self, X):
        return X - (self._slacks(X) / self.norm2)[:, None] * self.a


class Ball(Operator):
    """Projection onto a closed Euclidean ball."""

    kind = "ball"

    def __init__(self, center, radius):
        center = _vec(center)
        super().__init__(center.shape[0])
        radius = _number(radius, "the radius")
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

    def apply_many(self, X):
        d = X - self.center
        dist = row_distances(d, 0.0)
        far = ~(dist <= self.radius)
        out = X.copy()
        out[far] = self.center + (self.radius / dist[far])[:, None] * d[far]
        return out

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

    apply_many = apply

    def __repr__(self):
        return f"Box(lo={self.lo.tolist()}, hi={self.hi.tolist()})"


class AffineEquality(Operator):
    """Projection onto {u : Au = d} with A of full row rank."""

    kind = "affine"

    def __init__(self, A, d):
        A = _floats(A)
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
        slopes = _floats(slopes)
        offsets = _floats(offsets)
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

    def apply(self, x):
        return 0.5 * (x + self.inner.apply(x))

    def apply_many(self, X):
        return 0.5 * (X + self.inner.apply_many(X))

    def __repr__(self):
        return f"Averaged({self.inner!r})"


class Relaxed(Operator):
    """x + lambda (T(x) - x) for a fixed lambda in [0, 2]."""

    kind = "relaxed"

    def __init__(self, inner, lam):
        lam = _number(lam, "the relaxation parameter", 0.0, 2.0)
        super().__init__(inner.dim)
        self.inner = inner
        self.lam = lam

    def apply(self, x):
        if self.lam == 0.0:
            return x
        return x + self.lam * (self.inner.apply(x) - x)

    def apply_many(self, X):
        if self.lam == 0.0:
            return X
        return X + self.lam * (self.inner.apply_many(X) - X)

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
        self.value = _number(value, "a relaxation parameter", 0.0, 2.0)

    def lam(self, n):
        return self.value

    def bounds(self):
        return (self.value, self.value)

    def __repr__(self):
        return f"ConstantRelaxation({self.value})"


class CyclicRelaxation:
    kind = "cyclic"

    def __init__(self, values):
        self.values = tuple(_number(v, "a relaxation parameter", 0.0, 2.0) for v in values)
        if not self.values:
            raise ValueError("need at least one relaxation value")

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


@dataclass(eq=False)
class Trace:
    """A run as a struct of arrays; lists given to the constructor are
    converted."""

    iterates: np.ndarray  # (N+1, J) float: row n is x_n
    controls: np.ndarray = ()  # (N,) int: 1-based operator label of step n
    relaxations: np.ndarray = ()  # (N,) float: lambda_n
    residuals: np.ndarray = ()  # (N,) float: |T(x_n) - x_n|
    checkpoints: list = field(default_factory=list)  # (n, max residual)
    converged: bool = False
    stop_reason: str = ""

    def __post_init__(self):
        self.iterates = np.asarray(self.iterates, dtype=float)
        self.controls = np.asarray(self.controls, dtype=int)
        self.relaxations = np.asarray(self.relaxations, dtype=float)
        self.residuals = np.asarray(self.residuals, dtype=float)

    @property
    def final(self):
        return self.iterates[-1]

    @property
    def n_steps(self):
        return len(self.iterates) - 1


def _residual(op, x):
    """|T(x) - x| for a float point x of the operator's dimension."""
    return float(np.linalg.norm(op.apply(x) - x))


_U = 2.0**-53  # unit roundoff of float64
# a banked normal keeps a.a this far inside the float range, so that a.a,
# |a| and the step (slack / a.a) a carry only relative rounding errors
_BANK_NORM2 = (2.0**-200, 2.0**200)
# covers the absolute errors of gradual underflow: at most about
# sqrt(J 2^-1074) ~ sqrt(J) 1e-162 from a squared norm that underflows
_UNDERFLOW = 2.0**-500


class ResidualBank:
    """max over ops of |T(x) - x|, equal bit for bit to the scalar loop
    ``max(_residual(op, x) for op in ops)``.

    Half-spaces and hyperplanes (exact types: a subclass may override
    ``apply``) are stacked into (A, b, |a|), and one mat-vec gives each a
    residual max(0, Ax - b)/|a| or |Ax - b|/|a|.  These values are only a
    filter: every banked operator that could hold the maximum, and every
    other operator, is evaluated again with ``_residual``, and the maximum
    of those is the answer.

    Error bound, with u the unit roundoff and sigma = <a, x> - b exact.
    Either path computes the slack with error at most
    e = (J + 2) u (|a|.|x| + |b|), for any summation order of the dot
    product.  The bank's r = slack+ / |a| (|slack| / |a| for a hyperplane)
    then differs from sigma+ / |a| by at most e/|a| + (J/2 + 3) u r.  The
    scalar path either finds slack <= 0 at a half-space and returns
    exactly 0 (then sigma <= e), or forms
    t = slack / a.a, v = t a, d = (x - v) - x and |d| = sqrt(d.d), which
    adds relative errors of (J + 2) u on |v| and (J/2 + 1) u on |d|, and
    at most u (|x| + 2|v|) from the cancellation in d.  So the scalar
    residual rho differs from r by at most
        2 (J + 2) u (|a|.|x| + |b|)/|a| + (2J + 9) u r + u |x|_2
    to first order, and delta = 4 (J + 4) u ((|a|.|x| + |b|)/|a| + r +
    |x|_1) + _UNDERFLOW is at least twice each term, which absorbs the
    second-order terms and the rounding of delta itself.  A bound too
    loose only costs evaluations; one too tight breaks exactness.

    With lo = max(0, max_j (r_j - delta_j)), a lower bound on the answer,
    an operator with r_i + delta_i < lo cannot hold the maximum.  Neither
    can a half-space with slack/|a| + delta_i < 0: its scalar slack is
    <= 0 as well, so its residual is exactly 0.  When a banked value or
    bound is not finite (the mat-vec overflows), or an evaluated residual
    is, the answer is the scalar loop over all ops in their order, since
    Python's max depends on order when a NaN is present.
    """

    def __init__(self, ops):
        self.ops = list(ops)
        lo, hi = _BANK_NORM2
        banked = [type(op) in (Halfspace, Hyperplane) and lo <= op.norm2 <= hi
                  for op in self.ops]
        self._others = ~np.array(banked, dtype=bool)
        self._at = np.flatnonzero(banked)
        rows = [self.ops[k] for k in self._at]
        if rows:
            self._A = np.array([op.a for op in rows])
            self._abs_A = np.abs(self._A)
            self._b = np.array([op.b for op in rows])
            self._abs_b = np.abs(self._b)
            self._norm = np.sqrt([op.norm2 for op in rows])
            self._halfspace = np.array([type(op) is Halfspace for op in rows])
            self._c = 4 * (self._A.shape[1] + 4) * _U

    def _scalar_max(self, x):
        return max(_residual(op, x) for op in self.ops)

    def max_residual(self, x):
        """max over the ops of |T(x) - x|, for a float point x of their
        dimension."""
        if not self._at.size:
            return self._scalar_max(x)
        signed = (self._A @ x - self._b) / self._norm
        r = np.where(self._halfspace, np.maximum(signed, 0.0), np.abs(signed))
        abs_x = np.abs(x)
        delta = self._c * ((self._abs_A @ abs_x + self._abs_b) / self._norm + r
                           + abs_x.sum()) + _UNDERFLOW
        upper = r + delta
        if not (np.isfinite(signed).all() and np.isfinite(upper).all()):
            return self._scalar_max(x)
        lo = max(float(np.max(r - delta)), 0.0)
        zero = self._halfspace & (signed + delta < 0.0)
        evaluate = self._others.copy()
        evaluate[self._at] = (upper >= lo) & ~zero
        values = [_residual(self.ops[k], x) for k in np.flatnonzero(evaluate).tolist()]
        if not all(map(math.isfinite, values)):
            return self._scalar_max(x)
        # every operator left out has residual exactly 0 or below lo
        return max(values, default=0.0)


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
    bank = ResidualBank(ops)

    iterates, controls, relaxations, residuals, checkpoints = [x], [], [], [], []
    n = 0
    while True:
        at_cap = n >= stop.max_iter
        if n % stop.stride == 0 or at_cap:
            maxres = bank.max_residual(x)
            checkpoints.append((n, maxres))
            if maxres <= stop.tol:
                stop_reason = "converged"
                break
        if at_cap:
            stop_reason = "max_iter"
            break
        try:
            label = ctrl.label(n)
        except ControlExhausted:
            if not checkpoints or checkpoints[-1][0] != n:
                checkpoints.append((n, bank.max_residual(x)))
            stop_reason = "control_exhausted"
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
        controls.append(label)
        relaxations.append(lam)
        residuals.append(float(np.linalg.norm(step)))
        iterates.append(x_next)
        x = x_next
        n += 1
    return Trace(iterates, controls, relaxations, residuals, checkpoints,
                 converged=stop_reason == "converged", stop_reason=stop_reason)


def replay_trace(ops, trace):
    """Re-executes the recurrence over a stored trace; returns the largest
    deviation from the recorded iterates and step residuals.  The iterates
    must share the start point's dimension, as acsa_run and
    trace_from_records guarantee; a label outside 1..m is an error."""
    x = _vec(trace.iterates[0], ops[0].dim)
    xs, steps = [x], []
    for k, (label, lam) in enumerate(zip(trace.controls.tolist(), trace.relaxations.tolist())):
        if not 1 <= label <= len(ops):
            raise ValueError(f"step {k + 1} names operator {label}, outside 1..{len(ops)}")
        step = ops[label - 1].apply(x) - x
        x = x + lam * step
        xs.append(x)
        steps.append(step)
    dev = row_distances(xs, trace.iterates)
    res_dev = np.abs(row_distances(np.reshape(steps, (-1, len(x))), 0.0) - trace.residuals)
    # NaN, from a replay that left the finite numbers, must not pass as 0
    return float(np.max(np.concatenate(([0.0], dev, res_dev))))


def fejer_slack(trace, z):
    """Largest per-step increase of the distance to z (negative means the
    distances strictly decrease)."""
    return float(np.max(np.diff(row_distances(trace.iterates, z)), initial=-np.inf))


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
        tol=_number(s.get("tol", 1e-6), "the stop rule's tol"),
        max_iter=_integer(s.get("max_iter", 100000), "max_iter"),
        stride=_integer(s.get("stride", 10), "stride"),
    )
    return ops, ctrl, sched, x0, stop


def trace_records(trace):
    """Flat per-iterate records: the first carries only the start point."""
    xs = trace.iterates.tolist()
    steps = zip(trace.controls.tolist(), trace.relaxations.tolist(), xs[1:],
                trace.residuals.tolist())
    return [{"n": 0, "x": xs[0]}] + [
        {"n": n, "i": i, "lambda": lam, "x": x, "res": res}
        for n, (i, lam, x, res) in enumerate(steps, start=1)
    ]


def trace_from_records(records):
    """Inverse of trace_records.  Every point must be finite and share the
    start point's dimension, and every relaxation must lie in [0, 2]."""
    records = list(records)
    if not all(isinstance(rec, dict) for rec in records):
        raise ValueError("trace records must be JSON objects")
    if not records or records[0].get("n") != 0:
        raise ValueError("trace records must start at n = 0")
    dim = len(_vec(records[0]["x"]))
    # trace_records writes indices and labels as JSON integers: true or 1.0
    # is an edit, though _integer takes 1.0 elsewhere (a hand-written
    # "max_iter": 1e5)
    for k, rec in enumerate(records):
        if type(n := rec.get("n")) is not int or n != k:
            raise ValueError(f"the index of record {k} must be the integer {k}, got {n!r}")
    steps = list(enumerate(records[1:], start=1))
    for k, rec in steps:
        if type(i := rec["i"]) is not int:
            raise ValueError(f"the label at step {k} must be an integer, got {i!r}")
    return Trace(
        iterates=[_vec(rec["x"], dim) for rec in records],
        controls=[rec["i"] for _, rec in steps],
        relaxations=[
            _number(rec["lambda"], f"the relaxation at step {k}", 0.0, 2.0) for k, rec in steps
        ],
        residuals=[_number(rec["res"], f"the residual at step {k}") for k, rec in steps],
    )


def trace_summary(ops, trace):
    x = trace.final
    return {
        "final": list(map(float, x)),
        "iterations": trace.n_steps,
        "max_residual": ResidualBank(ops).max_residual(x),
        "converged": trace.converged,
        "stop_reason": trace.stop_reason,
    }
