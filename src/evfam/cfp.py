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

import itertools
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
    try:
        return float(value)
    except OverflowError:  # an int beyond the float range
        raise ValueError(f"{what} lies beyond the float range") from None


def row_distances(points, ref):
    """Euclidean distance from each row of ``points`` to ``ref`` (a point,
    or a matrix of one point per row), equal bit for bit to
    ``np.linalg.norm`` taken row by row: each row's dot product is a
    (1, J) @ (J, 1) matmul, the same dot kernel norm uses."""
    d = np.asarray(points, dtype=float) - ref
    return np.sqrt(np.matmul(d[:, None, :], d[:, :, None]))[:, 0, 0]


def relaxed_update(x, lam, tx):
    """x + lam (tx - x) for each row x, its image tx under the row's
    operator and the row's relaxation lam: the iteration's update bit for
    bit, as replay and the follows check recompute it."""
    return x + lam[:, None] * (tx - x)


def norm(d):
    """Euclidean norm of a float vector d, equal bit for bit to
    ``np.linalg.norm(d)``, which takes sqrt(d.d) for a real 1-D vector: the
    same dot kernel and a correctly rounded square root, without its
    dispatch."""
    return math.sqrt(d @ d)


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


def _slacks(X, A, b):
    """<a, x> - b for each row a of A (K, J) and each point x: (K,) at a
    point X of shape (J,), (N, K) at the rows of a block X of shape (N, J).
    Each dot product is a (1, J) @ (J, 1) matmul, the dot kernel of the 1-D
    product, so each slack is bit for bit float(a @ x) - b."""
    return np.matmul(X[..., None, None, :], A[:, :, None])[..., 0, 0] - b


class _AffineCut(Operator):
    """Data shared by the half-space and hyperplane projections: a nonzero
    normal vector a with a finite a.a, and an offset b."""

    def __init__(self, a, b):
        # contiguous, as the residual bank stacks it: a strided a takes
        # another summation order in the dot kernel
        a = np.ascontiguousarray(_vec(a))
        super().__init__(a.shape[0])
        with np.errstate(over="ignore"):
            self.norm2 = float(a @ a)
        if self.norm2 == 0.0:
            if a.any():
                raise ValueError("the normal vector's squared norm a.a underflows to 0")
            raise ValueError("the normal vector must be nonzero")
        if self.norm2 == math.inf:
            raise ValueError("the normal vector's squared norm a.a overflows")
        self.a = a
        self.b = _number(b, "the offset b")
        if not math.isfinite(self.b):
            raise ValueError(f"the offset b must be finite, got {self.b!r}")

    def _slacks(self, X):
        """<a, x> - b for each row x of X, bit for bit float(a @ x) - b."""
        return _slacks(X, self.a[None], self.b)[:, 0]

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
        if radius == math.inf:
            raise ValueError("the radius must be finite, got inf")
        self.center = center
        self.radius = float(radius)

    def apply(self, x):
        d = x - self.center
        dist = norm(d)
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


class Control:
    """A control n -> i(n): a nonempty word of 1-based labels over the
    operators 1..m (m is the largest label when not given).  Step n, counted
    from 0, applies i(n) = labels[n mod len(labels)]; a word that does not
    repeat (``repeats`` false) ends at n = len(labels)."""

    kind = "abstract"
    repeats = True

    def __init__(self, labels, m=None, what="pattern"):
        self.labels = tuple(_integer(i, "a control label") for i in labels)
        if not self.labels:
            raise ValueError(f"the {what} must be nonempty")
        self.m = int(m) if m is not None else max(self.labels)
        for i in self.labels:
            if not 1 <= i <= self.m:
                raise ValueError(f"label {i} outside 1..{self.m}")


class CyclicControl(Control):
    """The word 1, 2, ..., m."""

    kind = "cyclic"

    def __init__(self, m):
        if int(m) < 1:
            raise ValueError("need at least one operator")
        super().__init__(range(1, int(m) + 1), m)

    def __repr__(self):
        return f"CyclicControl(m={self.m})"


class AlmostCyclicControl(Control):
    """A finite pattern of 1-based labels repeated forever."""

    kind = "almost_cyclic"

    def __repr__(self):
        return f"AlmostCyclicControl(pattern={self.labels}, m={self.m})"


class ExplicitControl(Control):
    """A finite list of labels; running past the end stops the solver."""

    kind = "explicit"
    repeats = False

    def __init__(self, indices, m=None):
        super().__init__(indices, m, "index list")

    def __repr__(self):
        return f"ExplicitControl(indices={self.labels}, m={self.m})"


def control_validate(ctrl, m=None):
    """Minimal validated almost-cyclicality constant of a control: the
    smallest c such that every c consecutive steps apply every operator,
    the cover of each label's 0/1 word of steps, taken cyclically when the
    word repeats.  A word that does not repeat must hold 2c steps to
    certify c."""
    m = ctrl.m if m is None else int(m)
    if m != ctrl.m:
        raise ValueError(f"control covers {ctrl.m} operators, problem has {m}")
    labels = np.array(ctrl.labels)
    c = 0
    for j in range(1, m + 1):
        word = (labels == j).tobytes()
        if 1 not in word:
            raise ValueError(f"operator {j} never appears: no finite window constant")
        c = max(c, window_cover(word, cyclic=ctrl.repeats))
    if not ctrl.repeats and len(ctrl.labels) < 2 * c:
        raise ValueError("the index list is too short to certify its window constant")
    return c


# ---------------------------------------------------------------------------
# relaxation schedules


class CyclicRelaxation:
    """A word of relaxation values in [0, 2], repeated forever: step n
    uses lambda_n = values[n mod len(values)]."""

    kind = "cyclic"

    def __init__(self, values):
        self.values = tuple(_number(v, "a relaxation parameter", 0.0, 2.0) for v in values)
        if not self.values:
            raise ValueError("need at least one relaxation value")

    def __repr__(self):
        return f"CyclicRelaxation({self.values})"


class ConstantRelaxation(CyclicRelaxation):
    """The one-value word."""

    kind = "constant"

    def __init__(self, value=1.0):
        super().__init__((value,))

    @property
    def value(self):
        return self.values[0]

    def __repr__(self):
        return f"ConstantRelaxation({self.value})"


# ---------------------------------------------------------------------------
# the iteration


@dataclass
class StopRule:
    tol: float = 1e-6
    max_iter: int = 100000
    stride: int = 10

    def __post_init__(self):
        self.tol = _number(self.tol, "the stop rule's tol")
        self.max_iter = _integer(self.max_iter, "max_iter")
        self.stride = _integer(self.stride, "stride")
        if not 0 <= self.tol < math.inf:
            raise ValueError(f"tol must be a finite number >= 0, got {self.tol!r}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be an integer >= 0, got {self.max_iter!r}")
        if self.stride < 1:
            raise ValueError(f"stride must be an integer >= 1, got {self.stride!r}")


class AcsaDivergence(Exception):
    pass


@dataclass(eq=False)
class Trace:
    """A run as a struct of arrays; lists given to the constructor are
    converted.  The iterates hold one point per row, and every step column
    one entry per step."""

    iterates: np.ndarray  # (N+1, J) float: row n is x_n
    controls: np.ndarray = ()  # (N,) int: 1-based operator label of step n
    relaxations: np.ndarray = ()  # (N,) float: lambda_n
    residuals: np.ndarray = ()  # (N,) float: |T(x_n) - x_n|
    checkpoints: list = field(default_factory=list)  # (n, max residual)
    stop_reason: str = ""

    def __post_init__(self):
        self.iterates = np.asarray(self.iterates, dtype=float)
        self.controls = np.asarray(self.controls, dtype=int)
        self.relaxations = np.asarray(self.relaxations, dtype=float)
        self.residuals = np.asarray(self.residuals, dtype=float)
        if self.iterates.ndim != 2 or not len(self.iterates):
            raise ValueError("a trace's iterates are one point per row, the start point first")
        if not len(self.controls) == len(self.relaxations) == len(self.residuals) == self.n_steps:
            raise ValueError("a trace needs one label, relaxation and residual per step")

    @property
    def converged(self):
        return self.stop_reason == "converged"

    @property
    def final(self):
        return self.iterates[-1]

    @property
    def n_steps(self):
        return len(self.iterates) - 1


def _residual(op, x):
    """|T(x) - x| for a float point x of the operator's dimension."""
    return norm(op.apply(x) - x)


#: rows whose slacks ResidualBank.holds stacks at once
_BLOCK = 256


class ResidualBank:
    """max over ops of |T(x) - x|, equal bit for bit to the scalar loop
    ``max(_residual(op, x) for op in ops)``.

    Half-spaces and hyperplanes (exact types: a subclass may override
    ``apply``) are stacked into (A, b, a.a).  ``slacks`` computes each
    stacked <a, x> - b with the dot kernel of ``apply`` (see ``_slacks``), so
    every slack is the one ``apply`` computes, and every later step is
    ``apply``'s and ``_residual``'s own float operation, elementwise: a
    half-space with slack <= 0 returns x (residual 0.0), and any other
    stacked operator, a NaN slack included, moves x to x - (slack / a.a) a.
    The answer is Python's max over the values in operator order, as in the
    scalar loop, so a NaN lands where the loop puts it.
    """

    def __init__(self, ops):
        self.ops = list(ops)
        banked = [type(op) in (Halfspace, Hyperplane) for op in self.ops]
        self._others = [(k, op) for k, op in enumerate(self.ops) if not banked[k]]
        #: positions in ops of the stacked operators, the columns of slacks()
        self.banked = np.flatnonzero(banked)
        rows = [self.ops[k] for k in self.banked]
        # (K, J) even for K = 0, so that slacks has an empty column axis
        dim = self.ops[0].dim if self.ops else 0
        self._A = np.array([op.a for op in rows], dtype=float).reshape(len(rows), dim)
        self._b = np.array([op.b for op in rows], dtype=float)
        self._norm2 = np.array([op.norm2 for op in rows], dtype=float)
        #: which stacked operators are half-spaces
        self.halfspace = np.array([type(op) is Halfspace for op in rows], dtype=bool)

    def slacks(self, X):
        """<a, x> - b of each stacked operator, bit for bit the slack that
        ``apply`` computes: (K,) at a float point X of shape (J,), and
        (N, K) at the rows of a block X of shape (N, J)."""
        return _slacks(X, self._A, self._b)

    def _held(self, slack):
        """apply's hold rule: a stacked half-space with slack <= 0 returns x."""
        return self.halfspace & (slack <= 0.0)

    def holds(self, X):
        """(m, N) bool: does operator k return row n of the float (N, J)
        array X itself?  Only a stacked half-space ever does; the slacks are
        taken _BLOCK rows at a time."""
        out = np.zeros((len(self.ops), len(X)), dtype=bool)
        for start in range(0, len(X), _BLOCK):
            block = slice(start, start + _BLOCK)
            out[self.banked, block] = self._held(self.slacks(X[block])).T
        return out

    def max_residual(self, x):
        """max over the ops of |T(x) - x|, for a float point x of their
        dimension.  At a huge point a slack or a norm overflows to inf or
        NaN, without a floating-point warning: the caller judges the value."""
        values = np.zeros(len(self.ops))
        with np.errstate(over="ignore", invalid="ignore"):
            if self.banked.size:
                slack = self.slacks(x)
                moved = ~self._held(slack)  # the others return x
                step = (slack[moved] / self._norm2[moved])[:, None] * self._A[moved]
                values[self.banked[moved]] = row_distances((x - step) - x, 0.0)
            for k, op in self._others:
                values[k] = _residual(op, x)
        return max(values.tolist())


def acsa_run(ops, ctrl, relaxation, x0, stop=None):
    """Runs the sequential iteration: step n applies operator ctrl.labels[n
    mod len] with relaxation relaxation.values[n mod len], words checked when
    built.  The run ends at stop.max_iter, or where a word that does not
    repeat runs out first.  A checkpoint every stop.stride steps and at the
    end takes max_i |T_i(x) - x|; the first within stop.tol stops the run as
    converged, else it stops at its end as max_iter or control_exhausted.  A
    non-finite iterate, step residual or final maximum raises AcsaDivergence."""
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
    labels, lams = ctrl.labels, relaxation.values
    end = stop.max_iter if ctrl.repeats else min(stop.max_iter, len(labels))
    # the bytes and maximum of the last evaluated checkpoint: max_residual
    # is a function of the point's bits, so a bit-identical point reuses it
    key = worst = None
    n = 0
    # a finite but huge point overflows a slack, a norm or a step: inf or NaN,
    # which the checks below refuse by step and operator, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            if n % stop.stride == 0 or n == end:
                if x.tobytes() != key:
                    key, worst = x.tobytes(), bank.max_residual(x)
                checkpoints.append((n, worst))
                if worst <= stop.tol:
                    stop_reason = "converged"
                    break
            if n == end:
                stop_reason = "max_iter" if end == stop.max_iter else "control_exhausted"
                break
            label = labels[n % len(labels)]
            lam = lams[n % len(lams)]
            tx = ops[label - 1].apply(x)
            if tx is x:
                # a held point, as at an inactive cut: x is finite, so x - x is
                # +0.0, lam * +0.0 is +0.0 for lam in [0, 2], and x + 0.0 is the
                # full step's point bit for bit (-0.0 turns into +0.0)
                x_next, res = x + 0.0, 0.0
            else:
                step = tx - x
                x_next = x + lam * step
                if not np.isfinite(x_next).all():
                    raise AcsaDivergence(
                        f"non-finite iterate at step {n} (operator {label}, lambda {lam})"
                    )
                res = norm(step)
                if not math.isfinite(res):
                    raise AcsaDivergence(f"non-finite residual at step {n} (operator {label})")
            controls.append(label)
            relaxations.append(lam)
            residuals.append(res)
            iterates.append(x_next)
            x = x_next
            n += 1
    # the final point always has a checkpoint, and its maximum is the summary's
    if not math.isfinite(worst):
        raise AcsaDivergence(f"non-finite maximum residual at the final checkpoint (step {n})")
    return Trace(iterates, controls, relaxations, residuals, checkpoints, stop_reason)


#: the largest one-step deviation a trace may show and still replay
REPLAY_TOL = 1e-12


def replay_trace(ops, trace):
    """Checks every recorded step from its recorded point; returns the
    largest one-step deviation: of x_q + lambda_q (T(x_q) - x_q) from the
    recorded x_{q+1}, and of |T(x_q) - x_q| from the recorded residual, with
    T the step's operator.  When every deviation is 0, re-running the
    recurrence from x_0 gives the recorded trace bit for bit, by induction
    over the steps.  The steps are grouped by label, one ``apply_many`` per
    operator, which equals ``apply`` bit for bit.  The iterates must share
    the start point's dimension, as acsa_run and trace_from_records
    guarantee.  A label outside 1..m is an error that names the first such
    step, and a column of another length than the number of steps is an
    error too."""
    try:
        _vec(trace.iterates[0], ops[0].dim)
    except ValueError as exc:
        raise ValueError(f"the trace's start point: {exc}") from None
    labels = trace.controls
    points = trace.iterates[:-1]
    if not len(labels) == len(trace.relaxations) == len(trace.residuals) == len(points):
        raise ValueError("a trace needs one label, relaxation and residual per step")
    bad = np.flatnonzero((labels < 1) | (labels > len(ops)))
    if bad.size:
        k = int(bad[0])
        raise ValueError(f"step {k + 1} names operator {labels[k]}, outside 1..{len(ops)}")
    tx = np.empty_like(points)
    # a finite but huge point overflows the squared distances: inf or NaN,
    # which the caller refuses, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        # bincount, not np.unique, which imports numpy.ma: a megabyte of RSS
        for label in np.flatnonzero(np.bincount(labels)).tolist():
            rows = np.flatnonzero(labels == label)
            tx[rows] = ops[label - 1].apply_many(points[rows])
        dev = row_distances(relaxed_update(points, trace.relaxations, tx), trace.iterates[1:])
        res_dev = np.abs(row_distances(tx, points) - trace.residuals)
    # NaN, from a step that left the finite numbers, must not pass as 0
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
    "almost_cyclic": (AlmostCyclicControl, {"pattern": "labels"}),
    "explicit": (ExplicitControl, {"indices": "labels"}),
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


def _json_object(obj, what, required=(), allowed=None):
    """``obj``, refused unless it is a JSON object holding every ``required``
    key and, when ``allowed`` is given, no other key.  The one key check of
    the problem reader: the problem, its stop rule, and each operator,
    control and relaxation."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {obj!r}")
    for key in required:
        if key not in obj:
            raise ValueError(f"{what} lacks the field {key!r}")
    unknown = [key for key in obj if key not in allowed] if allowed is not None else []
    if unknown:
        raise ValueError(f"{what} has an unknown key {unknown[0]!r}")
    return obj


def _from_json(table, what, obj):
    """The class of ``obj``'s kind and its constructor arguments."""
    kind = _json_object(obj, f"the {what}", required=("kind",))["kind"]
    if not isinstance(kind, str) or kind not in table:
        raise ValueError(f"unknown {what} kind {kind!r}")
    cls, fields = table[kind]
    _json_object(obj, f"the {kind} {what}", required=fields, allowed=("kind", *fields))
    args = [operator_from_json(obj[key]) if key == "inner" else obj[key] for key in fields]
    return cls, args


def operator_to_json(op):
    return _to_json(_OPERATOR_JSON, "operator", op)


def operator_from_json(obj):
    cls, args = _from_json(_OPERATOR_JSON, "operator", obj)
    return cls(*args)


_STOP_FIELDS = ("tol", "max_iter", "stride")


def problem_to_json(ops, ctrl, sched, x0, stop):
    return {
        "dim": ops[0].dim,
        "operators": [operator_to_json(op) for op in ops],
        "control": _to_json(_CONTROL_JSON, "control", ctrl),
        "relaxation": _to_json(_RELAXATION_JSON, "relaxation", sched),
        "x0": list(np.asarray(x0, dtype=float)),
        "stop": {key: getattr(stop, key) for key in _STOP_FIELDS},
    }


_PROBLEM_FIELDS = ("dim", "operators", "control", "relaxation", "x0", "stop")


def problem_from_json(obj):
    _json_object(obj, "the problem", ("dim", "operators", "control", "x0"), _PROBLEM_FIELDS)
    if not isinstance(obj["operators"], list):
        raise ValueError(f"the problem's operators must be a JSON list, got {obj['operators']!r}")
    ops = []
    for k, o in enumerate(obj["operators"], start=1):
        try:
            ops.append(operator_from_json(o))
        except (ValueError, TypeError, OverflowError, RecursionError) as exc:
            raise ValueError(f"operator {k}: {exc}") from None
    if not ops:
        raise ValueError("the operator list is empty")
    dim = _integer(obj["dim"], "dim")
    for k, op in enumerate(ops, start=1):
        if op.dim != dim:
            raise ValueError(f"operator {k}: dimension {op.dim} disagrees with the problem's {dim}")
    cls, args = _from_json(_CONTROL_JSON, "control", obj["control"])
    ctrl = cls(*args, len(ops))
    # an absent relaxation or stop field takes the class's default
    sched = ConstantRelaxation()
    if "relaxation" in obj:
        cls, args = _from_json(_RELAXATION_JSON, "relaxation", obj["relaxation"])
        sched = cls(*args)
    x0 = _vec(obj["x0"], dim)
    stop = StopRule(**_json_object(obj.get("stop", {}), "the stop rule", allowed=_STOP_FIELDS))
    return ops, ctrl, sched, x0, stop


def trace_records(trace):
    """Flat per-iterate records.  The first carries only the start point.
    A step carries n, its label i, lambda and res, and its point x unless
    the point's bytes equal the previous point's: a held point, as at an
    inactive half-space cut.  Bytes, not values: a zero step can still turn
    -0.0 into +0.0."""
    X = np.ascontiguousarray(trace.iterates)
    bits = X.view(np.uint64)
    moved = np.flatnonzero((bits[1:] != bits[:-1]).any(axis=1)) + 1
    points = dict(zip(moved.tolist(), X[moved].tolist()))
    steps = zip(trace.controls.tolist(), trace.relaxations.tolist(), trace.residuals.tolist())
    records = [{"n": 0, "x": X[0].tolist()}]
    for n, (i, lam, res) in enumerate(steps, start=1):
        rec = {"n": n, "i": i, "lambda": lam, "res": res}
        if n in points:
            rec["x"] = points[n]
        records.append(rec)
    return records


_STEP_FIELDS = ("i", "lambda", "res")  # besides n, on every step record
_START_KEYS = frozenset(("n", "x"))
_STEP_KEYS = _START_KEYS | set(_STEP_FIELDS)


def _trace_columns(records):
    """The iterates, labels, relaxations and residuals of trace records,
    read column by column, or None at any doubt: when a check that
    _checked_records makes record by record might fail.  It may refuse more
    than those checks (an integer coordinate beyond int64), never less."""
    if not records or not set(map(type, records)) <= {dict}:
        return None
    steps = records[1:]
    ns = [rec.get("n") for rec in records]
    if not (ns == list(range(len(ns))) and "x" in records[0]
            and _START_KEYS.issuperset(records[0]) and _STEP_KEYS.issuperset(set().union(*steps))):
        return None
    try:
        labels, lams, res = ([rec[key] for rec in steps] for key in _STEP_FIELDS)
    except KeyError:
        return None
    points = [rec["x"] for rec in records if "x" in rec]
    if not set(map(type, points)) <= {list} or len(set(map(len, points))) != 1:
        return None
    coords = list(itertools.chain.from_iterable(points))
    types = set(map(type, itertools.chain(coords, lams, res)))
    # True == 1 == 1.0, a bool is an int to isinstance, and numpy reads it
    # as a number: only the types tell them apart
    if not (set(map(type, ns + labels)) <= {int} and types <= {int, float}):
        return None
    # np.array turns an int beyond int64 into an object or a float; _vec refuses it
    if int in types and not all(-2**63 <= c < 2**63 for c in coords if type(c) is int):
        return None
    try:
        labels = np.array(labels, dtype=np.int64)
        X, L, R = (np.array(col, dtype=float) for col in (points, lams, res))
    except OverflowError:  # an int beyond int64 or the float range
        return None
    if not (np.isfinite(X).all() and ((L >= 0.0) & (L <= 2.0)).all() and not np.isnan(R).any()):
        return None
    written = np.array(["x" in rec for rec in records])
    return X[np.cumsum(written) - 1], labels, L, R


def _checked_records(records):
    """The columns of trace records, checked one record at a time, each
    field in turn; the error names the first bad record.  A record without
    "x" repeats the previous point."""
    if not records or isinstance(records[0], dict) and records[0].get("n") != 0:
        raise ValueError("trace records must start at n = 0")
    dim, xs, labels, lams, res = None, [], [], [], []
    for k, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise ValueError("trace records must be JSON objects")
        # trace_records writes indices and labels as JSON integers: true or 1.0
        # is an edit, though _integer takes 1.0 elsewhere ("max_iter": 1e5)
        n = rec.get("n")
        if type(n) is not int or n != k:
            raise ValueError(f"the index of record {k} must be the integer {k}, got {n!r}")
        for key in rec:
            if key not in (_STEP_KEYS if k else _START_KEYS):
                raise ValueError(f"the record of step {k} has the unexpected field {key!r}")
        if "x" in rec:
            try:
                x = _vec(rec["x"], dim)
            except ValueError as exc:
                raise ValueError(f"the point at step {k}: {exc}") from None
            dim = len(x)
        elif not k:
            raise ValueError("the record of step 0 lacks the start point 'x'")
        xs.append(x)
        if k:
            for key in _STEP_FIELDS:
                if key not in rec:
                    raise ValueError(f"the record of step {k} lacks the field {key!r}")
            i = rec["i"]
            if type(i) is not int:
                raise ValueError(f"the label at step {k} must be an integer, got {i!r}")
            if not -2**63 <= i < 2**63:
                raise ValueError(
                    f"the label at step {k} is too large for a 64-bit integer, got {i}")
            labels.append(i)
            lams.append(_number(rec["lambda"], f"the relaxation at step {k}", 0.0, 2.0))
            res.append(_number(rec["res"], f"the residual at step {k}"))
    return xs, np.array(labels, dtype=np.int64), lams, res


def trace_from_records(records):
    """Inverse of trace_records: a step without "x" holds the previous
    point, and a trace with "x" on every record reads too.  Every point
    must be finite and share the start point's dimension, every relaxation
    must lie in [0, 2], and a step record holds no key besides n, i,
    lambda, res and x, the start record none besides n and x.  The checks
    run over whole columns; only when one may fail are the records checked
    one by one, to name the first bad record."""
    records = list(records)
    iterates, labels, lams, res = _trace_columns(records) or _checked_records(records)
    return Trace(iterates=iterates, controls=labels, relaxations=lams, residuals=res)


def trace_summary(ops, trace):
    x = trace.final
    return {
        "final": list(map(float, x)),
        "iterations": trace.n_steps,
        "max_residual": ResidualBank(ops).max_residual(x),
        "converged": trace.converged,
        "stop_reason": trace.stop_reason,
    }
