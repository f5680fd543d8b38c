"""Second-order forward-mode jets over numpy arrays.

A Jet2 bundles the value of a quantity together with its gradient and Hessian
with respect to the chart coordinates, evaluated on a whole batch of points at
once.  Every tensor field in this package (functions, vector fields, bivector
matrices, recursion operators) is evaluated as a Jet2, so first and second
derivatives are exact to machine precision -- no finite differencing anywhere
in the engine itself.

Shape conventions, with B the batch size and m the chart dimension:

    val   (B, *S)            the quantity itself (S = () for a scalar,
                             (m,) for a vector field, (m, m) for a matrix...)
    grad  (B, *S, m)         d(val)/dx^a in the trailing axis
    hess  (B, *S, m, m)      d^2(val)/dx^a dx^b in the two trailing axes

grad and hess may be None: an operation that consumes a derivative (a bracket,
a divergence) returns a jet of one order less, which is exactly what identity
checks need -- the deepest expressions are evaluated pointwise.  Arithmetic
keeps the smallest order of its operands.

The coordinates are one (B, m) vector jet X (``Jet2.coords``).  ``X[i]`` is
the scalar jet x^i and ``X[a:b]`` a vector jet of coordinates, both views,
so a chart writes a run of table entries as one vector expression
(vector forward mode).  Public ``Jet2(...)``, ``coords`` and ``const``
check what they are given; arithmetic, slices, contractions and the
bivector tables build their results through the unchecked ``Jet2._new``
(a constant contraction or inverse through ``const``).

One product rule.  Every multilinear operation on jets -- matrix products,
traces, and every bracket, wedge and Koszul operator in fields and modular --
is a call of ``jcontract``: a signed sum of terms, each an einsum spec over
the non-batch axes and its operand jets.  The gradient and Hessian follow
from the spec by the product rule (second-order forward-mode Taylor
propagation, Griewank & Walther, Evaluating Derivatives, ch. 13).
``differential`` (D f = the derivative of f as a jet of one order less) turns
a derivative-consuming operation into a plain contraction against D of its
operand.  Term-order rule: every value, gradient and Hessian component is
added in the order the terms are given, and within a term operand by
operand (Hessian terms first, then each pair's cross term and its
transpose), so two spellings of one sum agree bit for bit only when they
list the terms in the same order.

Matmul plans.  Every term of a two-operand product -- the value, each
operand's gradient and Hessian term, and the cross term -- is compiled
once per spec into one batched ``np.matmul`` over views of the operands
(``_matmul_plan``) where it fits; specs that do not fit a plan run on
c_einsum and keep its bits.  A plan changes only the order of the inner
sum over the contracted indices: the term-order rule still holds, and a
planned value, gradient or Hessian may move in its last bits.

Constant jets.  The flag ``constant`` means: gradient and Hessian are
known to be zero.  Only what is constant by construction sets it,
``Jet2.const`` and a bivector table without jet blocks; slices,
``jtruncate`` and ``jtranspose`` pass it on, and ``jcontract`` of
constants only and ``jinv`` of a constant return one (``jinv`` then costs
the inverse alone).  The product rule skips whole kernels, never testing
an array for zeros: ``jcontract`` skips a constant operand's gradient and
Hessian kernels and every cross kernel it is in, and ``*`` with one
constant factor c keeps only g c and H c.  No value moves; a skipped term
is a product with zeros, so at most a zero derivative entry changes sign
(or a 0 * inf = nan drops out).  A constant still has gradient and
Hessian arrays, fresh +0.0 ones where it is built.  ``+``, ``-`` and
negation do not skip: that would hand back an operand's own array, and
the flow right-hand side relies on every result being a fresh one.
"""

from __future__ import annotations

import functools
import math
import string

import numpy as np

from .errors import DimensionError, SingularTensorError, check_int

try:    # the C routine behind np.einsum(optimize=False), without the 1-2 us wrapper
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:     # numpy < 2
    from numpy.core.multiarray import c_einsum as _einsum

# the class test of every Jet2._new result reads this global: np.ndarray,
# a numpy module attribute, takes twice as long as the test itself
_ndarray = np.ndarray


class Jet2:
    """Value + gradient + Hessian of a batched quantity.

    Build the coordinate jet with :meth:`coords`, constants with
    :meth:`const`, then index it and combine with ordinary arithmetic
    (+, -, *, /, **) and the matrix helpers in this module.
    """

    __slots__ = ("val", "grad", "hess", "m", "constant")

    def __init__(self, val, grad=None, hess=None, m=None):
        """The checked constructor: coerces to float arrays and checks that
        grad and hess extend the value's shape by (m,) and (m, m), m an
        integer >= 1 (None reads it off the derivatives)."""
        self.val = np.asarray(val, dtype=float)
        self.grad = None if grad is None else np.asarray(grad, dtype=float)
        self.hess = None if hess is None else np.asarray(hess, dtype=float)
        if m is None:
            if self.grad is not None:
                m = self.grad.shape[-1]
            elif self.hess is not None:
                m = self.hess.shape[-1]
            else:
                raise DimensionError("jet needs an explicit chart dimension m "
                                     "when it carries no derivatives")
        self.m = check_int("m", m, 1)
        self.constant = False
        if self.grad is not None and self.grad.shape != self.val.shape + (self.m,):
            raise DimensionError(f"grad shape {self.grad.shape} does not extend "
                                 f"val shape {self.val.shape} by (m={self.m},)")
        if self.hess is not None and self.hess.shape != self.val.shape + (self.m, self.m):
            raise DimensionError(f"hess shape {self.hess.shape} does not extend "
                                 f"val shape {self.val.shape} by (m, m)")

    # ---- constructors -----------------------------------------------------

    @classmethod
    def _new(cls, val, grad, hess, m, constant=False):
        """The unchecked constructor, for results whose arrays are float
        and shaped by construction: jet arithmetic, slices, contractions
        and bivector tables.  Public input goes through ``Jet2(...)``.
        ``constant`` is the flag of the module docstring.  A numpy scalar
        value (what arithmetic on two unbatched jets gives) becomes a 0-d
        array, so every ``.val`` is an array."""
        if val.__class__ is not _ndarray:
            val = np.asarray(val)
        J = object.__new__(cls)
        J.val, J.grad, J.hess, J.m, J.constant = val, grad, hess, m, constant
        return J

    @classmethod
    def coords(cls, x, order=2):
        """The coordinate jet X of a batch of points x with shape (B, m).

        X is one (B, m) vector jet: its value is x itself (a float x is not
        copied), its gradient one (B, m, m) identity stack and its Hessian
        zeros.  ``X[i]`` is the scalar jet x^i and ``X[a:b]`` the vector jet
        of coordinates a..b-1, views both.  ``order`` is an integer in 0..2;
        lower orders save a lot of memory on long batches (a trajectory only
        needs values).
        """
        order = check_int("order", order, 0, 2)
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        if x.ndim != 2:
            raise DimensionError(f"points must have shape (B, m), got {x.shape}")
        B, m = x.shape
        grad = None
        if order >= 1:
            grad = np.zeros((B, m, m))
            grad.reshape(B, m * m)[:, ::m + 1] = 1.0
        return cls(x, grad, np.zeros((B, m, m, m)) if order >= 2 else None, m=m)

    @classmethod
    def const(cls, value, m, batch=None, order=2):
        """A constant jet of chart dimension m: its gradient and Hessian are
        fresh +0.0 arrays, and it carries the ``constant`` flag, so the
        product rule skips their kernels (see the module docstring).  The
        value is not copied unless ``batch`` (None or an integer >= 0)
        stacks it; m >= 1 and order in 0..2 are integers too."""
        m = check_int("m", m, 1)
        order = check_int("order", order, 0, 2)
        val = np.asarray(value, dtype=float)
        if batch is not None:
            out = np.empty((check_int("batch", batch, 0),) + val.shape)
            out[...] = val
            val = out
        grad = np.zeros(val.shape + (m,)) if order >= 1 else None
        hess = np.zeros(val.shape + (m, m)) if order >= 2 else None
        J = cls(val, grad, hess, m=m)
        J.constant = True
        return J

    # ---- bookkeeping ------------------------------------------------------

    @property
    def order(self):
        if self.hess is not None:
            return 2
        if self.grad is not None:
            return 1
        return 0

    def __repr__(self):
        return f"Jet2(shape={self.val.shape}, m={self.m}, order={self.order})"

    def __getitem__(self, key):
        """Entry ``key`` (an index or a slice) of axis 1, the first axis
        after the batch, as a jet of views.  Past the end is an IndexError,
        so a vector jet unpacks and iterates; a scalar jet has no entries."""
        if self.val.ndim < 2:
            raise DimensionError("a scalar jet has no entries to index")
        at = (slice(None), key)
        return Jet2._new(self.val[at],
                         None if self.grad is None else self.grad[at],
                         None if self.hess is None else self.hess[at], self.m,
                         self.constant)

    def _coerce(self, other):
        if isinstance(other, Jet2):
            if other.m != self.m:
                raise DimensionError(f"mixed chart dimensions {self.m} and {other.m}")
            return other
        return Jet2.const(other, self.m, order=self.order)

    # ---- arithmetic -------------------------------------------------------

    def _sum(self, other, op):
        """self + other (op np.add) or self - other (op np.subtract),
        component by component, as one fresh jet: ``-`` is not a negation
        and a sum, yet bit for bit self + (-other), signed zeros included."""
        o = self._coerce(other)
        grad = hess = None
        if self.grad is not None and o.grad is not None:
            grad = op(self.grad, o.grad)
        if self.hess is not None and o.hess is not None:
            hess = op(self.hess, o.hess)
        return Jet2._new(op(self.val, o.val), grad, hess, self.m)

    def __add__(self, other):
        return self._sum(other, np.add)

    __radd__ = __add__

    def __neg__(self):
        return Jet2._new(-self.val,
                         None if self.grad is None else -self.grad,
                         None if self.hess is None else -self.hess, self.m)

    def __sub__(self, other):
        return self._sum(other, np.subtract)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        val = self.val * o.val
        grad = hess = None
        if self.grad is not None and o.grad is not None:
            if self.constant != o.constant:
                # one constant factor c: only g c and H c are not known zeros
                J, c = (o, self) if self.constant else (self, o)
                grad = J.grad * c.val[..., None]
                if J.hess is not None and c.hess is not None:
                    hess = J.hess * c.val[..., None, None]
                return Jet2._new(val, grad, hess, self.m)
            grad = self.grad * o.val[..., None] + self.val[..., None] * o.grad
            if self.hess is not None and o.hess is not None:
                hess = (self.hess * o.val[..., None, None]
                        + self.val[..., None, None] * o.hess
                        + self.grad[..., :, None] * o.grad[..., None, :]
                        + self.grad[..., None, :] * o.grad[..., :, None])
        return Jet2._new(val, grad, hess, self.m)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * self._coerce(other).reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, p):
        if not np.isscalar(p):
            raise DimensionError("only scalar exponents are supported")
        v = self.val
        if float(p).is_integer():
            # drop terms with zero coefficient so x**1, x**2 work at x = 0
            p = int(p)
            df = p * v ** (p - 1) if p != 0 else np.zeros_like(v)
            d2f = p * (p - 1) * v ** (p - 2) if p not in (0, 1) else np.zeros_like(v)
            return self._chain(v ** p, df, d2f)
        return self._chain(v ** p, p * v ** (p - 1), p * (p - 1) * v ** (p - 2))

    # ---- elementary functions ---------------------------------------------

    def _chain(self, f, df, d2f):
        """Jet of f(self) given f, f', f'' evaluated at self.val."""
        grad = hess = None
        if self.grad is not None:
            grad = df[..., None] * self.grad
            if self.hess is not None:
                hess = (df[..., None, None] * self.hess
                        + d2f[..., None, None]
                        * self.grad[..., :, None] * self.grad[..., None, :])
        return Jet2._new(f, grad, hess, self.m)

    def reciprocal(self):
        v = self.val
        return self._chain(1.0 / v, -1.0 / v ** 2, 2.0 / v ** 3)

    def exp(self):
        e = np.exp(self.val)
        return self._chain(e, e, e)

    def log(self):
        v = self.val
        return self._chain(np.log(v), 1.0 / v, -1.0 / v ** 2)

    def sqrt(self):
        r = np.sqrt(self.val)
        return self._chain(r, 0.5 / r, -0.25 / r ** 3)


# ---- assembling tensors out of scalar jets ---------------------------------

def jstack(entries):
    """Stack a flat list of jets and plain numbers into one jet on axis 1.

    ``jstack([j1, j2])`` of scalar jets gives a vector jet of shape (B, 2);
    a matrix jet stacks rows, ``jstack([jstack(row) for row in rows])``.
    Plain numbers are lifted to constants at the m, shape and order of the
    first jet entry.  np.stack copies: the result shares no memory.
    """
    ref = next((e for e in entries if isinstance(e, Jet2)), None)
    if ref is None:
        raise DimensionError("jstack needs at least one Jet2 entry")
    parts = [e if isinstance(e, Jet2) else Jet2.const(
        np.broadcast_to(np.asarray(e, float), ref.val.shape), ref.m,
        order=ref.order) for e in entries]
    val = np.stack([p.val for p in parts], axis=1)
    grad = None if parts[0].grad is None else np.stack([p.grad for p in parts], axis=1)
    hess = None if parts[0].hess is None else np.stack([p.hess for p in parts], axis=1)
    return Jet2._new(val, grad, hess, ref.m)


# ---- the product rule -------------------------------------------------------

def differential(f):
    """D f: the derivative of a jet as a jet of one order less.

    Its value is f.grad and its gradient f.hess, so the new trailing axis is
    the derivative index.  An operation that consumes a derivative is then a
    plain contraction against D of its operand.
    """
    if f.grad is None:
        raise DimensionError(f"operation needs jets of order >= 1, got {f.order}")
    return Jet2._new(f.grad, f.hess, None, f.m)


@functools.lru_cache(maxsize=None)
def _product_rule(spec, n):
    """The kernels of one product term and of its derivatives.

    Returns (value, gradients, Hessians, crosses): the value kernel, one
    gradient and one Hessian kernel per operand, which differentiates that
    operand alone, and (k, l, kernel) per operand pair k < l for the mixed
    term dJ_k dJ_l.  A kernel is the spec's matmul plan where it has one
    (two operands, see ``_matmul_plan``), else c_einsum of the spec.
    """
    ins, arrow, out = spec.partition("->")
    ops = ins.split(",")
    if not arrow or len(ops) != n:
        raise DimensionError(f"einsum spec {spec!r} does not take {n} operand(s)")
    a, b = [c for c in string.ascii_letters if c not in spec][:2]

    def make(extra, tail):
        return (",".join("..." + s + extra.get(k, "") for k, s in enumerate(ops))
                + "->..." + out + tail)

    def kernel(spec):
        plan = _matmul_plan(spec) if n == 2 else None
        return plan or functools.partial(_einsum, spec)

    return (kernel(make({}, "")),
            tuple(kernel(make({k: a}, a)) for k in range(n)),
            tuple(kernel(make({k: a + b}, a + b)) for k in range(n)),
            tuple((k, l, kernel(make({k: a, l: b}, a + b)))
                  for k in range(n) for l in range(k + 1, n)))


def _matmul_plan(spec):
    """A two-operand spec as one batched np.matmul, or None if it does not fit.

    The output letters split as G + R + C: R free letters of one operand P,
    C free letters of the other, Q, and G the rest, the leading (broadcast)
    matmul axes; an operand without a letter of G gets a size-1 axis there.
    P is viewed as (..., G, R, K) and Q as (..., G, K, C), K the contracted
    letters, and the product goes straight into a fresh array in the
    output's axis order.  Each merged group of letters must lie side by
    side in its operand, so that a C-ordered operand is viewed, never
    copied; G is the shortest prefix that allows it.  So
    ``...ikab,...kj->...ijab`` runs as (j, k) @ (k, ab) per i,
    ``...ik,...kjab->...ijab`` as one (i, k) @ (k, jab) and the cross term
    ``...ika,...kjb->...ijab`` as (a, k) @ (k, b) per (i, j).  No plan for
    a repeated letter, a letter summed away in one operand, a spec that
    contracts nothing, or one that is a matrix-vector product at best
    (R or C empty), where c_einsum measured faster.
    """
    ins, _, out = spec.replace("...", "").partition("->")
    ops = ins.split(",")
    if any(len(set(s)) < len(s) for s in ops + [out]):
        return None
    x, y = ops
    K = "".join(c for c in x if c in y and c not in out)
    if not K or set(x + y) - set(out) != set(K):
        return None
    for g in range(len(out) + 1):
        G, rest = out[:g], out[g:]
        if not set(x) & set(y) <= set(G + K):
            continue
        for r in range(1, len(rest)):
            R, C = rest[:r], rest[r:]
            for swap in (0, 1):
                p, q = ops[swap], ops[1 - swap]
                if not (set(R) <= set(p) - set(q) and set(C) <= set(q) - set(p)):
                    continue
                layout = ((swap, p, [c if c in p else "" for c in G] + [R, K]),
                          (1 - swap, q, [c if c in q else "" for c in G] + [K, C]))
                if all(grp in s for _, s, groups in layout for grp in groups):
                    views = tuple((i, tuple(s.index(c) for c in "".join(groups)),
                                   tuple(groups)) for i, s, groups in layout)
                    return functools.partial(_run_plan, spec, (x, y), views,
                                             tuple(out), tuple(G) + (R, C))
    return None


def _run_plan(spec, letters, views, out_axes, mm_axes, *args):
    """One call of a ``_matmul_plan``: view, multiply, write in place."""
    nlead = args[0].ndim - len(letters[0])
    lead = args[0].shape[:nlead]
    if args[1].ndim - len(letters[1]) != nlead or args[1].shape[:nlead] != lead:
        return _einsum(spec, *args)     # an unbatched constant: c_einsum broadcasts
    size = {}
    for s, A in zip(letters, args):
        size.update(zip(s, A.shape[nlead:]))

    def shape(groups):
        return lead + tuple(math.prod(size[c] for c in grp) for grp in groups)

    axes = tuple(range(nlead))
    P, Q = (args[i].transpose(axes + tuple(nlead + j for j in perm))
            .reshape(shape(groups)) for i, perm, groups in views)
    out = np.empty(shape(out_axes))
    np.matmul(P, Q, out=out.reshape(shape(mm_axes)))
    return out


def _accumulate(acc, coef, x):
    """acc + coef * x, in place once acc is an array of its own."""
    if acc is None:
        return x if coef == 1 else -x if coef == -1 else coef * x
    if acc.base is not None:     # an einsum view of an operand: never write into it
        acc = acc.copy()
    if coef == 1:
        acc += x
    elif coef == -1:
        acc -= x
    else:
        acc += coef * x
    return acc


def jcontract(*terms):
    """Signed sum of multilinear contractions of jets, with its derivatives.

    Each term is ``(spec, J1, ..., Jn)`` or ``(coef, spec, J1, ..., Jn)``;
    ``spec`` is an einsum spec over the non-batch axes, e.g. ``"ik,kj->ij"``
    for a matrix product.  The value is the einsum of the values.  The
    gradient adds, per term, the einsum with one operand differentiated, for
    each operand in turn; the Hessian adds each operand's Hessian term, then
    per operand pair the cross term dJ_k dJ_l and its transpose
    (second-order forward-mode Taylor propagation).  Every component is
    added in the order the terms and operands are given, so a rewrite that
    keeps that order keeps the bits.  The result has the smallest operand
    order: pass operands cut with ``jtruncate`` when only the value is read.
    A ``constant`` operand's gradient and Hessian kernels, and every cross
    kernel it is in, are skipped; if every operand is constant, so is the
    result, with fresh zero derivatives.
    """
    rules, order, constant = [], 2, True
    for term in terms:
        if isinstance(term[0], str):
            coef, spec, ops = 1, term[0], term[1:]
        else:
            coef, spec, ops = term[0], term[1], term[2:]
        rules.append((coef, _product_rule(spec, len(ops)), ops))
        for J in ops:
            constant = constant and J.constant
            if J.hess is None:
                order = min(order, 0 if J.grad is None else 1)
    val = grad = hess = None
    for coef, (vkernel, gkernels, hkernels, xkernels), ops in rules:
        vals = [J.val for J in ops]
        val = _accumulate(val, coef, vkernel(*vals))
        if order < 1 or constant:
            continue
        for k, kernel in enumerate(gkernels):
            if ops[k].constant:
                continue
            args = vals.copy()
            args[k] = ops[k].grad
            grad = _accumulate(grad, coef, kernel(*args))
        if order < 2:
            continue
        for k, kernel in enumerate(hkernels):
            if ops[k].constant:
                continue
            args = vals.copy()
            args[k] = ops[k].hess
            hess = _accumulate(hess, coef, kernel(*args))
        for k, l, kernel in xkernels:
            if ops[k].constant or ops[l].constant:
                continue
            args = vals.copy()
            args[k] = ops[k].grad
            args[l] = ops[l].grad
            cross = kernel(*args)
            hess = _accumulate(hess, coef, cross)
            hess = _accumulate(hess, coef, cross.swapaxes(-1, -2))
    if constant:
        return Jet2.const(val, ops[0].m, order=order)
    return Jet2._new(val, grad, hess, ops[0].m)


# ---- matrix calculus on jets ------------------------------------------------

def jmatmul(A, B):
    """Matrix product of two matrix jets (batched)."""
    return jcontract(("ik,kj->ij", A, B))


def jmatvec(A, X):
    """Matrix jet applied to a vector jet: (A X)^i = A^i_k X^k."""
    return jcontract(("ik,k->i", A, X))


def jtrace(A):
    """Trace of a matrix jet."""
    return jcontract(("ii->", A))


def jtruncate(J, order):
    """J without the derivatives above ``order``, which no consumer reads.

    A reader of values cuts one operand of each contraction, to order 1
    where it is differentiated and to order 0 where it is not: the
    contraction then has order 0 (see jcontract) and the same value bits.
    """
    if J.order <= order:
        return J
    return Jet2._new(J.val, J.grad if order >= 1 else None, None, J.m,
                     J.constant)


def jtranspose(A):
    """Transpose of a matrix jet."""
    return Jet2._new(A.val.swapaxes(-1, -2),
                     None if A.grad is None else A.grad.swapaxes(-3, -2),
                     None if A.hess is None else A.hess.swapaxes(-4, -3), A.m,
                     A.constant)


# Reciprocal condition number below which a matrix counts as numerically
# singular.  |det| is no measure of singularity: it scales with the n-th power
# of the entries and is tiny for a wide but benign spectrum.  The condition
# number is one (Higham, Accuracy and Stability of Numerical Algorithms).
RCOND_MIN = 1e-12


def check_invertible(val, inv, what="tensor"):
    """Raise SingularTensorError if any batched matrix is numerically singular.

    ``inv`` is the inverse already computed for ``val``.  A matrix counts as
    singular when its reciprocal condition number 1 / (||A|| ||A^-1||), in
    the infinity norm, falls below RCOND_MIN = 1e-12 or is not a number.
    The estimate reuses the inverse, so the guard adds no factorization.
    """
    # ufunc reductions, not the .sum()/.max()/.all() method wrappers: at B=1
    # the wrappers cost as much as the inversion this guards
    cond = (np.maximum.reduce(np.add.reduce(np.absolute(val), -1), -1)
            * np.maximum.reduce(np.add.reduce(np.absolute(inv), -1), -1))
    # one reduction on the passing path: multiplying by RCOND_MIN > 0 keeps
    # the order, and a nan propagates through the maximum
    if np.maximum.reduce(cond, None, initial=0.0) * RCOND_MIN <= 1.0:
        return
    ok = cond * RCOND_MIN <= 1.0          # False for inf and nan too
    raise SingularTensorError(
        f"{what} is numerically singular at {int(ok.size - ok.sum())} of "
        f"{ok.size} sample points (reciprocal condition number "
        f"< {RCOND_MIN:g})")


def _guarded_inv(val, what):
    """np.linalg.inv with the singularity guard; exact breakdown raises too."""
    try:
        V = np.linalg.inv(val)
    except np.linalg.LinAlgError:
        raise SingularTensorError(
            f"{what} is exactly singular at a sample point (zero pivot)") from None
    check_invertible(val, V, what)
    return V


def jinv(A, what="matrix"):
    """Inverse of a matrix jet, with an explicit singularity guard.

    The Hessian d2(A^-1)_ab = V dA_a V dA_b V + (a <-> b) - V d2A_ab V, with
    V = A^-1, is built from batched matrix products, two operands at a
    time, with at most one Hessian-sized temporary beside the result.  The
    inverse of a ``constant`` jet is constant and costs no product.
    """
    V = _guarded_inv(A.val, what)
    if A.constant:
        return Jet2.const(V, A.m, order=A.order)
    grad = hess = None
    if A.grad is not None:
        VA = np.einsum('...ik,...kla->...ila', V, A.grad)      # V dA_a
        grad = -np.einsum('...ika,...kj->...ija', VA, V)
        if A.hess is not None:
            lead, n, m = V.shape[:-2], V.shape[-1], A.m
            # V d2A_ab V: one (n, n) @ (n, n m m) product, then V^T from
            # the left on each row i of it
            VH = np.matmul(V, A.hess.reshape(lead + (n, n * m * m)))
            VH = VH.reshape(lead + (n, n, m * m))
            hess = np.matmul(V.swapaxes(-1, -2)[..., None, :, :], VH)
            hess = hess.reshape(A.hess.shape)
            del VH                                  # before the next temporary
            # T[i, j, a, b] = (V dA_a)_ik (-V dA_b V)_kj = -(V dA_a V dA_b V)_ij
            T = np.matmul(VA.swapaxes(-1, -2), grad.reshape(lead + (1, n, n * m)))
            T = T.reshape(lead + (n, m, n, m)).swapaxes(-3, -2)
            hess += T
            hess += T.swapaxes(-1, -2)
            np.negative(hess, out=hess)
    return Jet2._new(V, grad, hess, A.m)


def jlogabsdet(A, what="matrix"):
    """log|det| of a matrix jet, with an explicit singularity guard.

    The Hessian is tr(V d2A_ab) - tr(W_a W_b), with V = A^-1 and
    W_a = A^-1 dA_a; the second trace is ``trace_pair(W, W)``.  W comes
    from a solve with A, not from a product with V: the trace cancels most
    of its terms when A is ill-conditioned, and the backward-stable solve
    leaves less roundoff in what remains (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 14).
    """
    V = _guarded_inv(A.val, what)
    sign, logabs = np.linalg.slogdet(A.val)
    grad = hess = None
    if A.grad is not None:
        grad = np.einsum('...ij,...jia->...a', V, A.grad)
        if A.hess is not None:
            lead, n, m = V.shape[:-2], V.shape[-1], A.m
            W = np.linalg.solve(A.val, A.grad.reshape(lead + (n, n * m)))
            W = W.reshape(lead + (n, n, m))                  # W[i, k, a]
            hess = (np.einsum('...ij,...jiab->...ab', V, A.hess)
                    - trace_pair(W, W))
    return Jet2._new(logabs, grad, hess, A.m)


def trace_pair(X, Y):
    """tr(X_a Y_b) for two stacks of n x n matrices on a trailing axis.

    X[..., i, k, a] and Y[..., k, i, b] summed over i and k give the
    (..., a, b) array, as one (m, n^2) @ (n^2, m) matmul per sample of X
    with the (i, k)-transpose of Y.
    """
    lead, n, m = X.shape[:-3], X.shape[-2], X.shape[-1]
    return np.matmul(X.reshape(lead + (n * n, m)).swapaxes(-1, -2),
                     Y.swapaxes(-3, -2).reshape(lead + (n * n, m)))


def jmatpow(A, k):
    """Integer power of a matrix jet (k may be negative; see errors.check_int)."""
    k = check_int("exponent", k)
    if k == 0:
        return Jet2.const(np.eye(A.val.shape[-1]), A.m, batch=A.val.shape[0],
                          order=A.order)
    base = A if k > 0 else jinv(A)
    out = base
    for _ in range(abs(k) - 1):
        out = jmatmul(out, base)
    return out
