"""Tape-based reverse-mode autodiff over dense complex tensors.

All values are complex128 numpy arrays, including quantities that happen to
be real (they simply carry zero imaginary parts). Gradient convention: for a
real scalar loss L and a complex leaf z = x + iy, the stored gradient is

    grad(z) = dL/dx + 1j * dL/dy

so a real optimizer can update the two real components of any complex
parameter independently, and real-valued parameters carry real gradients.
Equivalently, for a perturbation dz the first-order change of the loss is
Re(sum(conj(grad) * dz)); every adjoint rule below is derived from that
pairing.

The graph is dynamic: ops executed inside a ``with Tape():`` block append
records to that tape, and ``backward`` replays the records in reverse. A
record holds its output's node id, not the output, and its parents' ids
(tracked leaves as themselves), so an op's output stays alive only while
the caller or a vjp that needs its values holds it. Ops executed with no
active tape run eagerly and produce untracked outputs, which is the
intended fast path for evaluation loops. Leaving the ``with`` block drops
the tape's records; ``backward`` must run inside the block.

Ops that take a batch treat the leading axis (or axes) as independent
windows: each window's forward arithmetic has the same shapes whatever
the batch holds, so a window's values are bitwise the same in any batch.
A gradient that sums over the rows of a batch does so in an order fixed
by the shapes alone, never through a BLAS product, whose split of the sum
(and so whose bits) depends on its thread count.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .errors import ArityError, AutodiffError, LabelError, ShapeError

_COMPLEX = np.complex128
_ids = itertools.count()

__all__ = [
    "Tensor", "Tape", "tensor", "parameter", "backward",
    "add", "sub", "mul", "mul_const", "add_const", "scalar_mul",
    "matvec", "reshape",
    "real_part", "absval", "sum_last", "square_norm",
    "spow", "weighted_sum", "segment_sum", "take_rows",
    "relu", "tanh", "softmax",
    "cross_entropy",
]


class Tensor:
    """A dense complex128 array plus gradient bookkeeping.

    Leaves are created with ``tensor``/``parameter``; everything else comes
    out of ops. ``grad`` is populated on tracked leaves by ``backward`` and
    accumulates across calls. ``is_real`` marks a parameter built from a
    real array, whose imaginary half code outside the tape leaves alone.
    """

    __slots__ = ("values", "grad", "tracked", "is_real", "node_id", "_tape", "_index")

    def __init__(self, values, tracked: bool = False):
        arr = np.asarray(values, dtype=_COMPLEX)
        if arr.ndim and not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)   # 0-d arrays are left alone
        self.values = arr
        self.grad: np.ndarray | None = None
        self.tracked = tracked
        self.is_real = False
        self.node_id = next(_ids)
        self._tape: "Tape | None" = None   # tape holding the op that made this node
        self._index = -1                    # record index within that tape

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    @property
    def is_leaf(self) -> bool:
        return self._tape is None

    def item(self) -> complex:
        if self.values.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return complex(self.values.reshape(-1)[0])

    def real_item(self) -> float:
        return self.item().real

    def __repr__(self) -> str:
        tag = "leaf" if self.is_leaf else "node"
        return f"Tensor({tag}, shape={self.shape}, tracked={self.tracked})"


def tensor(values) -> Tensor:
    """Wrap array-like data as an untracked leaf."""
    return Tensor(values)


def parameter(values) -> Tensor:
    """Create a trainable leaf: tracked, with persistent ``grad``, and
    ``is_real`` when ``values`` is not complex. Its values are complex128
    all the same; a real leaf's gradient has a zero imaginary part."""
    out = Tensor(values, tracked=True)
    out.is_real = not np.iscomplexobj(values)
    return out


_tapes: list["Tape"] = []      # active tapes, innermost last


class Tape:
    """Ordered record of ops for one forward pass.

    Each record keeps ids and a vjp, never an op's output: the values a
    backward sweep needs are the ones its vjps capture. Leaving the
    ``with`` block closes the tape and drops its records.
    """

    def __init__(self):
        # each record: (output id, parents, vjp), one parent entry per
        # operand: a tracked leaf itself, an interior node's id, or None
        # when untracked; vjp(g_out) returns one gradient contribution per
        # parent (None for skip)
        self._records: list[tuple[int, tuple, Callable]] = []
        self.closed = False

    def __enter__(self) -> "Tape":
        _tapes.append(self)
        return self

    def __exit__(self, *exc) -> None:
        if not _tapes or _tapes[-1] is not self:
            raise AutodiffError("tape stack corrupted: exiting a tape that is not active")
        _tapes.pop()
        self.closed = True
        self._records = []

    def __len__(self) -> int:
        return len(self._records)

    def _record(self, out: Tensor, parents: tuple[Tensor, ...], vjp: Callable) -> None:
        out._tape = self
        out._index = len(self._records)
        ids = tuple(None if not p.tracked else p if p.is_leaf else p.node_id for p in parents)
        self._records.append((out.node_id, ids, vjp))


def _active_tape() -> Tape | None:
    return _tapes[-1] if _tapes else None


def _make(values: np.ndarray, parents: tuple[Tensor, ...], vjp: Callable) -> Tensor:
    """Create an op output, recording it if any parent is tracked and a tape
    is active. With no active tape the result is untracked (eager mode)."""
    out = Tensor(values)
    if any(p.tracked for p in parents):
        tape = _active_tape()
        if tape is not None:
            out.tracked = True
            tape._record(out, parents, vjp)
    return out


def backward(scalar: Tensor, populate_leaves: bool = True) -> dict[Tensor, np.ndarray]:
    """Reverse sweep from a real 0-d node.

    Returns a map {tracked leaf -> gradient array} for every leaf reached.
    The arrays are read-only by contract: one may be the very array a vjp
    returned, shared with another leaf's entry. When ``populate_leaves``
    is true (default) the same gradients are also accumulated into each
    leaf's ``grad``; calling backward twice without resetting therefore
    accumulates.
    """
    if not isinstance(scalar, Tensor):
        raise AutodiffError("backward expects a Tensor")
    if scalar.shape != ():
        raise AutodiffError(f"backward needs a 0-d scalar, got shape {scalar.shape}")
    if abs(scalar.values.imag) > 1e-12:
        raise AutodiffError(
            f"backward needs a real scalar; imaginary part is {scalar.values.imag:.3e}"
        )
    if scalar._tape is None:
        raise AutodiffError("backward target was not produced on an active tape")

    tape = scalar._tape
    if tape.closed:
        raise AutodiffError("backward called after its tape closed; call it "
                            "inside the `with Tape():` block")
    grads: dict[int, np.ndarray] = {scalar.node_id: np.ones((), dtype=_COMPLEX)}
    leaves: dict[int, Tensor] = {}
    for out, parents, vjp in reversed(tape._records[: scalar._index + 1]):
        g = grads.pop(out, None)
        if g is None:
            continue
        for p, c in zip(parents, vjp(g)):
            if c is None or p is None:
                continue
            if isinstance(p, Tensor):
                leaves.setdefault(p.node_id, p)
                p = p.node_id
            prev = grads.get(p)
            # never mutate a stored buffer in place: other edges may alias it
            grads[p] = c if prev is None else prev + c

    result: dict[Tensor, np.ndarray] = {}
    for i, p in leaves.items():
        total = np.asarray(grads[i], dtype=_COMPLEX)
        if populate_leaves:
            if p.grad is None:
                p.grad = np.zeros(p.shape, dtype=_COMPLEX)
            p.grad = p.grad + total
        result[p] = total
    return result


# ---------------------------------------------------------------------------
# helpers

def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def _sum_leading(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` over the leading axes it has beyond ``shape``, in index
    order (the adjoint of broadcasting over leading axes)."""
    if g.shape == shape:
        return g
    return g.reshape((-1,) + shape).sum(axis=0)


def _scatter_rows(buf: np.ndarray, idx: np.ndarray, g: np.ndarray) -> None:
    """``np.add.at(buf, idx, g)`` for indices into the first axis of a
    C-contiguous ``buf``, run on the flat buffer through one element index
    per entry of ``g``. Every element receives the same additions in the
    same order as the row-indexed form, so the result is bitwise the same;
    numpy's flat-index path is much faster than its row-indexed one."""
    width = math.prod(buf.shape[1:])
    flat = (idx[..., None] * width + np.arange(width)).reshape(-1)
    np.add.at(buf.reshape(-1), flat, g.reshape(-1))


_OUTER_CHUNK = 8                # rows in one chunk of row products


def _row_outer_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_u outer(a[u], b[u]) over the rows of (U, m) and (U, p) arrays:
    each chunk of ``_OUTER_CHUNK`` rows (the last one may be shorter)
    summed by one matrix product, all chunks in one batched ``np.matmul``,
    then the chunk sums added in chunk order by ``np.add.reduce``. The
    order depends on the shapes alone, so the bits do not depend on the
    BLAS thread count."""
    step = _OUTER_CHUNK
    full = a.shape[0] - a.shape[0] % step
    sums = np.matmul(a[:full].reshape(-1, step, a.shape[1]).swapaxes(1, 2),
                     b[:full].reshape(-1, step, b.shape[1]))
    if full < a.shape[0]:
        sums = np.concatenate((sums, (a[full:].T @ b[full:])[None]))
    return np.add.reduce(sums, axis=0)


# ---------------------------------------------------------------------------
# elementwise and scalar ops

def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum. ``b`` may also have the shape of ``a``'s trailing
    axes (a 0-d scalar included); it is then added at every leading index."""
    lead = a.values.ndim - b.values.ndim
    if lead < 0 or a.shape[lead:] != b.shape:
        raise ShapeError(f"add: shape mismatch {a.shape} vs {b.shape}")
    shape = b.shape
    return _make(a.values + b.values, (a, b), lambda g: (g, _sum_leading(g, shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")
    return _make(a.values - b.values, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product. As in ``add``, ``b`` may have the shape of
    ``a``'s trailing axes; it then multiplies at every leading index."""
    lead = a.values.ndim - b.values.ndim
    if lead < 0 or a.shape[lead:] != b.shape:
        raise ShapeError(f"mul: shape mismatch {a.shape} vs {b.shape}")
    av, bv, shape = a.values, b.values, b.shape
    return _make(av * bv, (a, b),
                 lambda g: (np.conj(bv) * g, _sum_leading(np.conj(av) * g, shape)))


def mul_const(a: Tensor, c) -> Tensor:
    """Multiply by a constant scalar or a constant same-shape array."""
    carr = np.asarray(c, dtype=_COMPLEX)
    if carr.shape not in ((), a.shape):
        raise ShapeError(f"mul_const: constant shape {carr.shape} does not match {a.shape}")
    cc = np.conj(carr)
    return _make(a.values * carr, (a,), lambda g: (cc * g,))


def add_const(a: Tensor, c) -> Tensor:
    carr = np.asarray(c, dtype=_COMPLEX)
    if carr.shape not in ((), a.shape):
        raise ShapeError(f"add_const: constant shape {carr.shape} does not match {a.shape}")
    return _make(a.values + carr, (a,), lambda g: (g,))


def scalar_mul(s: Tensor, t: Tensor) -> Tensor:
    """Scale ``t`` by ``s``: a 0-d ``s`` scales all of ``t``; an ``s`` shaped
    like ``t``'s leading axes scales each leading index by its own scalar."""
    k = s.values.ndim
    if t.shape[:k] != s.shape or t.values.ndim == k:
        raise ShapeError(f"scalar_mul: scale shape {s.shape} must be the leading "
                         f"axes of {t.shape}")
    sv = s.values.reshape(s.shape + (1,) * (t.values.ndim - k))
    tv = t.values
    shape = s.shape

    def vjp(g):
        gs = (np.conj(tv) * g).reshape(shape + (-1,)).sum(axis=-1)
        return (np.asarray(gs, dtype=_COMPLEX), np.conj(sv) * g)

    return _make(sv * tv, (s, t), vjp)


def real_part(a: Tensor) -> Tensor:
    """Real part, as a real-valued tensor."""
    return _make(a.values.real.astype(_COMPLEX), (a,),
                 lambda g: (g.real.astype(_COMPLEX),))


def absval(a: Tensor) -> Tensor:
    """Elementwise magnitude |z|. Subgradient 0 at exact zeros."""
    av = a.values
    mags = np.abs(av)

    def vjp(g):
        phase = np.divide(av, mags, out=np.zeros_like(av), where=mags > 0)
        return (g.real * phase,)

    return _make(mags.astype(_COMPLEX), (a,), vjp)


def sum_last(a: Tensor) -> Tensor:
    """Sum over the last axis: (..., m) -> (...); a vector gives a 0-d sum.

    Each sum's addends are value-sorted first, so permuting them leaves the
    result unchanged, bit for bit: ``mixer.l1_normalize`` takes its l1
    total this way over a window's positions, in position order.
    """
    if a.values.ndim == 0:
        raise ShapeError("sum_last: operand must have at least one axis")
    shape = a.shape
    val = np.add.reduce(np.sort(a.values, axis=-1), axis=-1)
    return _make(np.asarray(val, dtype=_COMPLEX), (a,),
                 lambda g: (np.repeat(g[..., None], shape[-1], axis=-1),))


def square_norm(a: Tensor) -> Tensor:
    """sum(|z_i|^2) over the last axis, real: a vector gives a 0-d tensor,
    a (W, m) batch one squared norm per row."""
    av = a.values
    if av.ndim == 0:
        raise ShapeError("square_norm: operand must have at least one axis")
    parts = av.view(np.float64)
    val = np.add.reduce(parts * parts, axis=-1)
    return _make(val.astype(_COMPLEX), (a,),
                 lambda g: (2.0 * g.real[..., None] * av,))


def spow(s: Tensor, p: float) -> Tensor:
    """Elementwise real power s**p of a positive real tensor. A NaN base
    gives NaN: it comes from values that already overflowed upstream, and
    it reaches the loss, where a training loop can report the divergence."""
    base = s.values.real
    bad = base[base <= 0.0]
    if bad.size:
        raise AutodiffError(f"spow requires a positive base, got {float(bad.min()):.3e}")
    val = np.power(base, p)
    dval = p * np.power(base, p - 1.0)
    return _make(val.astype(_COMPLEX), (s,), lambda g: ((g.real * dval).astype(_COMPLEX),))


# ---------------------------------------------------------------------------
# linear algebra

def matvec(m: Tensor, v: Tensor) -> Tensor:
    """Matrix (r, c) times each row of a (W, c) batch, one matrix-vector
    product per row: (W, r). The matrix's gradient sums over the rows in an
    order fixed by the shapes (see ``_row_outer_sum``)."""
    if m.values.ndim != 2 or v.values.ndim != 2:
        raise ShapeError(f"matvec: need a 2-d matrix and (W, c) rows, got {m.shape} and {v.shape}")
    if m.shape[1] != v.shape[1]:
        raise ShapeError(f"matvec: inner dimensions differ, {m.shape} vs {v.shape}")
    mv, vv = m.values, v.values

    def vjp(g):
        return (_row_outer_sum(g, np.conj(vv)), g @ np.conj(mv))

    return _make(np.matmul(mv, vv[:, :, None])[:, :, 0], (m, v), vjp)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = a.shape
    try:
        values = a.values.reshape(shape)
    except ValueError as e:
        raise ShapeError(f"reshape: cannot view {old} as {shape}") from e
    return _make(values.copy(), (a,), lambda g: (g.reshape(old).copy(),))


def weighted_sum(coeffs: Tensor, terms: Sequence[Tensor]) -> Tensor:
    """sum_j coeffs[j] * terms[j] over a list of same-shape tensors.

    The terms are added in list order, one ``np.add.reduce`` over the term
    axis, so the bits depend on the order the caller gives.
    """
    terms = list(terms)
    if not terms:
        raise ArityError("weighted_sum: empty term list")
    if coeffs.values.ndim != 1 or coeffs.shape[0] != len(terms):
        raise ShapeError(
            f"weighted_sum: got {len(terms)} terms but coefficient shape {coeffs.shape}"
        )
    shape = terms[0].shape
    for t in terms[1:]:
        _check_same_shape(terms[0], t, "weighted_sum")
    cv = coeffs.values
    stack = np.stack([t.values.reshape(-1) for t in terms])  # (k, flat)
    out = np.add.reduce(cv[:, None] * stack, axis=0).reshape(shape)

    def vjp(g):
        gf = g.reshape(-1)
        gc = np.add.reduce(np.conj(stack) * gf, axis=1)
        contribs = [np.asarray(gc, dtype=_COMPLEX)]
        contribs.extend((np.conj(cv[j]) * gf).reshape(shape) for j in range(len(terms)))
        return tuple(contribs)

    return _make(out, (coeffs, *terms), vjp)


def take_rows(a: Tensor, indices) -> Tensor:
    """Gather rows (2-d) or entries (1-d) by integer index, with repeats.
    ``indices`` of any shape S gives an output of shape S + a.shape[1:]."""
    idx = np.asarray(indices, dtype=np.int64)
    if a.values.ndim not in (1, 2):
        raise ShapeError(f"take_rows: operand must be 1-d or 2-d, got {a.shape}")
    n = a.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ShapeError(f"take_rows: index out of range for first axis of length {n}")
    av = a.values
    shape = a.shape

    def vjp(g):
        buf = np.zeros(shape, dtype=_COMPLEX)
        _scatter_rows(buf, idx, g)
        return (buf,)

    return _make(av[idx], (a,), vjp)


def _segments(counts, total: int) -> tuple[np.ndarray, np.ndarray]:
    """(run of each row, first row of each run) for positive run lengths."""
    c = np.asarray(counts, dtype=np.int64)
    if c.ndim != 1 or c.size == 0 or np.any(c < 1) or int(c.sum()) != total:
        raise ShapeError(f"segments: counts {c.tolist()} must be positive and sum to {total}")
    return np.repeat(np.arange(c.size), c), np.cumsum(c) - c


def segment_sum(a: Tensor, counts) -> Tensor:
    """Sum consecutive runs of rows: (W, ...) -> (D, ...) for D run lengths
    ``counts``. Each run's rows are added in the order given, one
    ``np.add.reduceat``, so a run's sum depends only on its own rows."""
    if a.values.ndim == 0:
        raise ShapeError("segment_sum: operand must have at least one axis")
    seg, starts = _segments(counts, a.shape[0])
    return _make(np.add.reduceat(a.values, starts, axis=0), (a,), lambda g: (g[seg],))


# ---------------------------------------------------------------------------
# nonlinearities and loss

def relu(a: Tensor) -> Tensor:
    """Zero out entries with non-positive real part (meant for real data)."""
    mask = (a.values.real > 0).astype(np.float64)
    return _make(a.values * mask, (a,), lambda g: (g * mask,))


def tanh(a: Tensor) -> Tensor:
    w = np.tanh(a.values)
    dconj = np.conj(1.0 - w * w)
    return _make(w, (a,), lambda g: (dconj * g,))


def softmax(a: Tensor, counts) -> Tensor:
    """Softmax over each consecutive run of a real-valued vector's entries,
    for run lengths ``counts`` (``[n]`` for the whole vector)."""
    if a.values.ndim != 1:
        raise ShapeError(f"softmax: operand must be 1-d, got {a.shape}")
    x = a.values.real
    seg, starts = _segments(counts, x.size)
    ex = np.exp(x - np.maximum.reduceat(x, starts)[seg])
    y = ex / np.add.reduceat(ex, starts)[seg]

    def vjp(g):
        gr = g.real
        inner = np.add.reduceat(gr * y, starts)[seg]
        return ((y * (gr - inner)).astype(_COMPLEX),)

    return _make(y.astype(_COMPLEX), (a,), vjp)


def cross_entropy(logits: Tensor, label) -> Tensor:
    """Softmax cross-entropy of a real logit vector against an index label
    (0-d), or of each row of a (D, C) batch against its label (D,)."""
    if logits.values.ndim not in (1, 2):
        raise ShapeError(f"cross_entropy: logits must be 1-d or 2-d, got {logits.shape}")
    x = logits.values.real.reshape(-1, logits.shape[-1])
    n = x.shape[1]
    labels = np.asarray(label, dtype=np.int64).reshape(-1)
    if labels.shape != (x.shape[0],):
        raise ShapeError(f"cross_entropy: {labels.size} label(s) for {x.shape[0]} row(s)")
    bad = labels[(labels < 0) | (labels >= n)]
    if bad.size:
        raise LabelError(f"label {int(bad[0])} outside [0, {n})")
    rows = np.arange(x.shape[0])
    m = x.max(axis=1)
    lse = m + np.log(np.exp(x - m[:, None]).sum(axis=1))
    loss = lse - x[rows, labels]
    probs = np.exp(x - lse[:, None])
    shape = logits.shape

    def vjp(g):
        gx = probs.copy()
        gx[rows, labels] -= 1.0
        return ((g.real.reshape(-1, 1) * gx).reshape(shape).astype(_COMPLEX),)

    return _make(loss.reshape(shape[:-1]).astype(_COMPLEX), (logits,), vjp)
