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
records to that tape, and ``backward`` replays the records in reverse. Ops
executed with no active tape run eagerly and produce untracked outputs,
which is the intended fast path for evaluation loops. Leaving the ``with``
block drops the tape's records, so a finished graph is freed by reference
counting alone; ``backward`` must run inside the block.

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
    "matvec", "matmul", "transpose", "reshape",
    "real_part", "absval", "sumall", "sum_last", "square_norm",
    "spow", "weighted_sum", "collapse_rows", "segment_sum", "take_rows",
    "slice_vec", "broadcast_rows", "relu", "tanh", "softmax",
    "cross_entropy",
]


class Tensor:
    """A dense complex128 array plus gradient bookkeeping.

    Leaves are created with ``tensor``/``parameter``; everything else comes
    out of ops. ``grad`` is populated on tracked leaves by ``backward`` and
    accumulates across calls.
    """

    __slots__ = ("values", "grad", "tracked", "node_id", "_tape", "_index")

    def __init__(self, values, tracked: bool = False):
        arr = np.asarray(values, dtype=_COMPLEX)
        if arr.ndim and not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)   # 0-d arrays are left alone
        self.values = arr
        self.grad: np.ndarray | None = None
        self.tracked = tracked
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


def tensor(values, tracked: bool = False) -> Tensor:
    """Wrap array-like data as a (by default untracked) leaf."""
    return Tensor(values, tracked=tracked)


def parameter(values) -> Tensor:
    """Create a trainable leaf: tracked, with persistent ``grad``."""
    return Tensor(values, tracked=True)


_tapes: list["Tape"] = []      # active tapes, innermost last


class Tape:
    """Ordered record of ops for one forward pass.

    Leaving the ``with`` block closes the tape and drops its records; the
    records are the only references from a tape to its outputs, so this
    breaks the output -> tape -> output cycle.
    """

    def __init__(self):
        # each record: (out, parents, vjp) where vjp(g_out) returns one
        # gradient contribution per parent (None for skip)
        self._records: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
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
        self._records.append((out, parents, vjp))


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
        if scalar.tracked:
            # Gradient of a bare leaf with respect to itself.
            g = np.ones((), dtype=_COMPLEX)
            if populate_leaves:
                if scalar.grad is None:
                    scalar.grad = np.zeros((), dtype=_COMPLEX)
                scalar.grad = scalar.grad + g
            return {scalar: g}
        raise AutodiffError("backward target was not produced on an active tape")

    tape = scalar._tape
    if tape.closed:
        raise AutodiffError("backward called after its tape closed; call it "
                            "inside the `with Tape():` block")
    grads: dict[int, np.ndarray] = {scalar.node_id: np.ones((), dtype=_COMPLEX)}
    leaf_sums: dict[int, tuple[Tensor, np.ndarray]] = {}

    for out, parents, vjp in reversed(tape._records[: scalar._index + 1]):
        g = grads.pop(out.node_id, None)
        if g is None:
            continue
        contribs = vjp(g)
        for p, c in zip(parents, contribs):
            if c is None or not p.tracked:
                continue
            if p.is_leaf:
                if p.node_id in leaf_sums:
                    leaf_sums[p.node_id] = (p, leaf_sums[p.node_id][1] + c)
                else:
                    # no copy: nothing here or downstream writes into a
                    # gradient in place, so an alias is safe to keep
                    leaf_sums[p.node_id] = (p, np.asarray(c, dtype=_COMPLEX))
            else:
                prev = grads.get(p.node_id)
                # never mutate a stored buffer in place: other edges may alias it
                grads[p.node_id] = c if prev is None else prev + c

    result: dict[Tensor, np.ndarray] = {}
    for p, total in leaf_sums.values():
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


def _padded_sum(padded: np.ndarray) -> np.ndarray:
    """Sum a zero-padded (G, P, ...) layout over axis 1: the P addends of
    each output entry are value-sorted, then added strictly left to right.
    Adding an exact zero changes no partial sum, so the result does not
    depend on how much padding a group carries."""
    ordered = np.sort(padded, axis=1)
    out = ordered[:, 0].copy()
    for j in range(1, ordered.shape[1]):
        out += ordered[:, j]
    return out


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
    """Elementwise product of same-shape tensors."""
    _check_same_shape(a, b, "mul")
    av, bv = a.values, b.values
    return _make(av * bv, (a, b), lambda g: (np.conj(bv) * g, np.conj(av) * g))


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


def sumall(a: Tensor) -> Tensor:
    """Sum of all entries, as a 0-d tensor.

    The reduction is canonical (value-sorted), so the result is invariant
    under any permutation of the entries, bit for bit.
    """
    shape = a.shape
    flat = a.values.reshape(-1)
    val = flat[0] if flat.size == 1 else np.add.reduce(np.sort(flat))
    return _make(np.asarray(val, dtype=_COMPLEX), (a,),
                 lambda g: (np.full(shape, complex(g), dtype=_COMPLEX),))


def sum_last(a: Tensor) -> Tensor:
    """Sum over the last axis: (..., m) -> (...); a vector gives a 0-d sum.

    Canonical like ``sumall``: each sum's addends are value-sorted first, so
    permuting them leaves the result unchanged, bit for bit.
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
    """Matrix (r, c) times vector (c,), or times each row of a (W, c) batch
    with one matrix-vector product per row: (W, r)."""
    if m.values.ndim != 2 or v.values.ndim not in (1, 2):
        raise ShapeError(f"matvec: need 2-d and 1- or 2-d operands, got {m.shape} and {v.shape}")
    if m.shape[1] != v.shape[-1]:
        raise ShapeError(f"matvec: inner dimensions differ, {m.shape} vs {v.shape}")
    mv, vv = m.values, v.values
    if vv.ndim == 1:
        def vjp(g):
            return (np.outer(g, np.conj(vv)), np.conj(mv).T @ g)

        return _make(mv @ vv, (m, v), vjp)

    def vjp_rows(g):
        return (_row_outer_sum(g, np.conj(vv)), g @ np.conj(mv))

    return _make(np.matmul(mv, vv[:, :, None])[:, :, 0], (m, v), vjp_rows)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(r, c) @ (c, p), or (..., r, c) @ (c, p) with one product per
    leading index; ``b``'s gradient sums over all rows of ``a`` in an
    order fixed by the shapes (see ``_row_outer_sum``)."""
    if a.values.ndim < 2 or b.values.ndim != 2:
        raise ShapeError(f"matmul: need (..., r, c) and 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} vs {b.shape}")
    av, bv = a.values, b.values

    def vjp(g):
        rows = av.reshape(-1, av.shape[-1])
        return (g @ np.conj(bv).T, _row_outer_sum(np.conj(rows), g.reshape(rows.shape[0], -1)))

    return _make(np.matmul(av, bv), (a, b), vjp)


def transpose(a: Tensor) -> Tensor:
    if a.values.ndim != 2:
        raise ShapeError(f"transpose: need a 2-d operand, got {a.shape}")
    return _make(a.values.T.copy(), (a,), lambda g: (g.T.copy(),))


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = a.shape
    try:
        values = a.values.reshape(shape)
    except ValueError as e:
        raise ShapeError(f"reshape: cannot view {old} as {shape}") from e
    return _make(values.copy(), (a,), lambda g: (g.reshape(old).copy(),))


def weighted_sum(coeffs: Tensor, terms: Sequence[Tensor]) -> Tensor:
    """sum_j coeffs[j] * terms[j] over a list of same-shape tensors.

    The reduction over j is canonical (value-sorted), so jointly permuting
    coefficients and terms leaves the output bit-for-bit unchanged.
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
    out = _padded_sum((cv[:, None] * stack)[None])[0].reshape(shape)

    def vjp(g):
        gf = g.reshape(-1)
        gc = np.add.reduce(np.conj(stack) * gf, axis=1)
        contribs = [np.asarray(gc, dtype=_COMPLEX)]
        contribs.extend((np.conj(cv[j]) * gf).reshape(shape) for j in range(len(terms)))
        return tuple(contribs)

    return _make(out, (coeffs, *terms), vjp)


def _window_order(mask: np.ndarray, win: np.ndarray, coeffs: np.ndarray,
                  rows: np.ndarray) -> np.ndarray:
    """An order of the k entries under a (W, n) ``mask`` (``win``: the
    window of each, in row-major order) that keeps each window's entries
    together and orders them by coefficient, real part then imaginary
    part. Entries of one window whose whole coefficients tie are ordered by
    their rows' values, compared lexicographically (the real, then the
    imaginary part of each amplitude in turn); entries that tie on all of
    that carry identical terms."""
    w, n = mask.shape
    key = np.zeros(mask.shape)
    key[mask] = coeffs.real
    flat = mask.reshape(-1)
    # each window's slots by real part, masked-out ones dropped; a slot's
    # rank among the masked-in slots is its entry
    slots = (np.argsort(key, axis=1) + n * np.arange(w)[:, None]).reshape(-1)
    order = (np.cumsum(flat) - 1)[slots[flat[slots]]]
    re = coeffs.real[order]
    tie = (win[1:] == win[:-1]) & (re[1:] == re[:-1])
    if not tie.any():
        return order
    # rare: refine each run of tied real parts by the imaginary part, then by
    # the row's values, one key at a time until no two entries tie
    tied = np.r_[tie, False] | np.r_[False, tie]
    sub, cls = order[tied], np.cumsum(np.r_[True, ~tie])[tied]
    keys = np.column_stack([coeffs.imag[sub], rows[sub].view(np.float64)])
    for j in range(keys.shape[1]):
        p = np.lexsort((keys[:, j], cls))
        sub, cls, keys = sub[p], cls[p], keys[p]
        step = (cls[1:] != cls[:-1]) | (keys[1:, j] != keys[:-1, j])
        if step.all():
            break
        cls = np.cumsum(np.r_[True, step])
    order[tied] = sub
    return order


def collapse_rows(coeffs: Tensor, rows: Tensor, mask=None) -> Tensor:
    """sum_j coeffs[j] * rows[j, :] for (k,) coefficients and (k, m) rows.

    With a (W, n) boolean ``mask``, which has k True entries, row j and
    coefficient j belong to the j-th True entry in row-major order. The
    output is (W, m): window w sums the terms of its masked-in slots, and a
    window with none gives an exact zero row.

    The sum is canonical per window: its terms are ordered by coefficient
    (real part, then imaginary part), and only terms whose whole
    coefficients tie are ordered by their rows' values, compared
    lexicographically. Then one ``np.add.reduceat`` over the ordered (k, m)
    terms reduces each window's run, so a window's bits depend only on its
    own ordered terms: jointly permuting a window's coefficients and rows
    leaves them unchanged (terms that tie on the whole key are identical),
    and so does whatever else the batch holds.
    """
    if coeffs.values.ndim != 1:
        raise ShapeError(f"collapse_rows: need (k,) coefficients, got {coeffs.shape}")
    k = coeffs.shape[0]
    m2 = np.ones((1, k), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if m2.ndim != 2 or int(m2.sum()) != k:
        raise ShapeError(f"collapse_rows: need one coefficient per masked-in entry of a "
                         f"(W, n) mask, got {coeffs.shape} and {m2.shape}")
    if rows.values.ndim != 2 or rows.shape[0] != k:
        raise ShapeError(f"collapse_rows: need ({k}, m) rows for the mask, got {rows.shape}")
    cv, rv = coeffs.values, rows.values
    win = np.nonzero(m2)[0]
    counts = np.bincount(win, minlength=m2.shape[0])
    order = _window_order(m2, win, cv, rv)
    terms = np.take(rv, order, axis=0)
    np.multiply(cv[order, None], terms, out=terms)
    out = np.zeros((m2.shape[0], rv.shape[1]), dtype=_COMPLEX)
    filled = counts > 0             # reduceat would hand an empty run the next run's row
    out[filled] = np.add.reduceat(terms, (np.cumsum(counts) - counts)[filled], axis=0)
    if mask is None:
        out = out[0]

    def vjp(g):
        gw = g.reshape(m2.shape[0], -1)[win]
        ga = np.matmul(np.conj(rv)[:, None, :], gw[:, :, None])[:, 0, 0]
        return (ga, np.conj(cv)[:, None] * gw)

    return _make(out, (coeffs, rows), vjp)


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


def _segment_ids(counts, total: int) -> tuple[np.ndarray, np.ndarray]:
    """(segment of each row, position of each row within its segment)."""
    c = np.asarray(counts, dtype=np.int64)
    if c.ndim != 1 or c.size == 0 or np.any(c < 1) or int(c.sum()) != total:
        raise ShapeError(f"segments: counts {c.tolist()} must be positive and sum to {total}")
    seg = np.repeat(np.arange(c.size), c)
    starts = np.cumsum(c) - c
    return seg, np.arange(total) - starts[seg]


def segment_sum(a: Tensor, counts) -> Tensor:
    """Sum consecutive runs of rows: (W, ...) -> (D, ...) for D run lengths
    ``counts``. Canonical like ``weighted_sum``: each run's rows are
    value-sorted per entry in a zero-padded (D, max run, ...) layout; when
    every run is one row, each row is its own sum."""
    av = a.values
    if av.ndim == 0:
        raise ShapeError("segment_sum: operand must have at least one axis")
    c = np.asarray(counts)
    if c.ndim == 1 and 0 < c.size == av.shape[0] and np.all(c == 1):
        return _make(av.astype(_COMPLEX), (a,), lambda g: (g,))
    seg, pos = _segment_ids(c, av.shape[0])
    padded = np.zeros((int(seg[-1]) + 1, int(pos.max()) + 1) + av.shape[1:], dtype=_COMPLEX)
    padded[seg, pos] = av
    out = _padded_sum(padded)
    return _make(out, (a,), lambda g: (g[seg],))


def slice_vec(a: Tensor, start: int, stop: int) -> Tensor:
    if a.values.ndim != 1:
        raise ShapeError(f"slice_vec: operand must be 1-d, got {a.shape}")
    n = a.shape[0]
    if not (0 <= start <= stop <= n):
        raise ShapeError(f"slice_vec: bad range [{start}:{stop}] for length {n}")

    def vjp(g):
        buf = np.zeros(n, dtype=_COMPLEX)
        buf[start:stop] = g
        return (buf,)

    return _make(a.values[start:stop].copy(), (a,), vjp)


def broadcast_rows(v: Tensor, k: int) -> Tensor:
    """Tile a vector (m,) into k identical rows (k, m)."""
    if v.values.ndim != 1:
        raise ShapeError(f"broadcast_rows: operand must be 1-d, got {v.shape}")
    if k < 1:
        raise ArityError("broadcast_rows: need k >= 1")
    out = np.tile(v.values, (k, 1))
    return _make(out, (v,), lambda g: (g.sum(axis=0),))


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


def softmax(a: Tensor, counts=None) -> Tensor:
    """Softmax over a real-valued vector, or over each consecutive run of
    entries when run lengths ``counts`` are given."""
    if a.values.ndim != 1:
        raise ShapeError(f"softmax: operand must be 1-d, got {a.shape}")
    x = a.values.real
    seg, _ = _segment_ids([x.size] if counts is None else counts, x.size)
    starts = np.flatnonzero(np.r_[True, seg[1:] != seg[:-1]])
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
