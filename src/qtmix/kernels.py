"""Raw statevector gate kernels.

Everything here works on batches of statevectors laid out as (k, 2**q)
complex128 arrays, row-major, little-endian qubit order: qubit 0 is the
least significant bit of the basis index. No 2**q x 2**q matrix is ever
materialized. The tape ops in ``circuits`` wrap these functions; tests
compare them against dense Kronecker oracles.

The single-gate kernels (``ry_rows``, ``crx_rows`` and their derivatives)
apply one gate through strided views and return a new array. The template
sweeps (``ansatz_rows_forward``, ``ansatz_rows_vjp``) instead fuse the
template's gates into blocks on a few adjacent qubits and apply each block
as one batched matrix product (see "fused template sweeps" below), in
buffers allocated once per call; the caller's arrays are never modified.
They agree with composing the single-gate kernels to rounding, not
bitwise. Each row's results depend only on that row's inputs, so
permuting the rows permutes the results exactly.

Gate conventions (theta real):

    RY(theta)  = [[cos(theta/2), -sin(theta/2)],
                  [sin(theta/2),  cos(theta/2)]]
    RX(theta)  = [[cos(theta/2), -1j*sin(theta/2)],
                  [-1j*sin(theta/2), cos(theta/2)]]
    CRX(theta) = RX(theta) on the target, on the subspace where the
                 control bit is 1; identity elsewhere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

_C = np.complex128


def _bit_views(arr: np.ndarray, q: int, qubit: int):
    """Split (k, 2**q) into the two half-spaces of one bit.

    Returns views (a0, a1) of shape (k, 2**(q-1-qubit), 2**qubit): a0 holds
    amplitudes with the bit clear, a1 with it set.
    """
    k = arr.shape[0]
    hi = 1 << (q - 1 - qubit)
    lo = 1 << qubit
    v = arr.reshape(k, hi, 2, lo)
    return v[:, :, 0, :], v[:, :, 1, :]


def _theta_cs(theta, ndim_tail: int):
    """cos/sin of theta/2, shaped to broadcast over a batch with
    ``ndim_tail`` trailing axes. theta is a scalar or a (k,) array."""
    th = np.asarray(theta, dtype=np.float64)
    c = np.cos(th / 2.0)
    s = np.sin(th / 2.0)
    if th.ndim == 1:
        shape = (th.shape[0],) + (1,) * ndim_tail
        c = c.reshape(shape)
        s = s.reshape(shape)
    return c, s


def ry_rows(arr: np.ndarray, q: int, qubit: int, theta) -> np.ndarray:
    """Apply RY(theta) on ``qubit`` to every row. theta: scalar or (k,)."""
    a0, a1 = _bit_views(arr, q, qubit)
    c, s = _theta_cs(theta, a0.ndim - 1)
    out = np.empty_like(arr)
    o0, o1 = _bit_views(out, q, qubit)
    o0[...] = c * a0 - s * a1
    o1[...] = s * a0 + c * a1
    return out


def dry_rows(arr: np.ndarray, q: int, qubit: int, theta) -> np.ndarray:
    """Apply d RY(theta) / d theta to every row."""
    a0, a1 = _bit_views(arr, q, qubit)
    c, s = _theta_cs(theta, a0.ndim - 1)
    out = np.empty_like(arr)
    o0, o1 = _bit_views(out, q, qubit)
    o0[...] = 0.5 * (-s * a0 - c * a1)
    o1[...] = 0.5 * (c * a0 - s * a1)
    return out


def _pair_views(arr: np.ndarray, q: int, control: int, target: int):
    """Views of the control=1 subspace split by the target bit.

    Returns (s0, s1): amplitudes with control set and target clear/set,
    each of shape (k, A, B, C) for the appropriate strides.
    """
    k = arr.shape[0]
    hi, lo = max(control, target), min(control, target)
    a = 1 << (q - 1 - hi)
    b = 1 << (hi - 1 - lo)
    c = 1 << lo
    v = arr.reshape(k, a, 2, b, 2, c)
    if control == hi:
        return v[:, :, 1, :, 0, :], v[:, :, 1, :, 1, :]
    return v[:, :, 0, :, 1, :], v[:, :, 1, :, 1, :]


def crx_rows(arr: np.ndarray, q: int, control: int, target: int, theta) -> np.ndarray:
    """Apply CRX(theta) with the given control/target to every row."""
    s0, s1 = _pair_views(arr, q, control, target)
    c, s = _theta_cs(theta, s0.ndim - 1)
    out = arr.copy()
    o0, o1 = _pair_views(out, q, control, target)
    o0[...] = c * s0 - 1j * s * s1
    o1[...] = -1j * s * s0 + c * s1
    return out


def dcrx_rows(arr: np.ndarray, q: int, control: int, target: int, theta) -> np.ndarray:
    """Apply d CRX(theta) / d theta to every row (zero on the control=0
    subspace)."""
    s0, s1 = _pair_views(arr, q, control, target)
    c, s = _theta_cs(theta, s0.ndim - 1)
    out = np.zeros_like(arr)
    o0, o1 = _pair_views(out, q, control, target)
    o0[...] = 0.5 * (-s * s0 - 1j * c * s1)
    o1[...] = 0.5 * (-1j * c * s0 - s * s1)
    return out


# ---------------------------------------------------------------------------
# hardware-efficient entangling template ("ansatz 14" in the usual circuit
# catalogs): per layer, RY on every qubit, a CRX ring downward, RY on every
# qubit again, and a CRX ring upward. 4 * layers * q angles in total.

def ansatz_sequence(q: int, layers: int) -> list[tuple]:
    """Flat gate list [(kind, wires, angle_index), ...] defining the
    template. This is the single source of truth for the gate order and the
    angle layout; everything else (forward, adjoint, dense oracle) walks it.

    Per layer, angles are consumed in four blocks of q:
      block 0: RY on qubit i, i ascending
      block 1: CRX ring A, control i -> target (i+1) mod q, applied for
               i = q-1 down to 0; angle index = block offset + i
      block 2: RY on qubit i, i ascending
      block 3: CRX ring B, control i -> target (i-1) mod q, applied for
               i = 0 up to q-1; angle index = block offset + i
    """
    seq: list[tuple] = []
    base = 0
    for _ in range(layers):
        for i in range(q):
            seq.append(("ry", i, base + i))
        base += q
        for i in range(q - 1, -1, -1):
            seq.append(("crx", (i, (i + 1) % q), base + i))
        base += q
        for i in range(q):
            seq.append(("ry", i, base + i))
        base += q
        for i in range(q):
            seq.append(("crx", (i, (i - 1) % q), base + i))
        base += q
    return seq


def angle_count(q: int, layers: int) -> int:
    return 4 * layers * q


# ---------------------------------------------------------------------------
# fused template sweeps
#
# The sweeps cut the gate list into blocks. A block is one per-row matrix
# on a few adjacent qubits, applied to a whole batch with one np.matmul:
#
#   "low"      qubits [0, n) on the float64 view of the state, where the
#              real/imaginary part is one more bit below qubit 0: a real
#              2**(n+1)-square matrix right-multiplies (k, hi, 2**(n+1)).
#   "real"     RY on qubits [lo, lo+n), lo >= 1, on the float64 view: a real
#              matrix left-multiplies (k, hi, 2**n, 2*2**lo).
#   "complex"  CRX on qubits [lo, lo+n), lo >= 1, on the complex view: a
#              complex matrix left-multiplies (k, hi, 2**n, 2**lo).
#   "half"     the ring-A wrap gate CRX(q-1 -> 0): RX on qubit 0 of the
#              half of each row where qubit q-1 is set, in the "low" form.
#   "strided"  the ring-B wrap gate CRX(0 -> q-1), whose control sits below
#              its target: three in-place ufunc calls on strided views.
#
# Each RY layer (q commuting rotations) becomes Kronecker chunks: qubits
# {0, 1} in the "low" form, then 3 qubits at a time. Each CRX ring keeps
# its order: the wrap gate runs alone, and the other gates, which act on
# adjacent wires, are fused in pairs.
#
# Gate t of a block is G_t = P0 + cos(theta/2) Pc + sin(theta/2) Ps with
# constant patterns (P0 = 0 for RY), so a block's matrix is a sum of
# constant matrices weighted by products of cos and sin of its angles;
# all blocks' matrices are built with a few batched calls per sweep.
#
# The adjoint reads the angle gradients off each block's output pair
# (psi, g) with the generator identity: dG_t/dtheta = A_t G_t with
# A_t = Ps/2 (-iY/2 for RY, -i|1><1| (x) X/2 for CRX), so with (psi_t, g_t)
# the pair just after gate t,
#
#     dL/dtheta_t = Re <g_t, A_t psi_t> = Re sum_ij A_t[i, j] W_t[i, j],
#     W_t[i, j] = sum over the other qubits of conj(g_t[i]) psi_t[j].
#
# The Gram matrix W at the block's output is one batched matmul. The gates
# of an RY chunk commute with each other's generators, so all of them read
# it. In a CRX pair G_2 G_1, the first generator is carried to the output
# instead, A_1 -> G_2 A_1 G_2^H, a quadratic form in (1, cos, sin) of the
# second angle. psi and g are then un-applied together as one stacked
# (2, k, 2**q) batch.

_J = np.array([[0.0, -1.0], [1.0, 0.0]])   # multiplication by 1j on (re, im)


@dataclass(frozen=True)
class _Block:
    form: str
    lo: int             # lowest qubit the block acts on
    width: int          # number of qubits it acts on
    gates: tuple        # ((kind, wires, angle index), ...) in application order


def _gate_patterns(kind: str, wires, lo: int, width: int) -> np.ndarray:
    """(P0, Pc, Ps) of one gate on qubits [lo, lo+width), as a
    (3, 2**width, 2**width) complex array. ``kind`` "rx" is RX on qubit
    ``wires`` (the wrap gate restricted to its control-set half)."""
    d = 1 << width
    pats = np.zeros((3, d, d), dtype=_C)
    idx = np.arange(d)
    if kind == "ry":
        bit = 1 << (wires - lo)
        pats[1] = np.eye(d)
        pats[2, idx, idx ^ bit] = np.where(idx & bit, 1.0, -1.0)
        return pats
    ctl, tgt = wires if kind == "crx" else (None, wires)
    on = np.ones(d, dtype=bool) if ctl is None else (idx >> (ctl - lo)) & 1 == 1
    pats[0] = np.diag(~on)
    pats[1] = np.diag(on)
    pats[2, idx[on], idx[on] ^ (1 << (tgt - lo))] = -1j
    return pats


def _represent(form: str, m: np.ndarray) -> np.ndarray:
    """Complex matrices (..., d, d) on a block's qubits in the block's own
    representation: real (2d, 2d) acting on interleaved (re, im) pairs for
    "low"/"half", the real part for "real" (RY is real), unchanged for
    "complex"."""
    if form == "real":
        return m.real
    if form == "complex":
        return m
    out = (m.real[..., :, None, :, None] * np.eye(2)[:, None, :]
           + m.imag[..., :, None, :, None] * _J[:, None, :])
    return out.reshape(m.shape[:-2] + (2 * m.shape[-2], 2 * m.shape[-1]))


def _operands(form: str, m: np.ndarray):
    """(forward, inverse) operands of a block with matrices ``m``: "low" and
    "half" right-multiply row vectors (M^T, M); the others left-multiply
    (M, M^H)."""
    r = _represent(form, m)
    if form in ("low", "half"):
        return r.swapaxes(-1, -2), r
    return r, r.conj().swapaxes(-1, -2)


def _ring_blocks(q: int, gates: list) -> list[_Block]:
    """A CRX ring: its wrap-around gate (first in both rings) alone, then the
    chain of adjacent-wire gates in pairs, the pair holding qubit 0 full
    ("low" is the cheapest form)."""
    blocks = []
    chain = [g for g in gates if abs(g[1][0] - g[1][1]) == 1]
    for gate in gates[:len(gates) - len(chain)]:
        ctl, t = gate[1][0], gate[2]
        blocks.append(_Block("half", 0, 1, (("rx", 0, t),)) if ctl == q - 1
                      else _Block("strided", 0, q, (gate,)))
    start = 0 if 0 in chain[0][1] else len(chain) % 2
    pieces = [chain[:start]] * (start > 0) + [chain[i:i + 2] for i in range(start, len(chain), 2)]
    for p in pieces:
        ws = [w for _, wires, _ in p for w in wires]
        lo = min(ws)
        blocks.append(_Block("low" if lo == 0 else "complex", lo, max(ws) - lo + 1, tuple(p)))
    return blocks


def _ry_blocks(q: int, gates: list) -> list[_Block]:
    """An RY layer as Kronecker chunks: qubits {0, 1}, then 3 at a time."""
    cuts = sorted({0, min(2, q), *range(min(2, q) + 3, q, 3), q})
    return [_Block("low" if lo == 0 else "real", lo, hi - lo,
                   tuple(g for g in gates if lo <= g[1] < hi))
            for lo, hi in zip(cuts[:-1], cuts[1:])]


@dataclass(frozen=True)
class _Group:
    """The blocks of one shape (form, width, gate wiring relative to the
    block): one set of constant matrices and one generator readout."""

    ids: tuple              # block ids
    first: int              # first of the group's term weights
    fwd: np.ndarray         # (T_b, d*d) Q_a as forward operands
    inv: np.ndarray         # (T_b, d*d) Q_a as inverse operands
    readout: np.ndarray     # (d*d, n) generator readout
    angles: np.ndarray      # (nb, m) angle index of each gate
    pair: np.ndarray | None  # (nb, 9) terms: pair weights of a CRX pair's last angle


@dataclass(frozen=True)
class _Plan:
    blocks: tuple
    terms: np.ndarray       # (3, T): the term table rows multiplied per weight
    groups: tuple
    where: tuple            # per block: (group, position), None if "strided"


def _block_terms(b: _Block, one: int):
    """The block's matrix as sum_a w_a Q_a: each w_a a product of term table
    rows (angle t has rows 3t, 3t+1, 3t+2 = 1, cos, sin of theta/2; row
    ``one`` is 1), each Q_a a complex matrix on the block's qubits."""
    pats = [_gate_patterns(kind, wires, b.lo, b.width) for kind, wires, _ in b.gates]
    terms = [((), np.eye(pats[0].shape[-1], dtype=_C))]
    for (kind, _, t), p in zip(b.gates, pats):
        first = 1 if kind == "ry" else 0
        terms = [(rows + (3 * t + j,), p[j] @ m) for rows, m in terms
                 for j in range(first, 3)]
    rows = [r + (one,) * (3 - len(r)) for r, _ in terms]
    return rows, np.stack([m for _, m in terms])


def _readout(b: _Block):
    """Generator readout of a block: the flattened Gram matrix W times R
    gives, per column, a value whose real part is a gradient. For a CRX
    pair, column 0 serves the second gate and columns 1-9 the first: its
    generator carried to the pair's output, expanded over the pair weights
    (1, cos, sin) x (1, cos, sin) of the second angle."""
    pats = [_gate_patterns(kind, wires, b.lo, b.width) for kind, wires, _ in b.gates]
    gens = [0.5 * p[2] for p in pats]
    if len(pats) == 1 or b.gates[0][0] == "ry":
        cols = gens
    else:
        p2 = pats[1]
        cols = [gens[1]] + [p2[i] @ gens[0] @ p2[j].conj().T
                            for i in range(3) for j in range(3)]
    r = _represent(b.form, np.stack(cols))
    return np.ascontiguousarray(r.reshape(len(cols), -1).T)


@functools.lru_cache(maxsize=None)
def _plan(q: int, layers: int) -> _Plan:
    seq = ansatz_sequence(q, layers)
    one = 3 * len(seq)
    blocks: list[_Block] = []
    for start in range(0, len(seq), q):
        seg = seq[start:start + q]
        blocks += _ry_blocks(q, seg) if seg[0][0] == "ry" else _ring_blocks(q, seg)
    shapes: dict = {}
    for i, b in enumerate(blocks):
        if b.form != "strided":
            rel = tuple((kind, np.subtract(wires, b.lo).tolist()) for kind, wires, _ in b.gates)
            shapes.setdefault(repr((b.form, b.width, rel)), []).append(i)
    terms, groups, where = [], [], [None] * len(blocks)
    for ids in shapes.values():
        first = len(terms)
        for j, i in enumerate(ids):
            rows, qa = _block_terms(blocks[i], one)
            terms += rows
            where[i] = (len(groups), j)
        fwd, inv = _operands(blocks[ids[0]].form, qa)
        readout = _readout(blocks[ids[0]])
        angles = np.array([[g[2] for g in blocks[i].gates] for i in ids])
        pair = None
        if readout.shape[1] == 10:
            pair = len(terms) + np.arange(9 * len(ids)).reshape(len(ids), 9)
            for t in 3 * angles[:, 1]:
                terms += [(t + a, t + c, one) for a in range(3) for c in range(3)]
        groups.append(_Group(tuple(ids), first, fwd.reshape(len(rows), -1),
                             inv.reshape(len(rows), -1), readout, angles, pair))
    return _Plan(tuple(blocks), np.array(terms).T.copy(), tuple(groups), tuple(where))


def _term_table(angles: np.ndarray) -> np.ndarray:
    """(3L + 1, r) table: rows 3t, 3t+1, 3t+2 hold 1, cos and sin of
    theta_t/2 per row, the last row 1; r = k for (k, L) per-row angles and
    r = 1 for (L,) shared ones."""
    th = np.asarray(angles, dtype=np.float64)
    half = 0.5 * (th.T if th.ndim == 2 else th[:, None])
    tab = np.empty((3 * half.shape[0] + 1, half.shape[1]))
    view = tab[:-1].reshape(half.shape[0], 3, half.shape[1])
    view[:, 0] = 1.0
    np.cos(half, out=view[:, 1])
    np.sin(half, out=view[:, 2])
    tab[-1] = 1.0
    return tab


def _term_weights(plan: _Plan, tab: np.ndarray) -> np.ndarray:
    """(T, r) weights: each term's three table rows multiplied."""
    a, b, c = plan.terms
    w = tab[a] * tab[b]
    w *= tab[c]
    return w


def _block_operands(plan: _Plan, tab: np.ndarray, w: np.ndarray, inverse: bool) -> list:
    """Per block, its forward (or inverse) operand (r, d, d) from the term
    weights ``w`` (T, r); for a "strided" block, its cos and -1j*sin of
    theta/2 (+1j*sin for the inverse) shaped (r, 1, 1)."""
    built = []
    for grp in plan.groups:
        q_a = grp.inv if inverse else grp.fwd
        nb, (tb, dd) = len(grp.ids), q_a.shape
        wg = w[grp.first:grp.first + nb * tb].reshape(nb, tb, -1).swapaxes(1, 2)
        d = math.isqrt(dd)
        built.append(np.matmul(wg, q_a).reshape(nb, w.shape[1], d, d))
    ops = []
    for b, loc in zip(plan.blocks, plan.where):
        if loc is None:
            t = 3 * b.gates[0][2]
            ops.append((tab[t + 1, :, None, None],
                        (1j if inverse else -1j) * tab[t + 2, :, None, None]))
        else:
            ops.append(built[loc[0]][loc[1]])
    return ops


def _views(b: _Block, arr: np.ndarray):
    """The view of ``arr`` (..., 2**q) that block ``b`` multiplies: (..., hi, d)
    for "low"/"half", (..., hi, d, lo) for "real"/"complex", and the
    control-set slice (..., 2, 2**(q-2)) for "strided"."""
    lead, n = arr.shape[:-1], arr.shape[-1]
    if b.form == "complex":
        return arr.reshape(lead + (n >> (b.lo + b.width), 1 << b.width, 1 << b.lo))
    if b.form == "strided":
        return arr.reshape(lead + (2, n // 4, 2))[..., 1]
    f = arr.view(np.float64)
    if b.form == "low":
        return f.reshape(lead + (n >> b.width, 2 << b.width))
    if b.form == "real":
        return f.reshape(lead + (n >> (b.lo + b.width), 1 << b.width, 2 << b.lo))
    return f.reshape(lead + (2, n))[..., 1, :].reshape(lead + (n // 4, 4))


def _front(view: np.ndarray, buf: np.ndarray, conj: bool = False) -> np.ndarray:
    """A left-multiplied view (..., hi, d, lo) made ready for the product.
    When its contiguous runs are short (lo < 8) and hi > 1, it is copied
    (conjugated if asked) into the scratch ``buf`` as (..., d, hi*lo), so
    that one product per row replaces one per (row, hi) on tiny matrices;
    otherwise it is returned as it is, or conjugated into ``buf``."""
    lead, (hi, d, lo) = view.shape[:-3], view.shape[-3:]
    moved = hi > 1 and lo < 8
    if not (moved or conj):
        return view
    shape = lead + ((d, hi, lo) if moved else (hi, d, lo))
    out = buf.view(view.dtype).reshape(shape)
    src = view.swapaxes(-3, -2) if moved else view
    if conj:
        np.conjugate(src, out=out)
    else:
        np.copyto(out, src)
    return out.reshape(lead + (d, hi * lo)) if moved else out


def _apply(b: _Block, op, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Apply block ``b`` through its (forward or inverse) operand ``op`` to
    the batch ``src`` (..., 2**q). Returns the buffer holding the result:
    ``dst``, or ``src`` itself for a "strided" block, which works in place
    and uses ``dst`` as scratch. ``src`` may be overwritten either way."""
    if b.form == "strided":
        c, ms = op
        x = _views(b, src)
        t = dst.reshape(-1)[:x.size].reshape(x.shape)
        np.multiply(x[..., ::-1, :], ms, out=t)
        np.multiply(x, c, out=x)
        np.add(x, t, out=x)
        return src
    x, y = _views(b, src), _views(b, dst)
    if b.form in ("low", "half"):
        np.matmul(x, op, out=y)
        if b.form == "half":
            half = src.shape[-1] // 2
            dst[..., :half] = src[..., :half]
        return dst
    xf = _front(x, dst)
    if xf is x:
        np.matmul(op[:, None], x, out=y)
        return dst
    # the block's axis was moved to the front through dst: multiply into
    # src, then move it back into dst
    lead, (hi, d, lo) = x.shape[:-3], x.shape[-3:]
    yt = src.view(x.dtype).reshape(xf.shape)
    np.matmul(op, xf, out=yt)
    np.copyto(y, yt.reshape(lead + (d, hi, lo)).swapaxes(-3, -2))
    return dst


def _gram(b: _Block, s: np.ndarray, scratch: np.ndarray):
    """W[r, i, j] = sum over the block's other indices of conj(g_i) psi_j,
    per row, in the block's representation, for the stacked pair
    s = (psi, g); ``scratch`` is two free state-sized batches."""
    pv, gv = _views(b, s[0]), _views(b, s[1])
    if b.form in ("low", "half"):
        return np.matmul(gv.swapaxes(-1, -2), pv)
    g = _front(gv, scratch[0], conj=b.form == "complex")
    w = np.matmul(g, _front(pv, scratch[1]).swapaxes(-1, -2))
    return w if w.ndim == 3 else w.sum(axis=-3)


def ansatz_rows_forward(arr: np.ndarray, q: int, layers: int, angles: np.ndarray) -> np.ndarray:
    """Run the template over a (k, 2**q) batch.

    ``angles``: (k, 4*layers*q) for per-row angles, or (4*layers*q,) shared.

    The gates run as fused blocks (see above), each one batched matmul on
    a view of the state, ping-ponging between two buffers allocated once
    per call; ``arr`` is never modified. The result matches composing
    ``ry_rows``/``crx_rows`` along ``ansatz_sequence`` to rounding, not
    bitwise. Each row's result depends only on that row and its angles.
    """
    plan = _plan(q, layers)
    tab = _term_table(angles)
    ops = _block_operands(plan, tab, _term_weights(plan, tab), inverse=False)
    x = np.array(arr, dtype=_C, order="C")
    y = np.empty_like(x)
    for b, op in zip(plan.blocks, ops):
        if _apply(b, op, x, y) is y:
            x, y = y, x
    return x


def ansatz_rows_vjp(out_arr: np.ndarray, q: int, layers: int, angles: np.ndarray,
                    g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint sweep for the template.

    Given the forward *output* batch and the output gradient, walks the
    blocks backwards. At each block it reads the gradients of the block's
    angles off the pair (psi, g) at the block's output with the generator
    identity (see above), then un-applies the block from psi and g at once:
    the gates are unitary, so the pre-block state is recovered instead of
    stored. For gate t,

        dL/dtheta_t = Re( sum_i conj(g_i) * (dG_t/dtheta applied to the
                          pre-gate state)_i ).

    Returns (g_input_rows, g_angles) with g_angles real-valued, shaped like
    ``angles``. ``out_arr`` and ``g`` are copied once into a stacked
    working buffer; neither argument is modified. Each row's results
    depend only on that row, its angles and its gradient.
    """
    plan = _plan(q, layers)
    tab = _term_table(angles)
    w = _term_weights(plan, tab)
    ops = _block_operands(plan, tab, w, inverse=True)
    s = np.empty((2,) + out_arr.shape, dtype=_C)
    s[0] = out_arr
    s[1] = g
    t = np.empty_like(s)
    g_ang = np.zeros((tab.shape[1], angles.shape[-1]))
    reads = [None] * len(plan.blocks)
    for i in range(len(plan.blocks) - 1, -1, -1):
        b, loc = plan.blocks[i], plan.where[i]
        if loc is None:
            # 0.5 * Im sum over the control-set quarters of
            # conj(g0) psi1 + conj(g1) psi0
            pv, gv = _views(b, s[0]), _views(b, np.conjugate(s[1], out=t[0]))
            cross = 0.5 * np.einsum("kij,kij->k", gv, pv[..., ::-1, :]).imag
            g_ang[:, b.gates[0][2]] = cross if angles.ndim == 2 else cross.sum()
        else:
            gram = _gram(b, s, t)
            if angles.ndim == 1:
                gram = gram.sum(axis=0, keepdims=True)
            # one product per row keeps each row's rounding independent of
            # the batch it sits in
            readout = plan.groups[loc[0]].readout
            reads[i] = np.matmul(gram.reshape(gram.shape[0], 1, readout.shape[0]), readout)[:, 0]
        if _apply(b, ops[i], s, t) is t:
            s, t = t, s
    for grp in plan.groups:
        m = np.stack([reads[i] for i in grp.ids]).real      # (nb, r, n)
        if grp.pair is not None:
            first = np.einsum("brj,bjr->br", m[..., 1:], w[grp.pair])
            m = np.stack((first, m[..., 0]), axis=-1)
        g_ang[:, grp.angles.ravel()] = m.transpose(1, 0, 2).reshape(m.shape[1], grp.angles.size)
    # a copy, so that the caller's gradient does not keep psi's half alive
    return s[1].copy(), (g_ang if angles.ndim == 2 else g_ang[0])


# ---------------------------------------------------------------------------
# Pauli action and expectations

def pauli_apply(vec: np.ndarray, q: int, axis: str, qubit: int) -> np.ndarray:
    """Apply a single-qubit Pauli to a (2**q,) vector."""
    arr = vec.reshape(1, -1)
    a0, a1 = _bit_views(arr, q, qubit)
    out = np.empty_like(arr)
    o0, o1 = _bit_views(out, q, qubit)
    if axis == "x":
        o0[...] = a1
        o1[...] = a0
    elif axis == "y":
        o0[...] = -1j * a1
        o1[...] = 1j * a0
    elif axis == "z":
        o0[...] = a0
        o1[...] = -a1
    else:
        raise ValueError(f"unknown Pauli axis {axis!r}")
    return out.reshape(-1)


def pauli_expectations_raw(vec: np.ndarray, q: int) -> np.ndarray:
    """All 3q expectations [X_0..X_{q-1}, Y_0.., Z_0..] of vec / ||vec||,
    as float64. Caller guarantees the norm is usable."""
    norm_sq = float(np.vdot(vec, vec).real)
    arr = vec.reshape(1, -1)
    out = np.empty(3 * q, dtype=np.float64)
    for k in range(q):
        a0, a1 = _bit_views(arr, q, k)
        cross = complex(np.vdot(a0, a1))       # sum conj(a0) * a1
        out[k] = 2.0 * cross.real
        out[q + k] = 2.0 * cross.imag
        out[2 * q + k] = float(np.vdot(a0, a0).real - np.vdot(a1, a1).real)
    return out / norm_sq
