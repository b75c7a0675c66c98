"""Raw statevector kernels.

Everything here works on batches of statevectors laid out as (k, 2**q)
complex128 arrays, row-major, little-endian qubit order: qubit 0 is the
least significant bit of the basis index. No 2**q x 2**q matrix is ever
materialized. The tape ops in ``circuits`` wrap these functions; tests
compare them against dense Kronecker oracles.

The template sweeps (``ansatz_rows_forward``, ``ansatz_rows_vjp``) fuse
the template's gates into blocks on a few adjacent qubits and apply each
block as one batched real matrix product on the state's float64 view
(see "fused template sweeps" below), in buffers allocated once per call;
the caller's arrays are never modified. Every CRX block acts on the
lowest bits: the sweeps run in a rotating qubit frame, relabelling the
qubits cyclically (one copy of the register) before each block that sits
elsewhere. The blocks' operands are built once per set of angles by
``template_operands`` and passed to every sweep that runs those angles:
the forward sweeps and the adjoint sweep, which walks the same steps
backwards, reads each operand as its inverse and reads the angle
gradients off sparse entries of per-block Gram matrices. A sweep's rows
may share operand rows through an index (one token's operands serving
every window that holds it); each block gathers the rows it needs for its
step and drops them after it. Each row's results depend only on that
row's inputs, so permuting the rows permutes the results exactly. The
Pauli kernels (``pauli_apply``, ``pauli_expectations_raw``) serve the
readout.

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
# The sweeps cut the gate list into blocks. A block is one per-row real
# matrix on a few bits of the state's float64 view, where the real/imaginary
# part is one more bit below bit 0, applied to a whole batch with one
# np.matmul. It has one of two forms:
#
#   "low"   bits [0, n): a 2**(n+1)-square matrix right-multiplies
#           (k, hi, 2**(n+1)).
#   "real"  RY on bits [lo, lo+n), lo >= 2: a 2**n-square matrix
#           left-multiplies (k, hi, 2**n, 2*2**lo).
#
# Bits are not tied to qubits. Each block runs in a frame r, a cyclic
# relabelling in which bit b holds qubit (b + r) mod q. Before a block
# whose frame differs from the current one, the sweep rotates the register
# into it: one copy of each row, reshaped and transposed (``_rotate``).
# Every sweep starts and ends in frame 0.
#
# From q = 7 each CRX ring runs in pairs of consecutive gates, its
# wrap-around gate included. A pair's three wires are cyclically adjacent,
# so in its own frame it sits on bits 0-2 and runs as a "low" block, and
# all pairs of a ring have the same wiring. With q odd the ring's last gate
# runs alone on bits 0-1. Below q = 7 every ring gate runs alone on bits
# 0-1 of its own frame (see ``_ring_blocks``). An RY layer (q commuting
# rotations) runs in whatever frame the state is in, as Kronecker chunks:
# bits {0, 1} "low", then 3 bits at a time "real".
#
# Gate t of a block is G_t = P0 + cos(theta/2) Pc + sin(theta/2) Ps with
# constant patterns (P0 = 0 for RY), so a block's matrix is a sum of
# constant matrices weighted by products of cos and sin of its angles.
# Blocks of one shape (form, width, wiring) form a group that shares those
# constant matrices. All blocks' matrices are built with one batched product
# per group, once per set of angles (``TemplateOperands``), and shared by
# every sweep over them.
#
# The adjoint walks the same steps backwards. It un-rotates, and it
# un-applies each block through its forward operand read as the inverse:
# the gates are unitary and the operands real, so the inverse is the
# transpose. No inverse is built from the angles or kept (see ``_inverse``).
#
# It reads the angle gradients off each block's output pair (psi, g) with
# the generator identity: dG_t/dtheta = A_t G_t with A_t = Ps/2 (-iY/2 for
# RY, -i|1><1| (x) X/2 for CRX). With (psi_t, g_t) the pair just after
# gate t, and R_t the matrix A_t in the block's form,
#
#     dL/dtheta_t = Re <g_t, A_t psi_t> = sum_ij R_t[i, j] W[i, j],
#     W[i, j] = sum over the block's other bits of g_t[i] psi_t[j].
#
# The Gram matrix W at the block's output is one batched matmul of two
# views. The gates of an RY chunk commute with each other's generators, so
# all of them read it. In a CRX pair G_2 G_1, the first generator is
# carried to the output instead, A_1 -> G_2 A_1 G_2^H, a quadratic form in
# (1, cos, sin) of the second angle. psi and g are then un-applied
# together as one stacked (2, k, 2**q) batch.
#
# The readout matrices R are sparse: a CRX pair's read 28 of its 256 Gram
# entries, a lone CRX gate's 4 of 64, an RY chunk's on bits {0, 1} 16 of
# 64. Each step keeps only the entries its group reads; after the sweep,
# one weighted np.add.reduceat per group sums them into gradients. Both are
# elementwise per row, so a row's gradients round the same in any batch.

_J = np.array([[0.0, -1.0], [1.0, 0.0]])   # multiplication by 1j on (re, im)


@dataclass(frozen=True)
class _Block:
    form: str
    frame: int          # bit b holds qubit (b + frame) mod q
    lo: int             # lowest bit the block acts on
    width: int          # number of bits it acts on
    gates: tuple        # ((kind, bits, angle index), ...) in application order
    view: tuple         # trailing shape of the float64 view it multiplies (see _views)


def _block(q: int, form: str, frame: int, lo: int, width: int, gates: tuple) -> _Block:
    view = ((1 << (q - width), 2 << width) if form == "low"
            else (1 << (q - lo - width), 1 << width, 2 << lo))
    return _Block(form, frame, lo, width, gates, view)


def _gate_patterns(kind: str, bits, lo: int, width: int) -> np.ndarray:
    """(P0, Pc, Ps) of one gate on bits [lo, lo+width), as a
    (3, 2**width, 2**width) complex array; ``bits`` is RY's bit or CRX's
    (control, target)."""
    d = 1 << width
    pats = np.zeros((3, d, d), dtype=_C)
    idx = np.arange(d)
    if kind == "ry":
        bit = 1 << (bits - lo)
        pats[1] = np.eye(d)
        pats[2, idx, idx ^ bit] = np.where(idx & bit, 1.0, -1.0)
        return pats
    ctl, tgt = bits
    on = (idx >> (ctl - lo)) & 1 == 1
    pats[0] = np.diag(~on)
    pats[1] = np.diag(on)
    pats[2, idx[on], idx[on] ^ (1 << (tgt - lo))] = -1j
    return pats


def _represent(form: str, m: np.ndarray) -> np.ndarray:
    """Complex matrices (..., d, d) on a block's bits in the block's own
    representation: the real part for "real" (RY is real), real (2d, 2d)
    acting on interleaved (re, im) pairs for "low"."""
    if form == "real":
        return m.real
    out = (m.real[..., :, None, :, None] * np.eye(2)[:, None, :]
           + m.imag[..., :, None, :, None] * _J[:, None, :])
    return out.reshape(m.shape[:-2] + (2 * m.shape[-2], 2 * m.shape[-1]))


def _operand(form: str, m: np.ndarray) -> np.ndarray:
    """Forward operand of a block with matrices ``m``: "low" right-multiplies
    row vectors (M^T), "real" left-multiplies (M)."""
    r = _represent(form, m)
    return r.swapaxes(-1, -2) if form == "low" else r


def _in_frame(q: int, frame: int, gates) -> list:
    """``gates`` with their wires replaced by their bits in ``frame``."""
    return [(kind, (w - frame) % q if kind == "ry" else tuple((x - frame) % q for x in w), t)
            for kind, w, t in gates]


def _ring_blocks(q: int, gates: list, frame: int) -> list[_Block]:
    """A CRX ring in pieces of consecutive gates, each in the frame that
    puts its wires lowest, the current frame on a tie (q <= 3). From q = 7
    the pieces are pairs on bits 0-2, with q odd the last gate alone. Below
    it, a pair's operand (16x16 float64, 2 KB a row) outweighs the state
    row it acts on and costs more to build, gather and transpose than the
    block it saves, so each gate runs alone on bits 0-1 (8x8, 512 B); at
    q = 2 both gates of a ring sit there and still run as one pair."""
    step = 2 if q >= 7 or q == 2 else 1
    blocks = []
    for i in range(0, len(gates), step):
        piece = gates[i:i + step]
        wires = [w for _, ws, _ in piece for w in ws]
        frame = min(range(frame, frame + q),
                    key=lambda r: max((w - r) % q for w in wires)) % q
        rel = tuple(_in_frame(q, frame, piece))
        blocks.append(_block(q, "low", frame, 0, 1 + max(max(bits) for _, bits, _ in rel), rel))
    return blocks


def _ry_blocks(q: int, gates: list, frame: int) -> list[_Block]:
    """An RY layer in the current frame as Kronecker chunks: bits {0, 1},
    then 3 at a time."""
    rel = sorted(_in_frame(q, frame, gates), key=lambda g: g[1])
    cuts = sorted({0, min(2, q), *range(min(2, q) + 3, q, 3), q})
    return [_block(q, "low" if lo == 0 else "real", frame, lo, hi - lo,
                   tuple(g for g in rel if lo <= g[1] < hi))
            for lo, hi in zip(cuts[:-1], cuts[1:])]


@dataclass(frozen=True)
class _Group:
    """The blocks of one shape (form, width, gate wiring relative to the
    block): one set of constant matrices and one generator readout."""

    ids: tuple              # block ids
    first: int              # first of the group's term weights
    fwd: np.ndarray         # (T_b, d*d) Q_a as forward operands
    entries: np.ndarray     # (E,) Gram entries the readout reads, column by column
    coef: np.ndarray        # (E,) their readout coefficients
    starts: np.ndarray      # (n,) each readout column's first entry
    angles: np.ndarray      # (nb, m) angle index of each gate
    pair: np.ndarray | None  # (nb, 9) terms: pair weights of a CRX pair's last angle


@dataclass(frozen=True)
class _Plan:
    blocks: tuple
    terms: np.ndarray       # (3, T): the term table rows multiplied per weight
    groups: tuple
    where: tuple            # per block: (group, position)


def _block_terms(b: _Block, one: int):
    """The block's matrix as sum_a w_a Q_a: each w_a a product of term table
    rows (angle t has rows 3t, 3t+1, 3t+2 = 1, cos, sin of theta/2; row
    ``one`` is 1), each Q_a a complex matrix on the block's bits."""
    pats = [_gate_patterns(kind, bits, b.lo, b.width) for kind, bits, _ in b.gates]
    terms = [((), np.eye(pats[0].shape[-1], dtype=_C))]
    for (kind, _, t), p in zip(b.gates, pats):
        first = 1 if kind == "ry" else 0
        terms = [(rows + (3 * t + j,), p[j] @ m) for rows, m in terms
                 for j in range(first, 3)]
    rows = [r + (one,) * (3 - len(r)) for r, _ in terms]
    return rows, np.stack([m for _, m in terms])


def _readout(b: _Block):
    """Generator readout of a block, sparse: (entries, coefficients,
    starts). Column c sums W.flat[entries] * coefficients over
    [starts[c], starts[c+1]) to a gradient. For a CRX pair, column 0
    serves the second gate and columns 1-9 the first: its generator carried
    to the pair's output, expanded over the pair weights (1, cos, sin) x
    (1, cos, sin) of the second angle. An all-zero column reads one entry
    with coefficient 0, so that every column has one."""
    pats = [_gate_patterns(kind, bits, b.lo, b.width) for kind, bits, _ in b.gates]
    gens = [0.5 * p[2] for p in pats]
    if len(pats) == 1 or b.gates[0][0] == "ry":
        cols = gens
    else:
        p2 = pats[1]
        cols = [gens[1]] + [p2[i] @ gens[0] @ p2[j].conj().T
                            for i in range(3) for j in range(3)]
    r = _represent(b.form, np.stack(cols)).reshape(len(cols), -1)
    keep = r != 0
    keep[~keep.any(axis=1), 0] = True
    col, entries = np.nonzero(keep)
    return entries, r[col, entries], np.searchsorted(col, np.arange(len(cols)))


@functools.lru_cache(maxsize=None)
def _plan(q: int, layers: int) -> _Plan:
    seq = ansatz_sequence(q, layers)
    one = 3 * len(seq)
    blocks: list[_Block] = []
    for start in range(0, len(seq), q):
        seg = seq[start:start + q]
        frame = blocks[-1].frame if blocks else 0
        blocks += (_ry_blocks if seg[0][0] == "ry" else _ring_blocks)(q, seg, frame)
    shapes: dict = {}
    for i, b in enumerate(blocks):
        rel = tuple((kind, np.subtract(bits, b.lo).tolist()) for kind, bits, _ in b.gates)
        shapes.setdefault(repr((b.form, b.width, rel)), []).append(i)
    terms, groups, where = [], [], [None] * len(blocks)
    for ids in shapes.values():
        first = len(terms)
        for j, i in enumerate(ids):
            rows, qa = _block_terms(blocks[i], one)
            terms += rows
            where[i] = (len(groups), j)
        fwd = _operand(blocks[ids[0]].form, qa)
        entries, coef, starts = _readout(blocks[ids[0]])
        angles = np.array([[g[2] for g in blocks[i].gates] for i in ids])
        pair = None
        if len(starts) == 10:
            pair = len(terms) + np.arange(9 * len(ids)).reshape(len(ids), 9)
            for t in 3 * angles[:, 1]:
                terms += [(t + a, t + c, one) for a in range(3) for c in range(3)]
        groups.append(_Group(tuple(ids), first, fwd.reshape(len(rows), -1),
                             entries, coef, starts, angles, pair))
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


def _block_operands(plan: _Plan, w: np.ndarray) -> tuple:
    """Per block, its forward operand (r, d, d) from the term weights ``w``
    (T, r)."""
    built = []
    for grp in plan.groups:
        nb, (tb, dd) = len(grp.ids), grp.fwd.shape
        wg = w[grp.first:grp.first + nb * tb].reshape(nb, tb, -1).swapaxes(1, 2)
        d = math.isqrt(dd)
        built.append(np.matmul(wg, grp.fwd).reshape(nb, w.shape[1], d, d))
    return tuple(built[g][j] for g, j in plan.where)


@dataclass(frozen=True, eq=False)
class TemplateOperands:
    """What the template sweeps need for one set of angles: the term
    weights and the forward operand of every block. Built once by
    ``template_operands``, it serves every forward sweep that runs these
    angles and the adjoint sweeps of their outputs."""

    q: int
    layers: int
    angles: np.ndarray      # the array built from, as given (callers check identity)
    weights: np.ndarray     # (T, r) term weights, r = k or 1
    ops: tuple              # per block, its forward operand

    @property
    def plan(self) -> _Plan:
        return _plan(self.q, self.layers)


def template_operands(q: int, layers: int, angles) -> TemplateOperands:
    """Build the block operands of the template for ``angles``: (k, L) per
    row or (L,) shared, L = 4*layers*q; a complex array's real part is
    used."""
    plan = _plan(q, layers)
    w = _term_weights(plan, _term_table(np.asarray(angles).real))
    return TemplateOperands(q, layers, angles, w, _block_operands(plan, w))


def _views(b: _Block, arr: np.ndarray) -> np.ndarray:
    """The float64 view of ``arr`` (..., 2**q) that block ``b`` multiplies:
    (..., hi, d) for "low", (..., hi, d, lo) for "real"."""
    return arr.view(np.float64).reshape(arr.shape[:-1] + b.view)


def _rotate(src: np.ndarray, dst: np.ndarray, shift: int) -> None:
    """Copy the batch ``src`` (..., 2**q) into ``dst`` with its bits
    relabelled cyclically: bit j of ``dst`` holds bit (j + shift) mod q of
    ``src``, so a state in frame r lands in frame r + shift."""
    n, lo = src.shape[-1], 1 << shift
    x, y = src.reshape(-1, n // lo, lo), dst.reshape(-1, lo, n // lo)
    if n // lo > 2:
        np.copyto(y, x.swapaxes(1, 2))
        return
    # numpy copies along the destination's last axis, here short: copy
    # one source run at a time instead
    for a in range(n // lo):
        y[:, :, a] = x[:, a, :]


def _rows(op: np.ndarray, index) -> np.ndarray:
    """A block's operand for the rows of a batch: row j gets operand row
    ``index[j]`` (a gathered copy), or row j when ``index`` is None."""
    return op if index is None else op[index]


def _inverse(form: str, op: np.ndarray, index=None) -> np.ndarray:
    """A block's inverse operand M^T, read off its forward operand, rows
    picked by ``index`` as in ``_rows``: a transposed view of a "real"
    operand; a "low" one gets a contiguous copy, made per adjoint step and
    dropped after it (the batched products run up to twice as fast on it as
    on a transposed view). With ``index``, the copy is made once per
    operand row, then gathered."""
    if form == "real":
        return _rows(op, index).swapaxes(-1, -2)
    return _rows(np.ascontiguousarray(op.swapaxes(-1, -2)), index)


def _apply(b: _Block, op: np.ndarray, src: np.ndarray, dst: np.ndarray) -> None:
    """Apply block ``b`` through the operand ``op`` (its forward operand,
    or its inverse) to the batch ``src`` (..., 2**q), into ``dst``."""
    x, y = _views(b, src), _views(b, dst)
    if b.form == "low":
        np.matmul(x, op, out=y)
    else:
        np.matmul(op[:, None], x, out=y)


def _gram(b: _Block, s: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """W[r, i, j] = sum over the block's other bits of g_i psi_j, per row,
    on the float views of the stacked pair s = (psi, g); ``scratch`` is a
    free buffer of the same size."""
    v = _views(b, s)
    if b.form == "low":
        return np.matmul(v[1].swapaxes(-1, -2), v[0])
    lead, (hi, d, lo) = v.shape[:-3], v.shape[-3:]
    if hi > 1:
        # (2, k, hi, d, lo) -> (2, k, d, hi, lo) through scratch, so that one
        # product per row sums over both hi and lo
        moved = scratch.view(np.float64).reshape(lead + (d, hi, lo))
        np.copyto(moved, v.swapaxes(-3, -2))
        v = moved
    v = v.reshape(lead + (d, hi * lo))
    return np.matmul(v[1], v[0].swapaxes(-1, -2))


def ansatz_rows_forward(arr: np.ndarray, ops: TemplateOperands, index=None) -> np.ndarray:
    """Run the template over a (k, 2**q) batch with the operands ``ops``
    of its angles: (k, 4*layers*q) per-row angles, or (4*layers*q,) shared.
    With per-row angles, ``index`` optionally maps row j of the batch to
    angle row ``index[j]``, so that rows sharing angles share one holder;
    each block gathers its operand rows for the step and drops them after.

    The gates run as fused blocks (see above), each one batched matmul on
    a view of the state in the block's frame, ping-ponging between two
    buffers allocated once per call; ``arr`` is never modified. The result
    matches the ordered product of the gates of ``ansatz_sequence`` to
    rounding, not bitwise. Each row's result depends only on that row and
    its angles.
    """
    q = ops.q
    x = np.array(arr, dtype=_C, order="C")
    y = np.empty_like(x)
    frame = 0
    for b, op in zip(ops.plan.blocks, ops.ops):
        if b.frame != frame:
            _rotate(x, y, (b.frame - frame) % q)
            x, y, frame = y, x, b.frame
        _apply(b, _rows(op, index), x, y)
        x, y = y, x
    if frame:
        _rotate(x, y, -frame % q)
        x = y
    return x


def ansatz_rows_vjp(out_arr: np.ndarray, ops: TemplateOperands,
                    g: np.ndarray, index=None) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint sweep for the template.

    Given the forward *output* batch, the operands ``ops`` the forward ran
    with and the output gradient, walks the forward's steps backwards. At
    each block it reads the Gram entries the block's angle gradients need
    off the pair (psi, g) at the block's output (see above), then
    un-applies the block from psi and g at once through its forward
    operand, read as its inverse: the gates are unitary, so the pre-block
    state is recovered instead of stored. Between blocks of different
    frames it rotates the pair back. For gate t,

        dL/dtheta_t = Re( sum_i conj(g_i) * (dG_t/dtheta applied to the
                          pre-gate state)_i ).

    Returns (g_input_rows, g_angles) with g_angles real-valued, shaped like
    the angles, or one row per batch row when the forward ran with
    ``index`` (pass the same ``index``). ``out_arr`` and ``g`` are copied
    once into a stacked working buffer; neither argument is modified. Each
    row's results depend only on that row, its angles and its gradient.
    """
    plan, w, q, shared = ops.plan, ops.weights, ops.q, np.ndim(ops.angles) == 1
    s = np.empty((2,) + out_arr.shape, dtype=_C)
    s[0] = out_arr
    s[1] = g
    t = np.empty_like(s)
    reads = [None] * len(plan.blocks)
    frame = 0
    for i in range(len(plan.blocks) - 1, -1, -1):
        b, grp = plan.blocks[i], plan.groups[plan.where[i][0]]
        if b.frame != frame:
            _rotate(s, t, (b.frame - frame) % q)
            s, t, frame = t, s, b.frame
        gram = _gram(b, s, t)
        picked = np.take(gram.reshape(-1, gram.shape[-2] * gram.shape[-1]), grp.entries, axis=1)
        reads[i] = picked.sum(axis=0, keepdims=True) if shared else picked
        _apply(b, _inverse(b.form, ops.ops[i], index), s, t)
        s, t = t, s
    # a fresh array for the input gradient alone, so that it does not keep
    # psi's half alive
    g_in = np.empty_like(s[1])
    _rotate(s[1], g_in, -frame % q)
    g_ang = np.zeros((1 if shared else out_arr.shape[0], np.shape(ops.angles)[-1]))
    for grp in plan.groups:
        m = np.stack([reads[i] for i in grp.ids])           # (nb, r, E)
        m *= grp.coef
        m = np.add.reduceat(m, grp.starts, axis=-1)         # (nb, r, n)
        if grp.pair is not None:
            pw = w[grp.pair] if index is None else w[grp.pair[..., None], index]
            first = np.einsum("brj,bjr->br", m[..., 1:], pw)
            m = np.stack((first, m[..., 0]), axis=-1)
        g_ang[:, grp.angles.ravel()] = m.transpose(1, 0, 2).reshape(m.shape[1], grp.angles.size)
    return g_in, (g_ang[0] if shared else g_ang)


# ---------------------------------------------------------------------------
# Pauli action and expectations

def pauli_apply(vec: np.ndarray, q: int, axis: str, qubit: int) -> np.ndarray:
    """Apply a single-qubit Pauli to a (2**q,) vector or to each row of a
    (k, 2**q) batch."""
    arr = vec.reshape(-1, 1 << q)
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
    return out.reshape(vec.shape)


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Sum each row of a (k, ...) array over all its other axes."""
    return np.add.reduce(x.reshape(x.shape[0], -1), axis=1)


def pauli_expectations_raw(vec: np.ndarray, q: int) -> np.ndarray:
    """All 3q expectations [X_0..X_{q-1}, Y_0.., Z_0..] of vec / ||vec||,
    as float64, for a (2**q,) vector (shape (3q,)) or for each row of a
    (k, 2**q) batch (shape (k, 3q)). Each row's values are reduced from
    that row alone. Caller guarantees the norms are usable."""
    arr = vec.reshape(-1, 1 << q)
    sq = arr.real * arr.real + arr.imag * arr.imag
    norm_sq = _row_sums(sq)
    out = np.empty((arr.shape[0], 3 * q), dtype=np.float64)
    for k in range(q):
        a0, a1 = _bit_views(arr, q, k)
        cross = _row_sums(np.conj(a0) * a1)
        s0, s1 = _bit_views(sq, q, k)
        out[:, k] = 2.0 * cross.real
        out[:, q + k] = 2.0 * cross.imag
        out[:, 2 * q + k] = _row_sums(s0) - _row_sums(s1)
    out /= norm_sq[:, None]
    return out.reshape(vec.shape[:-1] + (3 * q,))
