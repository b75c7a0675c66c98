"""Raw statevector kernels.

Everything here works on batches of statevectors laid out as (k, 2**q)
complex128 arrays, row-major, little-endian qubit order: qubit 0 is the
least significant bit of the basis index. No 2**q x 2**q matrix is ever
materialized. The tape ops in ``circuits`` wrap these functions; tests
compare them against dense Kronecker oracles.

The template sweeps (``ansatz_rows_forward``, ``ansatz_rows_vjp``) fuse
the template's gates into blocks of one or two CRX ring gates, each with
the RY gates before it on its wires folded in, and apply each block as
one batched real matrix product on the state's float64 view (see "fused
template sweeps" below), in buffers allocated once per call; the
caller's arrays are never modified. Every block acts on the lowest bits:
the sweeps run in a rotating qubit frame, relabelling the qubits
cyclically (one copy of the register) before each block that sits
elsewhere. The blocks' operands are built once per set of angles by
``template_operands`` and passed to every sweep that runs those angles:
the forward sweeps and the adjoint sweep, which walks the same steps
backwards, reads each operand as its inverse and reads the angle
gradients off sparse entries of per-block Gram matrices, at the block's
output for its CRX gates and at its input for its RY gates. A sweep's rows
may share operand rows through an index (one token's operands serving
every window that holds it); each block gathers the rows it needs for its
step and drops them after it. Each row's results depend only on that
row's inputs, so permuting the rows permutes the results exactly. The
readout's forward reads all 3q Pauli expectations in one call
(``pauli_expectations_raw``), its backward applies their per-row
weighted sum in one call (``pauli_apply``).

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

from .errors import ShapeError

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
# matrix on the lowest bits [0, n) of the state's float64 view, where the
# real/imaginary part is one more bit below bit 0: a 2**(n+1)-square matrix
# that right-multiplies (k, hi, 2**(n+1)), applied to a whole batch with one
# np.matmul.
#
# Bits are not tied to qubits. Each block runs in a frame r, a cyclic
# relabelling in which bit b holds qubit (b + r) mod q. Before a block
# whose frame differs from the current one, the sweep rotates the register
# into it: one copy of each row, reshaped and transposed (``_rotate``).
# Every sweep starts and ends in frame 0.
#
# From q = 7 each CRX ring runs in pairs of consecutive gates, its
# wrap-around gate included. A pair's three wires are cyclically adjacent,
# so in its own frame it sits on bits 0-2, and all pairs of a ring have the
# same wiring. With q odd the ring's last gate runs alone on bits 0-1.
# Below q = 7 every ring gate runs alone on bits 0-1 of its own frame (see
# ``_ring_blocks``). An RY layer has no blocks of its own: the ring gates
# that run before the first one on an RY gate's wire act on other wires,
# so the RY gate joins the first ring block that touches its wire, ahead of
# the block's CRX gates, in the block's frame.
#
# Gate t of a block is G_t = P0 + cos(theta/2) Pc + sin(theta/2) Ps with
# constant patterns (P0 = 0 for RY), so a block's matrix is a sum of the
# products Q_a of its gates' patterns, each weighted by the product w_a of
# those gates' own factors: (cos, sin) for RY, (1, cos, sin) for CRX.
# Blocks of one shape (width and gate wiring) form a group that shares the
# products Q_a. Every block's matrix is built with one batched product per
# group, once per set of angles (``TemplateOperands``), and shared by every
# sweep over them.
#
# The adjoint walks the same steps backwards. It un-rotates, and it
# un-applies each block through its forward operand read as the inverse:
# the gates are unitary and the operands real, so the inverse is the
# transpose. No inverse is built from the angles or kept (see ``_inverse``).
#
# It reads the angle gradients off Gram matrices of the pair (psi, g) with
# the generator identity: dG_t/dtheta = A_t G_t with A_t = Ps/2 (-iY/2 for
# RY, -i|1><1| (x) X/2 for CRX). With (psi_t, g_t) the pair just after
# gate t, and R_t the matrix A_t acting on the block's float64 view,
#
#     dL/dtheta_t = Re <g_t, A_t psi_t> = sum_ij R_t[i, j] W[i, j],
#     W[i, j] = sum over the block's other bits of g_t[i] psi_t[j].
#
# The CRX gates read W at the block's output, one batched matmul of two
# views. In a CRX pair G_2 G_1, the first generator is carried to the
# output, A_1 -> G_2 A_1 G_2^H, a quadratic form in (1, cos, sin) of the
# second angle. psi and g are then un-applied together as one stacked
# (2, k, 2**q) batch, and the RY gates read W of the un-applied pair at the
# block's input: RY_w commutes with its own generator and with the other
# RY gates, so for a block C R (its CRX gates C after its RY gates R),
# Re <C^H g_out, A_w R psi_in> equals Re <g_in, A_w psi_in>.
#
# The readout matrices R are sparse: a CRX pair's read 28 of its 256 Gram
# entries, a lone CRX gate's 4 of 64, an RY gate's 16 of 256 (8 of 64). Each
# step keeps only the entries its group reads; after the sweep, one
# weighted np.add.reduceat per group sums them into gradients. Both are
# elementwise per row, so a row's gradients round the same in any batch.

_J = np.array([[0.0, -1.0], [1.0, 0.0]])   # multiplication by 1j on (re, im)


@dataclass(frozen=True)
class _Block:
    frame: int          # bit b holds qubit (b + frame) mod q
    width: int          # number of bits it acts on, from bit 0
    gates: tuple        # ((kind, bits, angle index), ...): its RY gates, then its CRX gates


def _gate_patterns(kind: str, bits, width: int) -> np.ndarray:
    """(P0, Pc, Ps) of one gate on bits [0, width), as a
    (3, 2**width, 2**width) complex array; ``bits`` is RY's bit or CRX's
    (control, target)."""
    d = 1 << width
    pats = np.zeros((3, d, d), dtype=_C)
    idx = np.arange(d)
    if kind == "ry":
        bit = 1 << bits
        pats[1] = np.eye(d)
        pats[2, idx, idx ^ bit] = np.where(idx & bit, 1.0, -1.0)
        return pats
    ctl, tgt = bits
    on = (idx >> ctl) & 1 == 1
    pats[0] = np.diag(~on)
    pats[1] = np.diag(on)
    pats[2, idx[on], idx[on] ^ (1 << tgt)] = -1j
    return pats


def _represent(m: np.ndarray) -> np.ndarray:
    """Complex matrices (..., d, d) on a block's bits as real (2d, 2d)
    matrices acting on interleaved (re, im) pairs."""
    out = (m.real[..., :, None, :, None] * np.eye(2)[:, None, :]
           + m.imag[..., :, None, :, None] * _J[:, None, :])
    return out.reshape(m.shape[:-2] + (2 * m.shape[-2], 2 * m.shape[-1]))


def _in_frame(q: int, frame: int, gates) -> list:
    """``gates`` with their wires replaced by their bits in ``frame``."""
    return [(kind, (w - frame) % q if kind == "ry" else tuple((x - frame) % q for x in w), t)
            for kind, w, t in gates]


def _ring_blocks(q: int, ry: list, ring: list, frame: int) -> list[_Block]:
    """A CRX ring in pieces of consecutive gates, each in the frame that
    puts its wires lowest, the current frame on a tie (q <= 3). From q = 7
    the pieces are pairs on bits 0-2, with q odd the last gate alone. Below
    it, a pair's operand (16x16 float64, 2 KB a row) outweighs the state
    row it acts on and costs more to build, gather and transpose than the
    block it saves, so each gate runs alone on bits 0-1 (8x8, 512 B); at
    q = 2 both gates of a ring sit there and still run as one pair. Each
    gate of the RY layer ``ry`` before the ring joins the first piece that
    touches its wire, ahead of the piece's CRX gates, in bit order."""
    step = 2 if q >= 7 or q == 2 else 1
    blocks = []
    for i in range(0, len(ring), step):
        piece = ring[i:i + step]
        wires = {w for _, ws, _ in piece for w in ws}
        frame = min(range(frame, frame + q),
                    key=lambda r: max((w - r) % q for w in wires)) % q
        rys = sorted(_in_frame(q, frame, [g for g in ry if g[1] in wires]), key=lambda g: g[1])
        ry = [g for g in ry if g[1] not in wires]
        crx = _in_frame(q, frame, piece)
        width = 1 + max(max(bits) for _, bits, _ in crx)
        blocks.append(_Block(frame, width, tuple(rys + crx)))
    return blocks


def _part_matrices(gates, width: int) -> np.ndarray:
    """The product of a block's ``gates`` ((kind, bits) in application
    order: its RY gates, then its CRX gates) as sum_a w_a Q_a: the complex
    matrices Q_a on the bits [0, width), stacked. Each gate contributes its
    patterns (P0, Pc, Ps), RY's without P0; the first gate's index varies
    slowest, as in the weights of ``_block_operands``."""
    terms = [np.eye(1 << width, dtype=_C)]
    for kind, bits in gates:
        p = _gate_patterns(kind, bits, width)
        terms = [p[j] @ m for m in terms for j in range(1 if kind == "ry" else 0, 3)]
    return np.stack(terms)


def _readout(width: int, gates: tuple):
    """Generator readout of a block, sparse: (entries, coefficients,
    starts, at_input). Column c sums W.flat[entries] * coefficients over
    [starts[c], starts[c+1]) to a gradient. The block's RY gates come
    first, one column each, read at the block's input: their entries are
    the first ``at_input``. The CRX columns follow, read at its output: for
    a lone gate one column; for a pair, one for the second gate and nine
    for the first: its generator carried to the pair's output, expanded
    over the pair weights (1, cos, sin) x (1, cos, sin) of the second
    angle. An all-zero column reads one entry with coefficient 0, so that
    every column has one."""
    pats = [_gate_patterns(kind, bits, width) for kind, bits in gates]
    gens = [0.5 * p[2] for p in pats]
    n_ry = sum(kind == "ry" for kind, _ in gates)
    cols = gens[:n_ry + 1]
    if len(pats) - n_ry == 2:
        p2 = pats[-1]
        cols = gens[:n_ry] + [gens[-1]] + [p2[i] @ gens[-2] @ p2[j].conj().T
                                           for i in range(3) for j in range(3)]
    r = _represent(np.stack(cols)).reshape(len(cols), -1)
    keep = r != 0
    keep[~keep.any(axis=1), 0] = True
    col, entries = np.nonzero(keep)
    starts = np.searchsorted(col, np.arange(len(cols)))
    return entries, r[col, entries], starts, int(np.searchsorted(col, n_ry))


@dataclass(frozen=True)
class _Group:
    """The blocks of one shape (width and gate wiring) in a plan. The
    fields from ``fwd`` on depend on the shape alone: one set of constant
    gate-pattern products and one generator readout."""

    ids: tuple              # block ids
    angles: np.ndarray      # (nb, m) angle index of each gate, in block order
    fwd: np.ndarray         # (T, d*d) the products Q_a as forward operands
    entries: np.ndarray     # (E,) Gram entries the readout reads, column by column
    coef: np.ndarray        # (E,) their readout coefficients
    starts: np.ndarray      # (n,) each readout column's first entry
    at_input: int           # entries [0, at_input) read the Gram at the block's input


@dataclass(frozen=True)
class _Plan:
    blocks: tuple
    groups: tuple
    where: tuple            # per block: (group, position)


@functools.lru_cache(maxsize=None)
def _plan(q: int, layers: int) -> _Plan:
    seq = ansatz_sequence(q, layers)
    blocks: list[_Block] = []
    for start in range(0, len(seq), 2 * q):
        frame = blocks[-1].frame if blocks else 0
        blocks += _ring_blocks(q, seq[start:start + q], seq[start + q:start + 2 * q], frame)
    shapes: dict = {}
    for i, b in enumerate(blocks):
        shapes.setdefault((b.width, tuple(g[:2] for g in b.gates)), []).append(i)
    groups, where = [], [None] * len(blocks)
    for (width, gates), ids in shapes.items():
        for j, i in enumerate(ids):
            where[i] = (len(groups), j)
        angles = np.array([[g[2] for g in blocks[i].gates] for i in ids])
        qa = _part_matrices(gates, width)
        fwd = _represent(qa).swapaxes(-1, -2).reshape(len(qa), -1)
        groups.append(_Group(tuple(ids), angles, fwd, *_readout(width, gates)))
    return _Plan(tuple(blocks), tuple(groups), tuple(where))


def _factor_table(angles: np.ndarray) -> np.ndarray:
    """(L, 3, r) table of 1, cos and sin of theta_t/2 for angle t, per row:
    r = k for (k, L) per-row angles and r = 1 for (L,) shared ones."""
    th = np.asarray(angles, dtype=np.float64)
    half = 0.5 * (th.T if th.ndim == 2 else th[:, None])
    tab = np.ones((half.shape[0], 3, half.shape[1]))
    np.cos(half, out=tab[:, 1])
    np.sin(half, out=tab[:, 2])
    return tab


def _block_operands(plan: _Plan, tab: np.ndarray) -> tuple:
    """Per block, its forward operand (r, d, d) from the factor table
    ``tab``: sum_a w_a Q_a (``_part_matrices``), w_a the product of its
    gates' own factors in application order ((cos, sin) for RY, (1, cos,
    sin) for CRX, the first gate's slowest), each multiply along the rows."""
    built = []
    for grp in plan.groups:
        f = tab[grp.angles]                                 # (nb, m, 3, r)
        nb, _, _, r = f.shape
        w = None
        for g, (kind, _, _) in enumerate(plan.blocks[grp.ids[0]].gates):
            fg = f[:, g, None, 1:] if kind == "ry" else f[:, g, None]    # (nb, 1, s, r)
            w = fg.swapaxes(1, 2) if w is None else (w * fg).reshape(
                nb, w.shape[1] * fg.shape[2], 1, r)                 # (nb, T, 1, r)
        d = math.isqrt(grp.fwd.shape[1])
        wt = w.swapaxes(1, 3).reshape(nb * r, w.shape[1])
        built.append(np.matmul(wt, grp.fwd).reshape(nb, r, d, d))
    return tuple(built[g][j] for g, j in plan.where)


@dataclass(frozen=True, eq=False)
class TemplateOperands:
    """What the template sweeps need for one set of angles: the factor
    table (1, cos and sin of each half angle) and the forward operand of
    every block. Built once by ``template_operands``, it serves every
    forward sweep that runs these angles and the adjoint sweeps of their
    outputs, which read a CRX pair's second-angle weights off the table."""

    q: int
    layers: int
    angles: np.ndarray      # the array built from, as given (callers check identity)
    factors: np.ndarray     # (L, 3, r) factor table, r = k or 1
    ops: tuple              # per block, its forward operand

    @property
    def plan(self) -> _Plan:
        return _plan(self.q, self.layers)


def template_operands(q: int, layers: int, angles) -> TemplateOperands:
    """Build the block operands of the template for ``angles``: (k, L) per
    row or (L,) shared, L = 4*layers*q; a complex array's real part is
    used. Each block's operand is its gate-pattern products weighted by
    products of its gates' cos and sin factors, one batched product per
    group of blocks of one shape."""
    tab = _factor_table(np.asarray(angles).real)
    return TemplateOperands(q, layers, angles, tab, _block_operands(_plan(q, layers), tab))


def _views(b: _Block, arr: np.ndarray) -> np.ndarray:
    """The float64 view (..., hi, d) of ``arr`` (..., 2**q) that block
    ``b`` multiplies: d = 2**(width+1) floats, its bits and (re, im)."""
    return arr.view(np.float64).reshape(arr.shape[:-1] + (arr.shape[-1] >> b.width, 2 << b.width))


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


def _inverse(op: np.ndarray, index=None) -> np.ndarray:
    """A block's inverse operand M^T, read off its forward operand, rows
    picked by ``index`` as in ``_rows``: a contiguous copy, made per adjoint
    step and dropped after it (the batched products run up to twice as fast
    on it as on a transposed view). With ``index``, the copy is made once
    per operand row, then gathered."""
    return _rows(np.ascontiguousarray(op.swapaxes(-1, -2)), index)


def _gram(b: _Block, s: np.ndarray, entries: np.ndarray, shared: bool) -> np.ndarray:
    """The entries ``entries`` of W[r, i, j] = sum over the block's other
    bits of g_i psi_j, per row, on the float views of the stacked pair
    s = (psi, g); summed over the rows for shared angles."""
    v = _views(b, s)
    gram = np.matmul(v[1].swapaxes(-1, -2), v[0])
    picked = np.take(gram.reshape(-1, (2 << b.width) ** 2), entries, axis=1)
    return picked.sum(axis=0, keepdims=True) if shared else picked


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
        np.matmul(_views(b, x), _rows(op, index), out=_views(b, y))
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
    each block it reads the Gram entries its CRX gradients need off the
    pair (psi, g) at the block's output (see above), un-applies the block
    from psi and g at once through its forward operand, read as its
    inverse, and reads its RY gradients off the un-applied pair: the gates
    are unitary, so the pre-block state is recovered instead of stored.
    Between blocks of different frames it rotates the pair back. For gate t,

        dL/dtheta_t = Re( sum_i conj(g_i) * (dG_t/dtheta applied to the
                          pre-gate state)_i ).

    Returns (g_input_rows, g_angles) with g_angles real-valued, shaped like
    the angles, or one row per batch row when the forward ran with
    ``index`` (pass the same ``index``). ``out_arr`` and ``g`` are copied
    once into a stacked working buffer; neither argument is modified. Each
    row's results depend only on that row, its angles and its gradient.
    """
    plan, q, shared = ops.plan, ops.q, np.ndim(ops.angles) == 1
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
        reads[i] = _gram(b, s, grp.entries[grp.at_input:], shared)
        np.matmul(_views(b, s), _inverse(ops.ops[i], index), out=_views(b, t))
        s, t = t, s
        if grp.at_input:
            ry = _gram(b, s, grp.entries[:grp.at_input], shared)
            reads[i] = np.concatenate((ry, reads[i]), axis=1)
    # a fresh array for the input gradient alone, so that it does not keep
    # psi's half alive
    g_in = np.empty_like(s[1])
    _rotate(s[1], g_in, -frame % q)
    g_ang = np.zeros((1 if shared else out_arr.shape[0], np.shape(ops.angles)[-1]))
    for grp in plan.groups:
        m = np.stack([reads[i] for i in grp.ids])           # (nb, r, E)
        m *= grp.coef
        m = np.add.reduceat(m, grp.starts, axis=-1)         # (nb, r, n)
        if m.shape[-1] > grp.angles.shape[1]:
            # a CRX pair: the first gate's nine columns, over the second angle's pair weights
            f = ops.factors[grp.angles[:, -1]]              # (nb, 3, r)
            f = f if index is None else f[..., index]
            pw = (f[:, :, None] * f[:, None]).reshape(len(f), 9, f.shape[-1])
            first = np.einsum("brj,bjr->br", m[..., -9:], pw)
            m = np.concatenate((m[..., :-10], first[..., None], m[..., -10:-9]), axis=-1)
        g_ang[:, grp.angles.ravel()] = m.transpose(1, 0, 2).reshape(m.shape[1], grp.angles.size)
    return g_in, (g_ang[0] if shared else g_ang)


# ---------------------------------------------------------------------------
# Pauli action and expectations

def pauli_apply(rows: np.ndarray, q: int, weights: np.ndarray) -> np.ndarray:
    """sum_j (x_j X_j + y_j Y_j + z_j Z_j) applied to each row of a
    (k, 2**q) batch, row r with its own real weights[r] = [x_0..x_{q-1},
    y_0.., z_0..], the layout of ``pauli_expectations_raw``: (k, 2**q)."""
    out = np.zeros_like(rows)
    w = weights[:, :, None, None]
    for j in range(q):
        x, y, z = w[:, j], w[:, q + j], w[:, 2 * q + j]
        a0, a1 = _bit_views(rows, q, j)
        o0, o1 = _bit_views(out, q, j)
        o0 += (x - 1j * y) * a1 + z * a0
        o1 += (x + 1j * y) * a0 - z * a1
    return out


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Sum each row of a (k, ...) array over all its other axes."""
    return np.add.reduce(x.reshape(x.shape[0], -1), axis=1)


def pauli_expectations_raw(arr: np.ndarray, q: int) -> np.ndarray:
    """All 3q expectations [X_0..X_{q-1}, Y_0.., Z_0..] of each row of a
    (k, 2**q) batch over its norm, as float64 (k, 3q). Each row's values
    are reduced from that row alone. Caller guarantees the norms are
    usable."""
    if arr.ndim != 2 or arr.shape[1] != (1 << q):
        raise ShapeError(f"pauli_expectations_raw: states must be (k, {1 << q}), "
                         f"got {arr.shape}")
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
    return out
