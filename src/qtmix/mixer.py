"""The quantum token mixer, run over a batch of windows.

Per window: the raw complex mixing coefficients are masked and
l1-normalized, each surviving token contributes one template unitary, and
the mixing operator

    M = sum_j b_j * U_j

is applied as a sum of statevector evolutions (M itself is never
materialized). A degree-d polynomial sum_k c_k M^k is evaluated on |0...0>
by power accumulation: exactly d applications of M, each power scaled by
its coefficient and added to a running sum, in power order. The squared
norm of the resulting (sub-normalized) state is recorded as ``pre_norm``
before the state is renormalized, pushed through a trainable feed-forward
template, and read out as per-qubit X/Y/Z expectations.

A batch of W windows runs at once, through one token path. Its token
angles come as (U, L), one row per distinct token, with a (W, n) index
saying which token sits where; angles given per position, (W, n, L),
become tokens too, one per distinct active row by the row's bytes. Every
window starts from |0...0>, so the first application of M is one
template call with one row per distinct token, whose results each window
gathers; every later application is one call with one row per distinct
(window, token) pair, run from that window's state, which ``take_rows``
gathers per pair. A window's repeated tokens share one coefficient: the
sum of its weights at the positions holding the token, and each power's
LCU sum is a ``segment_sum`` of the pairs' weighted states.
The feed-forward template is one call over the W states. Each template
row depends only on that row, and every sum over a window's positions
adds that window's terms alone, in one order that ``_tokens`` fixes from
what the window holds. So a window's outputs are bitwise the same
whatever else is in the batch, and under any joint permutation of its
positions. One window (angles (n, L) or (U, L), mask (n,)) is the batch
W = 1, returned without the batch axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import circuits, kernels
from .autodiff import Tensor
from .circuits import AnsatzAngles, ansatz_rows, pauli_expectations
from .errors import (
    CollapsedStateError,
    DegenerateCoefficientError,
    EmptyWindowError,
    ShapeError,
)

COLLAPSE_THRESHOLD = 1e-12

__all__ = [
    "COLLAPSE_THRESHOLD", "MixerParams", "MixerOutput",
    "l1_normalize", "apply_polynomial", "mix_window",
]


@dataclass
class MixerParams:
    """Trainable mixer state: complex mixing coefficients (one per window
    position), complex polynomial coefficients (degree+1 of them), and the
    real feed-forward template angles."""

    lcu_coeffs: Tensor          # (n,) complex
    poly_coeffs: Tensor         # (degree+1,) complex
    ff_angles: AnsatzAngles

    @property
    def window(self) -> int:
        return self.lcu_coeffs.shape[0]

    @property
    def degree(self) -> int:
        return self.poly_coeffs.shape[0] - 1


@dataclass
class MixerOutput:
    """Per-window outputs: one window's, or a batch's with a leading W axis."""

    features: Tensor            # (3q,) / (W, 3q) real readout
    pre_norm: Tensor            # 0-d / (W,) real, squared norm before renormalizing
    state: Tensor               # (2**q,) / (W, 2**q) final normalized, feed-forwarded state(s)
    lcu_weights: Tensor         # (n,) / (W, n) coefficients actually used in the sum


def _where(window_id) -> str:
    if window_id is None:
        return "window"
    return window_id if isinstance(window_id, str) else f"window {window_id!r}"


def _batch_mask(mask, n: int) -> tuple[np.ndarray, bool]:
    """The mask as (W, n) booleans, and whether it was one window's (n,)."""
    m = np.asarray(mask, dtype=bool)
    if m.ndim not in (1, 2) or m.shape[-1] != n:
        raise ShapeError(f"mask must have shape ({n},) or (W, {n}), got {m.shape}")
    return m.reshape(-1, n), m.ndim == 1


def _labels(window_id, count: int, single: bool) -> list:
    if single:
        return [window_id]
    labels = list(range(count)) if window_id is None else list(window_id)
    if len(labels) != count:
        raise ShapeError(f"{len(labels)} window id(s) for {count} window(s)")
    return labels


def _check_nonempty(m: np.ndarray, labels: list) -> None:
    empty = np.flatnonzero(~m.any(axis=1))
    if empty.size:
        raise EmptyWindowError(f"{_where(labels[empty[0]])}: every position is masked")


def l1_normalize(coeffs: Tensor, mask, window_id=None) -> Tensor:
    """Mask, then scale so the magnitudes sum to one.

    ``mask`` is one window's (n,) or a batch's (W, n); the result has its
    shape. Masked entries are forced to exactly zero before normalization,
    so they receive exactly zero mixing weight. Raises if every position of
    a window is masked or its surviving total magnitude vanishes;
    ``window_id`` (one id, or one per window of a batch) names it.
    """
    if coeffs.values.ndim != 1:
        raise ShapeError(f"coefficients must be 1-d, got {coeffs.shape}")
    m, single = _batch_mask(mask, coeffs.shape[0])
    labels = _labels(window_id, m.shape[0], single)
    _check_nonempty(m, labels)
    masked = ad.mul(ad.tensor(m[0] if single else m), coeffs)
    total = ad.sum_last(ad.absval(masked))
    small = np.flatnonzero(total.values.real.reshape(-1) <= 1e-12)
    if small.size:
        raise DegenerateCoefficientError(
            f"{_where(labels[small[0]])}: surviving coefficient magnitude "
            f"{float(total.values.real.reshape(-1)[small[0]]):.3e} is too small"
        )
    return ad.scalar_mul(ad.spow(total, -1.0), masked)


def _check_token_rows(token_angles: Tensor, tokens: np.ndarray, keep: np.ndarray,
                      q: int, layers: int) -> None:
    want = kernels.angle_count(q, layers)
    if token_angles.values.ndim != 2 or token_angles.shape[1] != want:
        raise ShapeError(f"token angles must be (U, {want}) for q={q}, layers={layers} "
                         f"with a token index, got {token_angles.shape}")
    if tokens.shape != keep.shape:
        raise ShapeError(f"token index must have shape {keep.shape}, got {tokens.shape}")
    used = tokens[keep]
    if used.size and (used.min() < 0 or used.max() >= token_angles.shape[0]):
        raise ShapeError(f"token index out of range for {token_angles.shape[0]} token(s)")


@dataclass(frozen=True)
class _Tokens:
    """What a batch of W windows of n positions runs through the token
    template. The first power runs each distinct token once, from
    |0...0>; every later power runs each distinct (window, token) pair
    once, from its window's state. A pair's term carries the sum of its
    window's weights at the positions holding that token. A window's pairs
    run in token-row order; per-position input is numbered into tokens first.
    """

    angles: Tensor                  # (U, L) the distinct tokens' angles
    window: np.ndarray              # (P,) window of each pair
    token: np.ndarray               # (P,) token row of each pair
    counts: np.ndarray              # (W,) pairs per window
    positions: np.ndarray           # flat (W * n) positions, grouped by pair
    sizes: np.ndarray               # (P,) positions per pair


def _tokens(token_angles: Tensor, tokens, keep: np.ndarray, weights: np.ndarray,
            q: int, layers: int) -> _Tokens:
    """The pairs of a (W, n) batch whose ``keep`` positions run, grouped
    by window, in the order that each window's sums add them; ``weights``
    are the (W, n) mixing weights. The order depends only on what a window
    holds: a window's pairs run by token row, and a pair's positions by
    weight (real part, then imaginary part), so their sum, the pair's
    coefficient, is canonical. Per-position (W, n, L) angles first become
    (U, L) token angles with a (W, n) index: their distinct active rows,
    keyed and numbered by the rows' bytes, so byte-identical rows are one
    token. A tracked tensor's rows are keyed by their weight and position
    too, so each row keeps its own gradient.
    """
    (w, n), width = keep.shape, kernels.angle_count(q, layers)
    win, pos = np.nonzero(keep)
    flat = win * n + pos
    b = weights.reshape(-1)[flat]       # complex keys sort by real part, then imaginary
    if tokens is None:
        if token_angles.shape != keep.shape + (width,):
            raise ShapeError(f"per-position token angles must be {keep.shape + (width,)} "
                             f"for q={q}, layers={layers}, got {token_angles.shape}")
        rows = token_angles.values.reshape(-1, width)[flat]
        key = np.column_stack((rows, b, flat)) if token_angles.tracked else rows
        _, first, row = np.unique(key.view(np.dtype((np.void, key[0].nbytes)))[:, 0],
                                  return_index=True, return_inverse=True)
        token_angles = ad.take_rows(ad.reshape(token_angles, (keep.size, width)), flat[first])
        tokens = np.zeros(keep.shape, dtype=np.int64)
        tokens[win, pos] = row
    tokens = np.asarray(tokens, dtype=np.int64)
    _check_token_rows(token_angles, tokens, keep, q, layers)
    n_tok = token_angles.shape[0]
    # sorted keys: the pairs come by window, then by token row
    keys, pair, sizes = np.unique(win * n_tok + tokens[win, pos], return_inverse=True,
                                  return_counts=True)
    window = keys // n_tok
    # positions by pair, then by weight; only pairs of two or more positions
    # need the weight sort, so only their positions go through lexsort
    order = np.argsort(pair, kind="stable")
    several = np.repeat(sizes > 1, sizes)
    sub = order[several]
    order[several] = sub[np.lexsort((b[sub], pair[sub]))]
    return _Tokens(token_angles, window, keys % n_tok, np.bincount(window, minlength=w),
                   flat[order], sizes)


def _ground(k: int, q: int) -> Tensor:
    """k constant rows of |0...0>."""
    zero = np.zeros((k, 1 << q), dtype=np.complex128)
    zero[:, 0] = 1.0
    return ad.tensor(zero)


def apply_polynomial(b_norm: Tensor, token_angles: Tensor, poly_coeffs: Tensor,
                     q: int, layers: int, active=None, tokens=None) -> Tensor:
    """Evaluate sum_k c_k M^k |0...0> for each window of a batch, with
    exactly ``degree`` applications of its M = sum_j b_norm[w, j] U_j:
    (W, 2**q) states for (W, n) weights. The sum is a running total, one
    ``add`` of c_k * M^k |0...0> (a ``scalar_mul``) per power, in power order.
    The angles come per position, (W, n, L), made tokens by their rows'
    bytes; or, with ``tokens``, a (W, n) index, as (U, L). ``active``
    optionally masks, in ``b_norm``'s shape, the positions to run; dropped
    positions must carry exactly zero weight (the caller masks them), so
    skipping them changes nothing but cost.

    Every window starts from |0...0>, so the first power runs each
    distinct token once and gathers the results per pair; each later power
    runs each pair once. Every power sums each window's weighted pairs in
    the order ``_tokens`` fixes; a pair's weight is the sum of its window's
    weights at its token's positions. The token template's block operands
    are built once, on the distinct tokens' angles, for every power."""
    if poly_coeffs.values.ndim != 1 or poly_coeffs.shape[0] < 1:
        raise ShapeError(f"polynomial coefficients must be a non-empty vector, got {poly_coeffs.shape}")
    if b_norm.values.ndim != 2:
        raise ShapeError(f"weights must be (W, n), got {b_norm.shape}")
    keep = np.ones(b_norm.shape, dtype=bool) if active is None else np.asarray(active, dtype=bool)
    if keep.shape != b_norm.shape:
        raise ShapeError(f"active mask must have shape {b_norm.shape}, got {keep.shape}")
    if not keep.any(axis=1).all():
        raise EmptyWindowError("no active tokens to mix")
    tok = _tokens(token_angles, tokens, keep, b_norm.values, q, layers)
    flat = ad.reshape(b_norm, (b_norm.shape[0] * b_norm.shape[1],))
    coeffs = ad.segment_sum(ad.take_rows(flat, tok.positions), tok.sizes)
    power = _ground(b_norm.shape[0], q)
    total = ad.scalar_mul(ad.take_rows(poly_coeffs, 0), power)
    if poly_coeffs.shape[0] > 1:
        ops = kernels.template_operands(q, layers, tok.angles.values)
        evolved = ad.take_rows(ansatz_rows(_ground(tok.angles.shape[0], q), tok.angles, q,
                                           layers, operands=ops), tok.token)
        for k in range(1, poly_coeffs.shape[0]):
            if k > 1:
                evolved = ansatz_rows(ad.take_rows(power, tok.window), tok.angles, q,
                                      layers, angle_index=tok.token, operands=ops)
            power = ad.segment_sum(ad.scalar_mul(coeffs, evolved), tok.counts)
            total = ad.add(total, ad.scalar_mul(ad.take_rows(poly_coeffs, k), power))
    return total


def mix_window(token_angles: Tensor, params: MixerParams, mask, *, q: int,
               embed_layers: int, tokens=None, window_id=None,
               normalize_lcu: bool = True) -> MixerOutput:
    """Full mixer pipeline for a batch of windows, or for one.

    token_angles: (U, 4*embed_layers*q), one row per distinct token, with
    ``tokens``, a (W, n) (or (n,)) integer index: position j of window w
    runs row ``tokens[w, j]``. Each token's template then runs once per
    batch in the first power and once per window holding it after that,
    and a window's repeated tokens share one merged weight. Without
    ``tokens``, the angles are per position, (W, n, 4*embed_layers*q) or
    (n, 4*embed_layers*q) for one window; their distinct active rows,
    keyed by bytes, become the tokens, so byte-identical rows merge.
    mask: (W, n) booleans, or (n,), True where a real token sits.
    window_id: names windows in errors; one id for one window, a sequence
    of W ids for a batch (default: the window's position).
    normalize_lcu: when False (ablation), the masked raw coefficients are
    used without l1 normalization.
    """
    n = params.window
    m, single = _batch_mask(mask, n)
    angles, index = token_angles, tokens
    if single and tokens is None:
        angles = ad.reshape(token_angles, (1,) + token_angles.shape)
    elif single:
        index = np.asarray(tokens)[None]
    labels = _labels(window_id, m.shape[0], single)
    _check_nonempty(m, labels)

    if normalize_lcu:
        weights = l1_normalize(params.lcu_coeffs, m, window_id=labels)
    else:
        weights = ad.mul(ad.tensor(m), params.lcu_coeffs)

    poly_state = apply_polynomial(weights, angles, params.poly_coeffs,
                                  q, embed_layers, active=m, tokens=index)
    pre_norm = ad.square_norm(poly_state)
    low = np.flatnonzero(pre_norm.values.real < COLLAPSE_THRESHOLD)
    if low.size:
        raise CollapsedStateError(
            f"{_where(labels[low[0]])}: polynomial output collapsed (squared norm "
            f"{float(pre_norm.values.real[low[0]]):.3e} < {COLLAPSE_THRESHOLD})"
        )
    normalized = ad.scalar_mul(ad.spow(pre_norm, -0.5), poly_state)
    ff = params.ff_angles
    # via circuits, not the name the powers use, so a tracer can tell the calls apart
    final = circuits.ansatz_rows(normalized, ff.theta, q, ff.layers)
    features = pauli_expectations(final, q)
    if single:
        return MixerOutput(features=ad.reshape(features, (3 * q,)),
                           pre_norm=ad.reshape(pre_norm, ()),
                           state=ad.reshape(final, (1 << q,)),
                           lcu_weights=ad.reshape(weights, (n,)))
    return MixerOutput(features=features, pre_norm=pre_norm, state=final,
                       lcu_weights=weights)
