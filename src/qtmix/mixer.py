"""The quantum token mixer, run over a batch of windows.

Per window: the raw complex mixing coefficients are masked and
l1-normalized, each surviving token contributes one template unitary, and
the mixing operator

    M = sum_j b_j * U_j

is applied as a sum of statevector evolutions (M itself is never
materialized). A degree-d polynomial sum_k c_k M^k is evaluated on |0...0>
by power accumulation: exactly d applications of M, accumulating the
partial powers with the polynomial coefficients. The squared norm of the
resulting (sub-normalized) state is recorded as ``pre_norm`` before the
state is renormalized, pushed through a trainable feed-forward template,
and read out as per-qubit X/Y/Z expectations.

A batch of W windows runs at once, through one token path. Its token
angles come as (U, L), one row per distinct token, with a (W, n) index
saying which token sits where; angles given per position, (W, n, L),
become the active positions' rows, each position its own token. Every
window starts from |0...0>, so the first application of M is one template
call with one row per distinct token, whose results each window gathers;
every later application is one call with one row per distinct
(window, token) pair, run from that window's state. When the pairs are
the tokens in order (per-position input, say), nothing is gathered. A
window's repeated tokens share one coefficient: the canonical
(value-sorted) sum of its weights at the positions holding the token. The
feed-forward template is one call over the W states. Each template row
depends only on that row, and each power's LCU sum orders a window's
terms by their coefficients (real part, then imaginary part; only a whole
tie is broken by the rows' values, compared lexicographically) and
reduces that window's terms alone.
So a window's outputs are bitwise the same whatever else is in the batch,
and under any joint permutation of its positions. One window (angles
(n, L) or (U, L), mask (n,)) is the batch W = 1, returned without the
batch axis.
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
    rows = coeffs if single else ad.broadcast_rows(coeffs, m.shape[0])
    masked = ad.mul_const(rows, m.astype(np.float64).reshape(rows.shape))
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
    window's weights at the positions holding that token.
    """

    angles: Tensor                  # (U, L) the distinct tokens' angles
    window: np.ndarray              # (P,) window of each pair
    token: np.ndarray | None        # (P,) token row of each pair; None: pair p is token p
    slots: np.ndarray               # (W, n) one True per pair, in pair order
    positions: np.ndarray           # flat (W * n) positions, grouped by pair
    sizes: np.ndarray               # (P,) positions per pair


def _tokens(token_angles: Tensor, tokens, keep: np.ndarray, q: int, layers: int) -> _Tokens:
    """The pairs of a (W, n) batch whose ``keep`` positions run: one per
    distinct token of each window, in (window, token) order, each window's
    pairs in its first slots. Tokens are named by a (W, n) index into (U, L)
    angles; per-position (W, n, L) angles become the active positions'
    rows, indexed in order, so that every active position is its own token.
    """
    per_position = tokens is None
    if per_position:
        want = keep.shape + (kernels.angle_count(q, layers),)
        if token_angles.shape != want:
            raise ShapeError(f"per-position token angles must be {want} for q={q}, "
                             f"layers={layers}, got {token_angles.shape}")
        flat = ad.reshape(token_angles, (keep.size, want[-1]))
        token_angles = flat if keep.all() else ad.take_rows(flat, np.flatnonzero(keep))
        tokens = np.zeros(keep.shape, dtype=np.int64)
        tokens[keep] = np.arange(token_angles.shape[0])
    else:
        tokens = np.asarray(tokens, dtype=np.int64)
        _check_token_rows(token_angles, tokens, keep, q, layers)
    n_tok, (w, n) = token_angles.shape[0], keep.shape
    win, pos = np.nonzero(keep)
    keys, positions = win * n_tok + tokens[win, pos], win * n + pos
    sizes = np.ones(keys.size, dtype=np.int64)
    # per-position keys are already sorted and distinct: each is its own pair
    if not per_position:
        keys, inverse, sizes = np.unique(keys, return_inverse=True, return_counts=True)
        positions = positions[np.argsort(inverse, kind="stable")]
    window, token = keys // n_tok, keys % n_tok
    slots = np.arange(n) < np.bincount(window, minlength=w)[:, None]
    # pair p runs token p: the first power needs no gather, no power an angle index
    if token.size == n_tok and np.array_equal(token, np.arange(n_tok)):
        token = None
    return _Tokens(token_angles, window, token, slots, positions, sizes)


def _ground(k: int, q: int) -> Tensor:
    """k constant rows of |0...0>."""
    zero = np.zeros((k, 1 << q), dtype=np.complex128)
    zero[:, 0] = 1.0
    return ad.tensor(zero)


def apply_polynomial(b_norm: Tensor, token_angles: Tensor, poly_coeffs: Tensor,
                     q: int, layers: int, active=None, tokens=None) -> Tensor:
    """Evaluate sum_k c_k M^k |0...0> for each window of a batch, with
    exactly ``degree`` applications of its M = sum_j b_norm[w, j] U_j,
    accumulating the running powers: (W, 2**q) states for (W, n) weights.
    The angles come per position, (W, n, L); or, with ``tokens``, a (W, n)
    index, as (U, L), one row per distinct token. ``active`` optionally
    masks, in ``b_norm``'s shape, the positions to run; dropped positions
    must carry exactly zero weight (the caller masks them), so skipping
    them changes nothing but cost.

    Every window starts from |0...0>, so the first power runs each
    distinct token once and gathers the results per pair; each later power
    runs each pair once and sums each window's pairs. A pair's coefficient
    is the canonical (value-sorted) sum of its window's weights at the
    positions holding its token. The token template's block operands are
    built once, on the distinct tokens' angles, and serve every power,
    forward and adjoint."""
    if poly_coeffs.values.ndim != 1 or poly_coeffs.shape[0] < 1:
        raise ShapeError(f"polynomial coefficients must be a non-empty vector, got {poly_coeffs.shape}")
    if b_norm.values.ndim != 2:
        raise ShapeError(f"weights must be (W, n), got {b_norm.shape}")
    keep = np.ones(b_norm.shape, dtype=bool) if active is None else np.asarray(active, dtype=bool)
    if keep.shape != b_norm.shape:
        raise ShapeError(f"active mask must have shape {b_norm.shape}, got {keep.shape}")
    if not keep.any(axis=1).all():
        raise EmptyWindowError("no active tokens to mix")
    tok = _tokens(token_angles, tokens, keep, q, layers)
    flat = ad.reshape(b_norm, (b_norm.shape[0] * b_norm.shape[1],))
    coeffs = ad.segment_sum(ad.take_rows(flat, tok.positions), tok.sizes)
    powers = [_ground(b_norm.shape[0], q)]
    if poly_coeffs.shape[0] > 1:
        ops = kernels.template_operands(q, layers, tok.angles.values)
        evolved = ansatz_rows(_ground(tok.angles.shape[0], q), tok.angles, q, layers,
                              operands=ops)
        if tok.token is not None:
            evolved = ad.take_rows(evolved, tok.token)
        powers.append(ad.collapse_rows(coeffs, evolved, tok.slots))
        for _ in range(poly_coeffs.shape[0] - 2):
            evolved = ansatz_rows(powers[-1], tok.angles, q, layers, index=tok.window,
                                  angle_index=tok.token, operands=ops)
            powers.append(ad.collapse_rows(coeffs, evolved, tok.slots))
    return ad.weighted_sum(poly_coeffs, powers)


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
    (n, 4*embed_layers*q) for one window, and each active position is its
    own token, run through the same path.
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
        weights = ad.mul_const(ad.broadcast_rows(params.lcu_coeffs, m.shape[0]),
                               m.astype(np.float64))

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
