"""Full classifier: embeddings, quantum token mixer, readout head.

A batch of documents runs as one block of windows. A token's template
angles depend on its id alone (a linear projection of its embedding row,
with no position term), so they are computed once per distinct active id
of the batch, one product per id, and the mixer gets them with a (W, n)
index that says which token sits at each position; it runs each token's
template once per batch in the first polynomial power. The mixer produces
a 3q-dim expectation readout per window, and a small MLP maps that to
class logits. Each document's window logits are combined by plain
averaging or by a learned attention pool, and its loss adds the
norm-targeting and coefficient regularizers on top of cross-entropy.
Every product over rows is made per token or keeps a window axis until
the per-document aggregation, so a document's logits and loss are bitwise
the same in any batch; one document is the batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import kernels
from .autodiff import Tensor, parameter
from .circuits import AnsatzAngles
from .config import LossConfig, ModelConfig
from .data import Document
from .errors import InputError
from .mixer import MixerParams, mix_window


@dataclass
class Params:
    """All trainable tensors. ``named`` gives the canonical name -> tensor
    map used by the optimizer, checkpoints, and the gradient checker."""

    embed_table: Tensor         # (vocab, embed_dim)
    embed_proj: Tensor          # (4*embed_layers*q, embed_dim)
    mixer: MixerParams
    head_w1: Tensor             # (hidden, 3q)
    head_b1: Tensor             # (hidden,)
    head_w2: Tensor             # (classes, hidden)
    head_b2: Tensor             # (classes,)
    attn_vec: Tensor | None = None   # (3q,) for attention pooling

    def named(self) -> dict[str, Tensor]:
        out = {
            "embed_table": self.embed_table,
            "embed_proj": self.embed_proj,
            "lcu_coeffs": self.mixer.lcu_coeffs,
            "poly_coeffs": self.mixer.poly_coeffs,
            "ff_angles": self.mixer.ff_angles.theta,
            "head_w1": self.head_w1,
            "head_b1": self.head_b1,
            "head_w2": self.head_w2,
            "head_b2": self.head_b2,
        }
        if self.attn_vec is not None:
            out["attn_vec"] = self.attn_vec
        return out


def _xavier(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def param_shapes(cfg: ModelConfig, vocab_size: int, n_classes: int) -> dict[str, tuple]:
    """The shape of each parameter array, keyed by its ``Params.named`` name."""
    feats = 3 * cfg.qubits
    shapes = {"embed_table": (vocab_size, cfg.embed_dim),
              "embed_proj": (kernels.angle_count(cfg.qubits, cfg.embed_layers), cfg.embed_dim),
              "lcu_coeffs": (cfg.window,), "poly_coeffs": (cfg.degree + 1,),
              "ff_angles": (kernels.angle_count(cfg.qubits, cfg.ff_layers),),
              "head_w1": (cfg.hidden, feats), "head_b1": (cfg.hidden,),
              "head_w2": (n_classes, cfg.hidden), "head_b2": (n_classes,)}
    if cfg.aggregation == "attention_pool":
        shapes["attn_vec"] = (feats,)
    return shapes


def init_params(cfg: ModelConfig, vocab_size: int, n_classes: int,
                seed: int) -> Params:
    """Draw fresh parameters. The draw order below is part of the
    reproducibility contract: table, projection, mixing coefficients,
    polynomial coefficients, template angles, head weights. Biases and
    the attention vector start at zero (zero attention scores make the
    pool an exact uniform average, so both aggregations start equal).
    Every group but the two coefficient vectors is a real parameter."""
    if n_classes < 2:
        raise InputError(f"need at least 2 classes, got {n_classes}")
    if vocab_size < 2:
        raise InputError(f"vocab must include PAD and UNK, got size {vocab_size}")
    rng = np.random.default_rng(seed)
    shapes = param_shapes(cfg, vocab_size, n_classes)
    table = _xavier(rng, *shapes["embed_table"])
    proj = _xavier(rng, *shapes["embed_proj"])

    n = cfg.window
    r = rng.uniform(0.0, cfg.init_coeff_noise / n, size=n)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    lcu = 1.0 / n + r * np.exp(1j * phi)

    d = cfg.degree
    rc = rng.uniform(0.0, cfg.init_coeff_noise, size=d + 1)
    phc = rng.uniform(0.0, 2.0 * np.pi, size=d + 1)
    poly = rc * np.exp(1j * phc)
    poly[1] += 1.0                     # start near the plain linear mix P(M) = M

    ff = rng.uniform(-cfg.init_angle_scale, cfg.init_angle_scale, size=shapes["ff_angles"])

    w1 = _xavier(rng, *shapes["head_w1"])
    w2 = _xavier(rng, *shapes["head_w2"])

    mixer = MixerParams(
        lcu_coeffs=parameter(lcu),
        poly_coeffs=parameter(poly),
        ff_angles=AnsatzAngles(parameter(ff), q=cfg.qubits, layers=cfg.ff_layers),
    )
    return Params(
        embed_table=parameter(table),
        embed_proj=parameter(proj),
        mixer=mixer,
        head_w1=parameter(w1),
        head_b1=parameter(np.zeros(shapes["head_b1"])),
        head_w2=parameter(w2),
        head_b2=parameter(np.zeros(shapes["head_b2"])),
        attn_vec=parameter(np.zeros(shapes["attn_vec"])) if "attn_vec" in shapes else None,
    )


@dataclass
class ForwardResult:
    """Outputs for D documents with W windows in all, the windows in
    document order. ``forward_document`` on one document drops the
    document axis of ``logits`` and ``mean_pre_norm``."""

    logits: Tensor                  # (D, classes) document logits
    mean_pre_norm: Tensor           # (D,) mean squared norm across each document's windows
    pre_norms: Tensor               # (W,) per window
    lcu_weights: Tensor             # (W, n) coefficients per window
    window_logits: Tensor           # (W, classes)
    windows: np.ndarray             # (D,) window count of each document


def _as_batch(docs, rng) -> tuple[list, list, bool]:
    """(documents, one rng or None per document, whether one document
    was given)."""
    if isinstance(docs, Document):
        return [docs], [rng], True
    docs = list(docs)
    if not docs:
        raise InputError("empty batch of documents")
    if isinstance(rng, np.random.Generator):
        raise InputError("a batch of documents needs one rng per document")
    rngs = [None] * len(docs) if rng is None else list(rng)
    if len(rngs) != len(docs):
        raise InputError(f"{len(rngs)} rng(s) for {len(docs)} document(s)")
    return docs, rngs, False


def _forward(docs: list, params: Params, cfg: ModelConfig, training: bool,
             rngs: list, doc_ids) -> ForwardResult:
    names = list(range(len(docs)) if doc_ids is None else doc_ids)
    for name, doc in zip(names, docs):
        if not doc.windows:
            raise InputError(f"document {name} has no windows (empty after tokenization)")
    dropout = training and cfg.dropout > 0.0
    if dropout and any(r is None for r in rngs):
        raise InputError("training forward with dropout needs an rng")
    counts = np.array([len(doc.windows) for doc in docs])
    ids = np.stack([w_ids for doc in docs for w_ids, _ in doc.windows])
    masks = np.stack([mask for doc in docs for _, mask in doc.windows])
    labels = [f"document {name} window {w}" for name, c in zip(names, counts)
              for w in range(c)]

    # angles depend on the token id alone: one row per distinct active id,
    # each its own product, so a token's angles are the same in any batch
    distinct, inverse = np.unique(ids[masks], return_inverse=True)
    tokens = np.zeros(ids.shape, dtype=np.int64)
    tokens[masks] = inverse
    theta = ad.matvec(params.embed_proj, ad.take_rows(params.embed_table, distinct))
    out = mix_window(theta, params.mixer, masks, q=cfg.qubits,
                     embed_layers=cfg.embed_layers, tokens=tokens, window_id=labels,
                     normalize_lcu=cfg.normalize_lcu)
    feats = out.features
    if cfg.measurement_mask is not None:
        feats = ad.mul_const(feats, np.broadcast_to(
            np.asarray(cfg.measurement_mask, dtype=np.float64), feats.shape))
    h = ad.add(ad.matvec(params.head_w1, feats), params.head_b1)
    h = ad.relu(h) if cfg.activation == "relu" else ad.tanh(h)
    if dropout:
        # one draw per window, in window order, from the document's own rng
        keep = np.stack([(rng.random(cfg.hidden) >= cfg.dropout) / (1.0 - cfg.dropout)
                         for rng, c in zip(rngs, counts) for _ in range(c)])
        h = ad.mul_const(h, keep)
    window_logits = ad.add(ad.matvec(params.head_w2, h), params.head_b2)

    if cfg.aggregation == "attention_pool":
        scores = ad.sum_last(ad.mul(feats, params.attn_vec))
        attn = ad.softmax(scores, counts)
        agg = ad.segment_sum(ad.scalar_mul(attn, window_logits), counts)
    else:
        total = ad.segment_sum(window_logits, counts)
        agg = ad.mul_const(total, np.broadcast_to((1.0 / counts)[:, None], total.shape))
    mean_pre = ad.mul_const(ad.segment_sum(out.pre_norm, counts), 1.0 / counts)
    return ForwardResult(logits=agg, mean_pre_norm=mean_pre, pre_norms=out.pre_norm,
                         lcu_weights=out.lcu_weights, window_logits=window_logits,
                         windows=counts)


def forward_document(docs, params: Params, cfg: ModelConfig, *,
                     training: bool = False, rng=None, doc_ids=None) -> ForwardResult:
    """Run the whole pipeline on one document or on a batch of them.

    ``rng`` supplies dropout draws and must be given when training with
    dropout enabled: one Generator for one document, a sequence with one
    per document for a batch. One length-``hidden`` uniform vector is
    consumed per window, in window order. ``doc_ids`` names the documents
    in errors (default: their positions in the batch).
    """
    batch, rngs, single = _as_batch(docs, rng)
    result = _forward(batch, params, cfg, training, rngs, doc_ids)
    if single:
        result.logits = ad.reshape(result.logits, result.logits.shape[1:])
        result.mean_pre_norm = ad.reshape(result.mean_pre_norm, ())
    return result


def loss_terms(result: ForwardResult, labels, loss_cfg: LossConfig,
               mixer: MixerParams) -> tuple[Tensor, list[dict]]:
    """Per-document total losses (D,) of a batch result, and a float
    breakdown per document for logging. Each document's terms use only
    its own windows:

    cross-entropy
    + lambda_ps * (mean pre-normalization squared norm - tau)^2
    + lambda_l1 * mean over windows of (sum |mixing coeffs| - 1)^2
    + lambda_smooth * sum |c_{k+1} - c_k|^2
    + lambda_l2  * sum |c_k|^2
    """
    ce = ad.cross_entropy(result.logits, labels)
    total = ce
    terms = {"ce": ce, "mean_pre_norm": result.mean_pre_norm}
    shared = {"psr": 0.0, "l1c": 0.0, "smooth": 0.0, "l2": 0.0}

    if loss_cfg.lambda_ps > 0.0:
        dev = ad.add_const(result.mean_pre_norm, -loss_cfg.tau)
        terms["psr"] = ad.mul_const(ad.mul(dev, dev), loss_cfg.lambda_ps)
        total = ad.add(total, terms["psr"])

    if loss_cfg.lambda_l1 > 0.0:
        dev = ad.add_const(ad.sum_last(ad.absval(result.lcu_weights)), -1.0)
        per_doc = ad.segment_sum(ad.mul(dev, dev), result.windows)
        mean_dev = ad.mul_const(per_doc, 1.0 / result.windows)
        terms["l1c"] = ad.mul_const(mean_dev, loss_cfg.lambda_l1)
        total = ad.add(total, terms["l1c"])

    c = mixer.poly_coeffs
    if loss_cfg.lambda_smooth > 0.0:
        k = c.shape[0]
        diffs = ad.sub(ad.take_rows(c, np.arange(1, k)), ad.take_rows(c, np.arange(k - 1)))
        pen = ad.mul_const(ad.square_norm(diffs), loss_cfg.lambda_smooth)
        shared["smooth"] = pen.real_item()
        total = ad.add(total, pen)

    if loss_cfg.lambda_l2 > 0.0:
        pen = ad.mul_const(ad.square_norm(c), loss_cfg.lambda_l2)
        shared["l2"] = pen.real_item()
        total = ad.add(total, pen)

    terms["total"] = total
    values = {name: t.values.real for name, t in terms.items()}
    parts = [{**shared, **{name: float(v[d]) for name, v in values.items()}}
             for d in range(total.shape[0])]
    return total, parts


def document_loss(docs, params: Params, model_cfg: ModelConfig,
                  loss_cfg: LossConfig, *, training: bool = False,
                  rng=None, doc_ids=None) -> tuple[Tensor, dict | list]:
    """Mean loss over a batch of documents (0-d) and one float breakdown
    per document; for one document, its loss and its breakdown. Arguments
    as in ``forward_document``."""
    batch, rngs, single = _as_batch(docs, rng)
    result = _forward(batch, params, model_cfg, training, rngs, doc_ids)
    totals, parts = loss_terms(result, [doc.label for doc in batch], loss_cfg,
                               params.mixer)
    loss = ad.mul_const(ad.sum_last(totals), 1.0 / len(batch))
    return loss, (parts[0] if single else parts)


@dataclass
class ParamCount:
    """Size of the mixer's own parameter block under the two conventions
    for counting complex numbers (pairs of reals vs. single entries)."""

    window: int
    degree: int
    ff_angle_count: int

    @property
    def complex_entries(self) -> int:
        return self.window + (self.degree + 1) + self.ff_angle_count

    @property
    def real_view(self) -> int:
        return 2 * self.window + 2 * (self.degree + 1) + self.ff_angle_count

    @property
    def delta(self) -> int:
        return self.real_view - self.complex_entries


def count_attention_params(cfg: ModelConfig) -> ParamCount:
    """Size of the attention-replacement block (mixing coefficients,
    polynomial coefficients, feed-forward angles) under both counting
    conventions."""
    return ParamCount(window=cfg.window, degree=cfg.degree,
                      ff_angle_count=kernels.angle_count(cfg.qubits, cfg.ff_layers))
