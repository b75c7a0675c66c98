"""qtmix: a differentiable statevector simulator and training harness for
quantum token-mixer text classification."""

from .autodiff import Tape, Tensor, backward, parameter, tensor
from .circuits import AnsatzAngles
from .config import (DataConfig, LossConfig, ModelConfig, OptimizerConfig,
                     RunConfig)
from .data import Document, Vocab, make_windows, tokenize
from .errors import QtmixError
from .mixer import MixerOutput, MixerParams, mix_window
from .model import (ForwardResult, ParamCount, Params, count_attention_params,
                    document_loss, forward_document, init_params, loss_terms)
from .optim import AdamW, cosine_lr
from .training import (TrainOutcome, evaluate, load_bundle, load_checkpoint,
                       save_checkpoint, train)

__version__ = "0.1.0"

__all__ = [
    "AdamW", "AnsatzAngles", "DataConfig", "Document", "ForwardResult",
    "LossConfig", "MixerOutput", "MixerParams", "ModelConfig",
    "OptimizerConfig", "ParamCount", "Params", "QtmixError", "RunConfig",
    "Tape", "Tensor", "TrainOutcome", "Vocab", "backward", "cosine_lr",
    "count_attention_params", "document_loss", "evaluate", "forward_document", "init_params",
    "load_bundle", "load_checkpoint", "loss_terms", "make_windows",
    "mix_window", "parameter", "save_checkpoint", "tensor", "tokenize",
    "train", "__version__",
]
