"""Hybrid-attention sequence-to-sequence toolkit.

A desk-scale translation stack built on a minimal reverse-mode autodiff
core: multi-head attention mixing scaled dot-product heads with
convolutional word-context heads, a multi-task encoder with POS/NER
auxiliary heads, an Adam training loop with warmup and checkpoint
averaging, synthetic tagged corpora, beam-search decoding, and BLEU
evaluation, all verified against brute-force oracles.
"""

from .attention import (
    ConvHeadParams,
    MultiHeadParams,
    causal_mask,
    complexity_estimate,
    dynamic_conv_head,
    multi_head_forward,
    scaled_dot_product_attention,
)
from .data import (
    TaggedPair,
    Vocabulary,
    generate_corpus,
    make_batches,
)
from .errors import ConfigError, DataError, DimensionError, NumericsError
from .inference import (
    BeamResult,
    DecodeConfig,
    beam_search,
    bleu,
    cosine_probe,
    exact_match,
)
from .model import (
    EncoderOutput,
    ModelConfig,
    Seq2SeqModel,
    count_parameters,
    sinusoidal_positions,
)
from .tensor import Tensor, finite_difference_check, no_grad
from .training import (
    Checkpoint,
    TrainConfig,
    Trainer,
    adam_step,
    average_checkpoints,
    load_checkpoint,
    lr_schedule,
    multi_task_loss,
    save_checkpoint,
    train_step,
)

__version__ = "0.1.0"
