"""Hybrid-attention sequence-to-sequence toolkit.

A desk-scale translation stack built on a minimal reverse-mode autodiff
core: multi-head attention mixing scaled dot-product heads with
convolutional word-context heads, a multi-task encoder with POS/NER
auxiliary heads, an Adam training loop with warmup and checkpoint
averaging, synthetic tagged corpora, beam-search decoding, and BLEU
evaluation, all verified against brute-force oracles.

The CTXFORMER_THREADS environment variable caps BLAS parallelism. It is
applied here, before any submodule loads numpy, because the BLAS libraries
read their thread variables once, when they load: it sets
OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and MKL_NUM_THREADS where they are
unset. A variable already set wins, and so does a numpy imported before
this package.
"""


def _cap_blas_threads() -> None:
    import os

    cap = os.environ.get("CTXFORMER_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, cap)


_cap_blas_threads()

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
