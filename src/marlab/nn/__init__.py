"""The names src/ and the demos import from marlab.nn; the ops are reached
as `from marlab.nn import tensor as T`, and the rest from their submodules."""

from .tensor import Parameter, Tensor, no_grad
from .layers import (
    Dense,
    EncoderLayer,
    GRUCell,
    Module,
    MultiHeadSelfAttention,
    TrainContext,
    dropout_mask,
)
from .optim import Adam, RMSProp, clip_grad_norm
from .serialize import load_records, write_records
