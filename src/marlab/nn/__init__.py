from .tensor import (
    Parameter,
    Tensor,
    absolute,
    add,
    affine,
    block_row_matmul,
    concat_cols,
    dropout,
    elu,
    gather_cols,
    grad_enabled,
    gru_cell,
    layer_norm_rows,
    mul,
    no_grad,
    relu,
    reshape,
    scale,
    set_attention,
    softmax_rows,
    square,
    sub,
    tsum,
)
from .layers import (
    Dense,
    Dropout,
    EncoderLayer,
    FeedForward,
    GRUCell,
    LayerNorm,
    Module,
    MultiHeadSelfAttention,
    TrainContext,
)
from .optim import Adam, RMSProp, clip_grad_norm
from .gradcheck import finite_difference_gradient, max_gradient_error, relative_errors
from .serialize import load_checkpoint, load_records, read_records, save_checkpoint, write_records
