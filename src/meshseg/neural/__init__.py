"""From-scratch 1D networks: layers, assemblies, training, gradient checks."""
from meshseg.neural.layers import (
    BatchNorm,
    Conv1D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    LeakyReLU,
    MaxPool1D,
    Param,
    Sigmoid,
    mean_squared_error,
    softmax_cross_entropy,
)
from meshseg.neural.network import (
    Branches,
    Sequential,
    branch_output_shape,
    build_multibranch,
)
from meshseg.neural.training import (
    TrainConfig,
    predict_probabilities,
    sgd_step,
    train_classifier,
    train_reconstruction,
)
from meshseg.neural.models import (
    CnnModel,
    PcaNnModel,
    StackedAeModel,
    build_model,
)
from meshseg.neural.gradcheck import (
    GradCheckReport,
    LAYER_KINDS,
    check_layer,
    check_network,
    full_gradcheck,
)

__all__ = [
    "BatchNorm", "Conv1D", "Dense", "Dropout", "Flatten", "Layer",
    "LeakyReLU", "MaxPool1D", "Param", "Sigmoid",
    "mean_squared_error", "softmax_cross_entropy",
    "Branches", "Sequential", "branch_output_shape", "build_multibranch",
    "TrainConfig", "predict_probabilities", "sgd_step", "train_classifier",
    "train_reconstruction",
    "CnnModel", "PcaNnModel", "StackedAeModel", "build_model",
    "GradCheckReport", "LAYER_KINDS", "check_layer", "check_network",
    "full_gradcheck",
]
