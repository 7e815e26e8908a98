"""flowsentinel: a from-scratch 1D-CNN engine for network-flow attack
classification, with a deterministic training loop and a batch CLI."""

from .dataset import (
    Dataset,
    Taxonomy,
    TaxonomyRule,
    default_taxonomy,
    load_csv,
    load_taxonomy,
    map_labels,
    subsample_stratified,
)
from .errors import (
    ConfigurationError,
    DatasetError,
    DimensionError,
    FlowSentinelError,
    ModelStoreError,
    SchemaError,
    TaxonomyError,
    ValidationError,
)
from .metrics import EvalReport, classification_report, confusion_matrix
from .optim import (
    AdamState,
    LossValue,
    adam_step,
    glorot_uniform_init,
    softmax_ce_grad,
)
from .pipeline import (
    PreprocState,
    SplitIndices,
    apply_standardizer,
    encode_labels,
    fit_standardizer,
    stratified_split,
)
from .store import ModelMetadata, load_model, save_model
from .tensor import Tensor
from .trainer import (
    ArchitectureConfig,
    ModelParams,
    TrainConfig,
    TrainHistory,
    build_model,
    evaluate,
    param_shapes,
    predict,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "ArchitectureConfig",
    "ConfigurationError",
    "Dataset",
    "DatasetError",
    "DimensionError",
    "EvalReport",
    "FlowSentinelError",
    "LossValue",
    "ModelMetadata",
    "ModelParams",
    "ModelStoreError",
    "PreprocState",
    "SchemaError",
    "SplitIndices",
    "Taxonomy",
    "TaxonomyError",
    "TaxonomyRule",
    "Tensor",
    "TrainConfig",
    "TrainHistory",
    "ValidationError",
    "adam_step",
    "apply_standardizer",
    "build_model",
    "classification_report",
    "confusion_matrix",
    "default_taxonomy",
    "encode_labels",
    "evaluate",
    "fit_standardizer",
    "glorot_uniform_init",
    "load_csv",
    "load_model",
    "load_taxonomy",
    "map_labels",
    "param_shapes",
    "predict",
    "save_model",
    "softmax_ce_grad",
    "stratified_split",
    "subsample_stratified",
    "train",
]
