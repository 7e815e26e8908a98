import flowsentinel
from flowsentinel.errors import DataError, FlowSentinelError, ModelStoreError


def test_public_api_is_pinned():
    """A change to the package's names or error classes must edit this list."""
    assert flowsentinel.__all__ == [
        "AdamState",
        "ArchitectureConfig",
        "DataError",
        "Dataset",
        "EvalReport",
        "FlowSentinelError",
        "LossValue",
        "ModelMetadata",
        "ModelParams",
        "ModelStoreError",
        "PreprocState",
        "SplitIndices",
        "Taxonomy",
        "TaxonomyRule",
        "Tensor",
        "TrainConfig",
        "TrainHistory",
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
    namespace = {}
    exec("from flowsentinel import *", namespace)  # every listed name imports
    assert namespace.keys() - {"__builtins__"} == set(flowsentinel.__all__)
    assert FlowSentinelError.__subclasses__() == [DataError, ModelStoreError]
