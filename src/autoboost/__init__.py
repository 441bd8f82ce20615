"""autoboost: single-learner AutoML around tuned gradient boosted trees."""

from .data import DataError, Dataset, SchemaError, load_csv
from .pipeline import (
    AutoConfig,
    BundleError,
    BundleVersionError,
    PipelineModel,
    Predictions,
    autogbt_fit,
    autogbt_predict,
    load,
    save,
)

__version__ = "0.1.0"

__all__ = [
    "AutoConfig",
    "BundleError",
    "BundleVersionError",
    "DataError",
    "Dataset",
    "PipelineModel",
    "Predictions",
    "SchemaError",
    "autogbt_fit",
    "autogbt_predict",
    "load",
    "load_csv",
    "save",
]
