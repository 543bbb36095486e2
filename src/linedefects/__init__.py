"""Predict and rank defect-prone source code lines.

A file-level bag-of-tokens logistic model is explained per predicted
defective file with a local surrogate; tokens with positive scores are
risky, lines containing them are flagged, and all flagged lines are ranked
globally. Includes the baselines, evaluation measures, validation
protocols, and dataset miner needed to run the full experimental loop.
"""

from .config import RunConfig
from .corpus import (
    DatasetError,
    FeatureVector,
    LineRecord,
    ReleaseDataset,
    SourceFile,
    TokenTable,
    Vocabulary,
    build_vocabulary,
    defect_density,
    load_dataset,
    tokenize,
    vectorize,
    write_dataset,
)
from .explain import Explanation, explain
from .model import (
    LogisticModel,
    load_model,
    predict_proba,
    save_model,
    standardized_coefficients,
    train_logistic,
)
from .pipeline import (
    MethodResult,
    RankedLine,
    RiskyTokenSet,
    flag_lines,
    rank_lines_global,
    run_linedp,
    select_risky_tokens,
    sensitivity_k,
)

__version__ = "0.1.0"

__all__ = [
    "DatasetError",
    "Explanation",
    "FeatureVector",
    "LineRecord",
    "LogisticModel",
    "MethodResult",
    "RankedLine",
    "ReleaseDataset",
    "RiskyTokenSet",
    "RunConfig",
    "SourceFile",
    "TokenTable",
    "Vocabulary",
    "build_vocabulary",
    "defect_density",
    "explain",
    "flag_lines",
    "load_dataset",
    "load_model",
    "predict_proba",
    "rank_lines_global",
    "run_linedp",
    "save_model",
    "select_risky_tokens",
    "sensitivity_k",
    "standardized_coefficients",
    "tokenize",
    "train_logistic",
    "vectorize",
    "write_dataset",
]
