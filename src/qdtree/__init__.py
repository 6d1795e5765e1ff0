"""Decision-tree construction with three interchangeable split-search modes:
a dense-counter classic, a sparse ordered-map variant that removes the
class-count term from per-node costs, and a simulated quantum maximum
search with faithful success-probability and query accounting.
"""

from .builder import (
    QUANTUM,
    BuildConfig,
    BuildStats,
    DecisionTree,
    classify,
    choose_split,
    format_tree,
    load_model,
    save_model,
    serialize_model,
    train,
    training_accuracy,
)
from .counters import BASELINE, TREEMAP, OpTally, SparseClassCounter, make_backend
from .criteria import INVALID_SPLIT, SplitScore, gain_ratio
from .dataset import (
    DISCRETE,
    REAL,
    Attribute,
    AttributeSchema,
    DataFormatError,
    Dataset,
    SubsetView,
    load_csv,
    partition,
    read_schema,
    write_schema,
)
from .qbuilder import QBuildReport, q_choose_split, q_train, save_report
from .qsearch import (
    ScoringOracle,
    SearchStats,
    default_repeats,
    durr_hoyer_max,
    query_budget,
    repeated_max,
)
from .splitscan import SplitTest, process_attribute

__version__ = "0.1.0"

__all__ = [
    "Attribute",
    "AttributeSchema",
    "BASELINE",
    "BuildConfig",
    "BuildStats",
    "DISCRETE",
    "DataFormatError",
    "Dataset",
    "DecisionTree",
    "INVALID_SPLIT",
    "OpTally",
    "QBuildReport",
    "QUANTUM",
    "REAL",
    "ScoringOracle",
    "SearchStats",
    "SparseClassCounter",
    "SplitScore",
    "SplitTest",
    "SubsetView",
    "TREEMAP",
    "classify",
    "choose_split",
    "default_repeats",
    "durr_hoyer_max",
    "format_tree",
    "gain_ratio",
    "load_csv",
    "load_model",
    "make_backend",
    "partition",
    "process_attribute",
    "q_choose_split",
    "q_train",
    "query_budget",
    "read_schema",
    "repeated_max",
    "save_model",
    "save_report",
    "serialize_model",
    "train",
    "training_accuracy",
    "write_schema",
    "__version__",
]
