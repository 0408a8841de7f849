"""causalign: causal structure discovery by aligning a supervised edge
predictor with the dataset it is about to explain.

The workflow: score-guided stochastic refinement over DAGs proposes
plausible structures for an observed dataset; each structure is fitted
with per-node regressions and resampled into a labeled synthetic
instance; a small neural edge predictor trains on those instances and
then scores every ordered variable pair of the original data, yielding
an edge probability matrix.
"""

from .errors import (
    CausalignError,
    ConfigError,
    DataFormatError,
    DegreeCapError,
    InputQualityError,
    MoveInfeasibleError,
    NumericalError,
    StageError,
    StructuralInputError,
    UndefinedMetricError,
)
from .graph import (
    Dag,
    EdgeMove,
    MoveKind,
    apply_move,
    feasible_moves,
    is_acyclic,
    random_er,
    random_sf,
    topological_order,
)
from .scm import (
    CausalInstance,
    Dataset,
    GraphModel,
    MechanismFamily,
    NoiseFamily,
    ScmInstance,
    ShiftSetting,
    ShiftSuite,
    SpecTriple,
    eval_mechanism,
    forward_sample,
    generate_instance,
    make_shift_suite,
    plan_shift_suite,
    sample_scm,
)
from .sim import (
    SIGMA_FLOOR,
    Basis,
    FittedNode,
    FittedScm,
    RegressorConfig,
    fit_node,
    predict_node,
    sample_from_fitted,
)
from .scoring import (
    ScoreConfig,
    ScoreEngine,
    ScoreValue,
)
from .refine import (
    RefineConfig,
    RefineTrace,
    SeedMode,
    StepRecord,
    acceptance_probability,
    greedy_hill_climb,
    init_seed,
    refine,
)
from .model import (
    PAIR_FEATURE_NAMES,
    EdgePredictor,
    TrainConfig,
    TrainingSet,
    featurize_all,
    generate_training_set,
    knn_score_predict,
    pair_order,
    predict,
    train,
)
from .metrics import MetricReport, aggregate, auprc, auroc, evaluate, f1_acc
from .io import (
    load_dataset,
    load_graph,
    load_instance_bundle,
    load_matrix,
    load_training_set,
    save_dataset,
    save_graph,
    save_instance_bundle,
    save_matrix,
    save_trace_jsonl,
    save_training_set,
)
from .pipeline import (
    GeneratorConfig,
    PipelineConfig,
    RunRecord,
    run_ablation_sparsity,
    run_benchmark,
    run_pipeline,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "CausalignError",
    "ConfigError",
    "DataFormatError",
    "DegreeCapError",
    "InputQualityError",
    "MoveInfeasibleError",
    "NumericalError",
    "StageError",
    "StructuralInputError",
    "UndefinedMetricError",
    # graphs
    "Dag",
    "EdgeMove",
    "MoveKind",
    "apply_move",
    "feasible_moves",
    "is_acyclic",
    "random_er",
    "random_sf",
    "topological_order",
    # generators
    "CausalInstance",
    "Dataset",
    "GraphModel",
    "MechanismFamily",
    "NoiseFamily",
    "ScmInstance",
    "ShiftSetting",
    "ShiftSuite",
    "SpecTriple",
    "eval_mechanism",
    "forward_sample",
    "generate_instance",
    "make_shift_suite",
    "plan_shift_suite",
    "sample_scm",
    # structure-fitted mechanisms
    "SIGMA_FLOOR",
    "Basis",
    "FittedNode",
    "FittedScm",
    "RegressorConfig",
    "fit_node",
    "predict_node",
    "sample_from_fitted",
    # scoring
    "ScoreConfig",
    "ScoreEngine",
    "ScoreValue",
    # refinement
    "RefineConfig",
    "RefineTrace",
    "SeedMode",
    "StepRecord",
    "acceptance_probability",
    "greedy_hill_climb",
    "init_seed",
    "refine",
    # supervised model
    "PAIR_FEATURE_NAMES",
    "EdgePredictor",
    "TrainConfig",
    "TrainingSet",
    "featurize_all",
    "generate_training_set",
    "knn_score_predict",
    "pair_order",
    "predict",
    "train",
    # metrics
    "MetricReport",
    "aggregate",
    "auprc",
    "auroc",
    "evaluate",
    "f1_acc",
    # io
    "load_dataset",
    "load_graph",
    "load_instance_bundle",
    "load_matrix",
    "load_training_set",
    "save_dataset",
    "save_graph",
    "save_instance_bundle",
    "save_matrix",
    "save_trace_jsonl",
    "save_training_set",
    # pipeline
    "GeneratorConfig",
    "PipelineConfig",
    "RunRecord",
    "run_ablation_sparsity",
    "run_benchmark",
    "run_pipeline",
]
