"""mmrec: training, fusion and fair comparison of multimodal recommenders.

The library is organised around a small pipeline: ingest and split raw
interactions (:mod:`mmrec.data`), align precomputed per-modality item
features and fuse them (:mod:`mmrec.modality`), train models under a
two-operation contract of loss and full-sort prediction
(:mod:`mmrec.models`, :mod:`mmrec.trainer`), rank and score with standard
top-K metrics (:mod:`mmrec.evaluation`), and orchestrate reproducible
hyperparameter grids from config files (:mod:`mmrec.experiment`).
"""

from .data import (
    Dataset,
    FilterParams,
    InteractionRecord,
    Interactions,
    InteractionSet,
    SplitSpec,
    build_id_maps,
    dedupe_interactions,
    k_core_filter,
    load_dataset,
    parse_interactions,
    preprocess,
    read_interactions,
    save_dataset,
    split,
)
from .evaluation import (
    DEFAULT_CUTOFFS,
    METRICS,
    MetricReport,
    Ranking,
    evaluate,
    mask_trained,
    top_k,
    write_metric_report,
)
from .experiment import (
    ExperimentConfig,
    RunResult,
    SummaryReport,
    expand_grid,
    model_inputs,
    parse_config,
    run_experiment,
    run_single,
    write_report,
)
from .modality import (
    FeatureMatrix,
    ModalityTable,
    align_features,
    fuse,
    load_feature_matrix,
    read_matrix,
    write_matrix,
)
from .models import (
    ModelInputs,
    ModelState,
    TripleBatch,
    build_adjacency,
    calculate_loss,
    encode,
    full_sort_predict,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .rng import Stream, stream
from .trainer import (
    OptimizerState,
    TrainConfig,
    TrainLog,
    adam_step,
    fit,
    make_batches,
    sgd_step,
    write_train_log,
)

__version__ = "0.1.0"
