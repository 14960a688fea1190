"""Curriculum and bandit task sampling for meta-learned initializations.

A small fully-connected net with exact gradients and Hessian-vector
products, a family of binary tasks over a synthetic three-class source,
four task samplers, the meta-training and fine-tuning loops, and an
experiment harness with a command line interface.
"""

from .nets import (
    Architecture,
    Batch,
    backward,
    batch_loss,
    forward,
    grad,
    hessian_vector_product,
    init_params,
    softmax,
    trace,
)
from .metrics import DegenerateAucError, compute_auc
from .tasks import (
    K1,
    K2,
    K3,
    K4,
    K5,
    Episode,
    PoolExhaustedError,
    Samples,
    SourceConfig,
    SplitDataset,
    TASKS,
    TASK_BY_ID,
    TaskDefinition,
    generate_source,
    map_labels,
    read_split_dataset,
    sample_episode,
    write_split_dataset,
)
from .samplers import (
    AllTaskBatchError,
    OutcomeRecord,
    SamplerKind,
    SamplerState,
    record_outcome,
    select_batch,
)
from .meta import (
    FineTuneConfig,
    GradientMode,
    MetaConfig,
    MetaUpdateRecord,
    NetLoss,
    RunLog,
    TrainedModel,
    fine_tune,
    infer,
    initial_params,
    inner_adapt,
    load_checkpoint,
    meta_gradient,
    meta_train,
    multitask_train,
    save_checkpoint,
)
from .harness import (
    Cell,
    CellKey,
    ExperimentPlan,
    ResultTable,
    StageError,
    Variant,
    default_plan,
    emit_curves,
    run_pipeline,
    run_sweep,
)

__version__ = "0.1.0"
