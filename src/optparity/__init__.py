"""optparity: desk-scale optimizer parity benchmarking toolkit."""

from .param_store import Layout, ParamGroup, ParamStore, build_param_store
from .optim import (
    GroupState,
    OptimizerConfig,
    OptimizerState,
    RoutingRule,
    adam_update,
    composite_step,
    heavy_ball_update,
    lamb_update,
    lars_update,
    nesterov_update,
)
from .schedule import ScheduleSpec, eval_schedule, export_schedule, max_discontinuity
from .model import (
    Batch,
    BnRunningStats,
    MlpConfig,
    backward,
    bn_forward,
    finite_difference_check,
    forward,
    gen_synthetic_dataset,
    init_mlp,
)
from .tuner import (
    SearchDim,
    halton_point,
    map_unit,
    run_study,
    sample_trial,
    select_best,
)
from .harness import (
    ExperimentConfig,
    SeedSummary,
    TrainResult,
    TrialRecord,
    multi_seed_eval,
    parse_config,
    patch_config,
    read_results,
    report,
    run_ablation,
    run_training,
    write_results,
)

__version__ = "0.1.0"
