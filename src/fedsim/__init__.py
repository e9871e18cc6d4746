"""Deterministic simulator for privacy-preserving, secure federated learning."""

from .config import (
    ConfigError,
    PartitionPlan,
    SimConfig,
    build_inputs,
    config_from_dict,
    emit_reports,
    load_config,
    load_csv_dataset,
    materialize,
    partition_dataset,
    synth_dataset,
)
from .dp import (
    Calibration,
    calibrate,
    gamma_difference_share,
    gaussian_sample,
    laplace_sample,
    perturb_weights,
)
from .engine import (
    ClientAgent,
    Envelope,
    IterationReport,
    LatencyTable,
    MessageCounters,
    ProtocolError,
    ServerAgent,
    Simulation,
    SimulationError,
    run_simulation,
)
from .exact import ExactMatrix, exact_mean, to_exact, to_float
from .masking import (
    CommonKey,
    DhKeyPair,
    MaskSchedule,
    apply_masks,
    dh_common_key,
    dh_generate,
    mask_tensor,
)
from .models import (
    ClientRound,
    Dataset,
    EvalReport,
    TrainConfig,
    client_round_incremental,
    client_round_retrain,
    converged,
    evaluate,
    gradient,
    loss,
    sgd_train,
    subtract_own_noise,
    zero_weights,
)

__version__ = "0.1.0"
