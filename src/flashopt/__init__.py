"""Read-threshold design and decoding experiments for MLC flash.

The package models the readback voltage of a worn multi-level cell,
designs quantizer thresholds that minimize the finite-blocklength
decoding error bound, trains a small dense network to regress those
thresholds from readback histograms, and checks the whole loop with a
protograph LDPC Monte-Carlo harness.
"""

from .channel import (Condition, DEFAULT_PARAMS, FlashParams, StateModel,
                      sample_wordline, state_model, state_models)
from .fbl import achievable_rate, eps_max, q_func, q_inv, t_stat
from .harness import (ExperimentConfig, PipelineStats, cp_interval, run_ccr,
                      run_fer, run_pipeline)
from .ldpc import LdpcCode, ParityMatrix, PRESETS, build_code, encode, sp_decode
from .mlp import (GenConfig, MlpModel, Sample, TrainConfig, forward,
                  gen_training_data, histogram_features, load_model,
                  save_model, train)
from .optimizer import CisConfig, cis_optimize, mmi_optimize
from .quantizer import (ThresholdSet, hard_thresholds, llr_table, quantize,
                        transition_matrix)

__version__ = "0.1.0"

__all__ = [
    "CisConfig", "Condition", "DEFAULT_PARAMS", "ExperimentConfig",
    "FlashParams", "GenConfig", "LdpcCode", "MlpModel", "PRESETS",
    "ParityMatrix", "PipelineStats", "Sample",
    "StateModel", "ThresholdSet", "TrainConfig", "achievable_rate",
    "build_code", "cis_optimize", "cp_interval", "encode", "eps_max",
    "forward", "gen_training_data", "hard_thresholds", "histogram_features",
    "llr_table", "load_model", "mmi_optimize", "q_func", "q_inv", "quantize",
    "run_ccr", "run_fer", "run_pipeline", "sample_wordline",
    "save_model", "sp_decode", "state_model", "state_models", "t_stat",
    "train", "transition_matrix",
]
