"""Online auto-tuning: gain model, history, ranking, Algorithm 1 tuner."""

from repro.tuning.gain import (
    DataflowGainSample,
    GainModel,
    GainParameters,
    IndexGain,
    dataflow_index_gains,
)
from repro.tuning.history import DataflowHistory, DataflowRecord
from repro.tuning.ranking import deletable_indexes, rank_indexes
from repro.tuning.tuner import OnlineIndexTuner, TunerDecision

__all__ = [
    "DataflowGainSample",
    "GainModel",
    "GainParameters",
    "IndexGain",
    "dataflow_index_gains",
    "DataflowHistory",
    "DataflowRecord",
    "deletable_indexes",
    "rank_indexes",
    "OnlineIndexTuner",
    "TunerDecision",
]
