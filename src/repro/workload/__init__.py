"""Workload substrate: dataset length models (Table 4), pluggable
arrival processes, and trace generation/merging."""

from .arrivals import (
    ArrivalParam,
    ArrivalProcess,
    ArrivalSpec,
    arrival_processes,
    arrival_spec,
    canonical_arrival,
    get_arrival_process,
    parse_arrival,
    register_arrival,
    split_arrival_list,
)
from .datasets import (
    DATASETS,
    DatasetSpec,
    LengthModel,
    LONG_SEQUENCE_DATASETS,
    SHORT_SEQUENCE_DATASETS,
    get_dataset,
)
from .traces import Trace, TraceRequest, capped_trace, generate_trace, \
    merge_traces

__all__ = [
    "DATASETS",
    "DatasetSpec",
    "LengthModel",
    "LONG_SEQUENCE_DATASETS",
    "SHORT_SEQUENCE_DATASETS",
    "get_dataset",
    "TraceRequest",
    "Trace",
    "generate_trace",
    "capped_trace",
    "merge_traces",
    "ArrivalParam",
    "ArrivalProcess",
    "ArrivalSpec",
    "arrival_processes",
    "arrival_spec",
    "canonical_arrival",
    "get_arrival_process",
    "parse_arrival",
    "register_arrival",
    "split_arrival_list",
]
