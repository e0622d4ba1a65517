"""Differentially private synthetic data for evolving tabular datasets."""

from .algorithms import CounterSynthesizer, RunConfig, StreamingMwem, make_synthesizer
from .counters import (
    BinaryTreeCounter,
    BlockCounter,
    Counter,
    MultiDimCounter,
    SimpleCounter,
    UnboundedBlockCounter,
    make_counter,
)
from .domain import (
    DatasetStream,
    DomainSchema,
    WeightedDataset,
    accumulate,
    dataset_mean,
    stream_difference_norm,
    stream_norm,
)
from .evaluation import (
    aggregate,
    evaluate_step,
    summarize_tail,
    workload_error,
)
from .fitters import (
    Measurement,
    MultiplicativeWeightsFitter,
    WorkingSupport,
    mw_fit,
    mw_update,
)
from .harness import (
    ExperimentConfig,
    StreamSpec,
    build_stream,
    ingest_csv,
    load_schema,
    run_experiment,
)
from .mechanisms import (
    BudgetLedger,
    BudgetOverspendError,
    NoiseSource,
    exponential_mechanism,
)
from .queries import (
    MarginalQuery,
    Workload,
    WorkloadSet,
    enumerate_workloads,
    eval_query,
    eval_workload,
)

__all__ = [name for name in dir() if not name.startswith("_")]
