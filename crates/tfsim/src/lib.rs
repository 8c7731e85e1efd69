//! # tfsim — a TensorFlow-like runtime for instrumentation research
//!
//! The substrate tf-Darshan plugs into: `tf.data` input pipelines with
//! ordered parallel map, batching, prefetch, and AUTOTUNE ([`data`]);
//! kernel ops with TensorFlow's exact I/O idioms ([`ops`], including the
//! pread-until-zero `ReadFile` loop behind the paper's Fig. 8); a
//! Keras-style trainer with callbacks ([`model`]); the TensorFlow 2.2
//! profiler with pluggable tracers, TraceMe host tracing, XSpace traces
//! and chrome-trace export ([`profiler`], [`traceme`], [`trace`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod data;
pub mod model;
pub mod ops;
pub mod profiler;
pub mod runtime;
pub mod tfrecord;
pub mod trace;
pub mod traceme;

pub use analysis::{InputPipelineAnalysis, StepBreakdown};
pub use data::{
    Batch, BatchIterator, Dataset, DynamicParallelism, Element, EpochOrder, MapFn, Parallelism,
    PipelineCtx,
};
pub use model::{
    fit, stream, Callback, FitResult, ModelCheckpoint, ModelSpec, StepStat, TensorBoardCallback,
};
pub use profiler::{ProfilerError, ProfilerOptions, ProfilerServer, Tracer, TracerFactory};
pub use runtime::TfRuntime;
pub use tfrecord::{pack_files, TfRecordDataset, TfRecordShard, TfRecordWriter};
pub use trace::{XEvent, XLine, XPlane, XSpace, XStat};
pub use traceme::{TraceMe, TraceMeRecorder};
