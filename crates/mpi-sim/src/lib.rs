//! # mpi-sim — MPI substrate for distributed training
//!
//! The paper's §III forward-compatibility argument, implemented: "If
//! TensorFlow employs MPI as a distributed strategy for I/O in the future,
//! one can employ the parallel version of Darshan with the MPI module to
//! profile and instrumentation I/O activities with a similar technique."
//!
//! * [`comm`] — ranks as simulated processes over a shared parallel
//!   filesystem, with barrier/allreduce/bcast cost models (the gradient
//!   synchronization of data-parallel training);
//! * [`collective`] — data-carrying collectives whose membership may
//!   shrink (for background services);
//! * [`io`] — MPI-IO layered over POSIX (ROMIO's shape), interposable via
//!   a PMPI-style layer swap. Each MPI-IO call emits one probe event on
//!   the rank's spine, so the Darshan runtime attached to a rank folds it
//!   into its MPI-IO module, beside the POSIX module that records the
//!   descriptor I/O beneath; `darshan_sim::reduce_job` over the ranks'
//!   snapshots gives the job view.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collective;
pub mod comm;
pub mod io;

pub use collective::{FusionTopology, SumAllreduce, SumProgress};
pub use comm::{CollectivePoll, CollectiveProgress, Comm, MpiWorld, NetworkModel};
pub use io::{DefaultMpiIo, MpiFile, MpiIoLayer};
