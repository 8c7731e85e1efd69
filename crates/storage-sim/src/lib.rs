//! # storage-sim — storage substrate for the tf-Darshan reproduction
//!
//! Everything below the POSIX layer: block-device queueing models
//! ([`device`]), a byte-range page cache ([`cache`]), one filesystem
//! implementation ([`fs::Fs`]) under two cost models — ext4-like local
//! storage ([`local`]) and a Lustre-like parallel filesystem ([`lustre`]) —
//! and the mount table with cross-tier staging ([`stack`]). File content is
//! synthetic and derived on demand ([`content`]), so multi-gigabyte paper
//! datasets cost nothing to "store".
//!
//! All operations charge **virtual time** on the [`simrt`] clock and must be
//! invoked from simulated threads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod content;
pub mod device;
pub mod fs;
pub mod local;
pub mod lustre;
pub mod stack;

pub use cache::{PageCache, ReadPlan, Run};
pub use device::{CounterSnapshot, Device, DeviceError, DeviceFault, DeviceSpec, Dir, Positioning};
pub use fs::{FileSystem, FsError, FsHandle, FsResult, Metadata, OpenOptions, WritePayload};
pub use local::{LocalFs, LocalFsParams};
pub use lustre::{LustreFs, LustreParams};
pub use stack::{Mount, StagedEntry, StorageStack};
