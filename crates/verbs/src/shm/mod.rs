//! Real-time shared-memory transport: segments, SPSC rings, the
//! [`ShmFabric`] progress engine, and the file-based bootstrap helpers the
//! two-process deployment uses to exchange connection blobs.

mod bootstrap;
mod fabric;
mod region;
mod ring;
mod segment;

pub use bootstrap::{await_blob, publish_blob, Endpoint, EndpointError};
pub use fabric::{ShmConfig, ShmFabric};
pub use ring::{Popped, RecordReader, RecordWriter, SpscRing, RECORD_HEADER};
pub use segment::{
    default_shm_dir, Ctrl, FileMapping, FileSegment, HeapSegment, Segment, FILE_HEADER,
};
