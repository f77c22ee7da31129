//! The snapshot-backed [`harness`] behind the `bench-engine` binary and
//! the CI regression gate.

pub mod harness;
