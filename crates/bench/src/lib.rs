//! The snapshot-backed [`harness`] behind the `bench-engine` binary and
//! the CI regression gate.

#![warn(unreachable_pub)]

pub mod harness;
