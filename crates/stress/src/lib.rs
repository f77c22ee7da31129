//! `whart-stress`: the minimal HTTP/1.1 client that the serve benchmark
//! (`perfbench/`) drives `whart serve` with; see [`client`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod client;
