//! # halfmoon-suite
//!
//! Root package of the Halfmoon (SOSP '23) reproduction: it hosts the
//! runnable `examples/` and the cross-crate integration tests in `tests/`,
//! which name each workspace crate directly.
//!
//! Start with the [`halfmoon`] crate docs for the protocols, or run:
//!
//! ```text
//! cargo run --example quickstart
//! cargo run --release --example travel_reservation
//! cargo run --release --example protocol_switching
//! cargo run --example fault_injection
//! cargo run --example protocol_advisor
//! ```
