//! Virtual network substrate: origin servers, MITM proxy, device runtime,
//! and traffic capture.
//!
//! This crate is the stand-in for the paper's physical test bed (§4.2.1):
//! a Pixel 3 / iPhone X behind a WiFi hotspot, mitmproxy on the gateway,
//! and per-app pcap capture. The pieces:
//!
//! * [`server`] — origin servers keyed by hostname, each presenting a
//!   certificate chain and cipher/version support;
//! * [`network`] — the hostname→server directory (DNS + routing collapsed
//!   into one lookup) plus global revocation state;
//! * [`proxy`] — the mitmproxy model: a CA keypair, on-the-fly leaf forging
//!   per SNI, and plaintext visibility into intercepted connections;
//! * [`device`] — installs/launches one app at a time, schedules its
//!   planned connections on the virtual clock, runs handshakes through
//!   `pinning-tls`, and (on iOS) injects the OS background traffic that
//!   plagued the paper's pipeline (§4.5);
//! * [`flow`] — the capture: one [`flow::FlowRecord`] per connection,
//!   carrying the wire transcript plus (for successfully intercepted flows)
//!   the decrypted request body;
//! * [`simcap`] — a versioned binary serialization of captures, so the
//!   study's raw data can be published and re-analyzed (the paper releases
//!   its dataset the same way);
//! * [`faults`] — a seeded fault-injection schedule (DNS failures, TCP
//!   resets, handshake timeouts, truncation, proxy-CA loss, device
//!   crashes) modelling the degraded runs the paper's physical pipeline
//!   suffered (§4.5, §5.6);
//! * [`breaker`] — per-endpoint circuit breakers (closed→open→half-open)
//!   that stop persistently faulty hosts from consuming retry budget.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod device;
pub mod faults;
pub mod flow;
pub mod network;
pub mod proxy;
pub mod server;
pub mod simcap;

pub use breaker::{Admission, BreakerConfig, BreakerSet, BreakerState};
pub use device::{Device, RunConfig};
pub use faults::{
    FaultConfig, FaultKind, FaultPlan, InputLayer, MalformedKind, MeasurementError, RunAbort,
};
pub use flow::{Capture, FaultEvent, FlowOrigin, FlowRecord};
pub use network::Network;
pub use proxy::MitmProxy;
pub use server::OriginServer;

/// Apple-operated domains contacted by iOS itself for the whole duration of
/// any test (§4.5): excluded from pinning attribution by the paper's
/// pipeline because the traffic is OS-initiated.
pub const APPLE_BACKGROUND_DOMAINS: [&str; 3] = [
    "gateway.icloud.com",
    "init.itunes.apple.com",
    "config.mzstatic.com",
];
