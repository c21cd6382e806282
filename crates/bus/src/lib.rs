#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

//! The intercluster bus and the system's wire protocol.
//!
//! The Auragen 4000 connects clusters with a dual high-speed bus whose
//! hardware guarantees two properties the whole fault-tolerance scheme
//! rests on (§5.1):
//!
//! 1. **All-or-none**: a message addressed to several clusters reaches all
//!    of them or none of them.
//! 2. **Non-interleaving**: if two messages are sent, one reaches all of
//!    its destinations before the other arrives at any of its
//!    destinations — so a primary and its backup always observe the same
//!    message order.
//!
//! This crate models that hardware: [`Frame`]s carry a [`Message`] plus a
//! routing header naming up to a handful of `(cluster, delivery-tag)`
//! targets, and [`BusFabric`], the one type for the dual bus, serializes
//! transmissions so the two properties hold structurally, injects wire
//! faults and fails over to the standby. It also defines the complete
//! wire protocol ([`proto`]) spoken by kernels, the page server, the file
//! server family, and the process server.

pub mod bytes;
pub mod fabric;
pub mod frame;
pub mod ids;
pub mod link;
pub mod proto;
pub mod schedule;

pub use bytes::{payload_allocs, SharedBytes};
pub use fabric::BusFabric;
pub use frame::{DeliveryTag, Frame, Message, MsgId};
pub use ids::{ChannelName, ClusterId, Fd, Pid, Sig};
pub use link::{FrameClass, LinkLedger};
pub use proto::Payload;
pub use schedule::{BusKind, Grant, WireFault};
