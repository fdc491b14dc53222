//! # aroma-vnc — remote framebuffer over the simulated WLAN
//!
//! The Smart Projector projects "a remote laptop display" using "AT&T's
//! Virtual Network Computer (VNC)", and the paper's physical-layer analysis
//! hangs on exactly this pipeline: *"the relatively low bandwidth of current
//! wireless networking adapters … prevents us from displaying rapid
//! animation"* (experiment E1). This crate substitutes a faithful-in-shape
//! remote-framebuffer protocol:
//!
//! * [`framebuffer`] — an RGB565 framebuffer with a 16×16 tile grid and
//!   per-tile content hashing for change detection,
//! * [`encoding`] — per-tile Raw/RLE encodings (whichever is smaller, as
//!   VNC's encoders choose per rectangle) with exact round-trip decode,
//! * [`protocol`] — client-pull updates (the viewer requests, the server
//!   responds with only the changed tiles), fragmented into MTU-sized
//!   chunks with windowed sending so the MAC queue is never flooded,
//! * [`workloads`] — the three screen contents the experiment sweeps:
//!   static slides, moving-box animation, and noise video (incompressible),
//!   each declaring its own [`workloads::Damage`] so the server redraws and
//!   rehashes only what may have changed,
//! * [`apps`] — [`apps::VncServerApp`] (the laptop) and
//!   [`apps::VncViewerApp`] (the Aroma Adapter driving the projector),
//!   measuring achieved frame rate, per-frame latency and bytes on the air.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod encoding;
pub mod framebuffer;
pub mod pool;
pub mod protocol;
pub mod workloads;

pub use apps::{VncServerApp, VncViewerApp};
pub use framebuffer::{Framebuffer, Rect, TILE};
pub use workloads::{BouncingBox, Damage, NoiseVideo, ScreenSource, SlideDeck};
