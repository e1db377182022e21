//! 2-D partitioned multi-GPU Enterprise — the paper's stated future work
//! ("We leave the study of 2-D partition as future work", §4.4),
//! implemented as an extension.
//!
//! The grid is the [`Grid`] shape of the one multi-GPU [`Fleet`] driver
//! (see [`crate::multi_gpu`]); this module keeps the grid's names.

use crate::multi_gpu::{Fleet, FleetConfig};

pub use crate::multi_gpu::Grid;

/// Configuration of the 2-D grid system.
pub type Grid2DConfig = FleetConfig<Grid>;

/// A 2-D partitioned Enterprise system.
pub type MultiGpu2DEnterprise = Fleet;
