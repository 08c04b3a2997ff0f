//! Speed functions: the functional performance model.
//!
//! The paper's central idea is to represent the absolute speed of each
//! processor by a continuous, relatively smooth function of problem size
//! instead of a single number. This module provides:
//!
//! * the [`SpeedFunction`] trait and its model requirements;
//! * [`AnalyticSpeed`] — closed-form families covering every admissible
//!   shape from paper Fig. 5 (plus the basic algorithm's worst case);
//! * [`PiecewiseLinearSpeed`] — the representation the paper actually
//!   recommends building from a few experimental points (Fig. 14);
//! * [`SpeedBand`] — a band of curves capturing workload fluctuation
//!   (paper Fig. 2);
//! * [`builder`] — the adaptive trisection procedure of §3.1 that
//!   constructs a piece-wise linear band from live measurements;
//! * [`refine`] — the online feedback loop that locally re-fits a
//!   piece-wise model from observed execution times once the cluster
//!   drifts away from the measured band.

mod analytic;
mod band;
pub mod builder;
mod cached;
mod function;
mod hierarchical;
mod piecewise;
pub mod refine;
pub mod surface;

pub use analytic::AnalyticSpeed;
pub use band::{BandPoint, SpeedBand, WidthLaw};
pub use builder::{build_speed_band, BuildOutcome, BuilderConfig, Measurer};
pub use cached::{CachedSpeed, SharedCachedSpeed};
pub use function::{check_single_intersection, ConstantSpeed, ScaledSpeed, SpeedFunction};
pub use hierarchical::{HierarchicalSpeed, MemoryLevel};
pub use piecewise::PiecewiseLinearSpeed;
pub use refine::{ModelRefiner, RefineConfig, RefineOutcome, RejectReason};
pub use surface::{
    partition_column_strips, ColumnStrips, ElementCountSurface, FixedN1, FixedN2, SpeedSurface,
};
