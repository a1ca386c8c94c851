//! Experiment harness regenerating every figure of the paper.
//!
//! The paper's figures are schematic protocol diagrams, not measured plots;
//! each experiment here quantifies the claim behind one figure (or section)
//! — [`all_experiments`] is the index, each entry naming its figure and the
//! paper's claim. Run them with:
//!
//! ```text
//! cargo run -p groupview-bench --bin experiments --release [e1..e13|all]
//! ```
//!
//! Every experiment is a pure function of its seeds: re-running reproduces
//! the tables bit-for-bit.

pub mod experiments;
pub mod tracefile;
pub mod trajectory;
pub mod trend;

pub use crate::experiments::{all_experiments, run_experiment, select_experiments, Experiment};
pub use crate::trajectory::{TrajectoryConfig, TrajectoryReport};
pub use crate::trend::{parse_history, render_trend_svg, TrendPoint, TrendSample};
