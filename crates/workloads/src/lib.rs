//! Seeded workload generators for the repair-counting experiments.
//!
//! The paper has no empirical section — its experiments are explicitly left
//! to future work (Section 8).  This crate provides the workloads that the
//! examples, the integration tests and the benchmark harness use to
//! exercise every algorithm of the other crates:
//!
//! * [`scenarios`] — small, fully-specified scenarios: the paper's
//!   Example 1.1 (`Employee`), a two-source data-integration scenario, and
//!   a large sensor-deduplication scenario.
//! * [`db_gen`] — random inconsistent databases with controlled block
//!   counts and block-size distributions.
//! * [`query_gen`] — random conjunctive queries / UCQs with a target
//!   keywidth, grounded in a generated database so that certificates exist.
//! * [`dnf_gen`], [`hypergraph_gen`], [`cnf_gen`] — random instances of the
//!   companion problems `#DisjPoskDNF`, `#kForbColoring` and `#3SAT`.
//!
//! All generators are deterministic given a seed (`rand_chacha`), which
//! keeps every experiment in EXPERIMENTS.md reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cnf_gen;
pub mod db_gen;
pub mod dnf_gen;
pub mod hypergraph_gen;
pub mod query_gen;
pub mod scenarios;

pub use cnf_gen::{random_cnf3, Cnf3Config};
pub use db_gen::{BlockSizeDistribution, InconsistentDbConfig, RelationSpec};
pub use dnf_gen::{random_disj_pos_dnf, DnfConfig};
pub use hypergraph_gen::{random_forbidden_coloring, HypergraphConfig};
pub use query_gen::{random_join_query, random_point_query_union, QueryGenConfig};
pub use scenarios::{
    churn_base, churn_session, employee_example, replication_battery, sensor_readings,
    serving_session, streaming_sensor_updates, two_source_customers,
};
