//! The experiment harness behind the `harness` binary, in three parts:
//!
//! * [`paper`] — the paper's own evaluation (Fig 10–12, Table 1, the three
//!   case studies, the §7 ablations) plus the routing table;
//! * [`gates`] — the eight `ci.sh` gates, one module each;
//! * [`plumbing`] — what both share (row canonicaliser, median, markdown
//!   tables, the both-workloads testbeds).
//!
//! [`registry::EXPERIMENTS`] is the one table that names them all.

use mylite::Engine;
use taurus_workloads::tpch::Query;
use taurus_workloads::{tpcds, tpch, Scale};

pub mod gates;
pub mod paper;
pub mod plumbing;
pub mod registry;

/// Which workload a runner operates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TpcH,
    TpcDs,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::TpcH => "TPC-H",
            Workload::TpcDs => "TPC-DS",
        }
    }

    /// The paper's complex-query threshold per workload (§6.1/§6.2).
    pub fn threshold(self) -> usize {
        match self {
            Workload::TpcH => 3,
            Workload::TpcDs => 2,
        }
    }

    pub fn build_engine(self, scale: Scale) -> Engine {
        match self {
            Workload::TpcH => Engine::new(tpch::build_catalog(scale)),
            Workload::TpcDs => Engine::new(tpcds::build_catalog(scale)),
        }
    }

    pub fn queries(self) -> Vec<Query> {
        match self {
            Workload::TpcH => tpch::queries(),
            Workload::TpcDs => tpcds::queries(),
        }
    }
}
