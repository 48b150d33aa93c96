//! The graph-bisect benchmark: workloads, oracles, verification and
//! tracing. See `README.md` in this directory for the metrics and
//! workloads, and `run.py` for the command that builds and runs it.

pub mod bench;
pub mod oracle;
pub mod trace;
pub mod workload;
