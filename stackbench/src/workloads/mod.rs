//! The four workloads. Names are fixed: later issues cite them.

pub mod bulk_upload;
pub mod cold_join;
pub mod meta_commit;
pub mod restart_recover;
