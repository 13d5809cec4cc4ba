//! # perfdmf-workload
//!
//! Synthetic workload generation — the stand-in for the paper's datasets
//! (EVH1 scalability runs, ASCI sPPM counter studies, Miranda on BG/L at
//! 8K/16K processors) and for the 2005 profiling tools whose output files
//! we cannot run today.
//!
//! * [`models`] — seeded ground-truth profile generators with the
//!   statistical shape of the original workloads.
//! * [`writers`] — emit those profiles as syntactically-faithful files in
//!   each supported tool format (TAU, gprof, mpiP, dynaprof, HPMtoolkit,
//!   PerfSuite XML, sPPM custom), so the importers are testable
//!   end-to-end against known data.

#![warn(unreachable_pub)]

mod models;
mod writers;

pub use models::{BehaviorClass, Evh1Model, MirandaModel, RoutineSpec, SppmModel};
pub use writers::{
    dynaprof_report_text, gprof_report_text, hpm_file_text, mpip_report_text, psrun_xml_text,
    sppm_timing_text, tau_file_text, write_hpm_files, write_tau_directory,
};
