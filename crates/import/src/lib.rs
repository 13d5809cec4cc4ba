//! # perfdmf-import
//!
//! Profile input/output — the translator component of PerfDMF (paper
//! §3.1): "PerfDMF is designed to parse parallel profile data from
//! multiple sources ... through the use of embedded translators ...
//! targeting a common, extensible parallel profile representation."
//!
//! Importers for the six formats the paper supports, plus the sPPM custom
//! parser it mentions and the common XML exchange format it exports:
//!
//! | Format | Entry point | Input shape |
//! |---|---|---|
//! | TAU profiles | [`tau::load_tau_directory`] | directory of `profile.n.c.t` (or `MULTI__*` subdirs) |
//! | gprof | [`gprof::load_gprof_file`] | `gprof` text report |
//! | mpiP | [`mpip::load_mpip_file`] | `*.mpip` text report |
//! | dynaprof | [`dynaprof::load_dynaprof_file`] | probe text report |
//! | HPMtoolkit | [`hpm::load_hpm_directory`] | `perfhpm<task>.<pid>` files |
//! | PerfSuite | [`psrun::load_psrun_file`] | `psrun` XML |
//! | sPPM custom | [`sppm::load_sppm_file`] | self-instrumented timing table |
//! | PerfDMF XML | [`xml_format::import_xml`] / [`xml_format::export_xml`] | exchange format |
//!
//! [`cube::export_cube`] / [`cube::import_cube`] implement the paper's
//! planned CUBE translation (§7) for the Expert tool.
//!
//! [`load_path`] autodetects the format; [`load_directory_filtered`]
//! scans directories with the prefix/suffix filters the paper describes.

#![warn(unreachable_pub)]

mod cube;
pub mod dynaprof;
mod error;
pub mod gprof;
pub mod hpm;
pub mod mpip;
pub mod psrun;
mod source;
pub mod sppm;
pub mod tau;
mod xml_format;

pub use cube::{export_cube, import_cube};
pub use error::{ImportError, Result};
pub use source::{detect_format, load_directory_filtered, load_path, FileFilter, ProfileFormat};
pub use xml_format::{export_xml, import_xml};
