//! Data-source abstraction, format autodetection, and directory scanning.
//!
//! This is the Rust shape of the paper's `DataSession` input half: "The
//! profile input component is responsible for obtaining performance data
//! from a wide variety of sources, and converting it to PerfDMF's internal
//! representation. It does so by creating a profile DataSession object
//! specific to the profile format being imported." (§4)
//!
//! PerfDMF also "provides support for parsing a directory of files, or a
//! subset of files in a directory that start with a particular prefix or
//! end with a particular suffix" — see [`FileFilter`] and
//! [`load_directory_filtered`].

use crate::error::{ImportError, Result};
use crate::{dynaprof, gprof, hpm, mpip, psrun, sppm, tau, xml_format};
use perfdmf_profile::{Profile, ThreadId};
use perfdmf_telemetry as telemetry;
use std::path::Path;

/// The profile formats PerfDMF can import.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProfileFormat {
    /// TAU `profile.n.c.t` files (directory).
    Tau,
    /// gprof text report.
    Gprof,
    /// mpiP text report.
    MpiP,
    /// dynaprof probe report.
    Dynaprof,
    /// IBM HPMtoolkit `perfhpm*` files (file or directory).
    HpmToolkit,
    /// PerfSuite `psrun` XML.
    PerfSuite,
    /// sPPM self-instrumented timing (custom parser, paper §5.3).
    Sppm,
    /// PerfDMF common XML exchange format.
    PerfDmfXml,
}

impl ProfileFormat {
    /// All supported formats.
    pub const ALL: [ProfileFormat; 8] = [
        ProfileFormat::Tau,
        ProfileFormat::Gprof,
        ProfileFormat::MpiP,
        ProfileFormat::Dynaprof,
        ProfileFormat::HpmToolkit,
        ProfileFormat::PerfSuite,
        ProfileFormat::Sppm,
        ProfileFormat::PerfDmfXml,
    ];

    /// Stable lowercase name (`tau`, `gprof`, ...).
    pub fn name(&self) -> &'static str {
        match self {
            ProfileFormat::Tau => "tau",
            ProfileFormat::Gprof => "gprof",
            ProfileFormat::MpiP => "mpip",
            ProfileFormat::Dynaprof => "dynaprof",
            ProfileFormat::HpmToolkit => "hpmtoolkit",
            ProfileFormat::PerfSuite => "psrun",
            ProfileFormat::Sppm => "sppm",
            ProfileFormat::PerfDmfXml => "perfdmf-xml",
        }
    }

    /// Look up a format by name.
    pub fn by_name(name: &str) -> Option<ProfileFormat> {
        Self::ALL.iter().copied().find(|f| f.name() == name)
    }

    /// Does a text sample look like this format?
    pub(crate) fn sniff_text(&self, sample: &str) -> bool {
        match self {
            ProfileFormat::Tau => sample
                .lines()
                .next()
                .is_some_and(|l| l.contains("templated_functions")),
            ProfileFormat::Gprof => sample.contains("Flat profile"),
            ProfileFormat::MpiP => sample.starts_with("@ mpiP") || sample.contains("@--- MPI Time"),
            ProfileFormat::Dynaprof => sample.to_ascii_lowercase().starts_with("dynaprof"),
            ProfileFormat::HpmToolkit => sample.contains("libhpm"),
            ProfileFormat::PerfSuite => {
                sample.contains("<hwpcprofilereport") || sample.contains("<hwpcreport")
            }
            ProfileFormat::Sppm => sample.starts_with("# sppm"),
            ProfileFormat::PerfDmfXml => sample.contains("<perfdmf_profile"),
        }
    }

    /// Load a path (file or directory, as appropriate) in this format.
    ///
    /// Each call records telemetry: an `import.load` span, a per-format
    /// `import.parse_ns.<name>` latency histogram, and `import.files` /
    /// `import.bytes_read` (total and per-format) counters. With causal
    /// tracing on, concurrent shard parses adopt this span's trace
    /// context, so a directory import traces as one cross-thread tree.
    pub fn load(&self, path: &Path) -> Result<Profile> {
        let _span = telemetry::span("import.load");
        let started = telemetry::enabled().then(std::time::Instant::now);
        let result = self.load_inner(path);
        if let Some(started) = started {
            let name = self.name();
            telemetry::record_duration(&format!("import.parse_ns.{name}"), started.elapsed());
            telemetry::add("import.files", 1);
            if result.is_err() {
                telemetry::add("import.errors", 1);
            }
            let bytes = path_bytes(path);
            telemetry::add("import.bytes_read", bytes);
            telemetry::add(&format!("import.bytes_read.{name}"), bytes);
        }
        result
    }

    fn load_inner(&self, path: &Path) -> Result<Profile> {
        match self {
            ProfileFormat::Tau => tau::load_tau_directory(path),
            ProfileFormat::Gprof => gprof::load_gprof_file(path),
            ProfileFormat::MpiP => mpip::load_mpip_file(path),
            ProfileFormat::Dynaprof => dynaprof::load_dynaprof_file(path),
            ProfileFormat::HpmToolkit => {
                if path.is_dir() {
                    hpm::load_hpm_directory(path)
                } else {
                    let text =
                        std::fs::read_to_string(path).map_err(|e| ImportError::io(path, e))?;
                    let mut profile = Profile::new(
                        path.file_stem()
                            .map(|s| s.to_string_lossy().into_owned())
                            .unwrap_or_default(),
                    );
                    profile.source_format = "hpmtoolkit".into();
                    let task = path
                        .file_name()
                        .and_then(|n| hpm::parse_hpm_filename(&n.to_string_lossy()))
                        .unwrap_or(0);
                    hpm::parse_hpm_text(&text, ThreadId::new(task, 0, 0), &mut profile)?;
                    Ok(profile)
                }
            }
            ProfileFormat::PerfSuite => psrun::load_psrun_file(path),
            ProfileFormat::Sppm => sppm::load_sppm_file(path),
            ProfileFormat::PerfDmfXml => {
                let text = std::fs::read_to_string(path).map_err(|e| ImportError::io(path, e))?;
                xml_format::import_xml(&text)
            }
        }
    }
}

/// Input size of a load target, for the `import.bytes_read` counters:
/// a file's length, or the summed lengths of a directory's files.
fn path_bytes(path: &Path) -> u64 {
    if path.is_dir() {
        std::fs::read_dir(path)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok())
                    .filter_map(|e| e.metadata().ok())
                    .filter(|m| m.is_file())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    } else {
        std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
    }
}

/// Detect the format of a path.
///
/// Directories containing `profile.n.c.t` or `MULTI__*` entries are TAU;
/// directories of `perfhpm*` files are HPMtoolkit; files are sniffed by
/// content.
pub fn detect_format(path: &Path) -> Result<ProfileFormat> {
    if path.is_dir() {
        let mut saw_tau = false;
        let mut saw_hpm = false;
        for entry in std::fs::read_dir(path).map_err(|e| ImportError::io(path, e))? {
            let entry = entry.map_err(|e| ImportError::io(path, e))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if tau::parse_profile_filename(&name).is_some() || name.starts_with("MULTI__") {
                saw_tau = true;
            }
            if hpm::parse_hpm_filename(&name).is_some() {
                saw_hpm = true;
            }
        }
        if saw_tau {
            return Ok(ProfileFormat::Tau);
        }
        if saw_hpm {
            return Ok(ProfileFormat::HpmToolkit);
        }
        return Err(ImportError::UnknownFormat(path.to_path_buf()));
    }
    let text = std::fs::read_to_string(path).map_err(|e| ImportError::io(path, e))?;
    let sample: String = text.chars().take(4096).collect();
    for format in ProfileFormat::ALL {
        if format.sniff_text(&sample) {
            return Ok(format);
        }
    }
    Err(ImportError::UnknownFormat(path.to_path_buf()))
}

/// Autodetect and load a profile from a path.
pub fn load_path(path: &Path) -> Result<Profile> {
    detect_format(path)?.load(path)
}

/// Filename filter for directory scans (paper §4: prefix/suffix subsets).
#[derive(Debug, Clone, Default)]
pub struct FileFilter {
    /// Keep only names starting with this prefix.
    pub prefix: Option<String>,
    /// Keep only names ending with this suffix.
    pub suffix: Option<String>,
}

impl FileFilter {
    /// Filter by prefix.
    pub fn with_prefix(prefix: impl Into<String>) -> Self {
        FileFilter {
            prefix: Some(prefix.into()),
            suffix: None,
        }
    }

    /// Filter by suffix.
    pub fn with_suffix(suffix: impl Into<String>) -> Self {
        FileFilter {
            prefix: None,
            suffix: Some(suffix.into()),
        }
    }

    /// Does a filename pass the filter?
    pub fn matches(&self, name: &str) -> bool {
        if let Some(p) = &self.prefix {
            if !name.starts_with(p.as_str()) {
                return false;
            }
        }
        if let Some(s) = &self.suffix {
            if !name.ends_with(s.as_str()) {
                return false;
            }
        }
        true
    }
}

/// Load every matching file in a directory as a profile (one profile per
/// file, autodetected per file).
///
/// Files are loaded concurrently on the worker pool; results come back in
/// sorted path order, and a failure reports the first failing file in that
/// order — exactly what the serial loop produced.
pub fn load_directory_filtered(dir: &Path, filter: &FileFilter) -> Result<Vec<Profile>> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| ImportError::io(dir, e))?
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_file())
        .filter(|e| filter.matches(&e.file_name().to_string_lossy()))
        .map(|e| e.path())
        .collect();
    entries.sort();
    perfdmf_telemetry::add("import.directory_files", entries.len() as u64);
    let out = perfdmf_pool::try_map(&entries, |path| load_path(path))?;
    if out.is_empty() {
        return Err(ImportError::NoProfiles(dir.to_path_buf()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sniffing() {
        assert!(ProfileFormat::Tau.sniff_text("42 templated_functions_MULTI_TIME\n"));
        assert!(ProfileFormat::Gprof.sniff_text("Flat profile:\n..."));
        assert!(ProfileFormat::MpiP.sniff_text("@ mpiP\n@ Version"));
        assert!(ProfileFormat::Dynaprof.sniff_text("dynaprof output\n"));
        assert!(ProfileFormat::HpmToolkit.sniff_text("libhpm (Version 2.5.3) summary"));
        assert!(ProfileFormat::PerfSuite.sniff_text("<?xml?><hwpcprofilereport>"));
        assert!(ProfileFormat::Sppm.sniff_text("# sppm self-instrumented timing"));
        assert!(ProfileFormat::PerfDmfXml.sniff_text("<?xml?><perfdmf_profile name=\"x\">"));
        // no cross-matches on these samples
        assert!(!ProfileFormat::Tau.sniff_text("Flat profile:"));
        assert!(!ProfileFormat::Gprof.sniff_text("@ mpiP"));
    }

    #[test]
    fn names_roundtrip() {
        for f in ProfileFormat::ALL {
            assert_eq!(ProfileFormat::by_name(f.name()), Some(f));
        }
        assert_eq!(ProfileFormat::by_name("nope"), None);
    }

    #[test]
    fn file_filter() {
        let f = FileFilter::with_prefix("profile.");
        assert!(f.matches("profile.0.0.0"));
        assert!(!f.matches("other.0.0.0"));
        let f = FileFilter::with_suffix(".xml");
        assert!(f.matches("run.xml"));
        assert!(!f.matches("run.txt"));
        let both = FileFilter {
            prefix: Some("a".into()),
            suffix: Some(".x".into()),
        };
        assert!(both.matches("ab.x"));
        assert!(!both.matches("b.x"));
        assert!(FileFilter::default().matches("anything"));
    }

    #[test]
    fn detect_and_load_files() {
        let dir = std::env::temp_dir().join(format!(
            "pdmf_detect_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("run.mpip"),
            "@ mpiP\n@--- MPI Time (seconds) ---\nTask AppTime MPITime MPI%\n 0 1.0 0.5 50.0\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("timing.sppm"),
            "# sppm self-instrumented timing\n0 sweep 1 2.5\n",
        )
        .unwrap();
        assert_eq!(
            detect_format(&dir.join("run.mpip")).unwrap(),
            ProfileFormat::MpiP
        );
        assert_eq!(
            detect_format(&dir.join("timing.sppm")).unwrap(),
            ProfileFormat::Sppm
        );
        let profiles = load_directory_filtered(&dir, &FileFilter::default()).unwrap();
        assert_eq!(profiles.len(), 2);
        let filtered = load_directory_filtered(&dir, &FileFilter::with_suffix(".sppm")).unwrap();
        assert_eq!(filtered.len(), 1);
        assert_eq!(filtered[0].source_format, "sppm");
        assert!(matches!(
            load_directory_filtered(&dir, &FileFilter::with_prefix("zzz")),
            Err(ImportError::NoProfiles(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn detect_tau_directory() {
        let dir = std::env::temp_dir().join(format!(
            "pdmf_detect_tau_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("profile.0.0.0"),
            "1 templated_functions\n# h\n\"f\" 1 0 1 1 0\n",
        )
        .unwrap();
        assert_eq!(detect_format(&dir).unwrap(), ProfileFormat::Tau);
        let p = load_path(&dir).unwrap();
        assert_eq!(p.source_format, "tau");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_format_errors() {
        let dir = std::env::temp_dir().join(format!(
            "pdmf_detect_unk_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let f = dir.join("mystery.txt");
        std::fs::write(&f, "completely unknown content").unwrap();
        assert!(matches!(
            detect_format(&f),
            Err(ImportError::UnknownFormat(_))
        ));
        assert!(matches!(
            detect_format(&dir),
            Err(ImportError::UnknownFormat(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
