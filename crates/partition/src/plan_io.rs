//! Persisting and reloading partitioning plans.
//!
//! A trained plan is just its assignment vector — master locations for the
//! replica-based models, vertex labels for edge-cut, per-edge DCs for
//! vertex-cut. The format is a line-oriented text file with a header
//! carrying the element count and an FNV-1a checksum of the DC ids, so a
//! plan produced by one run can be audited, diffed, and re-applied later
//! (e.g. to warm-start a dynamic window after a restart).

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use geograph::wire::fnv1a;

use crate::DcId;

const MAGIC: &str = "geopart-assignment-v1";

/// Errors from plan (de)serialization.
#[derive(Debug)]
pub enum PlanIoError {
    Io(io::Error),
    /// The file is not a plan file or has a corrupt header.
    BadHeader(String),
    /// Element count or checksum mismatch.
    Corrupt {
        expected: String,
        found: String,
    },
    /// An entry names a DC outside the environment (1-based line number,
    /// counting the header as line 1).
    EntryOutOfRange {
        line: usize,
        dc: DcId,
        num_dcs: usize,
    },
    /// The plan's element count doesn't match what the caller expects
    /// (e.g. a plan for a different graph).
    WrongLength {
        expected: usize,
        found: usize,
    },
}

impl std::fmt::Display for PlanIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanIoError::Io(e) => write!(f, "I/O error: {e}"),
            PlanIoError::BadHeader(line) => write!(f, "bad plan header: {line:?}"),
            PlanIoError::Corrupt { expected, found } => {
                write!(f, "plan corrupt: expected {expected}, found {found}")
            }
            PlanIoError::EntryOutOfRange { line, dc, num_dcs } => {
                write!(f, "line {line}: DC id {dc} out of range (environment has {num_dcs} DCs)")
            }
            PlanIoError::WrongLength { expected, found } => {
                write!(f, "plan has {found} entries, expected {expected}")
            }
        }
    }
}

impl std::error::Error for PlanIoError {}

impl From<io::Error> for PlanIoError {
    fn from(e: io::Error) -> Self {
        PlanIoError::Io(e)
    }
}

/// Writes an assignment vector (any model) to `path`.
pub fn save_assignment(assignment: &[DcId], path: &Path) -> Result<(), PlanIoError> {
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "# {MAGIC} count={} checksum={:016x}", assignment.len(), fnv1a(assignment))?;
    for &d in assignment {
        writeln!(w, "{d}")?;
    }
    w.flush()?;
    Ok(())
}

/// Reads an assignment vector written by [`save_assignment`], verifying
/// count and checksum.
pub fn load_assignment(path: &Path) -> Result<Vec<DcId>, PlanIoError> {
    load_entries(path).map(|(assignment, _)| assignment)
}

/// Reads an assignment like [`load_assignment`], additionally checking the
/// element count against `expected_len` and every DC id against `num_dcs`,
/// naming the offending 1-based line on failure. The entry point for plan
/// files from the CLI: a malformed file surfaces as a typed error, never a
/// downstream index panic.
pub fn load_assignment_for(
    path: &Path,
    expected_len: usize,
    num_dcs: usize,
) -> Result<Vec<DcId>, PlanIoError> {
    let (assignment, lines) = load_entries(path)?;
    if assignment.len() != expected_len {
        return Err(PlanIoError::WrongLength { expected: expected_len, found: assignment.len() });
    }
    if let Some(i) = assignment.iter().position(|&d| d as usize >= num_dcs) {
        return Err(PlanIoError::EntryOutOfRange { line: lines[i], dc: assignment[i], num_dcs });
    }
    Ok(assignment)
}

/// Shared loader: the assignment plus each entry's 1-based line number
/// (the header is line 1; blank lines shift subsequent entries).
fn load_entries(path: &Path) -> Result<(Vec<DcId>, Vec<usize>), PlanIoError> {
    let mut reader = BufReader::new(File::open(path)?);
    let mut header = String::new();
    reader.read_line(&mut header)?;
    let header = header.trim();
    let rest = header
        .strip_prefix(&format!("# {MAGIC} "))
        .ok_or_else(|| PlanIoError::BadHeader(header.to_string()))?;
    let mut count = None;
    let mut expected_sum = None;
    for part in rest.split_whitespace() {
        if let Some(c) = part.strip_prefix("count=") {
            count = c.parse::<usize>().ok();
        } else if let Some(s) = part.strip_prefix("checksum=") {
            expected_sum = u64::from_str_radix(s, 16).ok();
        }
    }
    let (Some(count), Some(expected_sum)) = (count, expected_sum) else {
        return Err(PlanIoError::BadHeader(header.to_string()));
    };
    let mut assignment = Vec::with_capacity(count);
    let mut lines = Vec::with_capacity(count);
    let mut line = String::new();
    let mut line_no = 1usize; // the header
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        line_no += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let d: DcId = trimmed.parse().map_err(|_| PlanIoError::Corrupt {
            expected: "a DC id per line".to_string(),
            found: trimmed.to_string(),
        })?;
        assignment.push(d);
        lines.push(line_no);
    }
    if assignment.len() != count {
        return Err(PlanIoError::Corrupt {
            expected: format!("{count} entries"),
            found: format!("{}", assignment.len()),
        });
    }
    let actual = fnv1a(&assignment);
    if actual != expected_sum {
        return Err(PlanIoError::Corrupt {
            expected: format!("checksum {expected_sum:016x}"),
            found: format!("{actual:016x}"),
        });
    }
    Ok((assignment, lines))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("geopart_plan_io");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn round_trip() {
        let path = tmp("rt.plan");
        let assignment: Vec<DcId> = (0..1000).map(|i| (i % 8) as DcId).collect();
        save_assignment(&assignment, &path).unwrap();
        assert_eq!(load_assignment(&path).unwrap(), assignment);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_line_is_pinned() {
        // The on-disk format: the header a fixed plan writes, FNV-1a and
        // all, is a constant of the format, not of the hash's code.
        let path = tmp("pinned.plan");
        let assignment: Vec<DcId> = (0..1000u32).map(|i| ((i * 37 + 5) % 8) as DcId).collect();
        save_assignment(&assignment, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text.lines().next(),
            Some("# geopart-assignment-v1 count=1000 checksum=5439dcfea70251f5")
        );
        assert_eq!(load_assignment(&path).unwrap(), assignment);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_assignment() {
        let path = tmp("empty.plan");
        save_assignment(&[], &path).unwrap();
        assert!(load_assignment(&path).unwrap().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn detects_truncation() {
        let path = tmp("trunc.plan");
        save_assignment(&[1, 2, 3, 4], &path).unwrap();
        let contents = std::fs::read_to_string(&path).unwrap();
        let truncated: String = contents.lines().take(3).collect::<Vec<_>>().join("\n");
        std::fs::write(&path, truncated).unwrap();
        assert!(matches!(load_assignment(&path), Err(PlanIoError::Corrupt { .. })));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn detects_tampering() {
        let path = tmp("tamper.plan");
        save_assignment(&[1, 2, 3, 4], &path).unwrap();
        let contents = std::fs::read_to_string(&path).unwrap();
        // Flip one assignment without touching the header.
        let tampered = contents.replacen("\n2\n", "\n5\n", 1);
        assert_ne!(contents, tampered);
        std::fs::write(&path, tampered).unwrap();
        assert!(matches!(load_assignment(&path), Err(PlanIoError::Corrupt { .. })));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checked_loader_names_offending_line() {
        let path = tmp("range.plan");
        save_assignment(&[1, 2, 7, 3], &path).unwrap();
        // DC 7 sits on line 4 (header is line 1) and exceeds a 4-DC env.
        match load_assignment_for(&path, 4, 4) {
            Err(PlanIoError::EntryOutOfRange { line: 4, dc: 7, num_dcs: 4 }) => {}
            other => panic!("expected out-of-range at line 4, got {other:?}"),
        }
        // Wrong expected length is typed too.
        match load_assignment_for(&path, 9, 8) {
            Err(PlanIoError::WrongLength { expected: 9, found: 4 }) => {}
            other => panic!("expected wrong-length, got {other:?}"),
        }
        // In-range passes.
        assert_eq!(load_assignment_for(&path, 4, 8).unwrap(), vec![1, 2, 7, 3]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_foreign_files() {
        let path = tmp("foreign.plan");
        std::fs::write(&path, "not a plan\n1\n2\n").unwrap();
        assert!(matches!(load_assignment(&path), Err(PlanIoError::BadHeader(_))));
        std::fs::remove_file(&path).ok();
    }
}
