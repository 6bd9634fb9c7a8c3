//! Loading custom cloud environments from plain text files.
//!
//! Format — one DC per line, `#` comments allowed:
//!
//! ```text
//! # name  uplink_GBps  downlink_GBps  price_per_GB
//! us-east    0.52  2.8  0.09
//! ap-sydney  0.48  2.5  0.14
//! ```
//!
//! Lets CLI users and experiments model their own WAN measurements
//! instead of the built-in EC2 presets.

use std::io::{BufRead, BufReader};
use std::path::Path;

use crate::datacenter::{CloudEnv, Datacenter};

/// Errors from environment-file parsing.
#[derive(Debug)]
pub enum EnvIoError {
    Io(std::io::Error),
    Parse {
        line: usize,
        content: String,
    },
    Empty,
    /// More DC lines than the plan machinery's bitmask replica sets
    /// support ([`geograph::MAX_DCS`]). Checked here so a user-supplied
    /// file surfaces a typed error instead of tripping the `CloudEnv`
    /// constructor's assert.
    TooManyDcs {
        count: usize,
        max: usize,
    },
}

impl std::fmt::Display for EnvIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnvIoError::Io(e) => write!(f, "I/O error: {e}"),
            EnvIoError::Parse { line, content } => {
                write!(f, "malformed DC spec at line {line}: {content:?}")
            }
            EnvIoError::Empty => write!(f, "environment file defines no data centers"),
            EnvIoError::TooManyDcs { count, max } => {
                write!(f, "environment file defines {count} data centers; at most {max} supported")
            }
        }
    }
}

impl std::error::Error for EnvIoError {}

impl From<std::io::Error> for EnvIoError {
    fn from(e: std::io::Error) -> Self {
        EnvIoError::Io(e)
    }
}

/// Reads a [`CloudEnv`] from a file in the module's format.
pub fn read_env(path: &Path) -> Result<CloudEnv, EnvIoError> {
    parse_env(BufReader::new(std::fs::File::open(path)?))
}

/// Parses a [`CloudEnv`] from any reader.
pub fn parse_env<R: BufRead>(reader: R) -> Result<CloudEnv, EnvIoError> {
    let mut dcs = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = trimmed.split_whitespace().collect();
        let parsed = (|| -> Option<Datacenter> {
            if parts.len() != 4 {
                return None;
            }
            let up: f64 = parts[1].parse().ok()?;
            let down: f64 = parts[2].parse().ok()?;
            let price: f64 = parts[3].parse().ok()?;
            // `parse` accepts "NaN"/"inf"; `NaN <= 0.0` is false, so the
            // sign checks alone would let non-finite values through.
            if !up.is_finite() || !down.is_finite() || !price.is_finite() {
                return None;
            }
            if up <= 0.0 || down <= 0.0 || price < 0.0 {
                return None;
            }
            Some(Datacenter::from_gb_units(parts[0], up, down, price))
        })();
        match parsed {
            Some(dc) => dcs.push(dc),
            None => return Err(EnvIoError::Parse { line: i + 1, content: trimmed.to_string() }),
        }
    }
    if dcs.is_empty() {
        return Err(EnvIoError::Empty);
    }
    if dcs.len() > geograph::MAX_DCS {
        return Err(EnvIoError::TooManyDcs { count: dcs.len(), max: geograph::MAX_DCS });
    }
    Ok(CloudEnv::new(dcs))
}

/// Writes a [`CloudEnv`] in the module's format.
pub fn write_env(env: &CloudEnv, path: &Path) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "# name  uplink_GBps  downlink_GBps  price_per_GB")?;
    for dc in env.dcs() {
        writeln!(
            w,
            "{} {} {} {}",
            dc.name.replace(' ', "_"),
            dc.uplink_bps / crate::BYTES_PER_GB,
            dc.downlink_bps / crate::BYTES_PER_GB,
            dc.upload_price_per_byte * crate::BYTES_PER_GB,
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parse_basic() {
        let input = "# comment\nuse 0.52 2.8 0.09\nsyd 0.48 2.5 0.14\n";
        let env = parse_env(Cursor::new(input)).unwrap();
        assert_eq!(env.num_dcs(), 2);
        assert_eq!(env.dcs()[0].name, "use");
        assert!((env.uplinks()[1] - 0.48e9).abs() < 1.0);
    }

    #[test]
    fn malformed_line_located() {
        let input = "a 1 2 0.1\nbroken line here\n";
        match parse_env(Cursor::new(input)) {
            Err(EnvIoError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn zero_bandwidth_rejected() {
        assert!(parse_env(Cursor::new("a 0 2 0.1\n")).is_err());
        assert!(parse_env(Cursor::new("a 1 0 0.1\n")).is_err());
    }

    #[test]
    fn negative_bandwidth_rejected() {
        assert!(parse_env(Cursor::new("a -1 2 0.1\n")).is_err());
        assert!(parse_env(Cursor::new("a 1 -2 0.1\n")).is_err());
    }

    #[test]
    fn negative_price_rejected() {
        assert!(parse_env(Cursor::new("a 1 2 -0.1\n")).is_err());
    }

    #[test]
    fn nan_values_rejected() {
        // `"NaN".parse::<f64>()` succeeds, and every comparison against
        // NaN is false — each field must be rejected explicitly.
        assert!(parse_env(Cursor::new("a NaN 2 0.1\n")).is_err());
        assert!(parse_env(Cursor::new("a 1 nan 0.1\n")).is_err());
        assert!(parse_env(Cursor::new("a 1 2 NaN\n")).is_err());
    }

    #[test]
    fn infinite_values_rejected() {
        assert!(parse_env(Cursor::new("a inf 2 0.1\n")).is_err());
        assert!(parse_env(Cursor::new("a 1 inf 0.1\n")).is_err());
        assert!(parse_env(Cursor::new("a 1 2 inf\n")).is_err());
        assert!(parse_env(Cursor::new("a -inf 2 0.1\n")).is_err());
    }

    #[test]
    fn rejection_names_the_line() {
        let input = "# header\ngood 1 2 0.1\nbad NaN 2 0.1\n";
        match parse_env(Cursor::new(input)) {
            Err(EnvIoError::Parse { line, content }) => {
                assert_eq!(line, 3);
                assert!(content.contains("NaN"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_rejected() {
        assert!(matches!(parse_env(Cursor::new("# nothing\n")), Err(EnvIoError::Empty)));
    }

    #[test]
    fn too_many_dcs_rejected_with_typed_error() {
        // One DC past the bitmask limit must surface as a typed error,
        // not the CloudEnv constructor's assert.
        let mut input = String::new();
        for i in 0..=geograph::MAX_DCS {
            input.push_str(&format!("dc{i} 1 2 0.1\n"));
        }
        match parse_env(Cursor::new(input)) {
            Err(EnvIoError::TooManyDcs { count, max }) => {
                assert_eq!(count, geograph::MAX_DCS + 1);
                assert_eq!(max, geograph::MAX_DCS);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn round_trip() {
        let dir = std::env::temp_dir().join("geosim_env_io");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ec2.env");
        let env = crate::regions::ec2_eight_regions();
        write_env(&env, &path).unwrap();
        let reloaded = read_env(&path).unwrap();
        assert_eq!(reloaded.num_dcs(), 8);
        for (a, b) in reloaded.dcs().iter().zip(env.dcs()) {
            assert!((a.uplink_bps - b.uplink_bps).abs() < 1.0);
            assert!((a.upload_price_per_byte - b.upload_price_per_byte).abs() < 1e-15);
        }
        std::fs::remove_file(&path).ok();
    }
}
