//! Plain-text edge-list I/O (the SNAP dataset format).
//!
//! Lets users run the partitioners on the paper's real datasets when they
//! have them on disk: `read_edge_list` accepts the `u<TAB>v` / `u v` format
//! used by SNAP and LAW, with `#` comments.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::csr::Graph;
use crate::GraphBuilder;
use crate::VertexId;

/// Errors from edge-list parsing.
#[derive(Debug)]
pub enum IoError {
    Io(io::Error),
    /// Line number and content of the malformed line.
    Parse {
        line: usize,
        content: String,
    },
    /// The edge list names more distinct vertices than [`VertexId`] can
    /// address.
    TooManyVertices {
        max: u64,
    },
    /// Any of the above, annotated with the file it came from.
    InFile {
        path: PathBuf,
        source: Box<IoError>,
    },
}

impl IoError {
    /// Attaches the originating file, so callers see *which* input was
    /// malformed, not just where inside it.
    fn in_file(self, path: &Path) -> IoError {
        match self {
            already @ IoError::InFile { .. } => already,
            other => IoError::InFile { path: path.to_path_buf(), source: Box::new(other) },
        }
    }
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Parse { line, content } => {
                write!(f, "malformed edge at line {line}: {content:?}")
            }
            IoError::TooManyVertices { max } => {
                write!(f, "edge list names more than {max} distinct vertices")
            }
            IoError::InFile { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            IoError::InFile { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Reads a whitespace-separated edge list. Vertex ids are compacted to a
/// dense `0..n` range in first-appearance order; the graph is built with
/// dedup + self-loop removal. Errors name `path`.
pub fn read_edge_list(path: &Path) -> Result<Graph, IoError> {
    let reader = BufReader::new(File::open(path).map_err(|e| IoError::from(e).in_file(path))?);
    parse_edge_list(reader).map_err(|e| e.in_file(path))
}

/// Parses an edge list from any reader (see [`read_edge_list`]).
pub fn parse_edge_list<R: BufRead>(mut reader: R) -> Result<Graph, IoError> {
    let mut remap = crate::fxhash::FxHashMap::default();
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut line = String::new();
    let mut line_no = 0usize;
    let intern = |raw: u64,
                  remap: &mut crate::fxhash::FxHashMap<u64, VertexId>|
     -> Result<VertexId, IoError> {
        // `len() as VertexId` silently truncates past 2^32 distinct ids —
        // refuse instead of corrupting the remap.
        if remap.len() > VertexId::MAX as usize && !remap.contains_key(&raw) {
            return Err(IoError::TooManyVertices { max: VertexId::MAX as u64 + 1 });
        }
        let next = remap.len() as VertexId;
        Ok(*remap.entry(raw).or_insert(next))
    };
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        line_no += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let (Some(a), Some(b)) = (parts.next(), parts.next()) else {
            return Err(IoError::Parse { line: line_no, content: trimmed.to_string() });
        };
        let (Ok(u), Ok(v)) = (a.parse::<u64>(), b.parse::<u64>()) else {
            return Err(IoError::Parse { line: line_no, content: trimmed.to_string() });
        };
        let u = intern(u, &mut remap)?;
        let v = intern(v, &mut remap)?;
        edges.push((u, v));
    }
    let mut builder = GraphBuilder::new(remap.len()).with_edge_capacity(edges.len());
    builder.add_edges(edges);
    Ok(builder.build())
}

/// Writes a graph as a `u\tv` edge list with a header comment.
pub fn write_edge_list(graph: &Graph, path: &Path) -> io::Result<()> {
    let mut writer = BufWriter::new(File::create(path)?);
    writeln!(
        writer,
        "# geograph edge list: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    )?;
    for (u, v) in graph.edges() {
        writeln!(writer, "{u}\t{v}")?;
    }
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parse_basic() {
        let input = "# comment\n0 1\n1\t2\n\n% also comment\n2 0\n";
        let g = parse_edge_list(Cursor::new(input)).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_edge(0, 1));
    }

    #[test]
    fn ids_compacted_in_first_appearance_order() {
        let input = "100 7\n7 100\n";
        let g = parse_edge_list(Cursor::new(input)).unwrap();
        assert_eq!(g.num_vertices(), 2);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
    }

    #[test]
    fn malformed_line_reports_position() {
        let input = "0 1\nnot an edge\n";
        match parse_edge_list(Cursor::new(input)) {
            Err(IoError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn single_token_line_is_an_error() {
        assert!(parse_edge_list(Cursor::new("5\n")).is_err());
    }

    #[test]
    fn file_errors_name_the_file() {
        let dir = std::env::temp_dir().join("geograph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad_edges.txt");
        std::fs::write(&path, "0 1\nbroken line here\n").unwrap();
        let err = read_edge_list(&path).unwrap_err();
        let IoError::InFile { path: reported, source } = &err else {
            panic!("expected file context, got {err:?}");
        };
        assert!(reported.ends_with("bad_edges.txt"));
        assert!(matches!(**source, IoError::Parse { line: 2, .. }));
        let msg = err.to_string();
        assert!(msg.contains("bad_edges.txt") && msg.contains("line 2"), "unhelpful: {msg}");
        std::fs::remove_file(&path).ok();

        let missing = read_edge_list(&dir.join("does_not_exist.txt")).unwrap_err();
        assert!(missing.to_string().contains("does_not_exist.txt"));
    }

    #[test]
    fn round_trip_through_files() {
        let dir = std::env::temp_dir().join("geograph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rt.txt");
        let g = crate::generators::erdos_renyi(50, 200, 1);
        write_edge_list(&g, &path).unwrap();
        let g2 = read_edge_list(&path).unwrap();
        assert_eq!(g.num_edges(), g2.num_edges());
        assert_eq!(g.num_vertices(), g2.num_vertices());
        std::fs::remove_file(&path).ok();
    }
}
