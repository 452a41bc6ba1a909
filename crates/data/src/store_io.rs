//! Dataset ⇄ on-disk store conversion and the streaming CSV→store
//! packer.
//!
//! The packer drives the CSV core row-by-row straight into a
//! [`StoreWriter`], so packing a file into a `.dstr` directory holds
//! at most one shard of points in memory — the out-of-core entry path
//! for datasets larger than RAM.

use std::io::BufRead;
use std::path::Path;

use dasc_store::{DatasetManifest, StoreError, StoreReader, StoreWriter};

use crate::csv::{for_each_row, CsvError};
use crate::Dataset;

/// What can go wrong while packing a CSV into a store.
#[derive(Clone, Debug, PartialEq)]
pub enum PackError {
    /// The CSV itself is malformed.
    Csv(CsvError),
    /// Writing the store failed.
    Store(StoreError),
}

impl std::fmt::Display for PackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackError::Csv(e) => write!(f, "{e}"),
            PackError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PackError {}

impl From<CsvError> for PackError {
    fn from(e: CsvError) -> Self {
        PackError::Csv(e)
    }
}

impl From<StoreError> for PackError {
    fn from(e: StoreError) -> Self {
        PackError::Store(e)
    }
}

/// Stream CSV rows into a `.dstr` store directory, one shard in
/// memory at a time. The first data row fixes the dimension.
pub fn pack_csv_to_store(
    reader: impl BufRead,
    labels_last_column: bool,
    out_dir: &Path,
    shard_rows: usize,
) -> Result<DatasetManifest, PackError> {
    let mut writer: Option<StoreWriter> = None;
    let mut pending: Option<StoreError> = None;
    for_each_row(reader, labels_last_column, |row, label| {
        if pending.is_some() {
            return Ok(());
        }
        let w = match &mut writer {
            Some(w) => w,
            None => match StoreWriter::create(out_dir, row.len(), label.is_some(), shard_rows) {
                Ok(w) => writer.insert(w),
                Err(e) => {
                    pending = Some(e);
                    return Ok(());
                }
            },
        };
        if let Err(e) = w.push_row(row, label) {
            pending = Some(e);
        }
        Ok(())
    })?;
    if let Some(e) = pending {
        return Err(e.into());
    }
    let writer = writer.ok_or(PackError::Csv(CsvError::Empty))?;
    Ok(writer.finish()?)
}

/// Write an in-memory [`Dataset`] out as a store.
pub fn dataset_to_store(
    ds: &Dataset,
    out_dir: &Path,
    shard_rows: usize,
) -> Result<DatasetManifest, StoreError> {
    let mut w = StoreWriter::create(out_dir, ds.dims(), ds.labels.is_some(), shard_rows)?;
    for (i, p) in ds.points.iter().enumerate() {
        w.push_row(p, ds.labels.as_ref().map(|ls| ls[i]))?;
    }
    w.finish()
}

/// Materialize a store back into an in-memory [`Dataset`] (named after
/// the store directory). Verifies every shard on the way through.
pub fn dataset_from_store(reader: &StoreReader) -> Result<Dataset, StoreError> {
    reader.verify_all()?;
    let mut points = Vec::with_capacity(reader.len());
    for s in 0..reader.manifest().shards.len() {
        let shard = reader.shard(s)?;
        points.extend(shard.points().iter().map(<[f64]>::to_vec));
    }
    let labels = reader.labels()?;
    let name = reader
        .path()
        .and_then(Path::file_stem)
        .map_or_else(|| "store".to_string(), |s| s.to_string_lossy().into_owned());
    Ok(Dataset::new(points, labels, name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "dasc-dataio-{}-{tag}-{seq}.dstr",
            std::process::id()
        ))
    }

    #[test]
    fn csv_pack_then_reopen_is_bit_identical() {
        let csv = "# x,y,label\n0.5,1.25,0\n-2.0,4.0,1\n8.5,0.125,0\n";
        let dir = temp_dir("csvpack");
        let manifest = pack_csv_to_store(Cursor::new(csv), true, &dir, 2).expect("pack");
        assert_eq!(manifest.n, 3);
        assert_eq!(manifest.dim, 2);
        assert!(manifest.has_labels);
        assert_eq!(manifest.shards.len(), 2);

        let r = StoreReader::open(&dir).expect("open");
        let ds = dataset_from_store(&r).expect("to dataset");
        assert_eq!(
            ds.points,
            vec![vec![0.5, 1.25], vec![-2.0, 4.0], vec![8.5, 0.125]]
        );
        assert_eq!(ds.labels, Some(vec![0, 1, 0]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dataset_roundtrips_through_store() {
        let ds = Dataset::new(
            vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]],
            Some(vec![0, 1, 1]),
            "roundtrip",
        );
        let dir = temp_dir("dataset");
        let manifest = dataset_to_store(&ds, &dir, 2).expect("to store");
        assert_eq!(manifest.n, 3);

        let r = StoreReader::open(&dir).expect("open");
        let back = dataset_from_store(&r).expect("from store");
        assert_eq!(back.points, ds.points);
        assert_eq!(back.labels, ds.labels);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_csv_surfaces_as_csv_error() {
        let dir = temp_dir("badcsv");
        let err = pack_csv_to_store(Cursor::new("1.0,2.0\nnope,1.0\n"), false, &dir, 4)
            .expect_err("bad cell");
        assert!(matches!(err, PackError::Csv(CsvError::BadNumber { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_csv_is_empty_error() {
        let dir = temp_dir("emptycsv");
        let err =
            pack_csv_to_store(Cursor::new("# only comments\n"), false, &dir, 4).expect_err("empty");
        assert_eq!(err, PackError::Csv(CsvError::Empty));
        std::fs::remove_dir_all(&dir).ok();
    }
}
