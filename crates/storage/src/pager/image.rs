//! The persisted catalog image: schema, table descriptors, and statistics
//! serialized into one blob (stored as a page chain by
//! [`super::store::PagedStore`]'s header-last catalog commit).
//!
//! Everything is written with [`crate::codec`]: types and statistics
//! min/max values in its tagged encodings (each value behind a `u32`
//! byte length), so the full complex-object universe — NaN floats
//! included — round-trips bit-exactly; malformed bytes decode to
//! [`tmql_model::ModelError::Io`], never a panic.

use tmql_model::schema::{AttrDef, ClassDef, Schema, SortDef};
use tmql_model::{Result, Ty, Value};

use super::page::PageId;
use super::store::TableExtent;
use crate::codec::{Reader, Writer};
use crate::stats::{ColumnStats, Histogram, TableStats};

/// One persisted table: its identity, schema, extent, and statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct TableImage {
    /// Extension name.
    pub name: String,
    /// Column schema in declaration order.
    pub columns: Vec<(String, Ty)>,
    /// Data pages on disk.
    pub extent: TableExtent,
    /// Statistics computed at registration.
    pub stats: TableStats,
}

/// One persisted secondary index: its identity plus the page chain
/// holding its encoded entries (see [`crate::index::encode_index`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexImage {
    /// Table the index is over.
    pub table: String,
    /// Indexed attribute.
    pub attr: String,
    /// Index kind (0 = ordered; reserved for future kinds).
    pub kind: u8,
    /// Head page of the entry chain ([`super::page::NO_PAGE`] when empty).
    pub first: PageId,
    /// Byte length of the encoded entries.
    pub len: u64,
}

/// The whole persisted catalog.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CatalogImage {
    /// The TM schema (classes and sorts).
    pub schema: Schema,
    /// All registered tables.
    pub tables: Vec<TableImage>,
    /// All secondary indexes. Encoded as a trailing section, so files
    /// written before indexes existed (which end at the tables) still
    /// decode; new files always carry the section, even when empty.
    pub indexes: Vec<IndexImage>,
}

/// Error-message name of the catalog format.
const FORMAT: &str = "catalog";

fn w_opt_value(w: &mut Writer, v: &Option<Value>) {
    match v {
        None => w.u8(0),
        Some(v) => {
            w.u8(1);
            w.sized(|w| w.value(v));
        }
    }
}

fn w_column_stats(w: &mut Writer, c: &ColumnStats) {
    w.u64(c.distinct as u64);
    w_opt_value(w, &c.min);
    w_opt_value(w, &c.max);
    w.f64(c.null_fraction);
    w.f64(c.set_valued_fraction);
    w.f64(c.empty_set_fraction);
    w.f64(c.avg_set_card);
    match &c.histogram {
        None => w.u8(0),
        Some(h) => {
            w.u8(1);
            w.f64(h.lo);
            w.f64(h.hi);
            w.count(h.counts.len());
            h.counts.iter().for_each(|&c| w.u64(c));
            w.u64(h.total);
        }
    }
}

/// Serialize a catalog image into one blob. Types or statistics values
/// nested deeper than [`crate::codec::MAX_DEPTH`] encode but would not
/// decode; the store's catalog save checks `catalog_writer` instead.
pub fn encode_catalog(img: &CatalogImage) -> Vec<u8> {
    catalog_writer(img).into_bytes()
}

/// The catalog encoding in a [`Writer`], whose [`Writer::finish`]
/// refuses what [`decode_catalog`] would.
pub(crate) fn catalog_writer(img: &CatalogImage) -> Writer {
    let mut w = Writer::with_capacity(FORMAT, 1024);
    // Schema: classes then sorts.
    w.count(img.schema.classes().len());
    for c in img.schema.classes() {
        w.str(&c.name);
        w.str(&c.extension);
        w.count(c.attributes.len());
        for a in &c.attributes {
            w.str(&a.name);
            w.ty(&a.ty);
        }
    }
    w.count(img.schema.sorts().len());
    for s in img.schema.sorts() {
        w.str(&s.name);
        w.ty(&s.ty);
    }
    // Tables.
    w.count(img.tables.len());
    for t in &img.tables {
        w.str(&t.name);
        w.labeled_tys(&t.columns);
        w.u64(t.extent.rows);
        w.count(t.extent.pages.len());
        for &(pid, rows) in &t.extent.pages {
            w.u32(pid);
            w.u16(rows);
        }
        w.u64(t.stats.cardinality as u64);
        w.count(t.stats.columns.len());
        for (name, c) in &t.stats.columns {
            w.str(name);
            w_column_stats(&mut w, c);
        }
    }
    // Indexes (trailing section; absent in pre-index files).
    w.count(img.indexes.len());
    for ix in &img.indexes {
        w.str(&ix.table);
        w.str(&ix.attr);
        w.u8(ix.kind);
        w.u32(ix.first);
        w.u64(ix.len);
    }
    w
}

fn r_opt_value(r: &mut Reader<'_>) -> Result<Option<Value>> {
    match r.u8()? {
        0 => Ok(None),
        1 => r.sized(Reader::value).map(Some),
        other => Err(r.err(format_args!("bad option tag {other}"))),
    }
}

fn r_column_stats(r: &mut Reader<'_>) -> Result<ColumnStats> {
    Ok(ColumnStats {
        distinct: r.u64()? as usize,
        min: r_opt_value(r)?,
        max: r_opt_value(r)?,
        null_fraction: r.f64()?,
        set_valued_fraction: r.f64()?,
        empty_set_fraction: r.f64()?,
        avg_set_card: r.f64()?,
        histogram: match r.u8()? {
            0 => None,
            1 => Some(Histogram {
                lo: r.f64()?,
                hi: r.f64()?,
                counts: r.list(Reader::u64)?,
                total: r.u64()?,
            }),
            other => return Err(r.err(format_args!("bad histogram tag {other}"))),
        },
    })
}

fn r_table(r: &mut Reader<'_>) -> Result<TableImage> {
    let name = r.str()?.to_string();
    let columns = r.labeled_tys()?;
    let rows = r.u64()?;
    let pages = r.list(|r| Ok((r.u32()?, r.u16()?)))?;
    let cardinality = r.u64()? as usize;
    let stats = r.list(|r| Ok((r.str()?.to_string(), r_column_stats(r)?)))?;
    Ok(TableImage {
        name,
        columns,
        extent: TableExtent { pages, rows },
        stats: TableStats {
            cardinality,
            columns: stats.into_iter().collect(),
        },
    })
}

/// Decode a catalog blob (the inverse of [`encode_catalog`]).
pub fn decode_catalog(blob: &[u8]) -> Result<CatalogImage> {
    let mut r = Reader::new(FORMAT, blob);
    let mut schema = Schema::new();
    for _ in 0..r.count()? {
        let name = r.str()?.to_string();
        let extension = r.str()?.to_string();
        let attributes = r.list(|r| Ok(AttrDef::new(r.str()?, r.ty()?)))?;
        schema.add_class(ClassDef::new(name, extension, attributes))?;
    }
    for _ in 0..r.count()? {
        let name = r.str()?.to_string();
        let ty = r.ty()?;
        schema.add_sort(SortDef { name, ty })?;
    }
    let tables = r.list(r_table)?;
    // Index section: files written before indexes existed end exactly at
    // the tables, so only read it when bytes remain.
    let indexes = if r.remaining() > 0 {
        r.list(|r| {
            Ok(IndexImage {
                table: r.str()?.to_string(),
                attr: r.str()?.to_string(),
                kind: r.u8()?,
                first: r.u32()?,
                len: r.u64()?,
            })
        })?
    } else {
        Vec::new()
    };
    r.expect_end()?;
    Ok(CatalogImage {
        schema,
        tables,
        indexes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::int_table;
    use std::collections::BTreeMap;
    use tmql_model::schema::paper_schema;

    #[test]
    fn catalog_image_round_trips() {
        let t = int_table("R", &["a", "b"], &[&[1, 10], &[2, 10], &[3, 20]]);
        let stats = TableStats::compute(&t);
        let img = CatalogImage {
            schema: paper_schema(),
            tables: vec![TableImage {
                name: "R".into(),
                columns: t.columns().to_vec(),
                extent: TableExtent {
                    pages: vec![(1, 2), (2, 1)],
                    rows: 3,
                },
                stats,
            }],
            indexes: vec![IndexImage {
                table: "R".into(),
                attr: "b".into(),
                kind: 0,
                first: 7,
                len: 123,
            }],
        };
        let blob = encode_catalog(&img);
        let back = decode_catalog(&blob).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn pre_index_blobs_still_decode() {
        // A blob that ends at the tables section (how pre-index files
        // look) must decode to an index-less image.
        let img = CatalogImage {
            schema: paper_schema(),
            ..CatalogImage::default()
        };
        let mut blob = encode_catalog(&img);
        blob.truncate(blob.len() - 4); // drop the (empty) index section
        let back = decode_catalog(&blob).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn nan_min_max_survive_the_round_trip() {
        let mut stats = TableStats {
            cardinality: 1,
            columns: BTreeMap::new(),
        };
        stats.columns.insert(
            "x".into(),
            ColumnStats {
                distinct: 1,
                min: Some(Value::Float(f64::NAN)),
                max: Some(Value::Float(f64::NAN)),
                null_fraction: 0.0,
                set_valued_fraction: 0.0,
                empty_set_fraction: 0.0,
                avg_set_card: 0.0,
                histogram: None,
            },
        );
        let img = CatalogImage {
            schema: Schema::new(),
            tables: vec![TableImage {
                name: "N".into(),
                columns: vec![("x".into(), Ty::Float)],
                extent: TableExtent::default(),
                stats,
            }],
            indexes: Vec::new(),
        };
        let back = decode_catalog(&encode_catalog(&img)).unwrap();
        match &back.tables[0].stats.columns["x"].min {
            Some(Value::Float(f)) => assert!(f.is_nan()),
            other => panic!("expected NaN min, got {other:?}"),
        }
    }

    #[test]
    fn garbage_blobs_error_not_panic() {
        assert!(decode_catalog(&[1, 2, 3]).is_err());
        let mut blob = encode_catalog(&CatalogImage::default());
        blob.push(0);
        assert!(
            decode_catalog(&blob).is_err(),
            "trailing bytes are an error"
        );
    }
}
