//! Golden bytes for every on-disk format of `tmql-storage`.
//!
//! Each test encodes a fixed input and compares the bytes against a
//! literal, then decodes the literal back. A change to any encoder that
//! alters a single byte fails here, so refactors of the codec cannot
//! silently break files written by earlier builds. The second half feeds
//! the decoders hostile bytes: nesting a million levels deep and random
//! byte flips and truncations, which must decode or fail, never panic.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;
use tmql_model::schema::{AttrDef, ClassDef, Schema, SortDef};
use tmql_model::{Record, Ty, Value};
use tmql_storage::codec::MAX_DEPTH;
use tmql_storage::index::{decode_index, encode_index, OrdIndex};
use tmql_storage::pager::image::{decode_catalog, encode_catalog, CatalogImage, TableImage};
use tmql_storage::pager::PAGE_SIZE;
use tmql_storage::spill::{decode_record, encode_record};
use tmql_storage::wal::CommitRecord;
use tmql_storage::{
    ColumnStats, Histogram, IndexImage, PagedStore, SpillDir, TableExtent, TableStats, Wal,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn scratch(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("tmql-formats-{}-{name}.tmdb", std::process::id()));
    let _ = std::fs::remove_file(&p);
    let _ = std::fs::remove_file(Wal::path_for(&p));
    p
}

fn cleanup(p: &PathBuf) {
    let _ = std::fs::remove_file(p);
    let _ = std::fs::remove_file(Wal::path_for(p));
}

/// One record holding every `Value` kind, a NaN float included.
fn every_value_kind() -> Record {
    Record::new([
        ("n".to_string(), Value::Null),
        ("f".to_string(), Value::Bool(false)),
        ("t".to_string(), Value::Bool(true)),
        ("i".to_string(), Value::Int(-2)),
        ("x".to_string(), Value::Float(1.5)),
        ("nan".to_string(), Value::Float(f64::NAN)),
        ("s".to_string(), Value::str("ab")),
        (
            "tup".to_string(),
            Value::tuple([("k", Value::Int(1)), ("v", Value::str("z"))]),
        ),
        (
            "set".to_string(),
            Value::set([Value::Int(2), Value::Int(1)]),
        ),
        (
            "list".to_string(),
            Value::List(vec![Value::Bool(true), Value::Null]),
        ),
        (
            "var".to_string(),
            Value::Variant(Arc::from("left"), Box::new(Value::Int(7))),
        ),
    ])
    .unwrap()
}

const RECORD_HEX: &str = concat!(
    "0b000000010000006e00010000006601010000007402010000006903feffffff",
    "ffffffff010000007804000000000000f83f030000006e616e04000000000000",
    "f87f010000007305020000006162030000007475700602000000010000006b03",
    "0100000000000000010000007605010000007a03000000736574070200000003",
    "0100000000000000030200000000000000040000006c69737408020000000200",
    "0300000076617209040000006c656674030700000000000000",
);

#[test]
fn record_bytes_are_pinned() {
    let rec = every_value_kind();
    let bytes = encode_record(&rec);
    assert_eq!(hex(&bytes), RECORD_HEX);
    assert_eq!(decode_record(&bytes).unwrap(), rec);
}

/// A catalog with a schema (every `Ty` kind), one table with an extent
/// and statistics (min/max values, one histogram), and an index section.
fn catalog_image(with_index: bool) -> CatalogImage {
    let mut schema = Schema::new();
    schema
        .add_class(ClassDef::new(
            "Emp",
            "EMP",
            vec![
                AttrDef::new("b", Ty::Bool),
                AttrDef::new("i", Ty::Int),
                AttrDef::new("f", Ty::Float),
                AttrDef::new("s", Ty::Str),
                AttrDef::new(
                    "t",
                    Ty::Tuple(vec![
                        ("a".into(), Ty::Int),
                        ("c".into(), Ty::Class("Dept".into())),
                    ]),
                ),
                AttrDef::new("p", Ty::Set(Box::new(Ty::Int))),
                AttrDef::new("l", Ty::List(Box::new(Ty::Any))),
                AttrDef::new("v", Ty::Variant(vec![("x".into(), Ty::Str)])),
            ],
        ))
        .unwrap();
    schema
        .add_sort(SortDef {
            name: "Addr".into(),
            ty: Ty::Tuple(vec![("city".into(), Ty::Str)]),
        })
        .unwrap();
    let mut columns = BTreeMap::new();
    columns.insert(
        "a".to_string(),
        ColumnStats {
            distinct: 3,
            min: Some(Value::Int(1)),
            max: Some(Value::Float(f64::NAN)),
            null_fraction: 0.25,
            set_valued_fraction: 0.0,
            empty_set_fraction: 0.5,
            avg_set_card: 2.0,
            histogram: Some(Histogram {
                lo: 1.0,
                hi: 3.0,
                counts: vec![1, 0, 2],
                total: 3,
            }),
        },
    );
    columns.insert(
        "b".to_string(),
        ColumnStats {
            distinct: 1,
            min: None,
            max: Some(Value::str("q")),
            null_fraction: 0.0,
            set_valued_fraction: 1.0,
            empty_set_fraction: 0.0,
            avg_set_card: 0.0,
            histogram: None,
        },
    );
    CatalogImage {
        schema,
        tables: vec![TableImage {
            name: "R".into(),
            columns: vec![("a".into(), Ty::Int), ("b".into(), Ty::Any)],
            extent: TableExtent {
                pages: vec![(1, 2), (5, 1)],
                rows: 3,
            },
            stats: TableStats {
                cardinality: 3,
                columns,
            },
        }],
        indexes: if with_index {
            vec![IndexImage {
                table: "R".into(),
                attr: "a".into(),
                kind: 0,
                first: 9,
                len: 70000,
            }]
        } else {
            Vec::new()
        },
    }
}

const CATALOG_HEX: &str = concat!(
    "0100000003000000456d7003000000454d500800000001000000620001000000",
    "6901010000006602010000007303010000007404020000000100000061010100",
    "00006308040000004465707401000000700501010000006c0609010000007607",
    "0100000001000000780301000000040000004164647204010000000400000063",
    "6974790301000000010000005202000000010000006101010000006209030000",
    "0000000000020000000100000002000500000001000300000000000000020000",
    "0001000000610300000000000000010900000003010000000000000001090000",
    "0004000000000000f87f000000000000d03f0000000000000000000000000000",
    "e03f000000000000004001000000000000f03f00000000000008400300000001",
    "0000000000000000000000000000000200000000000000030000000000000001",
    "0000006201000000000000000001060000000501000000710000000000000000",
    "000000000000f03f000000000000000000000000000000000001000000010000",
    "0052010000006100090000007011010000000000",
);
const PRE_INDEX_CATALOG_HEX: &str = concat!(
    "0100000003000000456d7003000000454d500800000001000000620001000000",
    "6901010000006602010000007303010000007404020000000100000061010100",
    "00006308040000004465707401000000700501010000006c0609010000007607",
    "0100000001000000780301000000040000004164647204010000000400000063",
    "6974790301000000010000005202000000010000006101010000006209030000",
    "0000000000020000000100000002000500000001000300000000000000020000",
    "0001000000610300000000000000010900000003010000000000000001090000",
    "0004000000000000f87f000000000000d03f0000000000000000000000000000",
    "e03f000000000000004001000000000000f03f00000000000008400300000001",
    "0000000000000000000000000000000200000000000000030000000000000001",
    "0000006201000000000000000001060000000501000000710000000000000000",
    "000000000000f03f0000000000000000000000000000000000",
);

#[test]
fn catalog_bytes_are_pinned() {
    let img = catalog_image(true);
    let bytes = encode_catalog(&img);
    assert_eq!(hex(&bytes), CATALOG_HEX);
    assert_eq!(decode_catalog(&bytes).unwrap(), img);
}

#[test]
fn pre_index_catalog_blob_decodes() {
    // Files written before indexes existed end at the tables section.
    let img = catalog_image(false);
    let mut bytes = encode_catalog(&img);
    bytes.truncate(bytes.len() - 4);
    assert_eq!(hex(&bytes), PRE_INDEX_CATALOG_HEX);
    assert_eq!(decode_catalog(&bytes).unwrap(), img);
}

const INDEX_HEX: &str = concat!(
    "0300000009000000030a00000000000000020000000000000000000000010000",
    "00000000000900000004000000000000f87f0100000003000000000000000600",
    "0000050100000078010000000200000000000000",
);

#[test]
fn index_bytes_are_pinned() {
    let idx = OrdIndex::from_entries(
        "k",
        [
            (Value::Int(10), vec![0, 1]),
            (Value::Float(f64::NAN), vec![3]),
            (Value::str("x"), vec![2]),
        ],
    );
    let bytes = encode_index(&idx);
    assert_eq!(hex(&bytes), INDEX_HEX);
    assert_eq!(decode_index("k", &bytes).unwrap(), idx);
}

const WAL_PAGE_FRAME_HEAD_HEX: &str = "052000003f6aac7d68a040680103000000";

#[test]
fn wal_page_frame_bytes_are_pinned() {
    let path = scratch("wal-page");
    let wal_path = Wal::path_for(&path);
    let image: Vec<u8> = (0..PAGE_SIZE).map(|i| (i % 251) as u8).collect();
    {
        let mut wal = Wal::open(&wal_path).unwrap();
        wal.append_page(3, &image).unwrap();
    }
    let bytes = std::fs::read(&wal_path).unwrap();
    cleanup(&path);
    // [u32 len][u64 FNV-1a][kind 1][u32 page id] then the image verbatim.
    assert_eq!(bytes.len(), 17 + PAGE_SIZE);
    assert_eq!(hex(&bytes[..17]), WAL_PAGE_FRAME_HEAD_HEX);
    assert_eq!(&bytes[17..], &image[..]);
}

const WAL_COMMIT_FRAME_HEX: &str = concat!(
    "250000009903ff5d102c862d0209000000070000000200000001000000020000",
    "0003000000040000000100000005000000",
);

#[test]
fn wal_commit_frame_bytes_are_pinned() {
    let path = scratch("wal-commit");
    let wal_path = Wal::path_for(&path);
    let commit = CommitRecord {
        next_page: 9,
        catalog_first: 7,
        catalog_len: 0x1_0000_0002,
        free: vec![3, 4],
        freed: vec![5],
    };
    {
        let mut wal = Wal::open(&wal_path).unwrap();
        wal.append_commit(&commit).unwrap();
    }
    let bytes = std::fs::read(&wal_path).unwrap();
    let scan = Wal::scan(&wal_path).unwrap();
    cleanup(&path);
    assert_eq!(hex(&bytes), WAL_COMMIT_FRAME_HEX);
    assert_eq!(scan.txns.len(), 1);
    assert_eq!(scan.txns[0].commit, commit);
}

const HEADER_HEAD_HEX: &str = concat!(
    "544d514201000020000005000000040000001000000000000000030000000100",
    "00000200000003000000",
);

#[test]
fn header_page_bytes_are_pinned() {
    let path = scratch("header");
    let rows: Vec<Record> = (0..600)
        .map(|i| Record::new([("a".to_string(), Value::Int(i))]).unwrap())
        .collect();
    {
        let store = PagedStore::create(&path, 4).unwrap();
        store.set_checkpoint_bytes(u64::MAX);
        let extent = store.write_table(&rows).unwrap();
        store.save_catalog(&CatalogImage::default()).unwrap();
        let freed = store.extent_pages(&extent).unwrap();
        store
            .save_catalog_freeing(&CatalogImage::default(), freed)
            .unwrap();
        store.checkpoint().unwrap();
    }
    let bytes = std::fs::read(&path).unwrap();
    let reopened = PagedStore::open(&path, 4);
    cleanup(&path);
    let header = &bytes[..PAGE_SIZE];
    // Magic, version, page size, watermark, catalog head + length, then
    // the free list (count + ids); the rest of the page is zero.
    let head = HEADER_HEAD_HEX.len() / 2;
    assert_eq!(hex(&header[..head]), HEADER_HEAD_HEX);
    assert!(header[head..].iter().all(|&b| b == 0));
    let (store, image) = reopened.unwrap();
    assert_eq!(image, CatalogImage::default());
    assert_eq!(store.free_list_len(), (3, 0));
}

// ---------------------------------------------------------------------------
// Hostile bytes: every decoder returns `Ok` or `Err`, never panics or
// overflows the stack.
// ---------------------------------------------------------------------------

/// Nesting far past any thread's stack: a decoder that recursed without
/// a bound would abort the whole process on each of these.
const HOSTILE_DEPTH: usize = 1_000_000;

fn u32_le(n: usize) -> [u8; 4] {
    (n as u32).to_le_bytes()
}

/// `HOSTILE_DEPTH` one-element lists around a `Null`, value-encoded.
fn deep_list_value() -> Vec<u8> {
    let mut out = Vec::with_capacity(5 * HOSTILE_DEPTH + 1);
    for _ in 0..HOSTILE_DEPTH {
        out.push(8); // list tag
        out.extend_from_slice(&u32_le(1));
    }
    out.push(0); // null tag
    out
}

#[test]
fn million_deep_record_is_an_error() {
    let mut bytes = u32_le(1).to_vec();
    bytes.extend_from_slice(&u32_le(1));
    bytes.push(b'x');
    bytes.extend_from_slice(&deep_list_value());
    assert!(decode_record(&bytes).is_err());
}

#[test]
fn million_deep_catalog_type_is_an_error() {
    // One class `C` (extension `E`) with one attribute whose type is a
    // million nested sets.
    let mut bytes = u32_le(1).to_vec();
    for s in ["C", "E"] {
        bytes.extend_from_slice(&u32_le(1));
        bytes.extend_from_slice(s.as_bytes());
    }
    bytes.extend_from_slice(&u32_le(1));
    bytes.extend_from_slice(&u32_le(1));
    bytes.push(b'a');
    bytes.extend(std::iter::repeat(5u8).take(HOSTILE_DEPTH)); // set tags
    bytes.push(1); // int tag
    bytes.extend_from_slice(&[0; 12]); // no sorts, tables or indexes
    assert!(decode_catalog(&bytes).is_err());
}

#[test]
fn million_deep_index_key_is_an_error() {
    let key = deep_list_value();
    let mut bytes = u32_le(1).to_vec();
    bytes.extend_from_slice(&u32_le(key.len()));
    bytes.extend_from_slice(&key);
    bytes.extend_from_slice(&u32_le(0)); // no positions
    assert!(decode_index("k", &bytes).is_err());
}

#[test]
fn persisting_paths_refuse_what_would_not_read_back() {
    let deep = (0..MAX_DEPTH).fold(Value::Null, |v, _| Value::List(vec![v]));
    let rec = Record::new([("x".to_string(), deep)]).unwrap();
    let dir = SpillDir::create().unwrap();
    let mut run = dir.create_run().unwrap();
    assert!(run.write(&rec).is_err(), "spill run");
    assert_eq!(run.rows(), 0);

    let path = scratch("refuse");
    let store = PagedStore::create(&path, 4).unwrap();
    assert!(store.write_table(&[rec]).is_err(), "data page");
    let deep_ty = (0..MAX_DEPTH).fold(Ty::Int, |t, _| Ty::Set(Box::new(t)));
    let mut img = catalog_image(false);
    img.tables[0].columns[1].1 = deep_ty;
    assert!(store.save_catalog(&img).is_err(), "catalog image");
    drop(store);
    cleanup(&path);
}

/// Flip the bytes at `flips` (positions taken modulo the first `window`
/// bytes), then cut the result to `cut` bytes (modulo its length + 1).
fn mutate(bytes: &[u8], window: usize, flips: &[(usize, u8)], cut: Option<usize>) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let window = window.min(out.len());
    for &(at, mask) in flips {
        out[at % window] ^= mask;
    }
    if let Some(cut) = cut {
        out.truncate(cut % (out.len() + 1));
    }
    out
}

fn arb_flips() -> impl Strategy<Value = Vec<(usize, u8)>> {
    prop::collection::vec((any::<usize>(), 1u8..=255), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_records_catalogs_and_indexes_decode_or_error(
        flips in arb_flips(),
        cut in prop::option::of(any::<usize>()),
    ) {
        let rec = encode_record(&every_value_kind());
        let _ = decode_record(&mutate(&rec, usize::MAX, &flips, cut));
        let cat = encode_catalog(&catalog_image(true));
        let _ = decode_catalog(&mutate(&cat, usize::MAX, &flips, cut));
        let idx = OrdIndex::from_entries(
            "k",
            [(Value::Int(10), vec![0, 1]), (Value::str("x"), vec![2])],
        );
        let _ = decode_index("k", &mutate(&encode_index(&idx), usize::MAX, &flips, cut));
    }

    /// A commit record with hostile fields but a valid checksum reaches
    /// the commit decoder; a raw mutated frame exercises the framing.
    #[test]
    fn mutated_commit_frames_scan_without_panicking(
        flips in arb_flips(),
        cut in prop::option::of(any::<usize>()),
    ) {
        let path = scratch("fuzz-commit");
        let wal_path = Wal::path_for(&path);
        let commit = CommitRecord {
            next_page: 9,
            catalog_first: 7,
            catalog_len: 42,
            free: vec![3, 4],
            freed: vec![5],
        };
        {
            let mut wal = Wal::open(&wal_path).unwrap();
            wal.append_commit(&commit).unwrap();
        }
        let frame = std::fs::read(&wal_path).unwrap();
        let payload = mutate(&frame[12..], usize::MAX, &flips, cut);
        let mut reframed = u32_le(payload.len()).to_vec();
        reframed.extend_from_slice(&tmql_obs::fnv1a(&payload).to_le_bytes());
        reframed.extend_from_slice(&payload);
        for bytes in [reframed, mutate(&frame, usize::MAX, &flips, cut)] {
            std::fs::write(&wal_path, &bytes).unwrap();
            prop_assert!(Wal::scan(&wal_path).is_ok());
        }
        cleanup(&path);
    }

    /// The header page's fields (the first 64 bytes cover them and part
    /// of the free list) decode or fail with an error on open.
    #[test]
    fn mutated_header_pages_open_or_error(
        flips in arb_flips(),
        cut in prop::option::of(any::<usize>()),
    ) {
        let path = scratch("fuzz-header");
        {
            let store = PagedStore::create(&path, 4).unwrap();
            store.save_catalog(&catalog_image(true)).unwrap();
            store.save_catalog(&catalog_image(false)).unwrap();
        }
        let file = std::fs::read(&path).unwrap();
        let mut bytes = mutate(&file[..PAGE_SIZE], 64, &flips, cut);
        bytes.extend_from_slice(&file[PAGE_SIZE..]);
        std::fs::write(&path, &bytes).unwrap();
        let _ = std::fs::remove_file(Wal::path_for(&path));
        let _ = PagedStore::open(&path, 4);
        cleanup(&path);
    }
}
