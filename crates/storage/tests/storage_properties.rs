//! Seeded property tests for the storage primitives: bitmap algebra,
//! dictionary round-trips, the string heap, and the table update/compact
//! life cycle. Every property runs [`CASES`] cases on each seed of
//! [`SEEDS`].

use astore_storage::bitmap::Bitmap;
use astore_storage::dictionary::{DictColumn, Dictionary};
use astore_storage::prelude::*;
use astore_storage::selvec::SelVec;
use astore_storage::strings::StrColumn;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SEEDS: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
const CASES: usize = 32;

/// Runs `property` on [`CASES`] cases per seed, each with its own
/// generator.
fn check(name: &str, mut property: impl FnMut(&mut SmallRng, &str)) {
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        for case in 0..CASES {
            property(&mut rng, &format!("{name}: seed {seed} case {case}"));
        }
    }
}

/// `len` values drawn by `item`.
fn vec_of<T>(
    rng: &mut SmallRng,
    len: std::ops::Range<usize>,
    mut item: impl FnMut(&mut SmallRng) -> T,
) -> Vec<T> {
    let n = rng.gen_range(len);
    (0..n).map(|_| item(rng)).collect()
}

/// A string of `len` characters drawn from the ASCII range `chars`.
fn string(
    rng: &mut SmallRng,
    chars: std::ops::RangeInclusive<u8>,
    len: std::ops::RangeInclusive<usize>,
) -> String {
    let n = rng.gen_range(len);
    let (lo, hi) = (u32::from(*chars.start()), u32::from(*chars.end()));
    (0..n).map(|_| char::from(rng.gen_range(lo..=hi) as u8)).collect()
}

fn bools(rng: &mut SmallRng, len: std::ops::Range<usize>) -> Vec<bool> {
    vec_of(rng, len, |rng| rng.gen_bool(0.5))
}

#[test]
fn bitmap_set_get_roundtrip() {
    check("bitmap_set_get_roundtrip", |rng, ctx| {
        let bits = bools(rng, 0..300);
        let bm = Bitmap::from_fn(bits.len(), |i| bits[i]);
        assert_eq!(bm.len(), bits.len(), "{ctx}");
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(bm.get(i), b, "{ctx}: bit {i}");
        }
        assert_eq!(bm.count_ones(), bits.iter().filter(|&&b| b).count(), "{ctx}");
    });
}

#[test]
fn bitmap_demorgan() {
    check("bitmap_demorgan", |rng, ctx| {
        let (a, b) = (bools(rng, 1..256), bools(rng, 1..256));
        let n = a.len().min(b.len());
        let bma = Bitmap::from_fn(n, |i| a[i]);
        let bmb = Bitmap::from_fn(n, |i| b[i]);
        // !(a & b) == !a | !b
        let mut lhs = bma.clone();
        lhs.and_assign(&bmb);
        lhs.not_assign();
        let mut na = bma.clone();
        na.not_assign();
        let mut nb = bmb.clone();
        nb.not_assign();
        let mut rhs = na;
        rhs.or_assign(&nb);
        assert_eq!(lhs, rhs, "{ctx}");
    });
}

#[test]
fn bitmap_iter_ones_matches_get() {
    check("bitmap_iter_ones_matches_get", |rng, ctx| {
        let bits = bools(rng, 0..300);
        let bm = Bitmap::from_fn(bits.len(), |i| bits[i]);
        let ones: Vec<usize> = bm.iter_ones().collect();
        let expected: Vec<usize> = (0..bits.len()).filter(|&i| bits[i]).collect();
        assert_eq!(ones, expected, "{ctx}");
    });
}

#[test]
fn selvec_bitmap_duality() {
    check("selvec_bitmap_duality", |rng, ctx| {
        let bits = bools(rng, 0..300);
        let bm = Bitmap::from_fn(bits.len(), |i| bits[i]);
        let sv = SelVec::from_bitmap(&bm);
        assert_eq!(sv.to_bitmap(bits.len()), bm, "{ctx}");
        assert_eq!(sv.len(), bits.iter().filter(|&&b| b).count(), "{ctx}");
    });
}

#[test]
fn dictionary_roundtrip() {
    check("dictionary_roundtrip", |rng, ctx| {
        let values = vec_of(rng, 0..120, |rng| string(rng, b'a'..=b'z', 0..=12));
        let (dict, codes) = Dictionary::encode(values.clone());
        assert_eq!(codes.len(), values.len(), "{ctx}");
        for (i, v) in values.iter().enumerate() {
            assert_eq!(dict.decode(codes[i]), v.as_str(), "{ctx}");
            assert_eq!(dict.code_of(v), codes[i], "{ctx}");
        }
        // Order preservation: codes sort like values.
        for i in 0..values.len() {
            for j in 0..values.len() {
                assert_eq!(values[i] < values[j], codes[i] < codes[j], "{ctx}");
            }
        }
    });
}

#[test]
fn dictionary_code_range_equals_scan() {
    check("dictionary_code_range_equals_scan", |rng, ctx| {
        let values = vec_of(rng, 1..60, |rng| string(rng, b'a'..=b'f', 1..=4));
        let (lo, hi) = (string(rng, b'a'..=b'f', 1..=4), string(rng, b'a'..=b'f', 1..=4));
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let (dict, _) = Dictionary::encode(values);
        let range = dict.code_range(&lo, &hi);
        for c in 0..dict.len() as u32 {
            let v = dict.decode(c);
            let in_range = v >= lo.as_str() && v <= hi.as_str();
            assert_eq!(range.contains(&c), in_range, "{ctx}: value {v}");
        }
    });
}

#[test]
fn dict_column_updates() {
    check("dict_column_updates", |rng, ctx| {
        let ops = vec_of(rng, 1..80, |rng| (string(rng, b'a'..=b'z', 0..=6), rng.gen_bool(0.5)));
        let mut col = DictColumn::new();
        let mut model: Vec<String> = Vec::new();
        for (s, update) in ops {
            if update && !model.is_empty() {
                let idx = s.len() % model.len();
                col.update(idx, &s);
                model[idx] = s;
            } else {
                col.push(&s);
                model.push(s);
            }
        }
        assert_eq!(col.len(), model.len(), "{ctx}");
        for (i, v) in model.iter().enumerate() {
            assert_eq!(col.get(i), v.as_str(), "{ctx}");
        }
    });
}

#[test]
fn str_column_push_update() {
    check("str_column_push_update", |rng, ctx| {
        let ops = vec_of(rng, 1..80, |rng| (string(rng, b' '..=b'~', 0..=40), rng.gen_bool(0.5)));
        let mut col = StrColumn::new();
        let mut model: Vec<String> = Vec::new();
        for (s, update) in ops {
            if update && !model.is_empty() {
                let idx = s.len() % model.len();
                col.update(idx, &s);
                model[idx] = s;
            } else {
                col.push(&s);
                model.push(s);
            }
        }
        for (i, v) in model.iter().enumerate() {
            assert_eq!(col.get(i), v.as_str(), "{ctx}");
        }
    });
}

#[test]
fn table_insert_delete_compact_lifecycle() {
    check("table_insert_delete_compact_lifecycle", |rng, ctx| {
        let ops = vec_of(rng, 0..120, |rng| {
            (rng.gen_range(0..3u32), rng.gen_range(0..64u32), rng.gen_range(-100..100i64))
        });
        let mut t = Table::new("t", Schema::new(vec![ColumnDef::new("v", DataType::I64)]));
        // Model: map slot -> value for live slots.
        let mut model: Vec<Option<i64>> = Vec::new();
        for (op, row, v) in ops {
            match op {
                0 => {
                    let slot = t.insert(&[Value::Int(v)]) as usize;
                    if slot == model.len() {
                        model.push(Some(v));
                    } else {
                        assert!(model[slot].is_none(), "{ctx}: reused slot must be dead");
                        model[slot] = Some(v);
                    }
                }
                1 => {
                    if !model.is_empty() {
                        let slot = (row as usize) % model.len();
                        let was_live = model[slot].is_some();
                        assert_eq!(t.delete(slot as u32), was_live, "{ctx}");
                        model[slot] = None;
                    }
                }
                _ => {
                    if !model.is_empty() {
                        let slot = (row as usize) % model.len();
                        if model[slot].is_some() {
                            t.update(slot as u32, "v", &Value::Int(v));
                            model[slot] = Some(v);
                        }
                    }
                }
            }
            assert_eq!(t.num_slots(), model.len(), "{ctx}");
            assert_eq!(t.num_live(), model.iter().flatten().count(), "{ctx}");
        }
        // Compaction preserves the live multiset and renumbers densely.
        let live_before: Vec<i64> = model.iter().flatten().copied().collect();
        let remap = t.compact();
        assert_eq!(t.num_slots(), live_before.len(), "{ctx}");
        assert_eq!(t.num_live(), live_before.len(), "{ctx}");
        let mut live_after: Vec<i64> =
            (0..t.num_slots()).map(|r| t.column("v").unwrap().int_at(r).unwrap()).collect();
        let mut expected = live_before;
        live_after.sort_unstable();
        expected.sort_unstable();
        assert_eq!(live_after, expected, "{ctx}");
        // Remap hits every new slot exactly once.
        let mut seen: Vec<u32> = remap.into_iter().flatten().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..t.num_slots() as u32).collect::<Vec<_>>(), "{ctx}");
    });
}

#[test]
fn consolidation_preserves_referential_integrity() {
    check("consolidation_preserves_referential_integrity", |rng, ctx| {
        let dim_size = rng.gen_range(1..30usize);
        let fact_keys = vec_of(rng, 0..80, |rng| rng.gen_range(0..30u32));
        let deletes = vec_of(rng, 0..10, |rng| rng.gen_range(0..30u32));
        let mut dim = Table::new("dim", Schema::new(vec![ColumnDef::new("d", DataType::I32)]));
        for i in 0..dim_size {
            dim.append_row(&[Value::Int(i as i64)]);
        }
        let mut fact = Table::new(
            "fact",
            Schema::new(vec![ColumnDef::new("k", DataType::Key { target: "dim".into() })]),
        );
        for k in &fact_keys {
            fact.append_row(&[Value::Key(k % dim_size as u32)]);
        }
        let mut db = Database::new();
        db.add_table(dim);
        db.add_table(fact);
        assert!(db.validate_references().is_empty(), "{ctx}");

        for d in deletes {
            db.table_mut("dim").unwrap().delete(d % dim_size as u32);
        }
        db.consolidate("dim");
        assert!(
            db.validate_references().is_empty(),
            "{ctx}: consolidation must restore referential integrity"
        );
    });
}
