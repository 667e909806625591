//! Crash-safety fuzz for the streaming write path: kill the process at
//! *every* byte of the write-ahead log — or lose any suffix of the cube
//! record file the log still points into — and prove [`Rased::open`]
//! recovers exactly the state of a system that never crashed — a
//! committed prefix of the publish history, never a half-applied unit. A
//! unit that rolls a week up publishes the day *and* the weekly cube
//! together, so a torn tail must take both down or neither.

use dettest::{det_proptest, Rng, TempDir};
use rased_core::model::{
    ChangesetId, CountryId, ElementType, RoadTypeId, UpdateRecord, UpdateType,
};
use rased_core::{CubeSchema, DataCube, Date, Period, Rased, RasedConfig};
use std::path::Path;

fn day_records(rng: &mut Rng, schema: CubeSchema, date: Date) -> Vec<UpdateRecord> {
    (0..(1 + rng.below(6)))
        .map(|_| UpdateRecord {
            element_type: ElementType::ALL[rng.below(ElementType::ALL.len() as u64) as usize],
            update_type: UpdateType::ALL[rng.below(UpdateType::ALL.len() as u64) as usize],
            country: CountryId(rng.below(schema.n_countries() as u64) as u16),
            road_type: RoadTypeId(rng.below(schema.n_road_types() as u64) as u16),
            date,
            lat7: 0,
            lon7: 0,
            changeset: ChangesetId(rng.below(1 << 40)),
        })
        .collect()
}

fn fresh_system(dir: &Path, schema: CubeSchema) -> Rased {
    Rased::create(RasedConfig::new(dir).with_schema(schema)).expect("create system")
}

/// A never-crashed oracle: the first `k` days ingested, nothing else.
fn oracle(dir: &Path, schema: CubeSchema, days: &[(Date, DataCube)], k: usize) -> Rased {
    let sys = fresh_system(dir, schema);
    for (day, cube) in &days[..k] {
        sys.index().ingest_day(*day, cube).expect("oracle ingest");
    }
    sys
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).unwrap();
        }
    }
}

/// `Period` sort key (it has no `Ord`): level, then start day.
fn period_key(p: Period) -> (u8, i32) {
    (p.granularity().level(), p.start().days())
}

/// The recovered catalog must be *identical* to the oracle's: same
/// periods, same cube contents.
fn assert_matches_oracle(sys: &Rased, oracle: &Rased) {
    let mut got = sys.index().periods();
    let mut want = oracle.index().periods();
    got.sort_by_key(|p| period_key(*p));
    want.sort_by_key(|p| period_key(*p));
    assert_eq!(got, want, "recovered catalog diverges from the never-crashed oracle");
    for p in got {
        let a = sys.index().fetch_uncached(p).expect("fetch").expect("cube");
        let b = oracle.index().fetch_uncached(p).expect("fetch").expect("cube");
        assert_eq!(*a, *b, "cube for {p} diverges from the never-crashed oracle");
    }
}

/// Which file a simulated crash cuts short, and where.
enum Cut {
    /// The WAL, at every byte.
    EveryWalByte,
    /// The WAL, at this many random bytes.
    RandomWalBytes(usize),
    /// The record file, at every byte of the last this-many units' records.
    RecordTail(usize),
}

/// Build a system, publish `n_days` units WAL-only (no checkpoint — the
/// state an unclean shutdown leaves behind), then reopen after truncating
/// the WAL or the record file at each point `cut` names and compare
/// against the oracle that stopped cleanly after the surviving prefix.
fn check_crash_recovery(seed: u64, n_days: u64, cut: Cut) {
    let mut rng = Rng::new(seed);
    let schema = CubeSchema::tiny();
    // Start on a Sunday so the span crosses a week boundary: at least one
    // unit publishes a multi-cube (day + roll-up) delta.
    let start = Date::new(2021, 1, 3).expect("date");
    let days: Vec<(Date, DataCube)> = (0..n_days)
        .map(|i| {
            let date = start.add_days(i as i32);
            let recs = day_records(&mut rng, schema, date);
            (date, DataCube::from_records(schema, &recs).expect("cube"))
        })
        .collect();

    let full = TempDir::new("crash-full");
    // The record file's length after each unit: unit i's records end at
    // `ends[i]`, and the units' records lie back to back in publish order.
    let mut ends = Vec::new();
    {
        let sys = fresh_system(full.path(), schema);
        for (day, cube) in &days {
            sys.index().ingest_day(*day, cube).expect("ingest");
            ends.push(sys.index().storage_bytes());
        }
        // No sync(): every published unit lives only in the WAL.
    }
    let wal_len = std::fs::metadata(full.path().join("index").join("wal.log")).expect("wal").len();

    let oracle_dirs: Vec<TempDir> =
        (0..=days.len()).map(|k| TempDir::new(&format!("crash-oracle-{k}"))).collect();
    let oracles: Vec<Rased> = (0..=days.len())
        .map(|k| oracle(oracle_dirs[k].path(), schema, &days, k))
        .collect();

    let (file, points): (&str, Vec<u64>) = match cut {
        Cut::EveryWalByte => ("wal.log", (0..=wal_len).collect()),
        Cut::RandomWalBytes(n) => ("wal.log", (0..n).map(|_| rng.below(wal_len + 1)).collect()),
        Cut::RecordTail(units) => {
            let first = ends.len().checked_sub(units + 1).map_or(0, |i| ends[i]);
            ("cubes.rec", (first..=ends[ends.len() - 1]).collect())
        }
    };
    for t in points {
        let scratch = TempDir::new("crash-cut");
        copy_dir(full.path(), scratch.path());
        let cut_path = scratch.path().join("index").join(file);
        let f = std::fs::OpenOptions::new().write(true).open(&cut_path).unwrap();
        f.set_len(t).unwrap();
        f.sync_all().unwrap();
        drop(f);

        let config = RasedConfig::load(scratch.path()).expect("load manifest");
        let sys = Rased::open(config).unwrap_or_else(|e| {
            panic!("open must survive truncation at byte {t}: {e}")
        });

        // The surviving days must be exactly a prefix of the publish order.
        let k = sys
            .index()
            .periods()
            .iter()
            .filter(|p| matches!(p, Period::Day(_)))
            .count();
        for (i, (day, _)) in days.iter().enumerate() {
            assert_eq!(
                sys.index().has(Period::Day(*day)),
                i < k,
                "cut at byte {t}: day set is not the prefix of length {k}"
            );
        }
        assert_eq!(sys.index().epoch(), k as u64, "epoch must equal replayed units");
        if file == "cubes.rec" {
            // Exactly the units whose records survived whole.
            let whole = ends.iter().take_while(|&&end| end <= t).count();
            assert_eq!(k, whole, "cut at record byte {t}: a unit with whole records was lost");
        }
        assert_matches_oracle(&sys, &oracles[k]);
        drop(sys);

        // Recovery truncated the torn tail: a second open is a fixpoint,
        // on disk as well as in memory.
        let lens = |dir: &Path| {
            ["wal.log", "cubes.rec"].map(|f| std::fs::metadata(dir.join("index").join(f)).expect("stat").len())
        };
        let repaired = lens(scratch.path());
        let again = Rased::open(RasedConfig::load(scratch.path()).expect("load")).expect("reopen");
        assert_eq!(again.index().epoch(), k as u64, "second open must see repaired state");
        assert_eq!(again.index().cube_count(), oracles[k].index().cube_count());
        assert_matches_oracle(&again, &oracles[k]);
        drop(again);
        assert_eq!(lens(scratch.path()), repaired, "second open must change no file");
    }
}

/// The acceptance pin: every byte boundary, fixed seed.
#[test]
fn truncation_at_every_byte_boundary_recovers_a_committed_prefix() {
    check_crash_recovery(0xC4A5_85AF_E57E_ED01, 10, Cut::EveryWalByte);
}

/// The record file loses a suffix the WAL still points into (a device that
/// drops acknowledged writes, or a copy of the store taken mid-write):
/// cutting it at every byte of the last three units' records — the
/// third-to-last closes a week, so it holds two records — recovers exactly
/// the units whose records survived whole.
#[test]
fn record_file_truncation_at_every_byte_recovers_a_committed_prefix() {
    check_crash_recovery(0x5EC0_4D5F_17E0_0B17, 9, Cut::RecordTail(3));
}

/// Index–warehouse coupling under crashes: drive the `apply_day` protocol
/// (warehouse rows flushed, then the cube unit committed with the row
/// count as its durable watermark), truncate the WAL at every byte, and
/// require the *warehouse* to recover in lockstep with the index — the
/// rows of exactly the surviving day prefix, nothing more. Then replay
/// the missing days the way the streaming resume path would and require
/// the result to equal a never-crashed run: no lost rows, no duplicates.
#[test]
fn warehouse_recovers_in_lockstep_with_the_index() {
    let schema = CubeSchema::tiny();
    let start = Date::new(2021, 1, 3).expect("date");
    // Distinct changeset ranges per day so a row's provenance is checkable:
    // day i uses changesets 1000·(i+1) .. 1000·(i+1)+len.
    let days: Vec<(Date, Vec<UpdateRecord>)> = (0..6u64)
        .map(|i| {
            let date = start.add_days(i as i32);
            let recs: Vec<UpdateRecord> = (0..(2 + i))
                .map(|j| UpdateRecord {
                    element_type: ElementType::Way,
                    update_type: UpdateType::Create,
                    country: CountryId((j % 2) as u16),
                    road_type: RoadTypeId(0),
                    date,
                    lat7: (i as i32) * 1_000_000,
                    lon7: (j as i32) * 1_000_000,
                    changeset: ChangesetId(1_000 * (i + 1) + j),
                })
                .collect();
            (date, recs)
        })
        .collect();
    let prefix_rows = |k: usize| days[..k].iter().map(|(_, r)| r.len() as u64).sum::<u64>();

    // The apply_day publish protocol, via public APIs so the crash can be
    // simulated between any two file writes (no sync(): WAL-only state).
    let publish = |sys: &Rased, day: Date, recs: &[UpdateRecord]| {
        let cube = DataCube::from_records(schema, recs).expect("cube");
        sys.warehouse().insert_batch(recs).expect("insert");
        sys.warehouse().flush().expect("flush");
        sys.index()
            .ingest_day_marked(day, &cube, sys.warehouse().row_count())
            .expect("commit");
    };

    let full = TempDir::new("crash-wh-full");
    {
        let sys = fresh_system(full.path(), schema);
        for (day, recs) in &days {
            publish(&sys, *day, recs);
        }
    }
    let wal = std::fs::read(full.path().join("index").join("wal.log")).expect("read wal");

    for t in 0..=wal.len() {
        let scratch = TempDir::new("crash-wh-cut");
        copy_dir(full.path(), scratch.path());
        let wal_path = scratch.path().join("index").join("wal.log");
        let f = std::fs::OpenOptions::new().write(true).open(&wal_path).unwrap();
        f.set_len(t as u64).unwrap();
        f.sync_all().unwrap();
        drop(f);

        let sys = Rased::open(RasedConfig::load(scratch.path()).expect("load"))
            .unwrap_or_else(|e| panic!("open must survive truncation at byte {t}: {e}"));
        let k = (0..days.len())
            .take_while(|&i| sys.index().has(Period::Day(days[i].0)))
            .count();
        assert_eq!(
            sys.warehouse().row_count(),
            prefix_rows(k),
            "cut at byte {t}: warehouse rows must match the surviving {k}-day prefix"
        );
        for (i, (_, recs)) in days.iter().enumerate() {
            let got = sys.by_changeset(recs[0].changeset).expect("by_changeset");
            if i < k {
                assert_eq!(got.len(), 1, "cut at byte {t}: surviving day {i} lost its rows");
            } else {
                assert!(got.is_empty(), "cut at byte {t}: dropped day {i} left rows behind");
            }
        }

        // Resume exactly like the streaming path: skip indexed days,
        // re-publish the rest. The end state must equal a never-crashed
        // run — same row count, no duplicated changesets.
        for (day, recs) in &days {
            if !sys.index().has(Period::Day(*day)) {
                publish(&sys, *day, recs);
            }
        }
        assert_eq!(sys.warehouse().row_count(), prefix_rows(days.len()), "cut at byte {t}");
        for (_, recs) in &days {
            assert_eq!(
                sys.by_changeset(recs[0].changeset).expect("by_changeset").len(),
                1,
                "cut at byte {t}: resume must not duplicate rows"
            );
        }
    }
}

det_proptest! {
    #![det_config(cases = 6)]

    #[test]
    fn random_truncations_recover_committed_prefixes(
        seed in 0u64..u64::MAX,
        n_days in 4u64..13,
    ) {
        check_crash_recovery(seed, n_days, Cut::RandomWalBytes(24));
    }
}
