//! [`DiskHashIndex`]: a persistent extendible hash index.
//!
//! The warehouse's hash index on `ChangesetID` (§VI-B) must survive
//! restarts without rescanning the heap, so it lives on disk: classic
//! extendible hashing — an in-memory directory of bucket-page ids doubling
//! on demand, bucket pages splitting by one more hash bit at a time, and
//! overflow chains for pathological single-key pile-ups. Keys and values
//! are `u64` (multi-valued: one key maps to many values).

use crate::pagefile::{PageFile, PageId, StorageError};
use crate::stats::IoCostModel;
use std::path::{Path, PathBuf};

/// Bucket page size. 4 KB holds 254 entries plus the header.
const BUCKET_BYTES: usize = 4096;
/// Bucket header: local_depth u16 | count u16 | pad u32 | overflow u64.
const BUCKET_HEADER: usize = 16;
/// 16 bytes per (key, value) entry.
const ENTRY_BYTES: usize = 16;
/// Entries per bucket page.
const BUCKET_CAPACITY: usize = (BUCKET_BYTES - BUCKET_HEADER) / ENTRY_BYTES;
/// "No overflow page" sentinel.
const NO_OVERFLOW: u64 = u64::MAX;

const DIR_MAGIC: &[u8; 8] = b"RASEDHX1";

/// A bucket page decoded into memory.
struct Bucket {
    local_depth: u16,
    entries: Vec<(u64, u64)>,
    overflow: u64, // PageId or NO_OVERFLOW
}

impl Bucket {
    fn empty(local_depth: u16) -> Bucket {
        Bucket { local_depth, entries: Vec::new(), overflow: NO_OVERFLOW }
    }

    fn decode(page: &[u8]) -> Result<Bucket, StorageError> {
        let corrupt = || StorageError::BadHeader("truncated hash bucket page".into());
        let local_depth = crate::bytes::read_u16_le(page, 0).ok_or_else(corrupt)?;
        let count = crate::bytes::read_u16_le(page, 2).ok_or_else(corrupt)? as usize;
        let overflow = crate::bytes::read_u64_le(page, 8).ok_or_else(corrupt)?;
        let mut entries = Vec::with_capacity(count.min(BUCKET_CAPACITY));
        for i in 0..count.min(BUCKET_CAPACITY) {
            let o = BUCKET_HEADER + i * ENTRY_BYTES;
            let k = crate::bytes::read_u64_le(page, o).ok_or_else(corrupt)?;
            let v = crate::bytes::read_u64_le(page, o + 8).ok_or_else(corrupt)?;
            entries.push((k, v));
        }
        Ok(Bucket { local_depth, entries, overflow })
    }

    fn encode(&self) -> Vec<u8> {
        debug_assert!(self.entries.len() <= BUCKET_CAPACITY);
        let mut page = Vec::with_capacity(BUCKET_BYTES);
        page.extend_from_slice(&self.local_depth.to_le_bytes());
        page.extend_from_slice(&(self.entries.len() as u16).to_le_bytes());
        page.resize(8, 0);
        page.extend_from_slice(&self.overflow.to_le_bytes());
        debug_assert_eq!(page.len(), BUCKET_HEADER);
        for (k, v) in &self.entries {
            page.extend_from_slice(&k.to_le_bytes());
            page.extend_from_slice(&v.to_le_bytes());
        }
        // An overfull bucket stays oversized, so `write_page` rejects it
        // with a typed error instead of truncating it.
        page.resize(page.len().max(BUCKET_BYTES), 0);
        page
    }
}

/// Fibonacci hashing: spreads sequential ids (changeset ids are sequential)
/// across the full 64-bit space; the directory uses the *top* bits so
/// doubling refines, never reshuffles.
#[inline]
fn hash(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A persistent extendible hash index mapping `u64 → many u64`.
pub struct DiskHashIndex {
    file: PageFile,
    /// `directory[top global_depth bits of hash]` = bucket page.
    directory: Vec<PageId>,
    global_depth: u8,
    dir_path: PathBuf,
    len: u64,
}

impl DiskHashIndex {
    /// Create a fresh index at `path` (bucket pages) + a `.dir` sidecar.
    pub fn create(path: &Path, model: IoCostModel) -> Result<DiskHashIndex, StorageError> {
        let file = PageFile::create(path, BUCKET_BYTES, model)?;
        let first = file.allocate()?;
        file.write_page(first, &Bucket::empty(0).encode())?;
        let index = DiskHashIndex {
            file,
            directory: vec![first],
            global_depth: 0,
            dir_path: path.with_extension("dir"),
            len: 0,
        };
        index.save_directory()?;
        Ok(index)
    }

    /// Open an existing index.
    pub fn open(path: &Path, model: IoCostModel) -> Result<DiskHashIndex, StorageError> {
        let file = PageFile::open(path, model)?;
        let dir_path = path.with_extension("dir");
        let bytes = std::fs::read(&dir_path)?;
        let (Some(&global_depth), Some(body)) = (bytes.get(8), bytes.get(17..)) else {
            return Err(StorageError::BadHeader("hash directory sidecar corrupt".into()));
        };
        if !bytes.starts_with(DIR_MAGIC) {
            return Err(StorageError::BadHeader("hash directory sidecar corrupt".into()));
        }
        if global_depth > 32 {
            return Err(StorageError::BadHeader("hash directory depth out of range".into()));
        }
        let len = crate::bytes::read_u64_le(&bytes, 9)
            .ok_or_else(|| StorageError::BadHeader("hash directory sidecar corrupt".into()))?;
        let want = 1usize << global_depth;
        if body.len() < want * 8 {
            return Err(StorageError::BadHeader("hash directory truncated".into()));
        }
        let mut directory = Vec::with_capacity(want);
        for slot in 0..want {
            let raw = crate::bytes::read_u64_le(body, slot * 8)
                .ok_or_else(|| StorageError::BadHeader("hash directory truncated".into()))?;
            directory.push(PageId(raw));
        }
        Ok(DiskHashIndex { file, directory, global_depth, dir_path, len })
    }

    /// Persist the directory sidecar (bucket pages are write-through).
    pub fn sync(&self) -> Result<(), StorageError> {
        self.file.sync()?;
        self.save_directory()
    }

    fn save_directory(&self) -> Result<(), StorageError> {
        let mut out = Vec::with_capacity(17 + self.directory.len() * 8);
        out.extend_from_slice(DIR_MAGIC);
        out.push(self.global_depth);
        out.extend_from_slice(&self.len.to_le_bytes());
        for p in &self.directory {
            out.extend_from_slice(&p.0.to_le_bytes());
        }
        std::fs::write(&self.dir_path, out)?;
        Ok(())
    }

    /// Number of (key, value) entries stored.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    /// The bucket page `key` hashes to.
    fn bucket_of(&self, key: u64) -> Result<PageId, StorageError> {
        let slot = match self.global_depth {
            0 => 0,
            depth => (hash(key) >> (64 - depth as u32)) as usize,
        };
        self.directory
            .get(slot)
            .copied()
            .ok_or_else(|| StorageError::BadHeader("hash directory smaller than its depth".into()))
    }

    fn load(&self, page: PageId) -> Result<Bucket, StorageError> {
        Bucket::decode(&self.file.read_page_vec(page)?)
    }

    fn store(&self, page: PageId, bucket: &Bucket) -> Result<(), StorageError> {
        self.file.write_page(page, &bucket.encode())
    }

    /// All values stored under `key` (bucket + overflow chain scan).
    pub fn get(&self, key: u64) -> Result<Vec<u64>, StorageError> {
        let mut out = Vec::new();
        let mut page = self.bucket_of(key)?;
        loop {
            let bucket = self.load(page)?;
            out.extend(bucket.entries.iter().filter(|(k, _)| *k == key).map(|(_, v)| *v));
            if bucket.overflow == NO_OVERFLOW {
                return Ok(out);
            }
            page = PageId(bucket.overflow);
        }
    }

    /// Insert one (key, value) pair. Duplicate pairs are stored again — the
    /// index is a multimap.
    pub fn insert(&mut self, key: u64, value: u64) -> Result<(), StorageError> {
        loop {
            let page = self.bucket_of(key)?;
            let mut bucket = self.load(page)?;
            if bucket.entries.len() < BUCKET_CAPACITY {
                bucket.entries.push((key, value));
                self.store(page, &bucket)?;
                self.len += 1;
                return Ok(());
            }
            // Full primary bucket. If every entry shares this key's hash
            // prefix at local_depth+1, splitting cannot help — chase or
            // extend the overflow chain instead.
            if bucket.local_depth as u8 >= 63 || self.all_same_side(&bucket) {
                let mut page = page;
                let mut bucket = bucket;
                loop {
                    if bucket.entries.len() < BUCKET_CAPACITY {
                        bucket.entries.push((key, value));
                        self.store(page, &bucket)?;
                        self.len += 1;
                        return Ok(());
                    }
                    if bucket.overflow == NO_OVERFLOW {
                        let fresh = self.file.allocate()?;
                        let mut fresh_bucket = Bucket::empty(bucket.local_depth);
                        fresh_bucket.entries.push((key, value));
                        self.store(fresh, &fresh_bucket)?;
                        bucket.overflow = fresh.0;
                        self.store(page, &bucket)?;
                        self.len += 1;
                        return Ok(());
                    }
                    page = PageId(bucket.overflow);
                    bucket = self.load(page)?;
                }
            }
            self.split(page, bucket)?;
            // Retry: the directory now distinguishes one more bit.
        }
    }

    /// True when all entries of a full bucket would land in the same child
    /// after a split (hash-prefix collision).
    fn all_same_side(&self, bucket: &Bucket) -> bool {
        let bit = 63 - bucket.local_depth as u32;
        let mut sides = bucket.entries.iter().map(|(k, _)| (hash(*k) >> bit) & 1);
        let Some(first) = sides.next() else { return false };
        sides.all(|s| s == first)
    }

    /// Split a full bucket one bit deeper, doubling the directory if the
    /// bucket is already at global depth.
    fn split(&mut self, page: PageId, bucket: Bucket) -> Result<(), StorageError> {
        if bucket.local_depth as u8 == self.global_depth {
            // Double the directory.
            assert!(self.global_depth < 32, "directory over 2^32 slots");
            let mut doubled = Vec::with_capacity(self.directory.len() * 2);
            for &p in &self.directory {
                doubled.push(p);
                doubled.push(p);
            }
            self.directory = doubled;
            self.global_depth += 1;
        }

        let new_depth = bucket.local_depth + 1;
        let bit = 64 - new_depth as u32;
        let mut zero = Bucket::empty(new_depth);
        let mut one = Bucket::empty(new_depth);
        // The overflow chain (if any) belongs to entries that all hash to
        // one side (that is the only way a chain forms), so it follows its
        // side's first entry.
        for (k, v) in &bucket.entries {
            if (hash(*k) >> bit) & 1 == 0 {
                zero.entries.push((*k, *v));
            } else {
                one.entries.push((*k, *v));
            }
        }
        if bucket.overflow != NO_OVERFLOW {
            // Chains only form over same-side collisions; attach to the
            // side holding those entries (zero side if both empty).
            if one.entries.is_empty() {
                zero.overflow = bucket.overflow;
            } else if zero.entries.is_empty() {
                one.overflow = bucket.overflow;
            } else {
                // Mixed chain: fold the chain's entries back in. Rare, but
                // possible after deletions in future extensions; handle by
                // draining the chain into the two sides.
                let mut next = bucket.overflow;
                while next != NO_OVERFLOW {
                    let chained = self.load(PageId(next))?;
                    for (k, v) in &chained.entries {
                        if (hash(*k) >> bit) & 1 == 0 {
                            zero.entries.push((*k, *v));
                        } else {
                            one.entries.push((*k, *v));
                        }
                    }
                    next = chained.overflow;
                }
            }
        }

        let one_page = self.file.allocate()?;
        // Update every directory slot that pointed at the old page: slots
        // whose (new_depth)-th bit is 1 move to the new page.
        let shift = self.global_depth as usize - new_depth as usize;
        for (slot, entry) in self.directory.iter_mut().enumerate() {
            if *entry == page && (slot >> shift) & 1 == 1 {
                *entry = one_page;
            }
        }
        // Splits can overfill a side past page capacity when entries skew;
        // spill the excess into a fresh overflow chain.
        self.store_with_spill(page, zero)?;
        self.store_with_spill(one_page, one)?;
        Ok(())
    }

    /// Store a bucket, spilling entries beyond page capacity into overflow
    /// pages (preserving any existing chain pointer at the tail).
    fn store_with_spill(&mut self, page: PageId, mut bucket: Bucket) -> Result<(), StorageError> {
        if bucket.entries.len() <= BUCKET_CAPACITY {
            return self.store(page, &bucket);
        }
        let spill: Vec<(u64, u64)> = bucket.entries.split_off(BUCKET_CAPACITY);
        let tail_overflow = bucket.overflow;
        let mut chain: Vec<Bucket> = spill
            .chunks(BUCKET_CAPACITY)
            .map(|chunk| Bucket {
                local_depth: bucket.local_depth,
                entries: chunk.to_vec(),
                overflow: NO_OVERFLOW,
            })
            .collect();
        if let Some(last) = chain.last_mut() {
            last.overflow = tail_overflow;
        }
        // Allocate chain pages and link front to back.
        let mut next = NO_OVERFLOW;
        for b in chain.iter_mut().rev() {
            let p = self.file.allocate()?;
            let tail = b.overflow;
            b.overflow = if tail == NO_OVERFLOW { next } else { tail };
            self.store(p, b)?;
            next = p.0;
        }
        bucket.overflow = next;
        self.store(page, &bucket)
    }
}

impl std::fmt::Debug for DiskHashIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskHashIndex")
            .field("len", &self.len)
            .field("global_depth", &self.global_depth)
            .field("directory_size", &self.directory.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dettest::TempDir;
    use std::collections::HashMap;

    impl DiskHashIndex {
        /// Current directory fan-out (diagnostics).
        fn directory_size(&self) -> usize {
            self.directory.len()
        }
    }

    #[test]
    fn insert_and_get_multivalued() {
        let dir = TempDir::new("hashidx-basic");
        let mut idx = DiskHashIndex::create(&dir.file("index.pg"), IoCostModel::free()).unwrap();
        idx.insert(5, 100).unwrap();
        idx.insert(5, 101).unwrap();
        idx.insert(9, 200).unwrap();
        assert_eq!(idx.len(), 3);
        let mut got = idx.get(5).unwrap();
        got.sort_unstable();
        assert_eq!(got, vec![100, 101]);
        assert_eq!(idx.get(9).unwrap(), vec![200]);
        assert!(idx.get(42).unwrap().is_empty());
    }

    #[test]
    fn grows_past_many_splits_and_matches_model() {
        let dir = TempDir::new("hashidx-grow");
        let mut idx = DiskHashIndex::create(&dir.file("index.pg"), IoCostModel::free()).unwrap();
        let mut model: HashMap<u64, Vec<u64>> = HashMap::new();
        // Sequential keys with several values each — the changeset pattern.
        for key in 0..3000u64 {
            for j in 0..(key % 4 + 1) {
                let value = key * 10 + j;
                idx.insert(key, value).unwrap();
                model.entry(key).or_default().push(value);
            }
        }
        assert!(idx.directory_size() > 1, "directory must have doubled");
        for (key, want) in &model {
            let mut got = idx.get(*key).unwrap();
            got.sort_unstable();
            let mut want = want.clone();
            want.sort_unstable();
            assert_eq!(got, want, "key {key}");
        }
    }

    #[test]
    fn hot_key_overflow_chain() {
        let dir = TempDir::new("hashidx-hot");
        let mut idx = DiskHashIndex::create(&dir.file("index.pg"), IoCostModel::free()).unwrap();
        // One key with far more values than a bucket holds.
        let n = (BUCKET_CAPACITY * 3 + 7) as u64;
        for v in 0..n {
            idx.insert(777, v).unwrap();
        }
        // And some other keys around it.
        for k in 0..100u64 {
            idx.insert(k, k).unwrap();
        }
        let mut got = idx.get(777).unwrap();
        got.sort_unstable();
        assert_eq!(got, (0..n).collect::<Vec<_>>());
        assert_eq!(idx.get(50).unwrap(), vec![50]);
    }

    #[test]
    fn persistence_roundtrip() {
        let dir = TempDir::new("hashidx-persist");
        let path = dir.file("index.pg");
        {
            let mut idx = DiskHashIndex::create(&path, IoCostModel::free()).unwrap();
            for key in 0..500u64 {
                idx.insert(key, key * 2).unwrap();
            }
            idx.sync().unwrap();
        }
        let idx = DiskHashIndex::open(&path, IoCostModel::free()).unwrap();
        assert_eq!(idx.len(), 500);
        for key in 0..500u64 {
            assert_eq!(idx.get(key).unwrap(), vec![key * 2], "key {key}");
        }
    }

    #[test]
    fn corrupt_directory_sidecar_rejected() {
        let dir = TempDir::new("hashidx-corrupt");
        let path = dir.file("index.pg");
        {
            let idx = DiskHashIndex::create(&path, IoCostModel::free()).unwrap();
            idx.sync().unwrap();
        }
        std::fs::write(path.with_extension("dir"), b"nonsense").unwrap();
        assert!(matches!(
            DiskHashIndex::open(&path, IoCostModel::free()),
            Err(StorageError::BadHeader(_))
        ));
    }

    #[test]
    fn lookups_touch_few_pages() {
        let dir = TempDir::new("hashidx-iocount");
        let mut idx = DiskHashIndex::create(&dir.file("index.pg"), IoCostModel::free()).unwrap();
        for key in 0..5_000u64 {
            idx.insert(key, key).unwrap();
        }
        let before = idx.file.stats().snapshot();
        for key in 0..100u64 {
            idx.get(key * 7).unwrap();
        }
        let reads = idx.file.stats().snapshot().since(&before).reads;
        assert!(reads <= 110, "expected ~1 page per probe, got {reads} for 100 probes");
    }
}
