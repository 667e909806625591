//! [`Dataset`]: generate a complete on-disk dataset — daily diffs, daily
//! changeset files, monthly full-history dumps — plus the in-memory ground
//! truth.

use crate::sim::{EditSimulator, SimConfig};
use crate::world::{WorldAtlas, WorldConfig};
use rased_osm_model::UpdateRecord;
use rased_osm_xml::{ChangesetWriter, DiffWriter, PlanetWriter};
use rased_temporal::{Date, DateRange, Granularity, Period};
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};

/// Dataset generation error.
#[derive(Debug)]
pub enum DatasetError {
    Io(io::Error),
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for DatasetError {}

impl From<io::Error> for DatasetError {
    fn from(e: io::Error) -> Self {
        DatasetError::Io(e)
    }
}

/// Full dataset configuration.
#[derive(Debug, Clone)]
pub struct DatasetConfig {
    pub world: WorldConfig,
    pub sim: SimConfig,
    /// Days to simulate (inclusive).
    pub range: DateRange,
    /// Base road-network size seeded the day before `range` starts.
    pub seed_nodes_per_country: usize,
}

impl DatasetConfig {
    /// A small, fast dataset for tests and examples: 12 countries, 3 months.
    #[expect(clippy::expect_used, reason = "compile-time constant dates")]
    pub fn small(seed: u64) -> DatasetConfig {
        DatasetConfig {
            world: WorldConfig { n_countries: 12, activity_skew: 1.0, seed },
            sim: SimConfig { seed: seed ^ 0x5EED, daily_edits_mean: 80.0, n_road_types: 12, ..SimConfig::default() },
            range: DateRange::new(
                Date::new(2021, 1, 1).expect("valid"),
                Date::new(2021, 3, 31).expect("valid"),
            ),
            seed_nodes_per_country: 30,
        }
    }
}

/// Where the generated files live, relative to the dataset root:
/// `diffs/YYYY-MM-DD.osc`, `changesets/YYYY-MM-DD.osm`,
/// `history/YYYY-MM.osm`.
#[derive(Debug, Clone)]
pub struct DatasetPaths {
    pub root: PathBuf,
}

impl DatasetPaths {
    /// Paths rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> DatasetPaths {
        DatasetPaths { root: root.into() }
    }

    /// The daily `osmChange` diff for `day`.
    pub fn diff(&self, day: Date) -> PathBuf {
        self.root.join("diffs").join(format!("{day}.osc"))
    }

    /// The daily changeset file for `day`.
    pub fn changesets(&self, day: Date) -> PathBuf {
        self.root.join("changesets").join(format!("{day}.osm"))
    }

    /// The monthly full-history dump for `(year, month)`.
    pub fn history(&self, year: i32, month: u32) -> PathBuf {
        self.root.join("history").join(format!("{year:04}-{month:02}.osm"))
    }
}

/// A generated dataset: file tree on disk + ground truth in memory.
pub struct Dataset {
    pub paths: DatasetPaths,
    pub config: DatasetConfig,
    /// Ground-truth UpdateList (exact update types), in date order.
    pub truth: Vec<UpdateRecord>,
}

impl Dataset {
    /// Generate the dataset into `root`. Existing files are overwritten.
    pub fn generate(root: &Path, config: DatasetConfig) -> Result<Dataset, DatasetError> {
        let paths = DatasetPaths::new(root);
        std::fs::create_dir_all(paths.root.join("diffs"))?;
        std::fs::create_dir_all(paths.root.join("changesets"))?;
        std::fs::create_dir_all(paths.root.join("history"))?;

        let atlas = WorldAtlas::generate(&config.world);
        let mut sim = EditSimulator::new(&atlas, config.sim.clone());
        sim.seed_world(config.seed_nodes_per_country, config.range.start().pred());

        let mut truth = Vec::new();
        for day in config.range.days() {
            let out = sim.step_day(day);

            let mut diff = DiffWriter::new(BufWriter::new(File::create(paths.diff(day))?))?;
            for (action, element) in &out.changes {
                diff.write(*action, element)?;
            }
            diff.finish()?;

            let mut csw =
                ChangesetWriter::new(BufWriter::new(File::create(paths.changesets(day))?))?;
            for cs in &out.changesets {
                csw.write(cs)?;
            }
            csw.finish()?;

            truth.extend(out.truth);

            // Month complete (or range over): dump full history.
            let month_done = day == day.month_end() || day == config.range.end();
            if month_done {
                let (y, m) = (day.year(), day.month());
                let mut pw =
                    PlanetWriter::new(BufWriter::new(File::create(paths.history(y, m))?))?;
                for e in sim.history_for_month(y, m) {
                    pw.write(&e)?;
                }
                pw.finish()?;
            }
        }

        let ds = Dataset { paths, config, truth };
        ds.save_manifest()?;
        Ok(ds)
    }

    /// Persist the generation parameters so another process can rebuild the
    /// atlas (and therefore the country resolver) for ingestion.
    fn save_manifest(&self) -> Result<(), DatasetError> {
        let c = &self.config;
        let body = format!(
            "world_seed={}\nworld_countries={}\nworld_skew={}\nsim_seed={}\nsim_road_types={}\nstart={}\nend={}\n",
            c.world.seed,
            c.world.n_countries,
            c.world.activity_skew,
            c.sim.seed,
            c.sim.n_road_types,
            c.range.start(),
            c.range.end(),
        );
        std::fs::write(self.paths.root.join("dataset.manifest"), body)?;
        Ok(())
    }

    /// Reload generation parameters persisted by [`Dataset::generate`].
    /// Ground truth is not persisted; the returned value carries the config
    /// and paths only (`truth` is empty).
    pub fn load_manifest(root: &Path) -> Result<Dataset, DatasetError> {
        let body = std::fs::read_to_string(root.join("dataset.manifest"))?;
        let mut config = DatasetConfig::small(0);
        let mut start = config.range.start();
        let mut end = config.range.end();
        for line in body.lines() {
            let Some((k, v)) = line.split_once('=') else { continue };
            let bad = || io::Error::new(io::ErrorKind::InvalidData, format!("bad manifest `{k}`"));
            match k {
                "world_seed" => config.world.seed = v.parse().map_err(|_| bad())?,
                "world_countries" => config.world.n_countries = v.parse().map_err(|_| bad())?,
                "world_skew" => config.world.activity_skew = v.parse().map_err(|_| bad())?,
                "sim_seed" => config.sim.seed = v.parse().map_err(|_| bad())?,
                "sim_road_types" => config.sim.n_road_types = v.parse().map_err(|_| bad())?,
                "start" => start = v.parse().map_err(|_| bad())?,
                "end" => end = v.parse().map_err(|_| bad())?,
                _ => {}
            }
        }
        config.range = DateRange::new(start, end);
        Ok(Dataset { paths: DatasetPaths::new(root), config, truth: Vec::new() })
    }

    /// The world atlas for this dataset (regenerated deterministically).
    pub fn atlas(&self) -> WorldAtlas {
        WorldAtlas::generate(&self.config.world)
    }

    /// Months covered by the dataset, in order.
    pub fn months(&self) -> Vec<(i32, u32)> {
        let mut months = Vec::new();
        let mut p = Period::containing(Granularity::Month, self.config.range.start());
        loop {
            #[expect(clippy::unreachable, reason = "containing(Month) and succ() of a Month only produce Period::Month")]
            let Period::Month(y, m) = p else { unreachable!() };
            months.push((y, m));
            if p.end() >= self.config.range.end() {
                break;
            }
            p = p.succ();
        }
        months
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dettest::TempDir;
    use rased_osm_xml::{ChangesetReader, DiffReader, PlanetReader};
    use std::io::BufReader;

    fn tiny_config() -> DatasetConfig {
        let mut c = DatasetConfig::small(11);
        c.range = DateRange::new(
            Date::new(2021, 1, 25).unwrap(),
            Date::new(2021, 2, 5).unwrap(),
        );
        c.sim.daily_edits_mean = 25.0;
        c.seed_nodes_per_country = 10;
        c
    }

    #[test]
    fn generates_complete_file_tree() {
        let root = TempDir::new("dataset-tree");
        let ds = Dataset::generate(root.path(), tiny_config()).unwrap();
        for day in ds.config.range.days() {
            assert!(ds.paths.diff(day).exists(), "missing diff for {day}");
            assert!(ds.paths.changesets(day).exists(), "missing changesets for {day}");
        }
        assert_eq!(ds.months(), vec![(2021, 1), (2021, 2)]);
        assert!(ds.paths.history(2021, 1).exists());
        assert!(ds.paths.history(2021, 2).exists());
        assert!(!ds.truth.is_empty());
    }

    #[test]
    fn files_parse_back_and_counts_line_up() {
        let root = TempDir::new("dataset-parse");
        let ds = Dataset::generate(root.path(), tiny_config()).unwrap();
        let day = ds.config.range.start();

        let diff = DiffReader::new(BufReader::new(File::open(ds.paths.diff(day)).unwrap()));
        let changes: Vec<_> = diff.map(|r| r.unwrap()).collect();

        let csr =
            ChangesetReader::new(BufReader::new(File::open(ds.paths.changesets(day)).unwrap()));
        let metas: Vec<_> = csr.map(|r| r.unwrap()).collect();

        let total: u32 = metas.iter().map(|m| m.num_changes).sum();
        assert_eq!(total as usize, changes.len());

        let day_truth = ds.truth.iter().filter(|r| r.date == day).count();
        assert_eq!(day_truth, changes.len());

        // History parses and contains seed elements (version 1 before range).
        let hist =
            PlanetReader::new(BufReader::new(File::open(ds.paths.history(2021, 1)).unwrap()));
        let elements: Vec<_> = hist.map(|r| r.unwrap()).collect();
        assert!(!elements.is_empty());
        assert!(elements.iter().any(|e| e.info().date < ds.config.range.start()));
    }

    #[test]
    fn generation_is_reproducible() {
        let (dir_a, dir_b) = (TempDir::new("dataset-rep-a"), TempDir::new("dataset-rep-b"));
        let a = Dataset::generate(dir_a.path(), tiny_config()).unwrap();
        let b = Dataset::generate(dir_b.path(), tiny_config()).unwrap();
        assert_eq!(a.truth, b.truth);
        // And the bytes of a diff file match too.
        let day = a.config.range.start();
        let fa = std::fs::read(a.paths.diff(day)).unwrap();
        let fb = std::fs::read(b.paths.diff(day)).unwrap();
        assert_eq!(fa, fb);
    }
}
