//! The day-by-day edit simulator.

use crate::rng::{Rng, Zipf};
use crate::world::WorldAtlas;
use rased_geo::{BBox, Point};
use rased_osm_model::{
    ChangesetId, ChangesetMeta, CountryId, CountryResolver, Element, ElementId, ElementType,
    MemberRef, Node, Relation, RoadTypeId, RoadTypeTable, Tags, UpdateRecord, UpdateType, UserId,
    VersionInfo, Way,
};
use rased_osm_xml::DiffAction;
use rased_temporal::Date;
use std::collections::HashMap;

/// Simulator tuning knobs.
#[derive(Debug, Clone)]
pub struct SimConfig {
    pub seed: u64,
    /// Road-type taxonomy size; tags are drawn Zipf-skewed from the table
    /// (residential/service-type roads dominate real OSM edits).
    pub n_road_types: usize,
    /// Mean number of element updates per day, worldwide.
    pub daily_edits_mean: f64,
    /// Mean updates per changeset (user session).
    pub session_edits_mean: f64,
    /// Size of the contributor pool.
    pub n_users: u64,
    /// Operation mix; must sum to ≤ 1, remainder goes to metadata edits.
    pub p_create: f64,
    pub p_delete: f64,
    pub p_geometry: f64,
    /// Element-type mix for creations; remainder are relations.
    pub p_way: f64,
    pub p_node: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0xED17,
            n_road_types: 40,
            daily_edits_mean: 200.0,
            session_edits_mean: 6.0,
            n_users: 500,
            p_create: 0.35,
            p_delete: 0.05,
            p_geometry: 0.30,
            p_way: 0.55,
            p_node: 0.35,
        }
    }
}

/// Everything one simulated day produces.
#[derive(Debug)]
pub(crate) struct DayOutput {
    /// The diff stream: after-images in changeset order.
    pub changes: Vec<(DiffAction, Element)>,
    /// Changeset metadata for the day.
    pub changesets: Vec<ChangesetMeta>,
    /// Ground-truth UpdateList rows with *exact* update types — what a
    /// perfect crawler would produce. Integration tests compare the real
    /// collector against this.
    pub truth: Vec<UpdateRecord>,
}

/// Per-element live state plus full version history.
struct ElementHistory {
    versions: Vec<Element>,
    /// Country the element was created in (elements never migrate).
    country: CountryId,
    alive: bool,
}

/// The edit simulator. Owns the evolving world state and full history.
pub(crate) struct EditSimulator<'a> {
    atlas: &'a WorldAtlas,
    config: SimConfig,
    rng: Rng,
    road_table: RoadTypeTable,
    road_zipf: Zipf,
    history: HashMap<(ElementType, ElementId), ElementHistory>,
    /// Live element ids per (country, type) for picking edit targets.
    live: HashMap<(CountryId, ElementType), Vec<ElementId>>,
    next_id: HashMap<ElementType, i64>,
    next_changeset: u64,
}

impl<'a> EditSimulator<'a> {
    /// Create a simulator over `atlas`.
    pub fn new(atlas: &'a WorldAtlas, config: SimConfig) -> EditSimulator<'a> {
        let road_table = RoadTypeTable::with_cardinality(config.n_road_types);
        EditSimulator {
            road_zipf: Zipf::new(config.n_road_types, 0.8),
            rng: Rng::new(config.seed),
            atlas,
            config,
            road_table,
            history: HashMap::new(),
            live: HashMap::new(),
            next_id: HashMap::new(),
            next_changeset: 1,
        }
    }

    /// Seed the base road network: `nodes_per_country` nodes and half as
    /// many ways per country, created at `date` (typically the day before
    /// the simulated range so the seed shows up in full history but not in
    /// any daily diff).
    pub(crate) fn seed_world(&mut self, nodes_per_country: usize, date: Date) {
        let countries: Vec<CountryId> = self.atlas.countries().iter().map(|z| z.id).collect();
        for country in countries {
            let user = UserId(0);
            let cs = self.alloc_changeset();
            for _ in 0..nodes_per_country {
                self.create_node(country, date, cs, user);
            }
            for _ in 0..nodes_per_country / 2 {
                self.create_way(country, date, cs, user);
            }
        }
    }

    fn alloc_changeset(&mut self) -> ChangesetId {
        let id = ChangesetId(self.next_changeset);
        self.next_changeset += 1;
        id
    }

    fn alloc_id(&mut self, etype: ElementType) -> ElementId {
        let next = self.next_id.entry(etype).or_insert(1);
        let id = ElementId(*next);
        *next += 1;
        id
    }

    fn random_road_type(&mut self) -> RoadTypeId {
        RoadTypeId(self.road_zipf.sample(&mut self.rng) as u16)
    }

    fn road_tag(&mut self) -> Tags {
        let rt = self.random_road_type();
        Tags::from_pairs(self.road_table.value(rt).map(|value| ("highway", value)))
    }

    fn record(&mut self, e: &Element) {
        let key = (e.element_type(), e.id());
        let country = match self.history.get(&key) {
            Some(h) => h.country,
            None => {
                // New element: country of its representative point.
                let p = self.representative_point(e);
                self.atlas.locate7(p.lat7, p.lon7).unwrap_or(CountryId(0))
            }
        };
        let alive = e.info().visible;
        let entry = self.history.entry(key).or_insert_with(|| ElementHistory {
            versions: Vec::new(),
            country,
            alive: false,
        });
        let was_alive = entry.alive;
        entry.versions.push(e.clone());
        entry.alive = alive;
        let pool = self.live.entry((country, e.element_type())).or_default();
        if alive && !was_alive {
            pool.push(e.id());
        } else if !alive && was_alive {
            if let Some(pos) = pool.iter().position(|&id| id == e.id()) {
                pool.swap_remove(pos);
            }
        }
    }

    /// A point standing for the element's location: its own coordinates for
    /// nodes; the first member node's coordinates for ways; the first
    /// member's representative point for relations.
    fn representative_point(&self, e: &Element) -> Point {
        match e {
            Element::Node(n) => Point::new(n.lat7, n.lon7),
            Element::Way(w) => w
                .nodes
                .first()
                .and_then(|id| self.current(ElementType::Node, *id))
                .map(|n| self.representative_point(n))
                .unwrap_or(Point::new(0, 0)),
            Element::Relation(r) => r
                .members
                .first()
                .and_then(|m| self.current(m.element_type, m.id))
                .map(|m| self.representative_point(m))
                .unwrap_or(Point::new(0, 0)),
        }
    }

    fn current(&self, etype: ElementType, id: ElementId) -> Option<&Element> {
        self.history.get(&(etype, id)).and_then(|h| h.versions.last())
    }

    fn pick_live(&mut self, country: CountryId, etype: ElementType) -> Option<ElementId> {
        let pool = self.live.get(&(country, etype))?;
        if pool.is_empty() {
            return None;
        }
        let i = self.rng.below(pool.len() as u64) as usize;
        pool.get(i).copied()
    }

    // -- element constructors/mutators ------------------------------------

    fn create_node(&mut self, country: CountryId, date: Date, cs: ChangesetId, user: UserId) -> Element {
        let p = self.atlas.random_point_in(country, &mut self.rng);
        let node = Element::Node(Node {
            id: self.alloc_id(ElementType::Node),
            info: VersionInfo::first(date, cs, user),
            lat7: p.lat7,
            lon7: p.lon7,
            tags: self.road_tag(),
        });
        self.record(&node);
        node
    }

    fn create_way(&mut self, country: CountryId, date: Date, cs: ChangesetId, user: UserId) -> Element {
        // Reference 2-5 existing nodes; create them if the country is bare.
        let want = 2 + self.rng.below(4) as usize;
        let mut nodes = Vec::with_capacity(want);
        for _ in 0..want {
            match self.pick_live(country, ElementType::Node) {
                Some(id) => nodes.push(id),
                None => nodes.push(self.create_node(country, date, cs, user).id()),
            }
        }
        let way = Element::Way(Way {
            id: self.alloc_id(ElementType::Way),
            info: VersionInfo::first(date, cs, user),
            nodes,
            tags: self.road_tag(),
        });
        self.record(&way);
        way
    }

    fn create_relation(&mut self, country: CountryId, date: Date, cs: ChangesetId, user: UserId) -> Element {
        let want = 1 + self.rng.below(3) as usize;
        let mut members = Vec::with_capacity(want);
        for _ in 0..want {
            let id = match self.pick_live(country, ElementType::Way) {
                Some(id) => id,
                None => self.create_way(country, date, cs, user).id(),
            };
            members.push(MemberRef { element_type: ElementType::Way, id, role: "part".into() });
        }
        let rel = Element::Relation(Relation {
            id: self.alloc_id(ElementType::Relation),
            info: VersionInfo::first(date, cs, user),
            members,
            tags: self.road_tag(),
        });
        self.record(&rel);
        rel
    }

    fn next_version_of(mut e: Element, date: Date, cs: ChangesetId, user: UserId) -> Element {
        let info = e.info_mut();
        info.version = info.version.next();
        info.date = date;
        info.changeset = cs;
        info.user = user;
        e
    }

    fn modify_geometry(&mut self, country: CountryId, current: Element, date: Date, cs: ChangesetId, user: UserId) -> Element {
        let mut e = Self::next_version_of(current, date, cs, user);
        match &mut e {
            Element::Node(n) => {
                n.lat7 += self.rng.range_i32(-5_000, 5_000);
                n.lon7 += self.rng.range_i32(-5_000, 5_000);
            }
            Element::Way(w) => {
                // Append another node reference (or drop one when long).
                if w.nodes.len() > 3 && self.rng.chance(0.4) {
                    w.nodes.pop();
                } else {
                    let extra = match self.pick_live(country, ElementType::Node) {
                        Some(id) => id,
                        None => self.create_node(country, date, cs, user).id(),
                    };
                    w.nodes.push(extra);
                }
            }
            Element::Relation(r) => {
                if r.members.len() > 1 && self.rng.chance(0.4) {
                    r.members.pop();
                } else if let Some(id) = self.pick_live(country, ElementType::Way) {
                    r.members.push(MemberRef {
                        element_type: ElementType::Way,
                        id,
                        role: "part".into(),
                    });
                }
            }
        }
        self.record(&e);
        e
    }

    fn modify_metadata(&mut self, current: Element, date: Date, cs: ChangesetId, user: UserId) -> Element {
        let mut e = Self::next_version_of(current, date, cs, user);
        let (id, v) = (e.id().raw(), e.info().version.raw());
        e.tags_mut().set("name", format!("Street {id} rev {v}"));
        self.record(&e);
        e
    }

    fn delete(&mut self, current: Element, date: Date, cs: ChangesetId, user: UserId) -> Element {
        let mut e = Self::next_version_of(current, date, cs, user);
        e.info_mut().visible = false;
        self.record(&e);
        e
    }

    // -- the daily step ----------------------------------------------------

    /// Simulate one day of worldwide editing.
    pub(crate) fn step_day(&mut self, date: Date) -> DayOutput {
        let mut out = DayOutput { changes: Vec::new(), changesets: Vec::new(), truth: Vec::new() };
        let mut remaining = self.rng.poisson(self.config.daily_edits_mean);
        while remaining > 0 {
            let session = (1 + self.rng.poisson(self.config.session_edits_mean)).min(remaining);
            remaining -= session;
            self.run_session(date, session as usize, &mut out);
        }
        out
    }

    fn run_session(&mut self, date: Date, session: usize, out: &mut DayOutput) {
        let country = self.atlas.sample_country(&mut self.rng);
        let user = UserId(1 + self.rng.below(self.config.n_users));
        let cs = self.alloc_changeset();
        let mut bbox: Option<BBox> = None;
        // (element, action, exact update type) per edit in this session.
        let mut edits: Vec<(Element, DiffAction, UpdateType)> = Vec::new();

        for _ in 0..session {
            let roll = self.rng.f64();
            // Copy the mix probabilities out so `self` stays free to borrow
            // mutably inside the arms.
            let (p_create, p_delete, p_geometry, p_way, p_node) = (
                self.config.p_create,
                self.config.p_delete,
                self.config.p_geometry,
                self.config.p_way,
                self.config.p_node,
            );
            let (e, action, utype) = if roll < p_create {
                let etype_roll = self.rng.f64();
                let e = if etype_roll < p_way {
                    self.create_way(country, date, cs, user)
                } else if etype_roll < p_way + p_node {
                    self.create_node(country, date, cs, user)
                } else {
                    self.create_relation(country, date, cs, user)
                };
                (e, DiffAction::Create, UpdateType::Create)
            } else {
                // Pick a live element of a random type; fall back to create.
                let etype = *self.rng.pick(&ElementType::ALL);
                let live = self.pick_live(country, etype).and_then(|id| self.current(etype, id)).cloned();
                match live {
                    None => {
                        let e = self.create_node(country, date, cs, user);
                        (e, DiffAction::Create, UpdateType::Create)
                    }
                    Some(current) => {
                        if roll < p_create + p_delete {
                            (self.delete(current, date, cs, user), DiffAction::Delete, UpdateType::Delete)
                        } else if roll < p_create + p_delete + p_geometry {
                            (
                                self.modify_geometry(country, current, date, cs, user),
                                DiffAction::Modify,
                                UpdateType::Geometry,
                            )
                        } else {
                            (
                                self.modify_metadata(current, date, cs, user),
                                DiffAction::Modify,
                                UpdateType::Metadata,
                            )
                        }
                    }
                }
            };
            let p = self.representative_point(&e);
            bbox = Some(match bbox {
                Some(b) => {
                    let mut b = b;
                    b.expand_to(p);
                    b
                }
                None => BBox::of_point(p),
            });
            edits.push((e, action, utype));
        }

        let bbox = bbox.unwrap_or(BBox::of_point(Point::new(0, 0)));
        let center = bbox.center();
        out.changesets.push(ChangesetMeta {
            id: cs,
            user,
            created: date,
            closed: date,
            bbox7: Some((bbox.min_lat7, bbox.min_lon7, bbox.max_lat7, bbox.max_lon7)),
            num_changes: edits.len() as u32,
            comment: format!("session by user {user} in country {country}"),
        });

        for (e, action, utype) in edits {
            // Ground truth follows the crawler convention (§V): nodes carry
            // their own coordinates; ways/relations get the changeset bbox
            // center. Country comes from that point.
            let p = match &e {
                Element::Node(n) => Point::new(n.lat7, n.lon7),
                _ => center,
            };
            let rec_country = self.atlas.locate7(p.lat7, p.lon7).unwrap_or(country);
            if let Some(road_type) =
                e.tags().highway().and_then(|h| self.road_table.by_value(h))
            {
                out.truth.push(UpdateRecord {
                    element_type: e.element_type(),
                    update_type: utype,
                    country: rec_country,
                    road_type,
                    date,
                    lat7: p.lat7,
                    lon7: p.lon7,
                    changeset: cs,
                });
            }
            out.changes.push((action, e));
        }
    }

    /// All versions, up to the end of `(year, month)`, of every element that
    /// changed during that month — the monthly full-history dump the
    /// monthly crawler consumes (it needs the before-image of each change,
    /// which may predate the month). Sorted by (type, id, version).
    pub(crate) fn history_for_month(&self, year: i32, month: u32) -> Vec<Element> {
        let period = rased_temporal::Period::Month(year, month);
        let mut out: Vec<Element> = Vec::new();
        for h in self.history.values() {
            let changed_in_month = h.versions.iter().any(|v| period.contains(v.info().date));
            if !changed_in_month {
                continue;
            }
            for v in &h.versions {
                if v.info().date <= period.end() {
                    out.push(v.clone());
                }
            }
        }
        out.sort_by_key(|e| (e.element_type().index(), e.id().raw(), e.info().version.raw()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;
    use rased_osm_model::Version;

    fn atlas() -> WorldAtlas {
        WorldAtlas::generate(&WorldConfig { n_countries: 6, activity_skew: 1.0, seed: 4 })
    }

    fn d(s: &str) -> Date {
        s.parse().unwrap()
    }

    fn sim_config() -> SimConfig {
        SimConfig { seed: 77, daily_edits_mean: 60.0, n_road_types: 10, ..SimConfig::default() }
    }

    #[test]
    fn day_output_is_consistent() {
        let atlas = atlas();
        let mut sim = EditSimulator::new(&atlas, sim_config());
        sim.seed_world(20, d("2020-12-31"));
        let out = sim.step_day(d("2021-01-01"));
        assert!(!out.changes.is_empty());
        assert!(!out.changesets.is_empty());
        // Every truth record's changeset exists in the changeset list.
        let cs_ids: std::collections::HashSet<_> = out.changesets.iter().map(|c| c.id).collect();
        for r in &out.truth {
            assert!(cs_ids.contains(&r.changeset));
            assert_eq!(r.date, d("2021-01-01"));
        }
        // num_changes adds up to the diff length.
        let total: u32 = out.changesets.iter().map(|c| c.num_changes).sum();
        assert_eq!(total as usize, out.changes.len());
    }

    #[test]
    fn truth_matches_diff_one_to_one_for_road_elements() {
        let atlas = atlas();
        let mut sim = EditSimulator::new(&atlas, sim_config());
        sim.seed_world(20, d("2020-12-31"));
        let out = sim.step_day(d("2021-01-01"));
        // Every generated element carries a highway tag, so the counts match.
        assert_eq!(out.truth.len(), out.changes.len());
    }

    #[test]
    fn versions_increase_monotonically() {
        let atlas = atlas();
        let mut sim = EditSimulator::new(&atlas, sim_config());
        sim.seed_world(10, d("2020-12-31"));
        for i in 0..10 {
            sim.step_day(d("2021-01-01").add_days(i));
        }
        for h in sim.history.values() {
            for (i, v) in h.versions.iter().enumerate() {
                assert_eq!(v.info().version, Version((i + 1) as u32));
            }
            for w in h.versions.windows(2) {
                assert!(w[0].info().date <= w[1].info().date);
            }
        }
    }

    #[test]
    fn deletes_leave_tombstones_and_stop_edits() {
        let atlas = atlas();
        let mut sim = EditSimulator::new(
            &atlas,
            SimConfig { p_delete: 0.5, p_create: 0.2, seed: 5, daily_edits_mean: 80.0, ..sim_config() },
        );
        sim.seed_world(10, d("2020-12-31"));
        for i in 0..20 {
            sim.step_day(d("2021-01-01").add_days(i));
        }
        let mut tombstones = 0;
        for h in sim.history.values() {
            let mut dead = false;
            for v in &h.versions {
                assert!(!dead, "edit after delete for element {:?}", v.id());
                if !v.info().visible {
                    dead = true;
                    tombstones += 1;
                }
            }
        }
        assert!(tombstones > 0, "a 50% delete mix must delete something");
    }

    #[test]
    fn history_for_month_includes_before_images() {
        let atlas = atlas();
        let mut sim = EditSimulator::new(&atlas, sim_config());
        sim.seed_world(15, d("2020-12-31"));
        sim.step_day(d("2021-01-05"));
        sim.step_day(d("2021-02-03"));
        let feb = sim.history_for_month(2021, 2);
        assert!(!feb.is_empty());
        // Any v>1 version dated in Feb must be preceded by its v-1.
        let by_key: HashMap<(ElementType, ElementId, u32), &Element> =
            feb.iter().map(|e| ((e.element_type(), e.id(), e.info().version.raw()), e)).collect();
        let period = rased_temporal::Period::Month(2021, 2);
        for e in &feb {
            let v = e.info().version.raw();
            if v > 1 && period.contains(e.info().date) {
                assert!(
                    by_key.contains_key(&(e.element_type(), e.id(), v - 1)),
                    "missing before-image for {:?} v{}",
                    e.id(),
                    v
                );
            }
        }
        // And nothing dated after the month's end.
        for e in &feb {
            assert!(e.info().date <= d("2021-02-28"));
        }
    }

    #[test]
    fn simulation_is_deterministic() {
        let atlas = atlas();
        let run = || {
            let mut sim = EditSimulator::new(&atlas, sim_config());
            sim.seed_world(10, d("2020-12-31"));
            let out = sim.step_day(d("2021-01-01"));
            (out.changes.len(), out.truth.clone())
        };
        let (n1, t1) = run();
        let (n2, t2) = run();
        assert_eq!(n1, n2);
        assert_eq!(t1, t2);
    }

    #[test]
    fn activity_skew_shows_in_truth_records() {
        let atlas = atlas();
        let mut sim = EditSimulator::new(
            &atlas,
            SimConfig { daily_edits_mean: 400.0, ..sim_config() },
        );
        sim.seed_world(20, d("2020-12-31"));
        let mut counts = vec![0u32; 6];
        for i in 0..5 {
            for r in sim.step_day(d("2021-01-01").add_days(i)).truth {
                counts[r.country.index()] += 1;
            }
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max > min * 2, "skew expected: {counts:?}");
    }
}
