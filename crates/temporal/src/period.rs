//! Index-node time coverage: [`Granularity`] and [`Period`].
//!
//! Every node of RASED's hierarchical temporal index covers exactly one
//! period — a single day, a Sunday-aligned week, a calendar month, or a
//! calendar year. The level optimizer reasons about periods when choosing
//! which cubes to fetch for a query window.

use crate::date::{days_in_month, is_leap, Date};
use crate::range::DateRange;
use std::fmt;

/// The four levels of the hierarchical temporal index (§VI-A), ordered from
/// finest to coarsest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Granularity {
    Day = 0,
    Week = 1,
    Month = 2,
    Year = 3,
}

impl Granularity {
    /// All granularities, finest first.
    pub const ALL: [Granularity; 4] = [
        Granularity::Day,
        Granularity::Week,
        Granularity::Month,
        Granularity::Year,
    ];

    /// Level number used by index configuration: 1 = daily only, 4 = all.
    #[inline]
    pub fn level(self) -> u8 {
        self as u8 + 1
    }
}

impl fmt::Display for Granularity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Granularity::Day => "day",
            Granularity::Week => "week",
            Granularity::Month => "month",
            Granularity::Year => "year",
        };
        f.write_str(s)
    }
}

/// A concrete, aligned time period covered by one index node.
///
/// Invariants (enforced by the constructors):
/// * `Week` starts on a Sunday,
/// * `Month` has `1 <= month <= 12`,
/// * `Year` is within [`Date`]'s supported years.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Period {
    /// A single day.
    Day(Date),
    /// The Sunday-aligned week starting at the wrapped date.
    Week(Date),
    /// A calendar month `(year, month)`.
    Month(i32, u32),
    /// A calendar year.
    Year(i32),
}

impl Period {
    /// The day period containing `d`.
    #[inline]
    pub fn day_of(d: Date) -> Period {
        Period::Day(d)
    }

    /// The week period containing `d` (normalizes to the preceding Sunday).
    #[inline]
    pub fn week_of(d: Date) -> Period {
        Period::Week(d.week_start())
    }

    /// The month period containing `d`.
    #[inline]
    pub fn month_of(d: Date) -> Period {
        Period::Month(d.year(), d.month())
    }

    /// The year period containing `d`.
    #[inline]
    pub fn year_of(d: Date) -> Period {
        Period::Year(d.year())
    }

    /// The period of granularity `g` containing `d`.
    pub fn containing(g: Granularity, d: Date) -> Period {
        match g {
            Granularity::Day => Period::day_of(d),
            Granularity::Week => Period::week_of(d),
            Granularity::Month => Period::month_of(d),
            Granularity::Year => Period::year_of(d),
        }
    }

    /// This period's granularity.
    #[inline]
    pub fn granularity(self) -> Granularity {
        match self {
            Period::Day(_) => Granularity::Day,
            Period::Week(_) => Granularity::Week,
            Period::Month(..) => Granularity::Month,
            Period::Year(_) => Granularity::Year,
        }
    }

    /// First day covered.
    pub fn start(self) -> Date {
        match self {
            Period::Day(d) => d,
            Period::Week(d) => d,
            #[expect(clippy::expect_used, reason = "Period::Month is only built by containing()/succ(), which keep m in 1..=12")]
            Period::Month(y, m) => Date::new(y, m, 1).expect("valid month period"),
            #[expect(clippy::expect_used, reason = "Jan 1 is valid for every year")]
            Period::Year(y) => Date::new(y, 1, 1).expect("valid year period"),
        }
    }

    /// Last day covered (inclusive).
    pub fn end(self) -> Date {
        match self {
            Period::Day(d) => d,
            Period::Week(d) => d.add_days(6),
            #[expect(clippy::expect_used, reason = "days_in_month(y, m) is a valid day of month m by definition")]
            Period::Month(y, m) => Date::new(y, m, days_in_month(y, m)).expect("valid month period"),
            #[expect(clippy::expect_used, reason = "Dec 31 is valid for every year")]
            Period::Year(y) => Date::new(y, 12, 31).expect("valid year period"),
        }
    }

    /// Number of days covered.
    pub fn len_days(self) -> u32 {
        match self {
            Period::Day(_) => 1,
            Period::Week(_) => 7,
            Period::Month(y, m) => days_in_month(y, m),
            Period::Year(y) => {
                if is_leap(y) {
                    366
                } else {
                    365
                }
            }
        }
    }

    /// The covered days as an inclusive [`DateRange`].
    #[inline]
    pub fn range(self) -> DateRange {
        DateRange::new(self.start(), self.end())
    }

    /// True when `d` falls inside this period.
    #[inline]
    pub fn contains(self, d: Date) -> bool {
        self.start() <= d && d <= self.end()
    }

    /// True when this period lies entirely within `r`.
    #[inline]
    pub fn within(self, r: DateRange) -> bool {
        r.start() <= self.start() && self.end() <= r.end()
    }

    /// Next period of the same granularity.
    pub fn succ(self) -> Period {
        match self {
            Period::Day(d) => Period::Day(d.succ()),
            Period::Week(d) => Period::Week(d.add_days(7)),
            Period::Month(y, m) => {
                if m == 12 {
                    Period::Month(y + 1, 1)
                } else {
                    Period::Month(y, m + 1)
                }
            }
            Period::Year(y) => Period::Year(y + 1),
        }
    }

    /// Previous period of the same granularity.
    pub fn pred(self) -> Period {
        match self {
            Period::Day(d) => Period::Day(d.pred()),
            Period::Week(d) => Period::Week(d.add_days(-7)),
            Period::Month(y, m) => {
                if m == 1 {
                    Period::Month(y - 1, 12)
                } else {
                    Period::Month(y, m - 1)
                }
            }
            Period::Year(y) => Period::Year(y - 1),
        }
    }

    /// The child periods whose disjoint union is exactly this period,
    /// following the paper's roll-up structure: a year is twelve months; a
    /// month is its fully-contained weeks plus the leftover days at either
    /// end; a week is seven days; a day has no children.
    ///
    /// This is the set of cubes the index maintenance reads when building a
    /// parent cube at a period boundary (§VI-A, "reading the six previous
    /// cubes and summing up").
    pub fn children(self) -> Vec<Period> {
        match self {
            Period::Day(_) => Vec::new(),
            Period::Week(d) => (0..7).map(|i| Period::Day(d.add_days(i))).collect(),
            Period::Month(..) | Period::Year(..) => {
                if let Period::Year(y) = self {
                    return (1..=12).map(|m| Period::Month(y, m)).collect();
                }
                // Month: maximal Sunday-aligned weeks inside, days elsewhere.
                let mut out = Vec::new();
                let mut d = self.start();
                let end = self.end();
                while d <= end {
                    if d.is_week_start() && d.add_days(6) <= end {
                        out.push(Period::Week(d));
                        d = d.add_days(7);
                    } else {
                        out.push(Period::Day(d));
                        d = d.succ();
                    }
                }
                out
            }
        }
    }

    /// The parent period one level coarser that contains this one, if any.
    ///
    /// Weeks that straddle a month boundary have no parent month — they are
    /// not part of any month's `children()` — so this returns `None` for
    /// them; the roll-up simply skips straddling weeks (their days are
    /// covered by the month through the day children instead).
    pub fn parent(self) -> Option<Period> {
        match self {
            Period::Day(d) => Some(Period::week_of(d)),
            Period::Week(d) => {
                let m = Period::month_of(d);
                if m.contains(d.add_days(6)) {
                    Some(m)
                } else {
                    None
                }
            }
            Period::Month(y, _) => Some(Period::Year(y)),
            Period::Year(_) => None,
        }
    }
}

impl fmt::Display for Period {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Period::Day(d) => write!(f, "D{d}"),
            Period::Week(d) => write!(f, "W{d}"),
            Period::Month(y, m) => write!(f, "M{y:04}-{m:02}"),
            Period::Year(y) => write!(f, "Y{y:04}"),
        }
    }
}

impl fmt::Debug for Period {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Date {
        s.parse().unwrap()
    }

    #[test]
    fn containing_periods() {
        let x = d("2022-01-15"); // a Saturday
        assert_eq!(Period::day_of(x).range(), DateRange::new(x, x));
        assert_eq!(Period::week_of(x).start(), d("2022-01-09"));
        assert_eq!(Period::month_of(x), Period::Month(2022, 1));
        assert_eq!(Period::year_of(x), Period::Year(2022));
    }

    #[test]
    fn period_extents() {
        assert_eq!(Period::Month(2020, 2).len_days(), 29);
        assert_eq!(Period::Month(2021, 2).len_days(), 28);
        assert_eq!(Period::Year(2020).len_days(), 366);
        assert_eq!(Period::Year(2021).len_days(), 365);
        assert_eq!(Period::Week(d("2022-01-02")).end(), d("2022-01-08"));
    }

    #[test]
    fn succ_pred_are_inverse() {
        let periods = [
            Period::Day(d("2021-12-31")),
            Period::Week(d("2021-12-26")),
            Period::Month(2021, 12),
            Period::Year(2021),
        ];
        for p in periods {
            assert_eq!(p.succ().pred(), p, "{p}");
            // succ must start right after this period's end.
            assert_eq!(p.succ().start(), p.end().succ(), "{p}");
        }
    }

    #[test]
    fn week_children_are_seven_days() {
        let w = Period::Week(d("2022-01-02"));
        let kids = w.children();
        assert_eq!(kids.len(), 7);
        assert_eq!(kids[0], Period::Day(d("2022-01-02")));
        assert_eq!(kids[6], Period::Day(d("2022-01-08")));
    }

    #[test]
    fn month_children_partition_month() {
        // January 2022: Jan 1 is a Saturday (lone day), then weeks of
        // Jan 2..Jan 29, then Jan 30+31 are in a week that straddles into
        // February so they appear as days.
        let m = Period::Month(2022, 1);
        let kids = m.children();
        // Verify: exact partition of the month.
        let mut covered = Vec::new();
        for k in &kids {
            for day in k.range().days() {
                covered.push(day);
            }
        }
        let expect: Vec<Date> = m.range().days().collect();
        assert_eq!(covered, expect);
        // And the specific structure: 1 day + 4 weeks + 2 days.
        let weeks = kids.iter().filter(|k| k.granularity() == Granularity::Week).count();
        let days = kids.iter().filter(|k| k.granularity() == Granularity::Day).count();
        assert_eq!((weeks, days), (4, 3));
    }

    #[test]
    fn year_children_are_twelve_months() {
        let kids = Period::Year(2021).children();
        assert_eq!(kids.len(), 12);
        assert_eq!(kids[0], Period::Month(2021, 1));
        assert_eq!(kids[11], Period::Month(2021, 12));
    }

    #[test]
    fn straddling_week_has_no_parent_month() {
        // Week of 2022-01-30 runs into February.
        let w = Period::Week(d("2022-01-30"));
        assert_eq!(w.parent(), None);
        // Fully-contained week does have a parent.
        let w2 = Period::Week(d("2022-01-02"));
        assert_eq!(w2.parent(), Some(Period::Month(2022, 1)));
        // Day → week, month → year.
        assert_eq!(Period::Day(d("2022-01-05")).parent(), Some(Period::Week(d("2022-01-02"))));
        assert_eq!(Period::Month(2022, 3).parent(), Some(Period::Year(2022)));
        assert_eq!(Period::Year(2022).parent(), None);
    }

    #[test]
    fn within_and_contains() {
        let r = DateRange::new(d("2022-01-01"), d("2022-02-15"));
        assert!(Period::Month(2022, 1).within(r));
        assert!(!Period::Month(2022, 2).within(r));
        assert!(Period::Week(d("2022-02-06")).within(r));
        assert!(Period::Month(2022, 1).contains(d("2022-01-31")));
        assert!(!Period::Month(2022, 1).contains(d("2022-02-01")));
    }

    #[test]
    fn granularity_ordering_and_levels() {
        assert!(Granularity::Day < Granularity::Week);
        assert!(Granularity::Month < Granularity::Year);
        assert_eq!(Granularity::Day.level(), 1);
        assert_eq!(Granularity::Year.level(), 4);
    }
}
