//! The [`Date`] type: a civil date as a day count since the Unix epoch.

use std::fmt;
use std::str::FromStr;

/// Error produced when constructing or parsing a [`Date`] from invalid input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DateError {
    /// Year outside the supported 1600..=9999 window.
    YearOutOfRange(i32),
    /// Month not in 1..=12.
    BadMonth(u32),
    /// Day not valid for the given year/month.
    BadDay { year: i32, month: u32, day: u32 },
    /// String did not match `YYYY-MM-DD`.
    BadFormat(String),
}

impl fmt::Display for DateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DateError::YearOutOfRange(y) => write!(f, "year {y} outside supported range 1600..=9999"),
            DateError::BadMonth(m) => write!(f, "month {m} not in 1..=12"),
            DateError::BadDay { year, month, day } => {
                write!(f, "day {day} invalid for {year:04}-{month:02}")
            }
            DateError::BadFormat(s) => write!(f, "`{s}` is not a YYYY-MM-DD date"),
        }
    }
}

impl std::error::Error for DateError {}

/// Day of week. Weeks in RASED start on Sunday (see crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Weekday {
    Sunday = 0,
    Monday = 1,
    Tuesday = 2,
    Wednesday = 3,
    Thursday = 4,
    Friday = 5,
    Saturday = 6,
}

impl Weekday {
    /// Index with Sunday = 0 .. Saturday = 6.
    #[inline]
    pub fn index0(self) -> u32 {
        self as u32
    }
}

/// A civil (proleptic Gregorian) date, stored as days since 1970-01-01.
///
/// `Date` is a 4-byte `Copy` value; ordering and equality follow the
/// timeline. Arithmetic (`succ`, `pred`, `add_days`) saturates at the
/// supported range bounds rather than wrapping.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    days: i32, // days since 1970-01-01
}

/// First supported day: 1600-01-01.
const MIN_DAYS: i32 = -135_140;
/// Last supported day: 9999-12-31.
const MAX_DAYS: i32 = 2_932_896;

impl Date {
    /// Smallest representable date (1600-01-01).
    pub const MIN: Date = Date { days: MIN_DAYS };
    /// Largest representable date (9999-12-31).
    pub const MAX: Date = Date { days: MAX_DAYS };

    /// Construct from a civil year/month/day triple.
    pub fn new(year: i32, month: u32, day: u32) -> Result<Date, DateError> {
        if !(1600..=9999).contains(&year) {
            return Err(DateError::YearOutOfRange(year));
        }
        if !(1..=12).contains(&month) {
            return Err(DateError::BadMonth(month));
        }
        if day == 0 || day > days_in_month(year, month) {
            return Err(DateError::BadDay { year, month, day });
        }
        Ok(Date { days: days_from_civil(year, month, day) })
    }

    /// Construct from a raw day count since 1970-01-01.
    ///
    /// Counts outside the supported window are clamped to [`Date::MIN`] /
    /// [`Date::MAX`].
    #[inline]
    pub fn from_days(days: i32) -> Date {
        Date { days: days.clamp(MIN_DAYS, MAX_DAYS) }
    }

    /// Days since 1970-01-01 (negative before the epoch).
    #[inline]
    pub fn days(self) -> i32 {
        self.days
    }

    /// The `(year, month, day)` civil triple.
    #[inline]
    pub fn civil(self) -> (i32, u32, u32) {
        civil_from_days(self.days)
    }

    /// Civil year.
    #[inline]
    pub fn year(self) -> i32 {
        self.civil().0
    }

    /// Civil month, 1..=12.
    #[inline]
    pub fn month(self) -> u32 {
        self.civil().1
    }

    /// Day of month, 1..=31.
    #[inline]
    pub fn day(self) -> u32 {
        self.civil().2
    }

    /// Day of week. 1970-01-01 was a Thursday.
    #[inline]
    pub fn weekday(self) -> Weekday {
        // days ≡ 0 (mod 7) ⇒ Thursday; shift so Sunday = 0.
        let idx = (self.days + 4).rem_euclid(7) as u8;
        match idx {
            0 => Weekday::Sunday,
            1 => Weekday::Monday,
            2 => Weekday::Tuesday,
            3 => Weekday::Wednesday,
            4 => Weekday::Thursday,
            5 => Weekday::Friday,
            _ => Weekday::Saturday,
        }
    }

    /// Next day (saturating at [`Date::MAX`]).
    #[inline]
    pub fn succ(self) -> Date {
        Date::from_days(self.days.saturating_add(1))
    }

    /// Previous day (saturating at [`Date::MIN`]).
    #[inline]
    pub fn pred(self) -> Date {
        Date::from_days(self.days.saturating_sub(1))
    }

    /// Add (or subtract, for negative `n`) a number of days, saturating.
    #[inline]
    pub fn add_days(self, n: i32) -> Date {
        Date::from_days(self.days.saturating_add(n))
    }

    /// Signed distance in days: `self - other`.
    #[inline]
    pub fn days_since(self, other: Date) -> i32 {
        self.days - other.days
    }

    /// The Sunday on or before this date (start of this date's week).
    #[inline]
    pub fn week_start(self) -> Date {
        Date::from_days(self.days - self.weekday().index0() as i32)
    }

    /// The last day of this date's month.
    #[inline]
    pub fn month_end(self) -> Date {
        let (y, m, _) = self.civil();
        Date { days: days_from_civil(y, m, days_in_month(y, m)) }
    }

    /// December 31 of this date's year.
    #[inline]
    pub fn year_end(self) -> Date {
        Date { days: days_from_civil(self.year(), 12, 31) }
    }

    /// True when this date is the first day of its (Sunday-based) week.
    #[inline]
    pub fn is_week_start(self) -> bool {
        self.weekday() == Weekday::Sunday
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.civil();
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

// Dates read better as `2021-06-01` than as `Date { days: 18779 }` in
// assertion output, so Debug forwards to Display.
impl fmt::Debug for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl FromStr for Date {
    type Err = DateError;

    /// Parse `YYYY-MM-DD`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || DateError::BadFormat(s.to_string());
        let mut parts = s.split('-');
        let y: i32 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let m: u32 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let d: u32 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        if parts.next().is_some() {
            return Err(bad());
        }
        Date::new(y, m, d)
    }
}

/// True for Gregorian leap years.
#[inline]
pub(crate) fn is_leap(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

/// Number of days in a civil month.
#[inline]
pub(crate) fn days_in_month(year: i32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap(year) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

// Howard Hinnant's `days_from_civil` / `civil_from_days` algorithms
// (http://howardhinnant.github.io/date_algorithms.html), exact over the
// whole proleptic Gregorian calendar.

fn days_from_civil(y: i32, m: u32, d: u32) -> i32 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as u32; // [0, 399]
    let mp = (m + 9) % 12; // March = 0
    let doy = (153 * mp + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe as i32 - 719_468
}

fn civil_from_days(z: i32) -> (i32, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u32; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe as i32 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = doy - (153 * mp + 2) / 5 + 1; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 }; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Date {
        /// January 1 of this date's year.
        #[inline]
        fn year_start(self) -> Date {
            Date { days: days_from_civil(self.year(), 1, 1) }
        }
    }

    impl Date {
        /// The first day of this date's month.
        #[inline]
        fn month_start(self) -> Date {
            let (y, m, _) = self.civil();
            Date { days: days_from_civil(y, m, 1) }
        }
    }

    #[test]
    fn epoch_is_thursday() {
        let d = Date::new(1970, 1, 1).unwrap();
        assert_eq!(d.days(), 0);
        assert_eq!(d.weekday(), Weekday::Thursday);
    }

    #[test]
    fn civil_roundtrip_known_dates() {
        for (y, m, d) in [
            (1970, 1, 1),
            (2004, 8, 9),  // OSM launch era
            (2000, 2, 29), // leap century
            (1900, 3, 1),
            (2022, 1, 2),
            (2021, 12, 31),
            (1600, 1, 1),
            (9999, 12, 31),
        ] {
            let date = Date::new(y, m, d).unwrap();
            assert_eq!(date.civil(), (y, m, d), "roundtrip {y}-{m}-{d}");
        }
    }

    #[test]
    fn paper_example_weeks_are_sundays() {
        // §VII-B: "six weekly cubes (weeks of Jan 2, 9, 16, 23, 30, and Feb 6)" in 2022.
        for (m, d) in [(1, 2), (1, 9), (1, 16), (1, 23), (1, 30), (2, 6)] {
            let date = Date::new(2022, m, d).unwrap();
            assert_eq!(date.weekday(), Weekday::Sunday, "2022-{m:02}-{d:02}");
            assert!(date.is_week_start());
        }
    }

    #[test]
    fn week_start_rolls_back_to_sunday() {
        let sat = Date::new(2022, 1, 8).unwrap();
        assert_eq!(sat.week_start(), Date::new(2022, 1, 2).unwrap());
        let sun = Date::new(2022, 1, 2).unwrap();
        assert_eq!(sun.week_start(), sun);
    }

    #[test]
    fn month_and_year_bounds() {
        let d = Date::new(2020, 2, 15).unwrap();
        assert_eq!(d.month_start(), Date::new(2020, 2, 1).unwrap());
        assert_eq!(d.month_end(), Date::new(2020, 2, 29).unwrap()); // leap
        assert_eq!(d.year_start(), Date::new(2020, 1, 1).unwrap());
        assert_eq!(d.year_end(), Date::new(2020, 12, 31).unwrap());
    }

    #[test]
    fn leap_year_rules() {
        assert!(is_leap(2000));
        assert!(!is_leap(1900));
        assert!(is_leap(2020));
        assert!(!is_leap(2021));
        assert_eq!(days_in_month(2021, 2), 28);
        assert_eq!(days_in_month(2024, 2), 29);
    }

    #[test]
    fn arithmetic_saturates() {
        assert_eq!(Date::MAX.succ(), Date::MAX);
        assert_eq!(Date::MIN.pred(), Date::MIN);
        assert_eq!(Date::MAX.add_days(1000), Date::MAX);
    }

    #[test]
    fn parse_and_display() {
        let d: Date = "2021-06-07".parse().unwrap();
        assert_eq!(d, Date::new(2021, 6, 7).unwrap());
        assert_eq!(d.to_string(), "2021-06-07");
        assert!("2021-13-01".parse::<Date>().is_err());
        assert!("2021-02-30".parse::<Date>().is_err());
        assert!("20210207".parse::<Date>().is_err());
        assert!("2021-02-07-1".parse::<Date>().is_err());
        assert!("".parse::<Date>().is_err());
    }

    #[test]
    fn ordering_follows_timeline() {
        let a = Date::new(2020, 12, 31).unwrap();
        let b = Date::new(2021, 1, 1).unwrap();
        assert!(a < b);
        assert_eq!(b.days_since(a), 1);
        assert_eq!(a.days_since(b), -1);
    }

    #[test]
    fn year_out_of_range_rejected() {
        assert!(matches!(Date::new(1599, 12, 31), Err(DateError::YearOutOfRange(_))));
        assert!(matches!(Date::new(10_000, 1, 1), Err(DateError::YearOutOfRange(_))));
    }
}
