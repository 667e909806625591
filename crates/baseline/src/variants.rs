//! [`RasedVariant`]: the ablation configurations of Fig. 9.

use rased_index::CacheConfig;

/// Which RASED configuration to run (Fig. 9's three curves).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RasedVariant {
    /// One-level flat index of daily cubes; no caching, no level
    /// optimization (the plan is forced to daily cubes anyway).
    Flat,
    /// Full hierarchy + level optimizer, but no cube cache.
    Optimized,
    /// The complete system: hierarchy + level optimizer + cache.
    Full,
}

impl RasedVariant {
    /// All variants in Fig. 9 order.
    pub const ALL: [RasedVariant; 3] = [RasedVariant::Flat, RasedVariant::Optimized, RasedVariant::Full];

    /// Index levels for this variant.
    pub fn levels(self) -> u8 {
        match self {
            RasedVariant::Flat => 1,
            RasedVariant::Optimized | RasedVariant::Full => 4,
        }
    }

    /// Cache configuration for this variant; `slots` applies to `Full` only.
    pub fn cache(self, slots: usize) -> CacheConfig {
        match self {
            RasedVariant::Flat | RasedVariant::Optimized => CacheConfig::disabled(),
            RasedVariant::Full => CacheConfig { slots },
        }
    }

    /// The label the paper uses.
    pub fn label(self) -> &'static str {
        match self {
            RasedVariant::Flat => "RASED-F",
            RasedVariant::Optimized => "RASED-O",
            RasedVariant::Full => "RASED",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_configurations() {
        assert_eq!(RasedVariant::Flat.levels(), 1);
        assert_eq!(RasedVariant::Optimized.levels(), 4);
        assert_eq!(RasedVariant::Full.levels(), 4);
        assert_eq!(RasedVariant::Flat.cache(100).slots, 0);
        assert_eq!(RasedVariant::Optimized.cache(100).slots, 0);
        assert_eq!(RasedVariant::Full.cache(100).slots, 100);
        assert_eq!(RasedVariant::Full.label(), "RASED");
    }
}
