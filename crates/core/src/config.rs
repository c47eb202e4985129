//! Engine configuration.

use crate::limits::ExtractLimits;
use crate::strategy::Strategy;
use aeetes_rules::DeriveConfig;
use aeetes_sim::Metric;

/// Configuration for [`crate::Aeetes`].
#[derive(Debug, Clone)]
pub struct AeetesConfig {
    /// Derived-dictionary generation options (rule-combination cap).
    pub derive: DeriveConfig,
    /// Filtering strategy used by [`crate::Aeetes::extract`].
    /// Defaults to [`Strategy::Dynamic`], the variant measured fastest on this
    /// implementation (EXPERIMENTS.md, Fig. 10); the paper's Fig. 10 ranks
    /// Lazy first. A frozen artifact keeps the strategy it was built with.
    pub strategy: Strategy,
    /// Token-set similarity metric (paper §2.2 extension; default Jaccard,
    /// giving exactly the paper's JaccAR semantics).
    pub metric: Metric,
    /// Resource budgets applied to every extraction call. Defaults to
    /// [`ExtractLimits::UNLIMITED`], which leaves results bit-for-bit
    /// identical to the unbudgeted engine.
    pub limits: ExtractLimits,
}

impl Default for AeetesConfig {
    fn default() -> Self {
        Self {
            derive: DeriveConfig::default(),
            strategy: Strategy::Dynamic,
            metric: Metric::Jaccard,
            limits: ExtractLimits::UNLIMITED,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_strategy_is_dynamic() {
        assert_eq!(AeetesConfig::default().strategy, Strategy::Dynamic);
        assert_eq!(AeetesConfig::default().metric, Metric::Jaccard);
        assert!(AeetesConfig::default().limits.is_unlimited());
    }
}
