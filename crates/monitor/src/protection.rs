//! Protection configurations — the x-axis of Figure 3 and Table 7.

use crate::ContextConfig;
use bastion_defenses::HardeningConfig;

/// A complete defense configuration for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Protection {
    /// Short label as printed in the paper's figures.
    pub label: &'static str,
    /// Baseline hardware/software mitigations.
    pub hardening: HardeningConfig,
    /// BASTION monitor configuration, if attached.
    pub monitor: Option<ContextConfig>,
}

impl Protection {
    /// Unprotected vanilla baseline.
    pub fn vanilla() -> Self {
        Protection {
            label: "Vanilla",
            hardening: HardeningConfig::vanilla(),
            monitor: None,
        }
    }

    /// LLVM CFI alone (coarse forward-edge CFI).
    pub fn llvm_cfi() -> Self {
        Protection {
            label: "LLVM CFI",
            hardening: HardeningConfig::llvm_cfi(),
            monitor: None,
        }
    }

    /// CET alone (hardware shadow stack).
    pub fn cet() -> Self {
        Protection {
            label: "CET",
            hardening: HardeningConfig::cet(),
            monitor: None,
        }
    }

    /// CET + Call-Type context.
    pub fn cet_ct() -> Self {
        Protection {
            label: "CET+CT",
            hardening: HardeningConfig::cet(),
            monitor: Some(ContextConfig::ct()),
        }
    }

    /// CET + Call-Type + Control-Flow contexts.
    pub fn cet_ct_cf() -> Self {
        Protection {
            label: "CET+CT+CF",
            hardening: HardeningConfig::cet(),
            monitor: Some(ContextConfig::ct_cf()),
        }
    }

    /// Full BASTION: CET + all three contexts.
    pub fn full() -> Self {
        Protection {
            label: "CET+CT+CF+AI",
            hardening: HardeningConfig::cet(),
            monitor: Some(ContextConfig::full()),
        }
    }

    /// BASTION without CET (for the §10.1 "older processors" discussion).
    pub fn bastion_no_cet() -> Self {
        Protection {
            label: "BASTION (no CET)",
            hardening: HardeningConfig::vanilla(),
            monitor: Some(ContextConfig::full()),
        }
    }

    /// Table 7 row 1: seccomp hook only.
    pub fn hook_only() -> Self {
        Protection {
            label: "seccomp hook only",
            hardening: HardeningConfig::cet(),
            monitor: Some(ContextConfig::hook_only()),
        }
    }

    /// Table 7 row 2: hook + fetch process state, no verification.
    pub fn fetch_state() -> Self {
        Protection {
            label: "fetch process state",
            hardening: HardeningConfig::cet(),
            monitor: Some(ContextConfig::fetch_state()),
        }
    }

    /// The Figure 3 column set, in paper order.
    pub fn figure3() -> [Protection; 5] {
        [
            Protection::llvm_cfi(),
            Protection::cet(),
            Protection::cet_ct(),
            Protection::cet_ct_cf(),
            Protection::full(),
        ]
    }

    /// The Table 7 row set, in paper order.
    ///
    /// Table 7 decomposes the *ptrace* monitor's trap cost (§11.2: hook →
    /// state fetch → full verification), so its full row runs with the
    /// tier-1 prefilter disabled — the prefilter's stop-free clean path
    /// would hide exactly the state-fetch increment the table measures.
    pub fn table7() -> [Protection; 3] {
        let mut full = Protection::full();
        full.monitor = Some(ContextConfig::full().with_prefilter(false));
        [Protection::hook_only(), Protection::fetch_state(), full]
    }

    /// Extended-scope two-tier companion to Table 7 (§11.2): the same
    /// filesystem-extended sensitive set, full verification, with the
    /// tier-1/tier-2 split **on**. Table 7 itself stays ptrace-only —
    /// this row is the counterpart showing what the prefilter buys once
    /// the sensitive surface grows.
    pub fn extended_two_tier() -> Self {
        Protection {
            label: "extended two-tier",
            hardening: HardeningConfig::cet(),
            monitor: Some(ContextConfig::full()),
        }
    }

    /// Extended-scope tier-2-only baseline: identical verification to
    /// [`Protection::extended_two_tier`] with the prefilter off — the
    /// denominator of the §11.2 two-tier speedup.
    pub fn extended_tier2_only() -> Self {
        Protection {
            label: "extended tier-2 only",
            hardening: HardeningConfig::cet(),
            monitor: Some(ContextConfig::full().with_prefilter(false)),
        }
    }

    /// Whether a BASTION monitor is attached.
    pub fn has_monitor(&self) -> bool {
        self.monitor.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_order_matches_paper() {
        let cols = Protection::figure3();
        assert_eq!(cols[0].label, "LLVM CFI");
        assert_eq!(cols[4].label, "CET+CT+CF+AI");
        assert!(!cols[0].has_monitor());
        assert!(cols[2].has_monitor());
        // All BASTION columns layer on CET, per the paper.
        for c in &cols[2..] {
            assert!(c.hardening.cet);
            assert!(!c.hardening.llvm_cfi);
        }
    }

    #[test]
    fn table7_rows_escalate() {
        let rows = Protection::table7();
        assert!(!rows[0].monitor.unwrap().fetch_state);
        assert!(rows[1].monitor.unwrap().fetch_state);
        assert!(!rows[1].monitor.unwrap().verifies());
        assert!(rows[2].monitor.unwrap().verifies());
        // Table 7 decomposes ptrace costs: its full row must stay
        // prefilter-free even now that an extended two-tier preset exists.
        assert!(!rows[2].monitor.unwrap().prefilter);
    }

    #[test]
    fn extended_scope_pair_differs_only_in_prefilter() {
        let two_tier = Protection::extended_two_tier().monitor.unwrap();
        let t2 = Protection::extended_tier2_only().monitor.unwrap();
        assert!(two_tier.prefilter);
        assert!(!t2.prefilter);
        assert_eq!(
            ContextConfig {
                prefilter: false,
                ..two_tier
            },
            t2
        );
    }
}
