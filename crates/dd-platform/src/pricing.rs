//! Billing: per-second instance pricing across cloud vendors.
//!
//! The paper's AWS price points (Sec. IV): high-end $0.0001667/s, low-end
//! $0.0000833/s, with the keep-alive cost of a hot instance equal to its
//! execution cost per unit time. Fig. 18 ports DayDream to Google Cloud
//! Functions and Azure Functions; here that is a vendor parameter set
//! (price and cold-start multipliers), since the paper's claim is that the
//! *relative* benefits survive vendor differences.

use crate::tier::Tier;

/// A serverless vendor profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CloudVendor {
    /// AWS Lambda + S3 (the paper's primary platform).
    Aws,
    /// Google Cloud Functions + GCS.
    Gcp,
    /// Azure Functions + Blob Storage.
    Azure,
}

impl CloudVendor {
    /// All vendors, Fig. 18 order.
    pub const ALL: [CloudVendor; 3] = [CloudVendor::Aws, CloudVendor::Gcp, CloudVendor::Azure];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CloudVendor::Aws => "AWS",
            CloudVendor::Gcp => "Google Cloud",
            CloudVendor::Azure => "Azure",
        }
    }

    /// Multiplier on instance start-up latencies relative to AWS.
    ///
    /// Published measurements (e.g. Wang et al., ATC'18) put GCF and Azure
    /// cold starts noticeably above Lambda's; the exact factors matter
    /// only in that DayDream's relative benefit must survive them.
    pub fn startup_multiplier(self) -> f64 {
        match self {
            CloudVendor::Aws => 1.0,
            CloudVendor::Gcp => 1.35,
            CloudVendor::Azure => 1.6,
        }
    }

    /// Multiplier on per-second prices relative to AWS.
    pub fn price_multiplier(self) -> f64 {
        match self {
            CloudVendor::Aws => 1.0,
            CloudVendor::Gcp => 1.08,
            CloudVendor::Azure => 0.95,
        }
    }
}

impl std::fmt::Display for CloudVendor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-second prices for the two tiers, plus storage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriceSheet {
    /// Vendor this sheet belongs to.
    pub vendor: CloudVendor,
    /// High-end instance, $/s.
    pub high_end_per_sec: f64,
    /// Low-end instance, $/s.
    pub low_end_per_sec: f64,
    /// Back-end storage, $/s for the run's working set (the paper folds
    /// storage maintenance into service cost, citing Pocket/their IISWC
    /// study on serverless storage).
    pub storage_per_sec: f64,
}

impl PriceSheet {
    /// The paper's AWS price sheet.
    pub fn aws() -> Self {
        Self {
            vendor: CloudVendor::Aws,
            high_end_per_sec: 0.000_166_7,
            low_end_per_sec: 0.000_083_3,
            storage_per_sec: 0.000_01,
        }
    }

    /// The sheet for any vendor (AWS prices × vendor multiplier).
    pub fn for_vendor(vendor: CloudVendor) -> Self {
        let aws = Self::aws();
        let m = vendor.price_multiplier();
        Self {
            vendor,
            high_end_per_sec: aws.high_end_per_sec * m,
            low_end_per_sec: aws.low_end_per_sec * m,
            storage_per_sec: aws.storage_per_sec * m,
        }
    }

    /// Price of one second on `tier`. Keep-alive bills at the same rate
    /// (paper: "the keep alive cost of a hot started function instance is
    /// the same as the execution cost of the instance per unit time").
    pub fn per_sec(&self, tier: Tier) -> f64 {
        match tier {
            Tier::HighEnd => self.high_end_per_sec,
            Tier::LowEnd => self.low_end_per_sec,
        }
    }

    /// Cost of `secs` seconds on `tier`.
    pub fn cost(&self, tier: Tier, secs: f64) -> f64 {
        self.per_sec(tier) * secs.max(0.0)
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts bit-reproducibility, the determinism contract
mod tests {
    use super::*;

    #[test]
    fn aws_prices_match_paper() {
        let p = PriceSheet::aws();
        assert!((p.high_end_per_sec - 0.0001667).abs() < 1e-12);
        assert!((p.low_end_per_sec - 0.0000833).abs() < 1e-12);
        // High-end is ~2× low-end.
        assert!((p.high_end_per_sec / p.low_end_per_sec - 2.0).abs() < 0.01);
    }

    #[test]
    fn cost_scales_linearly() {
        let p = PriceSheet::aws();
        assert!((p.cost(Tier::HighEnd, 10.0) - 0.001667).abs() < 1e-9);
        assert!((p.cost(Tier::LowEnd, 10.0) - 0.000833).abs() < 1e-9);
        // Negative durations never produce negative cost.
        assert_eq!(p.cost(Tier::HighEnd, -5.0), 0.0);
    }

    #[test]
    fn vendor_sheets_scale_from_aws() {
        for v in CloudVendor::ALL {
            let sheet = PriceSheet::for_vendor(v);
            let want = PriceSheet::aws().high_end_per_sec * v.price_multiplier();
            assert!((sheet.high_end_per_sec - want).abs() < 1e-15, "{v}");
        }
    }

    #[test]
    fn vendor_startup_ordering() {
        // AWS fastest, Azure slowest — the profile Fig. 18 stresses.
        assert!(CloudVendor::Aws.startup_multiplier() < CloudVendor::Gcp.startup_multiplier());
        assert!(CloudVendor::Gcp.startup_multiplier() < CloudVendor::Azure.startup_multiplier());
    }
}
