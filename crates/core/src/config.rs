//! Core configuration and the named presets of the paper's evaluation.
//!
//! Preset naming follows the paper: `Baseline_6_64` is a 6-issue, 64-entry-IQ
//! superscalar without value prediction; `Baseline_VP_6_64` adds the
//! VTAGE-2DStride predictor with validation at commit; `EOLE_x_y` adds Early
//! and Late Execution; `OLE`/`EOE` drop Early/Late Execution respectively
//! (§6.5).

use eole_mem::hierarchy::HierarchyConfig;

/// Functional-unit pool sizes (Table 1: "6ALU(1c), 4MulDiv(3c/25c*),
/// 6FP(3c), 4FPMulDiv(5c/10c*), 4Ld/Str; * = not pipelined").
#[derive(Clone, Debug)]
pub struct FuConfig {
    /// Single-cycle integer ALUs.
    pub int_alu: usize,
    /// Integer multiply/divide units (divide is unpipelined).
    pub int_muldiv: usize,
    /// 3-cycle FP units.
    pub fp_alu: usize,
    /// FP multiply/divide units (divide is unpipelined).
    pub fp_muldiv: usize,
    /// Load/store ports.
    pub mem_ports: usize,
}

impl FuConfig {
    /// Table 1's pool for the 6-issue baseline.
    pub fn paper() -> Self {
        FuConfig { int_alu: 6, int_muldiv: 4, fp_alu: 6, fp_muldiv: 4, mem_ports: 4 }
    }
}

/// Operation latencies in cycles (Table 1).
pub mod latency {
    /// Single-cycle integer ALU.
    pub const INT_ALU: u64 = 1;
    /// Pipelined integer multiply.
    pub const INT_MUL: u64 = 3;
    /// Unpipelined integer divide.
    pub const INT_DIV: u64 = 25;
    /// FP add/sub/convert/compare.
    pub const FP_ALU: u64 = 3;
    /// FP multiply.
    pub const FP_MUL: u64 = 5;
    /// Unpipelined FP divide.
    pub const FP_DIV: u64 = 10;
    /// Store-to-load forwarding from the SQ.
    pub const SQ_FORWARD: u64 = 2;
}

/// A configuration constraint violation, as data.
///
/// Every shape panic formerly reachable from a bad `CoreConfig` (the
/// `assert!`s in `Prf::new`, the free-form `String` from `validate`) now
/// reports through this type: a bad grid cell surfaces as a typed
/// `RunError` in the executor instead of aborting the process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// A fetch/rename/commit/issue width or window capacity is zero.
    ZeroSize(&'static str),
    /// A banking/blocking parameter must be a power of two.
    NotPowerOfTwo {
        /// The offending field.
        field: &'static str,
        /// The rejected value.
        got: usize,
    },
    /// PRF registers must divide evenly across banks.
    PrfNotBankDivisible {
        /// Registers in the offending class.
        regs: usize,
        /// Configured bank count.
        banks: usize,
    },
    /// The PRF must at least cover the 32 architectural registers with
    /// renaming headroom.
    PrfTooSmall {
        /// Integer physical registers.
        int_prf: usize,
        /// FP physical registers.
        fp_prf: usize,
    },
    /// EOLE requires value prediction (validation happens at commit).
    EoleWithoutVp,
    /// The Early Execution block is 1 or 2 stages deep (Fig. 2).
    BadEeStages(usize),
    /// The VP speculative window, when bounded, must hold ≥ 1 µ-op.
    EmptySpecWindow,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroSize(what) => write!(f, "{what} must be non-zero"),
            ConfigError::NotPowerOfTwo { field, got } => {
                write!(f, "{field} must be a power of two, got {got}")
            }
            ConfigError::PrfNotBankDivisible { regs, banks } => {
                write!(f, "PRF size {regs} must divide evenly across {banks} banks")
            }
            ConfigError::PrfTooSmall { int_prf, fp_prf } => write!(
                f,
                "PRF ({int_prf} INT / {fp_prf} FP) must at least cover the 32 \
                 architectural registers with renaming headroom (≥ 64 each)"
            ),
            ConfigError::EoleWithoutVp => {
                write!(f, "EOLE requires value prediction (validation at commit)")
            }
            ConfigError::BadEeStages(got) => write!(f, "ee_stages must be 1 or 2, got {got}"),
            ConfigError::EmptySpecWindow => {
                write!(f, "vp.spec_window, when bounded, must hold at least 1 µ-op")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Which value predictor drives the VP pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValuePredictorKind {
    /// The paper's hybrid (Table 2).
    VtageTwoDeltaStride,
    /// VTAGE alone.
    Vtage,
    /// 2-delta stride alone.
    TwoDeltaStride,
    /// Simple stride.
    Stride,
    /// Last-value.
    LastValue,
    /// Order-4 FCM.
    Fcm,
    /// D-VTAGE: block-based differential VTAGE (BeBoP, HPCA 2015) — the
    /// cost-aware realization of the hybrid, and the only kind that
    /// natively exploits `block_size`/`banks` in its table layout.
    DVtage,
}

/// Value-prediction configuration: predictor choice plus the shape of
/// the block-based access front (BeBoP).
#[derive(Clone, Debug)]
pub struct VpConfig {
    /// Predictor choice.
    pub kind: ValuePredictorKind,
    /// Seed for the probabilistic confidence counters.
    pub seed: u64,
    /// µ-ops per predictor fetch block (power of two). 1 models the
    /// pre-BeBoP per-instruction access the paper argues against.
    pub block_size: usize,
    /// Predictor storage banks (power of two).
    pub banks: usize,
    /// Bound on in-flight (predicted, unretired) µ-ops — the hardware's
    /// speculative-history checkpoint budget. `None` = unbounded (the
    /// idealization); a full window refuses further predictions.
    pub spec_window: Option<usize>,
}

impl VpConfig {
    /// The paper's VTAGE-2DStride hybrid, accessed per instruction with
    /// an unbounded speculative window (the EOLE paper's idealized
    /// predictor front — behavior-identical to the pre-block pipeline).
    pub fn paper() -> Self {
        VpConfig {
            kind: ValuePredictorKind::VtageTwoDeltaStride,
            seed: 0xe01e,
            block_size: 1,
            banks: 1,
            spec_window: None,
        }
    }

    /// The BeBoP-style D-VTAGE front: 4-µ-op fetch blocks, 4 banks, a
    /// 64-µ-op speculative window.
    pub fn dvtage() -> Self {
        VpConfig {
            kind: ValuePredictorKind::DVtage,
            block_size: 4,
            banks: 4,
            spec_window: Some(64),
            ..Self::paper()
        }
    }
}

/// EOLE feature toggles and port budgets.
#[derive(Clone, Debug)]
pub struct EoleConfig {
    /// Early Execution beside Rename (§3.2).
    pub early: bool,
    /// Late Execution in the pre-commit LE/VT stage (§3.3).
    pub late: bool,
    /// Depth of the Early Execution block (Fig. 2 compares 1 vs 2).
    pub ee_stages: usize,
    /// PRF read ports per bank reserved for Late Execution / Validation /
    /// Training; `None` models unlimited ports (Fig. 11 sweeps 2/3/4).
    pub levt_read_ports_per_bank: Option<usize>,
    /// Cap on EE/prediction PRF writes per bank per dispatch group
    /// (§6.3 "further possible hardware optimizations"); `None` = no cap.
    pub ee_writes_per_bank: Option<usize>,
}

impl EoleConfig {
    /// EOLE disabled (plain baseline / baseline+VP).
    pub fn off() -> Self {
        EoleConfig {
            early: false,
            late: false,
            ee_stages: 1,
            levt_read_ports_per_bank: None,
            ee_writes_per_bank: None,
        }
    }

    /// Full EOLE with unconstrained ports.
    pub fn full() -> Self {
        EoleConfig { early: true, late: true, ..Self::off() }
    }
}

/// Complete core configuration.
#[derive(Clone, Debug)]
pub struct CoreConfig {
    /// Display name (used in result tables).
    pub name: String,
    /// µ-ops fetched per cycle (Table 1: 8-wide fetch).
    pub fetch_width: usize,
    /// µ-ops renamed/dispatched per cycle (8-wide).
    pub rename_width: usize,
    /// µ-ops retired per cycle (8-wide).
    pub commit_width: usize,
    /// Out-of-order issue width (the paper's 6 vs 4 experiments).
    pub issue_width: usize,
    /// Unified IQ capacity (64 vs 48).
    pub iq_entries: usize,
    /// Reorder buffer capacity (192).
    pub rob_entries: usize,
    /// Load-queue capacity (48).
    pub lq_entries: usize,
    /// Store-queue capacity (48).
    pub sq_entries: usize,
    /// Integer physical registers (256).
    pub int_prf: usize,
    /// FP physical registers (256).
    pub fp_prf: usize,
    /// PRF banks (Fig. 10 sweeps 1/2/4/8).
    pub prf_banks: usize,
    /// Fetch-to-rename depth in cycles (deep 15-cycle front end).
    pub frontend_depth: u64,
    /// Decode-redirect bubble on a taken control µ-op that misses the BTB.
    pub btb_miss_bubble: u64,
    /// Taken branches fetchable per cycle (Table 1: 2).
    pub max_taken_per_cycle: usize,
    /// Functional units.
    pub fu: FuConfig,
    /// Memory hierarchy.
    pub mem: HierarchyConfig,
    /// Value prediction; `None` disables VP (plain baseline).
    pub vp: Option<VpConfig>,
    /// EOLE toggles.
    pub eole: EoleConfig,
    /// Overrides the pre-commit LE/VT stage depth computed by
    /// [`CoreConfig::levt_depth`]; `Some(0)` models a free (zero-cycle)
    /// validation stage — the ROADMAP's h264 ablation knob.
    pub levt_depth_override: Option<u64>,
    /// Seed for TAGE's allocation randomization.
    pub branch_seed: u64,
}

/// Fluent constructor for [`CoreConfig`], for experiments that are not
/// one of the paper's named presets.
///
/// Starts from the `Baseline_6_64` skeleton; every setter overrides one
/// field and [`CoreConfigBuilder::build`] validates the result, so
/// experiment code no longer clones-and-mutates presets by hand:
///
/// ```
/// use eole_core::config::{CoreConfig, VpConfig};
///
/// let c = CoreConfig::builder()
///     .name("VP_6_48")
///     .issue_width(6)
///     .iq(48)
///     .vp(VpConfig::paper())
///     .build()
///     .unwrap();
/// assert_eq!(c.iq_entries, 48);
/// ```
#[derive(Clone, Debug)]
pub struct CoreConfigBuilder {
    config: CoreConfig,
}

impl CoreConfigBuilder {
    /// Display name used in result reports.
    #[must_use]
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.config.name = name.into();
        self
    }

    /// Out-of-order issue width.
    #[must_use]
    pub fn issue_width(mut self, w: usize) -> Self {
        self.config.issue_width = w;
        self
    }

    /// Unified IQ capacity.
    #[must_use]
    pub fn iq(mut self, entries: usize) -> Self {
        self.config.iq_entries = entries;
        self
    }

    /// Reorder-buffer capacity.
    #[must_use]
    pub fn rob(mut self, entries: usize) -> Self {
        self.config.rob_entries = entries;
        self
    }

    /// Load-queue / store-queue capacities.
    #[must_use]
    pub fn lsq(mut self, lq: usize, sq: usize) -> Self {
        self.config.lq_entries = lq;
        self.config.sq_entries = sq;
        self
    }

    /// Fetch/rename/commit widths (the paper keeps all three equal).
    #[must_use]
    pub fn front_width(mut self, w: usize) -> Self {
        self.config.fetch_width = w;
        self.config.rename_width = w;
        self.config.commit_width = w;
        self
    }

    /// Integer / FP physical register counts.
    #[must_use]
    pub fn prf(mut self, int: usize, fp: usize) -> Self {
        self.config.int_prf = int;
        self.config.fp_prf = fp;
        self
    }

    /// Number of PRF banks.
    #[must_use]
    pub fn prf_banks(mut self, banks: usize) -> Self {
        self.config.prf_banks = banks;
        self
    }

    /// Fetch-to-rename depth in cycles.
    #[must_use]
    pub fn frontend_depth(mut self, cycles: u64) -> Self {
        self.config.frontend_depth = cycles;
        self
    }

    /// Enables value prediction with the given configuration.
    #[must_use]
    pub fn vp(mut self, vp: VpConfig) -> Self {
        self.config.vp = Some(vp);
        self
    }

    /// Enables value prediction with the given predictor and the paper's
    /// default seed.
    #[must_use]
    pub fn vp_kind(mut self, kind: ValuePredictorKind) -> Self {
        self.config.vp = Some(VpConfig { kind, ..VpConfig::paper() });
        self
    }

    /// Sets the BeBoP access shape — µ-ops per predictor fetch block and
    /// storage banks — of the already-enabled VP configuration.
    ///
    /// # Panics
    ///
    /// Panics if value prediction has not been enabled yet (authoring
    /// order error; enable with [`CoreConfigBuilder::vp`] first).
    #[must_use]
    pub fn vp_block(mut self, block_size: usize, banks: usize) -> Self {
        let vp = self.config.vp.as_mut().expect("enable VP before shaping its block front"); // lint:allow(error-typing) documented `# Panics`: builder authoring-order error
        vp.block_size = block_size;
        vp.banks = banks;
        self
    }

    /// Bounds (or unbounds, with `None`) the VP speculative window of the
    /// already-enabled VP configuration.
    ///
    /// # Panics
    ///
    /// Panics if value prediction has not been enabled yet.
    #[must_use]
    pub fn vp_spec_window(mut self, window: Option<usize>) -> Self {
        let vp = self.config.vp.as_mut().expect("enable VP before bounding its window"); // lint:allow(error-typing) documented `# Panics`: builder authoring-order error
        vp.spec_window = window;
        self
    }

    /// Disables value prediction (and therefore EOLE).
    #[must_use]
    pub fn no_vp(mut self) -> Self {
        self.config.vp = None;
        self
    }

    /// Replaces the whole EOLE block.
    #[must_use]
    pub fn eole(mut self, eole: EoleConfig) -> Self {
        self.config.eole = eole;
        self
    }

    /// Enables full EOLE (Early + Late Execution, unconstrained ports).
    #[must_use]
    pub fn eole_full(mut self) -> Self {
        self.config.eole = EoleConfig::full();
        self
    }

    /// Depth of the Early Execution block (1 or 2).
    #[must_use]
    pub fn ee_stages(mut self, stages: usize) -> Self {
        self.config.eole.ee_stages = stages;
        self
    }

    /// LE/VT read ports per PRF bank (`None` = unconstrained).
    #[must_use]
    pub fn levt_ports(mut self, ports: Option<usize>) -> Self {
        self.config.eole.levt_read_ports_per_bank = ports;
        self
    }

    /// Cap on EE/prediction PRF writes per bank per dispatch group.
    #[must_use]
    pub fn ee_writes_per_bank(mut self, cap: Option<usize>) -> Self {
        self.config.eole.ee_writes_per_bank = cap;
        self
    }

    /// Functional-unit pool.
    #[must_use]
    pub fn fu(mut self, fu: FuConfig) -> Self {
        self.config.fu = fu;
        self
    }

    /// Memory hierarchy.
    #[must_use]
    pub fn mem(mut self, mem: HierarchyConfig) -> Self {
        self.config.mem = mem;
        self
    }

    /// Seed for TAGE's allocation randomization.
    #[must_use]
    pub fn branch_seed(mut self, seed: u64) -> Self {
        self.config.branch_seed = seed;
        self
    }

    /// Pins the LE/VT stage depth (ablation knob; `Some(0)` = free
    /// validation stage, `None` = derive from the VP setting).
    #[must_use]
    pub fn levt_depth_override(mut self, depth: Option<u64>) -> Self {
        self.config.levt_depth_override = depth;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first constraint violated (see
    /// [`CoreConfig::validate`]).
    pub fn build(self) -> Result<CoreConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

impl CoreConfig {
    /// Starts a builder from the `Baseline_6_64` skeleton.
    pub fn builder() -> CoreConfigBuilder {
        CoreConfigBuilder { config: Self::base("custom", 6, 64) }
    }

    /// Reopens this configuration as a builder (derive a variant from a
    /// preset without mutating fields in place).
    pub fn to_builder(self) -> CoreConfigBuilder {
        CoreConfigBuilder { config: self }
    }

    fn base(name: &str, issue_width: usize, iq_entries: usize) -> Self {
        CoreConfig {
            name: name.to_string(),
            fetch_width: 8,
            rename_width: 8,
            commit_width: 8,
            issue_width,
            iq_entries,
            rob_entries: 192,
            lq_entries: 48,
            sq_entries: 48,
            int_prf: 256,
            fp_prf: 256,
            prf_banks: 1,
            frontend_depth: 15,
            btb_miss_bubble: 3,
            max_taken_per_cycle: 2,
            fu: FuConfig::paper(),
            mem: HierarchyConfig::paper(),
            vp: None,
            eole: EoleConfig::off(),
            levt_depth_override: None,
            branch_seed: 0x7a6e,
        }
    }

    /// `Baseline_6_64`: 6-issue, 64-entry IQ, no VP (Table 1).
    pub fn baseline_6_64() -> Self {
        Self::base("Baseline_6_64", 6, 64)
    }

    /// `Baseline_VP_6_64`: the reference configuration of §5.
    pub fn baseline_vp_6_64() -> Self {
        let mut c = Self::base("Baseline_VP_6_64", 6, 64);
        c.vp = Some(VpConfig::paper());
        c
    }

    /// `Baseline_VP_4_64` (Fig. 7).
    pub fn baseline_vp_4_64() -> Self {
        let mut c = Self::base("Baseline_VP_4_64", 4, 64);
        c.vp = Some(VpConfig::paper());
        c
    }

    /// `Baseline_VP_6_48` (Fig. 8).
    pub fn baseline_vp_6_48() -> Self {
        let mut c = Self::base("Baseline_VP_6_48", 6, 48);
        c.vp = Some(VpConfig::paper());
        c
    }

    /// `EOLE_6_64` (Fig. 7).
    pub fn eole_6_64() -> Self {
        let mut c = Self::base("EOLE_6_64", 6, 64);
        c.vp = Some(VpConfig::paper());
        c.eole = EoleConfig::full();
        c
    }

    /// `EOLE_4_64` — the headline configuration.
    pub fn eole_4_64() -> Self {
        let mut c = Self::base("EOLE_4_64", 4, 64);
        c.vp = Some(VpConfig::paper());
        c.eole = EoleConfig::full();
        c
    }

    /// `EOLE_6_48` (Fig. 8).
    pub fn eole_6_48() -> Self {
        let mut c = Self::base("EOLE_6_48", 6, 48);
        c.vp = Some(VpConfig::paper());
        c.eole = EoleConfig::full();
        c
    }

    /// `EOLE_4_64` with a banked PRF (Fig. 10).
    pub fn eole_4_64_banked(banks: usize) -> Self {
        let mut c = Self::eole_4_64();
        c.name = format!("EOLE_4_64_{banks}banks");
        c.prf_banks = banks;
        c
    }

    /// `EOLE_4_64` with a 4-banked PRF and `ports` LE/VT read ports per bank
    /// (Fig. 11; the paper's `EOLE_4_64_4ports_4banks` is `ports = 4`).
    pub fn eole_4_64_ports(banks: usize, ports: usize) -> Self {
        let mut c = Self::eole_4_64();
        c.name = format!("EOLE_4_64_{ports}ports_{banks}banks");
        c.prf_banks = banks;
        c.eole.levt_read_ports_per_bank = Some(ports);
        c
    }

    /// `OLE_4_64`: Late Execution only (§6.5, Fig. 13).
    pub fn ole_4_64_ports(banks: usize, ports: usize) -> Self {
        let mut c = Self::eole_4_64_ports(banks, ports);
        c.name = format!("OLE_4_64_{ports}ports_{banks}banks");
        c.eole.early = false;
        c
    }

    /// `EOE_4_64`: Early Execution only (§6.5, Fig. 13).
    pub fn eoe_4_64_ports(banks: usize, ports: usize) -> Self {
        let mut c = Self::eole_4_64_ports(banks, ports);
        c.name = format!("EOE_4_64_{ports}ports_{banks}banks");
        c.eole.late = false;
        c
    }

    /// `Baseline_DVTAGE_6_64`: the 6-issue VP baseline with the BeBoP
    /// D-VTAGE front (4-µ-op blocks, 4 banks, 64-deep speculative
    /// window) instead of the idealized per-instruction hybrid.
    pub fn baseline_dvtage_6_64() -> Self {
        let mut c = Self::base("Baseline_DVTAGE_6_64", 6, 64);
        c.vp = Some(VpConfig::dvtage());
        c
    }

    /// `EOLE_DVTAGE_4_64`: the headline 4-issue EOLE pipeline on the
    /// BeBoP D-VTAGE front — the paper's cost argument end to end.
    pub fn eole_dvtage_4_64() -> Self {
        let mut c = Self::base("EOLE_DVTAGE_4_64", 4, 64);
        c.vp = Some(VpConfig::dvtage());
        c.eole = EoleConfig::full();
        c
    }

    /// Every named preset of the paper's evaluation, in paper order,
    /// plus the D-VTAGE/BeBoP pair — the population the golden
    /// cycle-exactness fingerprints cover.
    pub fn all_presets() -> Vec<CoreConfig> {
        vec![
            CoreConfig::baseline_6_64(),
            CoreConfig::baseline_vp_6_64(),
            CoreConfig::baseline_vp_4_64(),
            CoreConfig::baseline_vp_6_48(),
            CoreConfig::eole_6_64(),
            CoreConfig::eole_4_64(),
            CoreConfig::eole_6_48(),
            CoreConfig::eole_4_64_banked(4),
            CoreConfig::eole_4_64_ports(4, 4),
            CoreConfig::ole_4_64_ports(4, 4),
            CoreConfig::eoe_4_64_ports(4, 4),
            CoreConfig::baseline_dvtage_6_64(),
            CoreConfig::eole_dvtage_4_64(),
        ]
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// The first violated constraint, as a typed [`ConfigError`] — every
    /// shape that would previously panic deeper in the stack (PRF
    /// banking, VP block geometry) reports here instead.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.fetch_width == 0 || self.rename_width == 0 || self.commit_width == 0 {
            return Err(ConfigError::ZeroSize("fetch/rename/commit width"));
        }
        if self.issue_width == 0 || self.iq_entries == 0 || self.rob_entries == 0 {
            return Err(ConfigError::ZeroSize("issue width / IQ / ROB"));
        }
        // Every µ-op completes at least one cycle after it issues: issue
        // wakeup returns a producer's parked readers to the next cycle's
        // scan, which a same-cycle L1D hit would outrun.
        if self.mem.l1d.latency == 0 {
            return Err(ConfigError::ZeroSize("L1D latency"));
        }
        if !self.prf_banks.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo { field: "prf_banks", got: self.prf_banks });
        }
        if !self.int_prf.is_multiple_of(self.prf_banks) {
            return Err(ConfigError::PrfNotBankDivisible {
                regs: self.int_prf,
                banks: self.prf_banks,
            });
        }
        if !self.fp_prf.is_multiple_of(self.prf_banks) {
            return Err(ConfigError::PrfNotBankDivisible {
                regs: self.fp_prf,
                banks: self.prf_banks,
            });
        }
        if (self.eole.early || self.eole.late) && self.vp.is_none() {
            return Err(ConfigError::EoleWithoutVp);
        }
        if !(1..=2).contains(&self.eole.ee_stages) {
            return Err(ConfigError::BadEeStages(self.eole.ee_stages));
        }
        if self.int_prf < 64 || self.fp_prf < 64 {
            return Err(ConfigError::PrfTooSmall { int_prf: self.int_prf, fp_prf: self.fp_prf });
        }
        if let Some(vp) = &self.vp {
            if !vp.block_size.is_power_of_two() {
                return Err(ConfigError::NotPowerOfTwo {
                    field: "vp.block_size",
                    got: vp.block_size,
                });
            }
            if !vp.banks.is_power_of_two() {
                return Err(ConfigError::NotPowerOfTwo { field: "vp.banks", got: vp.banks });
            }
            if vp.spec_window == Some(0) {
                return Err(ConfigError::EmptySpecWindow);
            }
        }
        Ok(())
    }

    /// The extra pre-commit pipeline depth: 1 LE/VT stage when VP is on
    /// (§4.1: "an additional pipeline cycle"), 0 otherwise — unless the
    /// ablation override pins it.
    pub fn levt_depth(&self) -> u64 {
        if let Some(depth) = self.levt_depth_override {
            return depth;
        }
        if self.vp.is_some() {
            1
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for c in CoreConfig::all_presets() {
            c.validate().unwrap_or_else(|e| panic!("{} invalid: {e}", c.name));
        }
    }

    #[test]
    fn eole_without_vp_is_rejected() {
        let mut c = CoreConfig::baseline_6_64();
        c.eole = EoleConfig::full();
        assert_eq!(c.validate(), Err(ConfigError::EoleWithoutVp));
    }

    #[test]
    fn zero_latency_l1d_is_rejected() {
        let mut c = CoreConfig::baseline_6_64();
        c.mem.l1d.latency = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroSize("L1D latency")));
    }

    #[test]
    fn banking_must_divide_prf() {
        let mut c = CoreConfig::eole_4_64();
        c.prf_banks = 3;
        assert_eq!(
            c.validate(),
            Err(ConfigError::NotPowerOfTwo { field: "prf_banks", got: 3 })
        );
        c.prf_banks = 8;
        c.int_prf = 252; // not divisible by 8
        assert_eq!(
            c.validate(),
            Err(ConfigError::PrfNotBankDivisible { regs: 252, banks: 8 })
        );
    }

    #[test]
    fn vp_block_geometry_is_validated_as_typed_errors() {
        let bad_block = CoreConfig::baseline_dvtage_6_64().to_builder().vp_block(3, 4).build();
        assert_eq!(
            bad_block.unwrap_err(),
            ConfigError::NotPowerOfTwo { field: "vp.block_size", got: 3 }
        );
        let bad_banks = CoreConfig::baseline_dvtage_6_64().to_builder().vp_block(4, 6).build();
        assert_eq!(
            bad_banks.unwrap_err(),
            ConfigError::NotPowerOfTwo { field: "vp.banks", got: 6 }
        );
        let empty = CoreConfig::baseline_dvtage_6_64()
            .to_builder()
            .vp_spec_window(Some(0))
            .build();
        assert_eq!(empty.unwrap_err(), ConfigError::EmptySpecWindow);
        // Display is human-readable (reaches RunError rendering).
        assert!(ConfigError::EmptySpecWindow.to_string().contains("spec_window"));
    }

    #[test]
    fn dvtage_presets_use_the_bebop_front() {
        let c = CoreConfig::baseline_dvtage_6_64();
        let vp = c.vp.as_ref().unwrap();
        assert_eq!(vp.kind, ValuePredictorKind::DVtage);
        assert_eq!((vp.block_size, vp.banks, vp.spec_window), (4, 4, Some(64)));
        let e = CoreConfig::eole_dvtage_4_64();
        assert!(e.eole.early && e.eole.late);
        assert_eq!(e.issue_width, 4);
        // The paper presets keep the behavior-neutral shape.
        let p = CoreConfig::baseline_vp_6_64();
        let vp = p.vp.as_ref().unwrap();
        assert_eq!((vp.block_size, vp.banks, vp.spec_window), (1, 1, None));
    }

    #[test]
    fn builder_shapes_the_block_front() {
        let c = CoreConfig::builder()
            .vp(VpConfig::paper())
            .vp_block(8, 2)
            .vp_spec_window(Some(32))
            .build()
            .unwrap();
        let vp = c.vp.unwrap();
        assert_eq!((vp.block_size, vp.banks, vp.spec_window), (8, 2, Some(32)));
    }

    #[test]
    fn preset_names_match_the_paper() {
        assert_eq!(CoreConfig::eole_4_64_ports(4, 4).name, "EOLE_4_64_4ports_4banks");
        assert_eq!(CoreConfig::ole_4_64_ports(4, 4).name, "OLE_4_64_4ports_4banks");
    }

    #[test]
    fn levt_depth_follows_vp() {
        assert_eq!(CoreConfig::baseline_6_64().levt_depth(), 0);
        assert_eq!(CoreConfig::baseline_vp_6_64().levt_depth(), 1);
        assert_eq!(CoreConfig::eole_4_64().levt_depth(), 1);
    }

    #[test]
    fn builder_constructs_named_variants() {
        let c = CoreConfig::builder()
            .name("VP_6_48")
            .issue_width(6)
            .iq(48)
            .vp(VpConfig::paper())
            .build()
            .unwrap();
        assert_eq!(c.name, "VP_6_48");
        assert_eq!((c.issue_width, c.iq_entries), (6, 48));
        assert!(c.vp.is_some());
        assert!(!c.eole.early && !c.eole.late);
    }

    #[test]
    fn builder_rejects_invalid_configs() {
        assert!(CoreConfig::builder().issue_width(0).build().is_err());
        assert!(CoreConfig::builder().prf_banks(3).build().is_err());
        // EOLE without VP is inconsistent (validation happens at commit).
        assert!(CoreConfig::builder().eole_full().build().is_err());
        assert!(CoreConfig::builder().eole_full().vp(VpConfig::paper()).build().is_ok());
    }

    #[test]
    fn to_builder_round_trips_presets() {
        let derived = CoreConfig::eole_6_64()
            .to_builder()
            .name("EOLE_6_64_2ee")
            .ee_stages(2)
            .build()
            .unwrap();
        assert_eq!(derived.eole.ee_stages, 2);
        assert!(derived.eole.early && derived.eole.late);
        assert_eq!(derived.issue_width, CoreConfig::eole_6_64().issue_width);
    }

    #[test]
    fn issue_width_presets() {
        assert_eq!(CoreConfig::eole_4_64().issue_width, 4);
        assert_eq!(CoreConfig::eole_6_48().iq_entries, 48);
        assert_eq!(CoreConfig::baseline_vp_6_64().iq_entries, 64);
    }
}
