//! Choosing the right protocol (§4.6) and the recovery-cost model (§7).
//!
//! The paper derives closed-form storage and runtime overheads per object
//! as functions of the read/write probabilities, the SSF arrival rate, the
//! function lifetime, the GC period, and the object/metadata sizes. These
//! formulas drive the protocol advisor and are validated empirically by the
//! Figure 12/13 benches, which compare the predicted boundary conditions
//! (`P_r = P_w` for storage, `P_r = 2 P_w` for runtime) against measured
//! crossovers.

use crate::protocol::{MatrixOp, ProtocolConfig, ProtocolKind};

/// Log records one op leaves per object under `protocol`, in the paper's
/// prototype: a row of [`ProtocolKind::logging_row`].
fn records(protocol: ProtocolKind, op: MatrixOp) -> f64 {
    let prototype = ProtocolConfig::uniform(protocol);
    protocol.logging_row(op, &prototype).log_appends as f64
}

/// Workload and deployment parameters for one object (§4.6's symbols).
#[derive(Clone, Copy, Debug)]
pub struct WorkloadProfile {
    /// Probability an SSF reads the object (`P_r`).
    pub p_read: f64,
    /// Probability an SSF writes the object (`P_w`).
    pub p_write: f64,
    /// Average SSF arrival rate, per second (`λ`).
    pub arrival_rate: f64,
    /// Average function lifetime in seconds, including re-execution (`t`).
    pub lifetime_secs: f64,
    /// Average delay between SSF completion and the next GC scan (`T_gc`);
    /// for a periodic GC with interval `I`, this averages `I / 2`.
    pub gc_delay_secs: f64,
    /// Log-record metadata size in bytes (`S_meta`).
    pub meta_bytes: f64,
    /// Object value size in bytes (`S_val`).
    pub value_bytes: f64,
}

impl WorkloadProfile {
    /// Time-averaged storage under Halfmoon-write (Equation 2):
    /// `S_read = S_val + P_r λ (t + T_gc)(S_meta + S_val)` — one object
    /// copy plus the read-log records in flight, one per read.
    #[must_use]
    pub fn storage_halfmoon_write(&self) -> f64 {
        let n_r = self.p_read * self.arrival_rate * (self.lifetime_secs + self.gc_delay_secs);
        let per_read = records(ProtocolKind::HalfmoonWrite, MatrixOp::Read);
        self.value_bytes + n_r * (per_read * self.meta_bytes + self.value_bytes)
    }

    /// Time-averaged storage under Halfmoon-read (Equation 4):
    /// `S_write = (1 + P_w λ (t + T_gc))(2 S_meta + S_val)` — live object
    /// versions plus their write-log records, two per write. The `1 +`
    /// term is the always-retained marked version (GC condition (a)); the
    /// write-gap term `T_w = 1/(P_w λ)` contributes exactly that constant
    /// under Poisson arrivals.
    #[must_use]
    pub fn storage_halfmoon_read(&self) -> f64 {
        let n_w =
            1.0 + self.p_write * self.arrival_rate * (self.lifetime_secs + self.gc_delay_secs);
        let per_write = records(ProtocolKind::HalfmoonRead, MatrixOp::Write);
        n_w * (per_write * self.meta_bytes + self.value_bytes)
    }

    /// The storage-optimal protocol. The §4.6 boundary is `P_r = P_w` in
    /// the `S_meta ≪ S_val` limit; here the full expressions are compared.
    #[must_use]
    pub fn recommend_for_storage(&self) -> ProtocolKind {
        if self.storage_halfmoon_read() <= self.storage_halfmoon_write() {
            ProtocolKind::HalfmoonRead
        } else {
            ProtocolKind::HalfmoonWrite
        }
    }

    /// Expected extra runtime cost per second under Halfmoon-read: its
    /// writes cost `C_w` more than Halfmoon-write's (§4.6).
    #[must_use]
    pub fn runtime_extra_halfmoon_read(&self, c_w: f64) -> f64 {
        self.p_write * self.arrival_rate * c_w
    }

    /// Expected extra runtime cost per second under Halfmoon-write: its
    /// reads cost `C_r` more than Halfmoon-read's (§4.6).
    #[must_use]
    pub fn runtime_extra_halfmoon_write(&self, c_r: f64) -> f64 {
        self.p_read * self.arrival_rate * c_r
    }

    /// The runtime-optimal protocol given the measured extra costs. With
    /// the prototype's `C_w ≈ 2 C_r`, the boundary is `P_r = 2 P_w`.
    #[must_use]
    pub fn recommend_for_runtime(&self, c_r: f64, c_w: f64) -> ProtocolKind {
        if self.runtime_extra_halfmoon_read(c_w) <= self.runtime_extra_halfmoon_write(c_r) {
            ProtocolKind::HalfmoonRead
        } else {
            ProtocolKind::HalfmoonWrite
        }
    }

    /// Weighted combination of both criteria (§4.6 remark): `weight` ∈
    /// [0, 1] is the relative monetary importance of runtime vs storage.
    #[must_use]
    pub fn recommend_weighted(&self, c_r: f64, c_w: f64, weight_runtime: f64) -> ProtocolKind {
        let w = weight_runtime.clamp(0.0, 1.0);
        // Normalize each criterion by the protocol-pair total so the two
        // dimensionless scores are comparable.
        let (s_r, s_w) = (self.storage_halfmoon_read(), self.storage_halfmoon_write());
        let storage_score = s_r / (s_r + s_w); // lower = HM-read better
        let (r_r, r_w) = (
            self.runtime_extra_halfmoon_read(c_w),
            self.runtime_extra_halfmoon_write(c_r),
        );
        let runtime_score = if r_r + r_w > 0.0 {
            r_r / (r_r + r_w)
        } else {
            0.5
        };
        let combined = w * runtime_score + (1.0 - w) * storage_score;
        if combined <= 0.5 {
            ProtocolKind::HalfmoonRead
        } else {
            ProtocolKind::HalfmoonWrite
        }
    }
}

/// §7's recovery-cost model: execution as a Bernoulli process with crash
/// probability `f` per round.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryModel {
    /// Per-round crash probability.
    pub crash_prob: f64,
}

impl RecoveryModel {
    /// Expected execution rounds before success: `1 / (1 - f)`.
    #[must_use]
    pub fn expected_rounds(&self) -> f64 {
        1.0 / (1.0 - self.crash_prob)
    }

    /// §7's break-even rule: with Halfmoon `x` (fractional) cheaper than a
    /// symmetric protocol in the failure-free case, Halfmoon wins while
    /// `f < x`. Returns true if Halfmoon is expected to win.
    ///
    /// The model behind it: Halfmoon replays log-free operations on every
    /// round while the symmetric protocol skips logged ones, so Halfmoon's
    /// expected cost is `(1 - x) · 1/(1-f)` rounds of full work against the
    /// symmetric protocol's `1 + f/(1-f) · ε ≈ 1`.
    #[must_use]
    pub fn halfmoon_wins(&self, failure_free_advantage: f64) -> bool {
        self.crash_prob < failure_free_advantage
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(p_read: f64, p_write: f64) -> WorkloadProfile {
        WorkloadProfile {
            p_read,
            p_write,
            arrival_rate: 100.0,
            lifetime_secs: 0.05,
            gc_delay_secs: 5.0,
            meta_bytes: 32.0,
            value_bytes: 4096.0,
        }
    }

    #[test]
    fn storage_boundary_near_equal_intensity() {
        // With S_meta ≪ S_val the boundary is P_r == P_w.
        let read_heavy = profile(0.8, 0.2);
        assert_eq!(
            read_heavy.recommend_for_storage(),
            ProtocolKind::HalfmoonRead
        );
        let write_heavy = profile(0.2, 0.8);
        assert_eq!(
            write_heavy.recommend_for_storage(),
            ProtocolKind::HalfmoonWrite
        );
    }

    #[test]
    fn storage_boundary_shifts_with_double_write_logging() {
        // At exactly P_r == P_w, Halfmoon-read pays 2·S_meta per record, so
        // for small objects Halfmoon-write wins the tie region — the §6.3
        // observation that the actual boundary sits slightly above 0.5.
        let mut p = profile(0.5, 0.5);
        p.value_bytes = 64.0;
        assert_eq!(p.recommend_for_storage(), ProtocolKind::HalfmoonWrite);
    }

    #[test]
    fn runtime_boundary_at_two_to_one() {
        let c_r = 1.0;
        let c_w = 2.0;
        // P_r slightly above 2·P_w: Halfmoon-read wins.
        assert_eq!(
            profile(0.69, 0.31).recommend_for_runtime(c_r, c_w),
            ProtocolKind::HalfmoonRead
        );
        // P_r below 2·P_w: Halfmoon-write wins.
        assert_eq!(
            profile(0.6, 0.4).recommend_for_runtime(c_r, c_w),
            ProtocolKind::HalfmoonWrite
        );
    }

    #[test]
    fn weighted_recommendation_interpolates() {
        // Storage says HM-read (more reads than writes), runtime says
        // HM-write (reads are not 4× the writes): the weight decides.
        let p = profile(0.55, 0.45);
        assert_eq!(p.recommend_for_storage(), ProtocolKind::HalfmoonRead);
        assert_eq!(
            p.recommend_for_runtime(1.0, 4.0),
            ProtocolKind::HalfmoonWrite
        );
        assert_eq!(
            p.recommend_weighted(1.0, 4.0, 1.0),
            ProtocolKind::HalfmoonWrite
        );
        assert_eq!(
            p.recommend_weighted(1.0, 4.0, 0.0),
            ProtocolKind::HalfmoonRead
        );
    }

    #[test]
    fn recovery_model_rounds() {
        let m = RecoveryModel { crash_prob: 0.5 };
        assert!((m.expected_rounds() - 2.0).abs() < 1e-12);
        assert!(RecoveryModel { crash_prob: 0.2 }.halfmoon_wins(0.3));
        assert!(!RecoveryModel { crash_prob: 0.4 }.halfmoon_wins(0.3));
    }
}
