//! Pinning tenants to execution partitions.
//!
//! In a partitioned fan-out (`Runner::run_partitions`) the unit of
//! scale-out is the *tenant*: one complete deployment slice (its own client,
//! log service, runtime, and gateway) whose tag space is disjoint from
//! every other tenant's. Slices never share state, so each one can live
//! wholly on one partition and the partitions free-run under the
//! substrate's time frontier — no cross-partition envelopes on the hot
//! path, which is exactly the sharding argument the paper makes for
//! per-tag sequencing, lifted one level up. (Shard-level placement
//! *within* a slice is `hm_sharedlog::partition`'s job.)
//!
//! [`TenantPlan`] is the deterministic tenant→partition map plus the
//! bookkeeping a per-partition gateway needs: which tenants it hosts and
//! what share of the deployment-wide open-loop rate they carry. The plan
//! is plain copyable data — [`LoadSpec`](crate::LoadSpec) holds an `Rc`
//! request factory and cannot cross threads, so each partition constructs
//! its own spec locally from the plan's numbers (the
//! `parallel_scaling` bench component is the worked example).

use hm_substrate::PartitionPolicy;

/// Deterministic tenant→partition pinning for one multi-tenant run.
#[derive(Clone, Copy, Debug)]
pub struct TenantPlan {
    tenants: usize,
    partitions: usize,
    policy: PartitionPolicy,
}

impl TenantPlan {
    /// Pins `tenants` tenants onto `partitions` partitions under
    /// `policy`.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    #[must_use]
    pub fn new(tenants: usize, partitions: usize, policy: PartitionPolicy) -> TenantPlan {
        assert!(tenants > 0, "plan needs at least one tenant");
        assert!(partitions > 0, "plan needs at least one partition");
        TenantPlan {
            tenants,
            partitions,
            policy,
        }
    }

    /// Total tenants in the plan.
    #[must_use]
    pub fn tenants(&self) -> usize {
        self.tenants
    }

    /// Total partitions in the plan.
    #[must_use]
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// Home partition of `tenant`.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is out of range.
    #[must_use]
    pub fn partition_of(&self, tenant: usize) -> usize {
        assert!(tenant < self.tenants, "tenant {tenant} out of range");
        self.policy.assign(tenant, self.tenants, self.partitions)
    }

    /// The tenants pinned to `partition`, in tenant order. The gateway on
    /// that partition drives exactly these slices.
    #[must_use]
    pub fn tenants_on(&self, partition: usize) -> Vec<usize> {
        (0..self.tenants)
            .filter(|&t| self.partition_of(t) == partition)
            .collect()
    }

    /// The share of a deployment-wide open-loop rate that `partition`'s
    /// gateway should generate: `total_rate` split evenly per tenant,
    /// summed over the tenants pinned there.
    #[must_use]
    pub fn rate_share(&self, partition: usize, total_rate: f64) -> f64 {
        let hosted = self.tenants_on(partition).len() as f64;
        total_rate * hosted / self.tenants as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_tenant_is_pinned_exactly_once() {
        for policy in [PartitionPolicy::RoundRobin, PartitionPolicy::Chunked] {
            for (tenants, partitions) in [(8usize, 4usize), (5, 2), (3, 8), (1, 1)] {
                let plan = TenantPlan::new(tenants, partitions, policy);
                let pinned: usize = (0..partitions)
                    .map(|p| plan.tenants_on(p).len())
                    .sum();
                assert_eq!(pinned, tenants, "{policy:?}/{tenants}/{partitions}");
                for t in 0..tenants {
                    assert!(plan.tenants_on(plan.partition_of(t)).contains(&t));
                }
            }
        }
    }

    #[test]
    fn even_splits_balance_perfectly() {
        for policy in [PartitionPolicy::RoundRobin, PartitionPolicy::Chunked] {
            let plan = TenantPlan::new(8, 4, policy);
            for p in 0..4 {
                assert_eq!(plan.tenants_on(p).len(), 2, "{policy:?} partition {p}");
            }
        }
    }

    #[test]
    fn rate_shares_sum_to_the_total() {
        let plan = TenantPlan::new(5, 2, PartitionPolicy::RoundRobin);
        let total: f64 = (0..2).map(|p| plan.rate_share(p, 100.0)).sum();
        assert!((total - 100.0).abs() < 1e-9);
        // 3 tenants on partition 0, 2 on partition 1.
        assert!((plan.rate_share(0, 100.0) - 60.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_tenant_panics() {
        let _ = TenantPlan::new(2, 2, PartitionPolicy::RoundRobin).partition_of(2);
    }
}
