//! Periodic garbage collection (§4.5).
//!
//! "Halfmoon uses a garbage collector (GC) function to remove the log
//! records of finished SSFs. The GC is periodically invoked by the
//! runtime." The interval is the experimental knob of Figure 12.

use std::cell::Cell;
use std::rc::Rc;

use halfmoon::{Client, GarbageCollector, GcStats};
use hm_common::NodeId;
use hm_substrate::Time;

/// Handle to a running periodic GC task.
pub struct GcDriver {
    stop: Rc<Cell<bool>>,
    cycles: Rc<Cell<u64>>,
    total: Rc<Cell<GcTotals>>,
}

/// Accumulated reclamation counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct GcTotals {
    /// Step logs trimmed.
    pub instances_reclaimed: u64,
    /// Object versions deleted.
    pub versions_deleted: u64,
}

impl GcDriver {
    /// Spawns a background task collecting every `interval`.
    #[must_use]
    pub fn start(client: Client, node: NodeId, interval: Time) -> GcDriver {
        let stop = Rc::new(Cell::new(false));
        let cycles = Rc::new(Cell::new(0u64));
        let total = Rc::new(Cell::new(GcTotals::default()));
        let ctx = client.ctx().clone();
        {
            let stop = stop.clone();
            let cycles = cycles.clone();
            let total = total.clone();
            ctx.clone().spawn(async move {
                let gc = GarbageCollector::new(client, node);
                loop {
                    ctx.sleep(interval).await;
                    if stop.get() {
                        break;
                    }
                    let stats: GcStats = gc.collect().await;
                    cycles.set(cycles.get() + 1);
                    let mut t = total.get();
                    t.instances_reclaimed += stats.instances_reclaimed as u64;
                    t.versions_deleted += stats.versions_deleted as u64;
                    total.set(t);
                    if stop.get() {
                        break;
                    }
                }
            });
        }
        GcDriver {
            stop,
            cycles,
            total,
        }
    }

    /// Stops the driver after its current cycle.
    pub fn stop(&self) {
        self.stop.set(true);
    }

    /// Completed GC cycles.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles.get()
    }

    /// Accumulated reclamation counters.
    #[must_use]
    pub fn totals(&self) -> GcTotals {
        self.total.get()
    }
}

impl Drop for GcDriver {
    fn drop(&mut self) {
        self.stop.set(true);
    }
}

impl std::fmt::Debug for GcDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GcDriver(cycles={}, {:?})", self.cycles(), self.totals())
    }
}
