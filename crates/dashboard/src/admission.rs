//! Admission control for the serving tier: per-client fair sharing plus
//! global load shedding, both degrading to a *cheap-path* `503` +
//! `Retry-After` instead of latency collapse.
//!
//! The worker pool is a fixed set of blocking threads, so under overload
//! the failure mode without admission control is queueing delay: every
//! worker pinned on an expensive query (`/api/analysis`, `/api/sample`)
//! while cheap requests — including the `/api/metrics` read an operator
//! needs to *see* the overload — wait behind them. Two bounds prevent
//! that:
//!
//! * **Per-client cap** (`max_active_per_client`): one client may run at
//!   most N expensive requests concurrently; the surplus is shed. A greedy
//!   client opening many connections gets fast 503s past its share instead
//!   of starving everyone else — approximate fair queuing with a bounded
//!   worker pool.
//! * **Global shed threshold** (`shed_threshold`): at most M expensive
//!   requests execute at once across all clients. With M < workers, the
//!   remaining workers always have capacity for cheap endpoints, so the
//!   dashboard shell and telemetry stay responsive while the query tier
//!   saturates.
//!
//! Clients are keyed by peer IP, or by the first `X-Forwarded-For` address
//! when [`rased_core::ServerConfig::trust_forwarded_for`] is set (behind a
//! proxy, or in load harnesses simulating many users from one host).
//!
//! Shedding never executes the query, allocates no response body beyond a
//! constant, and holds the client table lock only for the counter update —
//! the whole point is that a shed costs microseconds while the work it
//! displaced costs milliseconds.

use rased_storage::sync::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Why a request was shed (each increments its own counter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Shed {
    /// The client is already running its per-client cap of expensive
    /// requests.
    ClientCap,
    /// The global expensive-request threshold is reached.
    Overload,
}

impl Shed {
    /// Stable label for logs and response bodies.
    pub fn reason(self) -> &'static str {
        match self {
            Shed::ClientCap => "per-client concurrency cap reached, retry shortly",
            Shed::Overload => "server is shedding load, retry shortly",
        }
    }
}

/// Admission state shared by all workers. All methods are `&self`.
#[derive(Debug)]
pub struct AdmissionControl {
    /// Expensive requests currently executing, per client key. Entries are
    /// removed when their count returns to zero, so the map size is bounded
    /// by the worker pool, not by client churn.
    clients: Mutex<HashMap<String, usize>>,
    /// Expensive requests currently executing across all clients.
    active: AtomicUsize,
    /// High-watermark of `active` (proves the shed threshold held).
    max_active: AtomicUsize,
    /// Requests shed at the per-client cap.
    shed_client_cap: AtomicU64,
    /// Requests shed at the global threshold.
    shed_overload: AtomicU64,
    per_client_cap: usize,
    shed_threshold: usize,
}

impl AdmissionControl {
    /// Build from the effective limits (`usize::MAX` = disabled).
    pub fn new(per_client_cap: usize, shed_threshold: usize) -> AdmissionControl {
        AdmissionControl {
            clients: Mutex::new_named(HashMap::new(), "dashboard.admission"),
            active: AtomicUsize::new(0),
            max_active: AtomicUsize::new(0),
            shed_client_cap: AtomicU64::new(0),
            shed_overload: AtomicU64::new(0),
            per_client_cap: per_client_cap.max(1),
            shed_threshold: shed_threshold.max(1),
        }
    }

    /// Try to admit one expensive request for `client`. On success the
    /// returned [`Permit`] holds the slot until dropped; on failure the
    /// caller answers a cheap 503 (the shed is already counted).
    pub(crate) fn try_admit(&self, client: &str) -> Result<Permit<'_>, Shed> {
        let mut clients = self.clients.lock();
        // Global check first: overload is about total capacity, and
        // reporting it as such (rather than blaming the client) gives the
        // caller the right Retry-After semantics either way.
        if self.active.load(Relaxed) >= self.shed_threshold {
            drop(clients);
            self.shed_overload.fetch_add(1, Relaxed);
            return Err(Shed::Overload);
        }
        let count = clients.entry(client.to_string()).or_insert(0);
        if *count >= self.per_client_cap {
            drop(clients);
            self.shed_client_cap.fetch_add(1, Relaxed);
            return Err(Shed::ClientCap);
        }
        *count += 1;
        // Incremented under the client-table lock so the threshold check
        // above and this update are atomic as a pair — two racing admits
        // can never both slip past a full threshold.
        let now = self.active.fetch_add(1, Relaxed) + 1;
        self.max_active.fetch_max(now, Relaxed);
        drop(clients);
        Ok(Permit { ctl: self, client: client.to_string() })
    }

    /// Expensive requests executing right now.
    pub fn active(&self) -> usize {
        self.active.load(Relaxed)
    }

    /// High-watermark of concurrently executing expensive requests.
    pub fn max_active(&self) -> usize {
        self.max_active.load(Relaxed)
    }

    /// Distinct clients with an expensive request in flight right now.
    pub fn clients_active(&self) -> usize {
        self.clients.lock().len()
    }

    /// Requests shed at the per-client cap so far.
    pub fn shed_client_cap_total(&self) -> u64 {
        self.shed_client_cap.load(Relaxed)
    }

    /// Requests shed at the global threshold so far.
    pub fn shed_overload_total(&self) -> u64 {
        self.shed_overload.load(Relaxed)
    }

    /// Write the `/api/metrics` admission section into an open JSON object:
    ///
    /// ```json
    /// "admission": {"active":N,"max_active":N,"clients_active":N,
    ///               "per_client_cap":N,"shed_threshold":N,
    ///               "shed_client_cap":N,"shed_overload":N}
    /// ```
    ///
    /// Disabled limits serialize as `null` so a harness can tell "no cap"
    /// from "huge cap".
    pub(crate) fn write_section(&self, j: &mut crate::json::Json) {
        j.key("admission").begin_object();
        j.kv_uint("active", self.active() as u64);
        j.kv_uint("max_active", self.max_active() as u64);
        j.kv_uint("clients_active", self.clients_active() as u64);
        match self.per_client_cap {
            usize::MAX => j.key("per_client_cap").null(),
            n => j.key("per_client_cap").uint(n as u64),
        };
        match self.shed_threshold {
            usize::MAX => j.key("shed_threshold").null(),
            n => j.key("shed_threshold").uint(n as u64),
        };
        j.kv_uint("shed_client_cap", self.shed_client_cap_total());
        j.kv_uint("shed_overload", self.shed_overload_total());
        j.end_object();
    }

    /// Release one slot for `client` (called by [`Permit::drop`]).
    fn release(&self, client: &str) {
        let mut clients = self.clients.lock();
        let emptied = match clients.get_mut(client) {
            Some(count) => {
                *count = count.saturating_sub(1);
                *count == 0
            }
            None => false,
        };
        if emptied {
            clients.remove(client);
        }
        drop(clients);
        // `fetch_update` instead of `fetch_sub`: a poisoned-then-recovered
        // client table must never underflow the global gauge.
        let _ = self.active.fetch_update(Relaxed, Relaxed, |n| Some(n.saturating_sub(1)));
    }
}

/// An admitted expensive request; dropping it frees the slot.
#[derive(Debug)]
pub(crate) struct Permit<'a> {
    ctl: &'a AdmissionControl,
    client: String,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.ctl.release(&self.client);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_client_cap_sheds_the_surplus_and_frees_on_drop() {
        let ctl = AdmissionControl::new(2, usize::MAX);
        let a = ctl.try_admit("alice").unwrap();
        let _b = ctl.try_admit("alice").unwrap();
        assert_eq!(ctl.try_admit("alice").unwrap_err(), Shed::ClientCap);
        // Another client is unaffected by alice's cap.
        let _c = ctl.try_admit("bob").unwrap();
        assert_eq!(ctl.active(), 3);
        assert_eq!(ctl.clients_active(), 2);
        drop(a);
        assert!(ctl.try_admit("alice").is_ok());
        assert_eq!(ctl.shed_client_cap_total(), 1);
    }

    #[test]
    fn global_threshold_sheds_across_clients() {
        let ctl = AdmissionControl::new(usize::MAX, 2);
        let _a = ctl.try_admit("a").unwrap();
        let _b = ctl.try_admit("b").unwrap();
        assert_eq!(ctl.try_admit("c").unwrap_err(), Shed::Overload);
        assert_eq!(ctl.shed_overload_total(), 1);
        assert_eq!(ctl.max_active(), 2);
    }

    #[test]
    fn zero_active_entries_are_removed() {
        let ctl = AdmissionControl::new(1, usize::MAX);
        for i in 0..100 {
            let p = ctl.try_admit(&format!("client-{i}")).unwrap();
            drop(p);
        }
        assert_eq!(ctl.clients_active(), 0, "released clients must not accumulate");
        assert_eq!(ctl.active(), 0);
    }

    #[test]
    fn rejected_probe_does_not_leak_a_zero_entry() {
        let ctl = AdmissionControl::new(1, usize::MAX);
        let _a = ctl.try_admit("a").unwrap();
        assert!(ctl.try_admit("a").is_err());
        // Only the admitted entry is tracked.
        assert_eq!(ctl.clients_active(), 1);
    }

    #[test]
    fn concurrent_admission_respects_both_bounds() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let ctl = AdmissionControl::new(2, 4);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let ctl = &ctl;
                let peak = &peak;
                scope.spawn(move || {
                    let me = format!("client-{}", t % 4);
                    for _ in 0..200 {
                        if let Ok(p) = ctl.try_admit(&me) {
                            peak.fetch_max(ctl.active(), Ordering::Relaxed);
                            drop(p);
                        }
                    }
                });
            }
        });
        assert!(peak.load(Ordering::Relaxed) <= 4, "shed threshold violated");
        assert_eq!(ctl.active(), 0);
        assert!(ctl.max_active() <= 4, "max_active {}", ctl.max_active());
    }
}
