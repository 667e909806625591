//! Poison-transparent locks over `std::sync`, with observability and a
//! debug-build lock-order cycle detector.
//!
//! The workspace used `parking_lot` for its non-poisoning `lock()` API.
//! These wrappers restore that contract on top of the standard library: a
//! panicked holder does not wedge every later caller, because all state
//! guarded here (caches, catalogs, counters) is rebuilt from disk on
//! restart and stays internally consistent under the panic points (no
//! multi-step invariants are held across unwinds).
//!
//! Two operability layers sit on top of that contract:
//!
//! * **Observability** — every lock carries a debug name (explicit via
//!   [`Mutex::new_named`]/[`RwLock::new_named`], or the creation site via
//!   `#[track_caller]`), and every poison recovery increments a global
//!   [`poison_recoveries_total`] counter which the dashboard surfaces at
//!   `GET /api/metrics`. A worker panic is recoverable but must never be
//!   silent.
//! * **Deadlock detection** — under `debug_assertions` every acquisition is
//!   recorded in a process-wide lock-order graph keyed by lock name. The
//!   first acquisition that would close a cycle (an AB/BA inversion across
//!   any number of intermediate locks) panics immediately with a report
//!   naming the locks on the cycle, instead of deadlocking some future run
//!   under exactly the wrong interleaving. The `dettest`/concurrency suites
//!   run in debug builds, so the detector audits every live-server storm in
//!   CI for free; release builds compile it out entirely.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{self, MutexGuard as StdMutexGuard, WaitTimeoutResult};
use std::time::Duration;

/// Process-wide count of lock acquisitions that recovered a poisoned lock.
static POISON_RECOVERIES: AtomicU64 = AtomicU64::new(0);

/// How many times any [`Mutex`]/[`RwLock`]/[`Condvar`] in this process
/// recovered from poisoning (a holder panicked while the lock was held).
/// Served at `GET /api/metrics` as `sync.poison_recoveries`.
pub fn poison_recoveries_total() -> u64 {
    POISON_RECOVERIES.load(Ordering::Relaxed)
}

fn recover<G>(r: Result<G, sync::PoisonError<G>>) -> G {
    r.unwrap_or_else(|e| {
        POISON_RECOVERIES.fetch_add(1, Ordering::Relaxed);
        e.into_inner()
    })
}

/// The name a lock reports in cycle panics and debug output: an explicit
/// `new_named` label, or the `file:line` of the creation site.
fn site_name(file: &'static str, line: u32) -> LockName {
    LockName { label: file, line }
}

/// Identity of a lock *class* in the order graph. Two locks created at the
/// same site (or given the same explicit name) are the same class: they are
/// expected to obey one consistent acquisition order.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct LockName {
    label: &'static str,
    /// Creation line, or 0 for explicitly named locks.
    line: u32,
}

impl std::fmt::Display for LockName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.label)
        } else {
            write!(f, "{}:{}", self.label, self.line)
        }
    }
}

impl std::fmt::Debug for LockName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Display::fmt(self, f)
    }
}

// --- lock-order detector (debug builds only) -------------------------------

#[cfg(debug_assertions)]
mod order {
    //! A process-wide directed graph of observed acquisition orders.
    //!
    //! Nodes are [`LockName`]s (lock classes). Holding `A` while acquiring
    //! `B` inserts the edge `A → B`. An acquisition whose new edges would
    //! make the graph cyclic is a latent deadlock: some pair of threads can
    //! interleave those two chains and block forever. We panic on the
    //! *first* such acquisition, naming the cycle, which turns a
    //! probabilistic hang into a deterministic test failure.

    use super::LockName;
    use std::cell::RefCell;
    use std::collections::{HashMap, HashSet};
    use std::sync::{Mutex, OnceLock};

    /// Edges observed so far, process-wide.
    static GRAPH: OnceLock<Mutex<HashMap<LockName, HashSet<LockName>>>> = OnceLock::new();

    thread_local! {
        /// Lock classes currently held by this thread, in acquisition order.
        static HELD: RefCell<Vec<LockName>> = const { RefCell::new(Vec::new()) };
    }

    fn graph() -> &'static Mutex<HashMap<LockName, HashSet<LockName>>> {
        GRAPH.get_or_init(|| Mutex::new(HashMap::new()))
    }

    /// Is `to` reachable from `from` along recorded edges?
    fn path(
        edges: &HashMap<LockName, HashSet<LockName>>,
        from: LockName,
        to: LockName,
        trace: &mut Vec<LockName>,
    ) -> bool {
        if from == to {
            trace.push(from);
            return true;
        }
        let Some(next) = edges.get(&from) else { return false };
        trace.push(from);
        for &n in next {
            if !trace.contains(&n) && path(edges, n, to, trace) {
                return true;
            }
        }
        trace.pop();
        false
    }

    /// Record that this thread is acquiring `new` while holding whatever it
    /// holds; panic if that closes a cycle in the order graph.
    #[expect(clippy::panic, reason = "the lock-order detector's whole job is to panic with a cycle report")]
    pub(super) fn acquiring(new: LockName) {
        HELD.with(|held| {
            let held = held.borrow();
            if held.is_empty() {
                return;
            }
            let mut edges = match graph().lock() {
                Ok(g) => g,
                Err(e) => e.into_inner(),
            };
            for &h in held.iter() {
                // Adding h → new closes a cycle iff new already reaches h.
                let mut trace = Vec::new();
                if path(&edges, new, h, &mut trace) {
                    let chain: Vec<String> =
                        trace.iter().map(|n| format!("`{n}`")).collect();
                    drop(edges);
                    panic!(
                        "lock-order cycle: acquiring `{new}` while holding `{h}`, but the \
                         established order is {} → `{h}` — an AB/BA deadlock waiting for the \
                         right interleaving",
                        chain.join(" → "),
                    );
                }
                edges.entry(h).or_default().insert(new);
            }
        });
    }

    /// The acquisition succeeded; the guard now exists.
    pub(super) fn acquired(name: LockName) {
        HELD.with(|held| held.borrow_mut().push(name));
    }

    /// A guard of class `name` was dropped.
    pub(super) fn released(name: LockName) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(i) = held.iter().rposition(|&h| h == name) {
                held.remove(i);
            }
        });
    }
}

#[cfg(not(debug_assertions))]
mod order {
    use super::LockName;
    #[inline(always)]
    pub(super) fn acquiring(_: LockName) {}
    #[inline(always)]
    pub(super) fn acquired(_: LockName) {}
    #[inline(always)]
    pub(super) fn released(_: LockName) {}
}

// --- Mutex -----------------------------------------------------------------

/// A mutex whose `lock` never fails: poisoning is cleared (and counted) on
/// acquisition. Debug builds track every acquisition in the lock-order
/// graph.
#[derive(Debug)]
pub struct Mutex<T> {
    inner: sync::Mutex<T>,
    name: LockName,
}

impl<T: Default> Default for Mutex<T> {
    #[track_caller]
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

impl<T> Mutex<T> {
    /// Create a new mutex named after its creation site.
    #[track_caller]
    pub fn new(value: T) -> Mutex<T> {
        let loc = std::panic::Location::caller();
        Mutex { inner: sync::Mutex::new(value), name: site_name(loc.file(), loc.line()) }
    }

    /// Create a new mutex with an explicit debug name (shown in lock-order
    /// cycle reports and deadlock diagnostics).
    pub fn new_named(value: T, name: &'static str) -> Mutex<T> {
        Mutex { inner: sync::Mutex::new(value), name: LockName { label: name, line: 0 } }
    }

    /// The lock's debug name.
    pub fn name(&self) -> LockName {
        self.name
    }

    /// Acquire the lock, recovering from poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        order::acquiring(self.name);
        let guard = recover(self.inner.lock());
        order::acquired(self.name);
        MutexGuard { inner: Some(guard), name: self.name }
    }
}

/// Guard returned by [`Mutex::lock`]; releases the lock (and its slot in
/// the order-detector's held set) on drop.
pub struct MutexGuard<'a, T> {
    /// `Some` except transiently inside [`Condvar::wait`].
    inner: Option<StdMutexGuard<'a, T>>,
    name: LockName,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match &self.inner {
            Some(g) => g,
            #[expect(clippy::unreachable, reason = "the inner guard is only vacated inside Condvar::wait, which restores it before returning")]
            None => unreachable!("mutex guard vacated outside Condvar::wait"),
        }
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.inner {
            Some(g) => g,
            #[expect(clippy::unreachable, reason = "the inner guard is only vacated inside Condvar::wait, which restores it before returning")]
            None => unreachable!("mutex guard vacated outside Condvar::wait"),
        }
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        order::released(self.name);
    }
}

// --- RwLock ----------------------------------------------------------------

/// A reader-writer lock whose `read`/`write` never fail: poisoning is
/// cleared (and counted) on acquisition. Debug builds track acquisitions in
/// the lock-order graph — including read-after-read on the same lock, which
/// can deadlock against a queued writer under `std::sync::RwLock`.
#[derive(Debug)]
pub struct RwLock<T> {
    inner: sync::RwLock<T>,
    name: LockName,
}

impl<T: Default> Default for RwLock<T> {
    #[track_caller]
    fn default() -> RwLock<T> {
        RwLock::new(T::default())
    }
}

impl<T> RwLock<T> {
    /// Create a new lock named after its creation site.
    #[track_caller]
    pub fn new(value: T) -> RwLock<T> {
        let loc = std::panic::Location::caller();
        RwLock { inner: sync::RwLock::new(value), name: site_name(loc.file(), loc.line()) }
    }

    /// Create a new lock with an explicit debug name.
    pub fn new_named(value: T, name: &'static str) -> RwLock<T> {
        RwLock { inner: sync::RwLock::new(value), name: LockName { label: name, line: 0 } }
    }

    /// The lock's debug name.
    pub fn name(&self) -> LockName {
        self.name
    }

    /// Acquire a shared read guard, recovering from poisoning.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        order::acquiring(self.name);
        let guard = recover(self.inner.read());
        order::acquired(self.name);
        RwLockReadGuard { inner: guard, name: self.name }
    }

    /// Acquire an exclusive write guard, recovering from poisoning.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        order::acquiring(self.name);
        let guard = recover(self.inner.write());
        order::acquired(self.name);
        RwLockWriteGuard { inner: guard, name: self.name }
    }
}

/// Guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T> {
    inner: sync::RwLockReadGuard<'a, T>,
    name: LockName,
}

impl<T> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        order::released(self.name);
    }
}

/// Guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T> {
    inner: sync::RwLockWriteGuard<'a, T>,
    name: LockName,
}

impl<T> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        order::released(self.name);
    }
}

// --- Condvar ---------------------------------------------------------------

/// A condition variable whose waits recover from poisoning, paired with
/// [`Mutex`] (the dashboard's connection queue blocks on this).
#[derive(Debug, Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    /// Create a new condition variable.
    pub fn new() -> Condvar {
        Condvar(sync::Condvar::new())
    }

    /// Block until notified, releasing and reacquiring the mutex.
    ///
    /// The guard keeps its slot in the order-detector's held set across the
    /// wait: a waiting thread acquires nothing, so it can add no edges, and
    /// on wake it holds the same lock it held before.
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let name = guard.name;
        // Move the std guard out without running our Drop (the lock is
        // conceptually still this thread's — it reacquires before
        // returning), then re-wrap the guard std hands back.
        #[expect(clippy::unreachable, reason = "guards in user hands always carry their inner guard")]
        let Some(inner) = guard.inner.take() else {
            unreachable!("mutex guard vacated outside Condvar::wait")
        };
        std::mem::forget(guard);
        let inner = recover(self.0.wait(inner));
        MutexGuard { inner: Some(inner), name }
    }

    /// Block until notified or `timeout` elapses.
    pub fn wait_timeout<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        let name = guard.name;
        #[expect(clippy::unreachable, reason = "guards in user hands always carry their inner guard")]
        let Some(inner) = guard.inner.take() else {
            unreachable!("mutex guard vacated outside Condvar::wait_timeout")
        };
        std::mem::forget(guard);
        let (inner, result) = recover(self.0.wait_timeout(inner, timeout));
        (MutexGuard { inner: Some(inner), name }, result)
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn poisoned_mutex_recovers_and_counts() {
        let m = Arc::new(Mutex::new(10));
        let m2 = Arc::clone(&m);
        let before = poison_recoveries_total();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        // A std Mutex would now return Err on lock; the wrapper recovers.
        assert_eq!(*m.lock(), 10);
        *m.lock() = 11;
        assert_eq!(*m.lock(), 11);
        assert!(poison_recoveries_total() > before, "recovery must be counted");
    }

    #[test]
    fn poisoned_rwlock_recovers() {
        let l = Arc::new(RwLock::new(5));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _g = l2.write();
            panic!("poison it");
        })
        .join();
        assert_eq!(*l.read(), 5);
        *l.write() = 6;
        assert_eq!(*l.read(), 6);
    }

    #[test]
    fn names_report_creation_site_or_label() {
        let named = Mutex::new_named((), "storage.test_lock");
        assert_eq!(named.name().to_string(), "storage.test_lock");
        let sited = Mutex::new(());
        let name = sited.name().to_string();
        assert!(name.contains("sync.rs"), "{name}");
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new_named(false, "cv.flag"), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let waiter = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut flag = m.lock();
            while !*flag {
                flag = cv.wait(flag);
            }
            true
        });
        std::thread::sleep(Duration::from_millis(10));
        {
            let (m, cv) = &*pair.clone();
            *m.lock() = true;
            cv.notify_all();
        }
        assert!(waiter.join().expect("waiter joins"));
    }

    #[test]
    fn condvar_wait_timeout_returns() {
        let m = Mutex::new_named(0u32, "cv.timeout_value");
        let cv = Condvar::new();
        let (guard, result) = cv.wait_timeout(m.lock(), Duration::from_millis(5));
        assert!(result.timed_out());
        assert_eq!(*guard, 0);
    }

    /// Consistent-order nesting across threads must not trip the detector.
    #[cfg(debug_assertions)]
    #[test]
    fn consistent_nesting_is_clean() {
        let a = Arc::new(Mutex::new_named(0, "order.clean_a"));
        let b = Arc::new(Mutex::new_named(0, "order.clean_b"));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let (a, b) = (Arc::clone(&a), Arc::clone(&b));
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    let ga = a.lock();
                    let gb = b.lock();
                    drop(gb);
                    drop(ga);
                }
            }));
        }
        for h in handles {
            h.join().expect("clean nesting");
        }
    }

    /// The acceptance-criteria test: an AB then BA acquisition panics with a
    /// cycle report naming both locks.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order cycle")]
    fn ab_ba_inversion_panics_with_cycle_report() {
        let a = Mutex::new_named(0, "order.test_a");
        let b = Mutex::new_named(0, "order.test_b");
        {
            let _ga = a.lock();
            let _gb = b.lock(); // establishes a → b
        }
        let _gb = b.lock();
        let _ga = a.lock(); // b → a closes the cycle: panic
    }

    /// The panic message names both locks on the cycle.
    #[cfg(debug_assertions)]
    #[test]
    fn cycle_report_names_both_locks() {
        let result = std::thread::spawn(|| {
            let a = Mutex::new_named(0, "order.report_a");
            let b = Mutex::new_named(0, "order.report_b");
            {
                let _ga = a.lock();
                let _gb = b.lock();
            }
            let _gb = b.lock();
            let _ga = a.lock();
        })
        .join();
        let Err(payload) = result else {
            panic!("inversion must panic");
        };
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic payload is a string");
        assert!(msg.contains("order.report_a"), "{msg}");
        assert!(msg.contains("order.report_b"), "{msg}");
    }

    /// Longer cycles (A→B, B→C, then C→A) are caught too.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order cycle")]
    fn three_lock_cycle_is_detected() {
        let a = Mutex::new_named(0, "order.tri_a");
        let b = Mutex::new_named(0, "order.tri_b");
        let c = Mutex::new_named(0, "order.tri_c");
        {
            let _ga = a.lock();
            let _gb = b.lock(); // a → b
        }
        {
            let _gb = b.lock();
            let _gc = c.lock(); // b → c
        }
        let _gc = c.lock();
        let _ga = a.lock(); // c → a: cycle through b
    }

    /// Re-reading the same RwLock on one thread is flagged: a queued writer
    /// between the two reads deadlocks both.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order cycle")]
    fn nested_read_of_same_rwlock_is_flagged() {
        let l = RwLock::new_named(0, "order.reentrant_read");
        let _g1 = l.read();
        let _g2 = l.read();
    }
}
