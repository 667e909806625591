//! [`FlightGroup`]: single-flight coalescing of concurrent cache misses.
//!
//! When N threads miss the same key at once (a cold-start stampede — the
//! dashboard's worker pool fanning one hot query across connections, or the
//! parallel executor's workers racing into a shared page), the naive miss
//! path performs N identical physical reads and N identical deserializes.
//! Single-flight (the lease scheme memcached deployments use for thundering
//! herds) fixes that: the first thread to register an in-flight slot for the
//! key becomes the *leader* and computes the value; the other N−1 become
//! *followers* and block on the slot until the leader publishes the result.
//! Exactly one physical read happens.
//!
//! Error policy: results are shared only on success. A leader's failure
//! marks the slot `Failed` and wakes the followers, which *retry* from
//! scratch (one of them becomes the next leader). Each caller therefore
//! returns an error produced by its own attempt — nothing requires the
//! error type to be `Clone`, and a transient failure is retried instead of
//! being fanned out N times. (`compute` is `FnMut` for exactly this reason:
//! a follower that outlives a failed leader may be promoted and compute
//! after all.)
//!
//! Lock discipline: the group never holds two locks at once. The shard map
//! lock is dropped before the slot lock is taken, and the leader computes
//! with no lock held at all; followers wait on the slot's condvar, which
//! acquires nothing new. Both lock classes carry explicit names (given at
//! construction) so the debug-build lock-order detector and the static
//! rank table see them.

use crate::hash::shard_of;
use crate::sync::{Condvar, Mutex};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// The published state of one in-flight computation.
enum FlightState<V> {
    /// The leader is still computing.
    Pending,
    /// The leader succeeded; followers clone this value.
    Done(V),
    /// The leader failed (or unwound); followers must retry.
    Failed,
}

/// One in-flight slot: the leader publishes into `state`, followers wait on
/// `arrived`.
struct Flight<V> {
    state: Mutex<FlightState<V>>,
    arrived: Condvar,
}

/// Coalesces concurrent computations of the same key. See the module docs
/// for the protocol.
pub struct FlightGroup<K, V> {
    shards: Vec<Mutex<HashMap<K, Arc<Flight<V>>>>>,
    slot_name: &'static str,
}

impl<K: Clone + Eq + Hash, V: Clone> FlightGroup<K, V> {
    /// A group with `shards` independent key maps (1 is fine for most
    /// callers; the maps are only held long enough to register a slot).
    ///
    /// `map_name` / `slot_name` name the two lock classes for the runtime
    /// lock-order detector; use distinct names per embedding (e.g.
    /// `"storage.page_flight.map"` in the buffer pool vs.
    /// `"index.cube_flight.map"` in the cube store) so their order graphs
    /// stay separate.
    pub fn new(shards: usize, map_name: &'static str, slot_name: &'static str) -> FlightGroup<K, V> {
        let shards = shards.max(1);
        FlightGroup {
            shards: (0..shards).map(|_| Mutex::new_named(HashMap::new(), map_name)).collect(),
            slot_name,
        }
    }

    /// Callers that have joined `key`'s in-flight computation as followers
    /// and will take its result (diagnostic; 0 when nothing is in flight).
    pub fn followers(&self, key: &K) -> usize {
        // The map and the leader hold one reference each.
        self.shard(key).lock().get(key).map_or(0, |f| Arc::strong_count(f).saturating_sub(2))
    }

    #[expect(clippy::indexing_slicing, reason = "shard_of reduces mod shards.len(), which new() keeps >= 1")]
    fn shard(&self, key: &K) -> &Mutex<HashMap<K, Arc<Flight<V>>>> {
        &self.shards[shard_of(key, self.shards.len())]
    }

    /// Cancel the in-flight computation for `key`, if any: the slot is
    /// deregistered and marked `Failed`, so followers wake up and *retry*
    /// from scratch (re-resolving the key first — which is the point: the
    /// caller cancels because the key's backing data was just replaced, and
    /// a retry observes the replacement). The leader, if one is mid-compute,
    /// still returns its own result to its own caller; its later attempt to
    /// deregister is a no-op because the slot it owns is no longer in the
    /// map. Returns true when a flight was actually cancelled.
    ///
    /// Lock discipline matches `run`: the map lock is released before the
    /// slot lock is taken.
    pub fn cancel(&self, key: &K) -> bool {
        let flight = {
            let shard = self.shard(key);
            let mut map = shard.lock();
            map.remove(key)
        };
        match flight {
            Some(f) => {
                {
                    let mut state = f.state.lock();
                    if matches!(*state, FlightState::Pending) {
                        *state = FlightState::Failed;
                    }
                }
                f.arrived.notify_all();
                true
            }
            None => false,
        }
    }

    /// Compute (or wait for) the value for `key`.
    ///
    /// Exactly one concurrent caller per key runs `compute` at a time; the
    /// rest block and clone its successful result. On failure the computing
    /// caller gets its own error back and waiting callers retry (one of
    /// them re-running `compute`).
    pub fn run<E>(&self, key: K, mut compute: impl FnMut() -> Result<V, E>) -> Result<V, E> {
        loop {
            // Register or join the in-flight slot. The map lock covers only
            // the HashMap operation; it is released before any wait or work.
            let (flight, leader) = {
                let shard = self.shard(&key);
                let mut map = shard.lock();
                match map.get(&key) {
                    Some(f) => (Arc::clone(f), false),
                    None => {
                        let f = Arc::new(Flight {
                            state: Mutex::new_named(FlightState::Pending, self.slot_name),
                            arrived: Condvar::new(),
                        });
                        map.insert(key.clone(), Arc::clone(&f));
                        (f, true)
                    }
                }
            };

            if leader {
                // If `compute` unwinds, the guard's Drop publishes `Failed`
                // and deregisters the slot so followers retry instead of
                // waiting on a flight nobody will finish.
                let guard = LeaderGuard { group: self, key, flight: &flight, published: false };
                return guard.publish(compute());
            }

            // Follower: wait for the leader's verdict.
            let mut state = flight.state.lock();
            loop {
                match &*state {
                    FlightState::Pending => state = flight.arrived.wait(state),
                    FlightState::Done(v) => return Ok(v.clone()),
                    FlightState::Failed => break,
                }
            }
            // Leader failed: retry. The failed flight was deregistered, so
            // the next registration starts a fresh computation.
        }
    }
}

/// Publishes the leader's outcome exactly once, even across unwinds.
struct LeaderGuard<'a, K: Clone + Eq + Hash, V: Clone> {
    group: &'a FlightGroup<K, V>,
    key: K,
    flight: &'a Arc<Flight<V>>,
    published: bool,
}

impl<K: Clone + Eq + Hash, V: Clone> LeaderGuard<'_, K, V> {
    /// Publish the computed result: followers see `Done`/`Failed`, the slot
    /// is deregistered, and the result passes through to the caller.
    fn publish<E>(mut self, result: Result<V, E>) -> Result<V, E> {
        self.finish(match &result {
            Ok(v) => FlightState::Done(v.clone()),
            Err(_) => FlightState::Failed,
        });
        self.published = true;
        result
    }

    /// Store the verdict, wake the followers, deregister the slot. Never
    /// holds two locks at once. Deregistration only removes the map entry if
    /// it is still *this* flight: a `cancel` may already have removed it and
    /// a fresh flight for the same key may have been registered since —
    /// removing that one would strand its followers.
    fn finish(&self, verdict: FlightState<V>) {
        {
            let mut state = self.flight.state.lock();
            *state = verdict;
        }
        self.flight.arrived.notify_all();
        let shard = self.group.shard(&self.key);
        let mut map = shard.lock();
        if map.get(&self.key).is_some_and(|f| Arc::ptr_eq(f, self.flight)) {
            map.remove(&self.key);
        }
    }
}

impl<K: Clone + Eq + Hash, V: Clone> Drop for LeaderGuard<'_, K, V> {
    fn drop(&mut self) {
        if !self.published {
            // The leader unwound mid-compute: fail the flight so followers
            // retry rather than wait forever.
            self.finish(FlightState::Failed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;

    impl<K: Clone + Eq + Hash, V: Clone> FlightGroup<K, V> {
        /// Number of computations currently in flight (diagnostic).
        fn in_flight(&self) -> usize {
            let mut n = 0;
            for shard in &self.shards {
                n += shard.lock().len();
            }
            n
        }
    }

    #[test]
    fn single_caller_computes_once() {
        let g: FlightGroup<u64, u64> = FlightGroup::new(4, "flight.test_map", "flight.test_slot");
        let v = g.run(7, || Ok::<_, ()>(42)).unwrap();
        assert_eq!(v, 42);
        assert_eq!(g.in_flight(), 0, "slot must be deregistered");
    }

    #[test]
    fn stampede_coalesces_to_one_compute() {
        let g: Arc<FlightGroup<u64, u64>> =
            Arc::new(FlightGroup::new(4, "flight.stampede_map", "flight.stampede_slot"));
        let computes = Arc::new(AtomicU64::new(0));
        let barrier = Arc::new(Barrier::new(8));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let (g, computes, barrier) = (Arc::clone(&g), Arc::clone(&computes), Arc::clone(&barrier));
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                g.run(1, || {
                    computes.fetch_add(1, Ordering::SeqCst);
                    // Hold the flight open long enough for the stragglers
                    // to join as followers.
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    Ok::<_, ()>(99)
                })
                .unwrap()
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 99);
        }
        assert_eq!(computes.load(Ordering::SeqCst), 1, "exactly one compute");
        assert_eq!(g.in_flight(), 0);
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let g: Arc<FlightGroup<u64, u64>> =
            Arc::new(FlightGroup::new(4, "flight.distinct_map", "flight.distinct_slot"));
        let computes = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for k in 0..6u64 {
            let (g, computes) = (Arc::clone(&g), Arc::clone(&computes));
            handles.push(std::thread::spawn(move || {
                g.run(k, || {
                    computes.fetch_add(1, Ordering::SeqCst);
                    Ok::<_, ()>(k * 2)
                })
                .unwrap()
            }));
        }
        let mut got: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, [0, 2, 4, 6, 8, 10]);
        assert_eq!(computes.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn leader_failure_lets_followers_retry() {
        let g: Arc<FlightGroup<u64, u64>> =
            Arc::new(FlightGroup::new(1, "flight.fail_map", "flight.fail_slot"));
        let attempts = Arc::new(AtomicU64::new(0));
        let barrier = Arc::new(Barrier::new(4));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let (g, attempts, barrier) = (Arc::clone(&g), Arc::clone(&attempts), Arc::clone(&barrier));
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                g.run(5, || {
                    let n = attempts.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    // First attempt fails; whoever retries succeeds.
                    if n == 0 {
                        Err("transient")
                    } else {
                        Ok(77)
                    }
                })
            }));
        }
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // The failing leader got its own error; everyone who returned Ok
        // saw the retried value.
        assert_eq!(results.iter().filter(|r| r.is_err()).count(), 1);
        assert!(results.iter().all(|r| !matches!(r, Ok(v) if *v != 77)));
        let n = attempts.load(Ordering::SeqCst);
        assert!(n >= 2, "a retry must have happened, saw {n} attempts");
        assert_eq!(g.in_flight(), 0);
    }

    #[test]
    fn cancel_of_idle_key_is_a_noop() {
        let g: FlightGroup<u64, u64> = FlightGroup::new(4, "flight.cancel_map", "flight.cancel_slot");
        assert!(!g.cancel(&42));
    }

    #[test]
    fn cancel_wakes_followers_into_a_retry() {
        let g: Arc<FlightGroup<u64, u64>> =
            Arc::new(FlightGroup::new(1, "flight.cxl_map", "flight.cxl_slot"));
        // Three-way rendezvous: leader (inside its compute), follower, and
        // the main thread all meet before the timing-sensitive part starts.
        let barrier = Arc::new(Barrier::new(3));

        // Leader enters the flight, rendezvouses, then sleeps long enough
        // for the cancel to land mid-compute.
        let leader = {
            let (g, barrier) = (Arc::clone(&g), Arc::clone(&barrier));
            std::thread::spawn(move || {
                g.run(3, || {
                    barrier.wait();
                    std::thread::sleep(std::time::Duration::from_millis(40));
                    Ok::<_, ()>(1)
                })
            })
        };
        let follower = {
            let (g, barrier) = (Arc::clone(&g), Arc::clone(&barrier));
            std::thread::spawn(move || {
                barrier.wait();
                // Give the leader time to register before we join.
                std::thread::sleep(std::time::Duration::from_millis(5));
                g.run(3, || Ok::<_, ()>(2))
            })
        };
        barrier.wait();
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(g.cancel(&3), "a flight was in progress");

        // The leader's own caller still gets the leader's value; the
        // follower was woken by the cancel and retried, computing the fresh
        // value itself (or joined the leader before the cancel landed —
        // either way it terminates with a value).
        assert_eq!(leader.join().unwrap(), Ok(1));
        let f = follower.join().unwrap().unwrap();
        assert!(f == 1 || f == 2, "follower saw {f}");
        assert_eq!(g.in_flight(), 0, "no slot leaks after cancel + finish");
    }

    #[test]
    fn cancelled_leader_does_not_deregister_successor_flight() {
        let g: Arc<FlightGroup<u64, u64>> =
            Arc::new(FlightGroup::new(1, "flight.succ_map", "flight.succ_slot"));
        let barrier = Arc::new(Barrier::new(2));

        let old_leader = {
            let (g, barrier) = (Arc::clone(&g), Arc::clone(&barrier));
            std::thread::spawn(move || {
                g.run(8, || {
                    barrier.wait();
                    // Stay in flight until the main thread has cancelled us
                    // and registered a successor flight.
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    Ok::<_, ()>(10)
                })
            })
        };
        barrier.wait();
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(g.cancel(&8));

        // Register a successor flight for the same key and hold it open
        // past the old leader's finish. If the old leader's deregistration
        // were unconditional it would remove *this* flight from the map.
        let done = Arc::new(AtomicU64::new(0));
        let successor = {
            let (g, done) = (Arc::clone(&g), Arc::clone(&done));
            std::thread::spawn(move || {
                g.run(8, || {
                    std::thread::sleep(std::time::Duration::from_millis(80));
                    done.fetch_add(1, Ordering::SeqCst);
                    Ok::<_, ()>(20)
                })
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(g.in_flight(), 1, "successor flight registered");
        assert_eq!(old_leader.join().unwrap(), Ok(10));
        // Old leader finished (and would have deregistered); the successor
        // slot must still be in the map so late arrivals coalesce onto it.
        assert_eq!(g.in_flight(), 1, "successor flight survived the old leader's finish");
        assert_eq!(successor.join().unwrap(), Ok(20));
        assert_eq!(done.load(Ordering::SeqCst), 1);
        assert_eq!(g.in_flight(), 0);
    }

    #[test]
    fn panicking_leader_does_not_strand_followers() {
        let g: Arc<FlightGroup<u64, u64>> =
            Arc::new(FlightGroup::new(1, "flight.panic_map", "flight.panic_slot"));
        let barrier = Arc::new(Barrier::new(2));

        let leader = {
            let (g, barrier) = (Arc::clone(&g), Arc::clone(&barrier));
            std::thread::spawn(move || {
                let _ = g.run(9, || {
                    // Rendezvous inside the flight so the other thread is
                    // guaranteed to join as a follower.
                    barrier.wait();
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    panic!("leader dies mid-compute");
                    #[allow(unreachable_code)]
                    Ok::<u64, ()>(0)
                });
            })
        };
        let follower = {
            let (g, barrier) = (Arc::clone(&g), Arc::clone(&barrier));
            std::thread::spawn(move || {
                barrier.wait();
                std::thread::sleep(std::time::Duration::from_millis(2));
                g.run(9, || Ok::<_, ()>(11))
            })
        };
        assert!(leader.join().is_err(), "leader must have panicked");
        assert_eq!(follower.join().unwrap(), Ok(11), "follower retried after the unwind");
        assert_eq!(g.in_flight(), 0);
    }
}
