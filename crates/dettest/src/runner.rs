//! The property runner: generate → check → greedily shrink → report.
//!
//! Every case runs under its own derived seed. On failure the runner shrinks
//! to a (locally) minimal counterexample and panics with a report containing
//! `DETTEST_SEED=<seed>`; re-running with that variable set replays exactly
//! the failing case — same generation, same shrink path, same counterexample.
#![expect(clippy::disallowed_methods, reason = "the runner reads DETTEST_SEED and DETTEST_CASES for replay")]

use crate::rng::Rng;
use crate::shrink::Shrink;
use crate::strategy::Strategy;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of random cases per property.
    pub cases: u32,
    /// Base seed; per-case seeds are derived from it. Fixed by default so
    /// runs are deterministic — vary it deliberately, don't let the clock.
    pub seed: u64,
    /// Upper bound on property evaluations spent shrinking one failure.
    pub max_shrink_evals: u32,
    /// Replay exactly one case with this seed (what `DETTEST_SEED` sets).
    pub replay: Option<u64>,
}

impl Default for Config {
    fn default() -> Config {
        Config { cases: 256, seed: 0x5EE_D0F4_A5ED, max_shrink_evals: 4096, replay: None }
    }
}

impl Config {
    /// Apply `DETTEST_SEED` / `DETTEST_CASES` from the environment.
    #[expect(clippy::panic, reason = "a malformed DETTEST_SEED or DETTEST_CASES stops the run with a named error")]
    pub fn from_env(mut self) -> Config {
        if let Ok(s) = std::env::var("DETTEST_SEED") {
            match s.parse::<u64>() {
                Ok(seed) => self.replay = Some(seed),
                Err(_) => panic!("DETTEST_SEED must be a u64, got `{s}`"),
            }
        }
        if let Ok(s) = std::env::var("DETTEST_CASES") {
            match s.parse::<u32>() {
                Ok(cases) => self.cases = cases,
                Err(_) => panic!("DETTEST_CASES must be a u32, got `{s}`"),
            }
        }
        self
    }
}

// Assertion failures inside a property panic; the runner catches them and
// turns them into shrinkable failures. While probing shrink candidates the
// panic hook stays quiet so the log is not flooded with expected panics.
thread_local! {
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

static HOOK: Once = Once::new();

fn install_hook() {
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET.with(|q| q.get()) {
                prev(info);
            }
        }));
    });
}

fn run_one<V>(f: &impl Fn(&V), value: &V) -> Result<(), String> {
    QUIET.with(|q| q.set(true));
    let result = catch_unwind(AssertUnwindSafe(|| f(value)));
    QUIET.with(|q| q.set(false));
    match result {
        Ok(()) => Ok(()),
        Err(payload) => Err(panic_message(payload.as_ref())),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Greedy descent: keep taking the first still-failing child until none
/// fails or the evaluation budget runs out. Returns the minimal value, its
/// failure message, and the number of evaluations spent.
fn shrink_search<V: Clone + 'static>(
    tree: Shrink<V>,
    f: &impl Fn(&V),
    first_msg: String,
    budget: u32,
) -> (V, String, u32) {
    let mut cur = tree;
    let mut msg = first_msg;
    let mut evals = 0u32;
    'descend: loop {
        for child in cur.children() {
            if evals >= budget {
                break 'descend;
            }
            evals += 1;
            if let Err(m) = run_one(f, &child.value) {
                cur = child;
                msg = m;
                continue 'descend;
            }
        }
        break;
    }
    (cur.value, msg, evals)
}

/// Check `property` against `config.cases` generated values, shrinking and
/// reporting the first failure. This is what [`det_proptest!`] expands to;
/// call it directly for properties that need custom drivers.
///
/// [`det_proptest!`]: crate::det_proptest
pub fn check<S: Strategy>(name: &str, config: Config, strategy: S, property: impl Fn(&S::Value)) {
    install_hook();
    let config = config.from_env();

    let run_case = |case_seed: u64| -> Option<(S::Value, String, u32)> {
        let mut rng = Rng::new(case_seed);
        let tree = strategy.tree(&mut rng);
        match run_one(&property, &tree.value) {
            Ok(()) => None,
            Err(msg) => {
                let (min, msg, evals) =
                    shrink_search(tree, &property, msg, config.max_shrink_evals);
                Some((min, msg, evals))
            }
        }
    };

    #[expect(clippy::panic, reason = "failing a property is the runner's contract: the test fails with a replay seed")]
    let report = |case_seed: u64, (min, msg, evals): (S::Value, String, u32)| -> ! {
        panic!(
            "[dettest] property `{name}` failed.\n  \
             minimal counterexample (after {evals} shrink evals): {min:?}\n  \
             error: {msg}\n  \
             reproduce with: DETTEST_SEED={case_seed}"
        );
    };

    if let Some(seed) = config.replay {
        if let Some(failure) = run_case(seed) {
            report(seed, failure);
        }
        return;
    }
    for case in 0..config.cases {
        let case_seed = Rng::derive(config.seed, case as u64);
        if let Some(failure) = run_case(case_seed) {
            report(case_seed, failure);
        }
    }
}
