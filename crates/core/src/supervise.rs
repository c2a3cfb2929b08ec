//! The one supervisor under both study engines (DESIGN.md §6d).
//!
//! [`Study`](crate::study::Study) runs it over app indices and the
//! [`StreamEngine`](crate::stream::StreamEngine) over shard indices. It
//! owns the worker pool (per-worker deques, stealing from the back of the
//! most loaded peer), the optional in-flight token gate, the commit lock
//! (append, then check kill-after-N, atomically), the first media error,
//! which kills the run, and watchdog-breach counting. Measuring a unit,
//! including per-app panic isolation, and encoding its record stay with
//! each engine. At one thread units run in the order given.

use pinning_resilience::media::MediaError;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How a supervised run schedules its units.
pub(crate) struct Pool {
    /// Worker threads (clamped to `1..=units`).
    pub threads: usize,
    /// Most units in flight at once; `None` leaves it unbounded.
    pub max_inflight: Option<usize>,
    /// Test hook: the process "dies" after this many fresh commits.
    pub kill_after: Option<usize>,
    /// Per-unit wall-clock watchdog; zero disables it.
    pub watchdog: Duration,
}

/// A run that ended without a media error.
pub(crate) struct Supervised<J> {
    /// The journal with every commit of this run appended.
    pub journal: J,
    /// Units committed by this run.
    pub fresh: usize,
    /// Whether the kill hook fired (the run is incomplete).
    pub killed: bool,
    /// Units whose measurement outlasted the watchdog.
    pub watchdog_breaches: u32,
}

/// The journal plus what its lock guards.
struct Commits<J> {
    journal: J,
    fresh: usize,
    media_error: Option<MediaError>,
}

impl Pool {
    /// Runs `measure` on every unit and commits each result with
    /// `commit` under the journal lock. A unit measured after the run
    /// was killed is discarded, not committed.
    pub(crate) fn run<J: Send, T>(
        &self,
        units: &[usize],
        journal: J,
        measure: impl Fn(usize) -> T + Sync,
        commit: impl Fn(&mut J, usize, T) -> Result<(), MediaError> + Sync,
    ) -> Result<Supervised<J>, MediaError> {
        let threads = self.threads.clamp(1, units.len().max(1));
        // Round-robin initial distribution over per-worker run queues.
        let runs: Vec<Mutex<VecDeque<usize>>> =
            (0..threads).map(|_| Mutex::new(VecDeque::new())).collect();
        for (i, unit) in units.iter().enumerate() {
            runs[i % threads].lock().expect("run lock").push_back(*unit);
        }
        let gate = Gate::new(self.max_inflight);
        let commits = Mutex::new(Commits {
            journal,
            fresh: 0,
            media_error: None,
        });
        let breaches = AtomicU32::new(0);

        std::thread::scope(|scope| {
            for me in 0..threads {
                let (runs, gate, commits, breaches) = (&runs, &gate, &commits, &breaches);
                let (measure, commit) = (&measure, &commit);
                scope.spawn(move || loop {
                    if gate.killed() {
                        break;
                    }
                    let Some(unit) = next_unit(runs, me) else {
                        break;
                    };
                    let Some(_token) = gate.acquire() else {
                        break;
                    };
                    let started = Instant::now();
                    let value = measure(unit);
                    if !self.watchdog.is_zero() && started.elapsed() > self.watchdog {
                        breaches.fetch_add(1, Ordering::Relaxed);
                    }
                    let mut c = commits.lock().expect("journal lock");
                    if gate.killed() {
                        break; // the process "died" while we measured
                    }
                    if let Err(e) = commit(&mut c.journal, unit, value) {
                        c.media_error.get_or_insert(e);
                        gate.kill();
                        break;
                    }
                    c.fresh += 1;
                    if self.kill_after == Some(c.fresh) {
                        gate.kill();
                    }
                });
            }
        });

        let commits = commits.into_inner().expect("journal lock");
        if let Some(e) = commits.media_error {
            return Err(e);
        }
        Ok(Supervised {
            journal: commits.journal,
            fresh: commits.fresh,
            killed: gate.killed(),
            watchdog_breaches: breaches.into_inner(),
        })
    }
}

/// Own queue first (front), then steal from the most loaded peer (back).
/// The own queue's lock is released before any peer's is taken, so two
/// workers running dry together cannot each hold the lock the other
/// waits for.
fn next_unit(runs: &[Mutex<VecDeque<usize>>], me: usize) -> Option<usize> {
    let own = runs[me].lock().expect("run lock").pop_front();
    own.or_else(|| {
        let victim = (0..runs.len())
            .filter(|v| *v != me)
            .max_by_key(|v| runs[*v].lock().expect("run lock").len())?;
        runs[victim].lock().expect("run lock").pop_back()
    })
}

/// The kill flag plus the in-flight token gate.
///
/// The flag is set and waiters are woken under the gate's lock, so a
/// worker between its kill check and its wait cannot miss the wake-up.
struct Gate {
    killed: AtomicBool,
    free: Mutex<usize>,
    freed: Condvar,
}

/// One in-flight slot, handed back to the gate when dropped — on every
/// path out of a unit, including a kill or a media error.
struct Token<'g>(&'g Gate);

impl Gate {
    fn new(limit: Option<usize>) -> Gate {
        Gate {
            killed: AtomicBool::new(false),
            free: Mutex::new(limit.map_or(usize::MAX, |n| n.max(1))),
            freed: Condvar::new(),
        }
    }

    fn killed(&self) -> bool {
        self.killed.load(Ordering::Acquire)
    }

    /// Blocks for a token; `None` once the run is killed.
    fn acquire(&self) -> Option<Token<'_>> {
        let mut free = self.free.lock().expect("gate lock");
        loop {
            if self.killed() {
                return None;
            }
            if *free > 0 {
                *free -= 1;
                return Some(Token(self));
            }
            free = self.freed.wait(free).expect("gate wait");
        }
    }

    fn kill(&self) {
        let _free = self.free.lock().expect("gate lock");
        self.killed.store(true, Ordering::Release);
        self.freed.notify_all();
    }
}

impl Drop for Token<'_> {
    fn drop(&mut self) {
        // A drop must not panic (it may run while a measurement unwinds),
        // and a bare count cannot be left half-updated by a panic.
        *self.0.free.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        self.0.freed.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn pool(threads: usize, max_inflight: Option<usize>, kill_after: Option<usize>) -> Pool {
        Pool {
            threads,
            max_inflight,
            kill_after,
            watchdog: Duration::ZERO,
        }
    }

    /// A commit that journals the measured value.
    fn push<T>(journal: &mut Vec<T>, _: usize, value: T) -> Result<(), MediaError> {
        journal.push(value);
        Ok(())
    }

    #[test]
    fn workers_running_dry_together_all_finish() {
        use std::sync::mpsc::{channel, RecvTimeoutError};
        // Instant units make every worker run dry, and steal, at once.
        let (done, finished) = channel();
        let rounds = std::thread::spawn(move || {
            for _ in 0..100 {
                let units: Vec<usize> = (0..64).collect();
                let mut run = pool(4, Some(2), None)
                    .run(&units, Vec::new(), |u| u, push)
                    .unwrap();
                run.journal.sort_unstable();
                assert_eq!(run.journal, units, "every unit is committed once");
            }
            let _ = done.send(());
        });
        if let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(Duration::from_secs(60)) {
            panic!("workers deadlocked");
        }
        rounds.join().expect("every round completes");
    }

    #[test]
    fn the_gate_bounds_units_in_flight() {
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let units: Vec<usize> = (0..64).collect();
        pool(4, Some(2), None)
            .run(
                &units,
                (),
                |_| {
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::yield_now();
                    live.fetch_sub(1, Ordering::SeqCst);
                },
                |_, _, _| Ok(()),
            )
            .unwrap();
        assert!(peak.into_inner() <= 2);
    }

    #[test]
    fn kill_after_n_leaves_exactly_n_commits() {
        for threads in [1, 3] {
            let units: Vec<usize> = (0..50).collect();
            let run = pool(threads, Some(1), Some(7))
                .run(&units, Vec::new(), |u| u, push)
                .unwrap();
            assert!(run.killed);
            assert_eq!((run.fresh, run.journal.len()), (7, 7));
        }
    }

    #[test]
    fn watchdog_counts_slow_units() {
        let units: Vec<usize> = (0..3).collect();
        let mut p = pool(1, None, None);
        p.watchdog = Duration::from_nanos(1);
        let run = p
            .run(
                &units,
                (),
                |_| std::thread::sleep(Duration::from_millis(1)),
                |_, _, _| Ok(()),
            )
            .unwrap();
        assert_eq!(run.watchdog_breaches, 3);
    }
}
