//! Real-time shared-memory transport: segments, SPSC rings, the
//! [`ShmFabric`] progress engine, and the file-based bootstrap helpers the
//! two-process deployment uses to exchange connection blobs.

mod bootstrap;
mod fabric;
mod region;
mod ring;
mod segment;

use std::time::{Duration, Instant};

pub use bootstrap::{await_blob, publish_blob, Endpoint, EndpointError};
pub use fabric::{ShmConfig, ShmFabric};
pub use ring::{Popped, SpscRing, RECORD_HEADER};
pub use segment::{
    default_shm_dir, Ctrl, FileMapping, FileSegment, HeapSegment, Segment, FILE_HEADER,
};

/// How long [`wait_until`] yields before it starts to sleep.
const YIELD_FOR: Duration = Duration::from_millis(1);
/// The first sleep; each later one doubles, up to [`MAX_SLICE`].
const FIRST_SLICE: Duration = Duration::from_micros(25);
/// The longest sleep between two tries of `cond`.
const MAX_SLICE: Duration = Duration::from_micros(200);

/// The bring-up's one wait: try `cond` until it holds (`true`) or
/// `deadline` passes (`false`). A peer that is already there is seen within
/// µs: `cond` is tried between `yield_now`s (on one core the yield hands
/// the core to the peer; with a core to spare it returns at once), and only
/// after [`YIELD_FOR`] without success between sleeps that double from
/// [`FIRST_SLICE`] to [`MAX_SLICE`], so a peer that takes milliseconds to
/// start costs no spinning core. No sleep reaches past `deadline`: it is
/// the only bound.
fn wait_until(deadline: Instant, cond: impl FnMut() -> bool) -> bool {
    wait_with(deadline, cond, Instant::now, std::thread::sleep)
}

/// [`wait_until`], with its clock and its sleep passed in, so that a test
/// can script the one and see each call of the other.
fn wait_with(
    deadline: Instant,
    mut cond: impl FnMut() -> bool,
    mut now: impl FnMut() -> Instant,
    mut sleep: impl FnMut(Duration),
) -> bool {
    let start = now();
    let mut slice = FIRST_SLICE;
    loop {
        if cond() {
            return true;
        }
        let now = now();
        if now >= deadline {
            return false;
        }
        if now - start < YIELD_FOR {
            std::thread::yield_now();
        } else {
            sleep(slice.min(deadline - now));
            slice = (slice * 2).min(MAX_SLICE);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// A condition that already holds is tried once; one that another thread
    /// makes true ends the wait, whether it flips during the yields or the
    /// sleeps.
    #[test]
    fn wait_until_returns_as_soon_as_cond_holds() {
        let far = Instant::now() + Duration::from_secs(10);
        let mut calls = 0;
        assert!(wait_until(far, || {
            calls += 1;
            true
        }));
        assert_eq!(calls, 1);

        for flip_after in [
            Duration::ZERO,
            Duration::from_micros(300),
            Duration::from_millis(5),
        ] {
            let flag = AtomicBool::new(false);
            let seen = std::thread::scope(|s| {
                s.spawn(|| {
                    std::thread::sleep(flip_after);
                    flag.store(true, Ordering::Release);
                });
                let t0 = Instant::now();
                assert!(wait_until(far, || flag.load(Ordering::Acquire)));
                t0.elapsed()
            });
            assert!(
                seen >= flip_after,
                "{flip_after:?}: returned after {seen:?}"
            );
            assert!(seen < Duration::from_secs(5), "{flip_after:?}: {seen:?}");
        }
    }

    /// A condition that never holds is false once the deadline passes. The
    /// wait yields for [`YIELD_FOR`] and then sleeps, in slices that double
    /// from [`FIRST_SLICE`] to [`MAX_SLICE`], each cut so that it ends by
    /// the deadline: every sleep the wait asks for is checked against the
    /// try just before it. That schedule is checked on a scripted clock —
    /// each read moves it on by an odd step, each sleep by what it asked
    /// for — so that no descheduled turn of the host can end the yields
    /// past the deadline and leave no sleep to check. What the host adds to
    /// the last sleep is checked on the real clock, as the best of five
    /// waits, so that one descheduled turn of a loaded host cannot fail it.
    #[test]
    fn wait_until_is_false_at_the_deadline_and_never_overshoots_it_by_a_slice() {
        const STEP: Duration = Duration::from_micros(37);
        let timeouts = [3_100u64, 4_150, 5_200, 6_100, 7_150].map(Duration::from_micros);
        for timeout in timeouts {
            let clock = std::cell::Cell::new(Instant::now());
            let start = clock.get();
            let deadline = start + timeout;
            let last_try = std::cell::Cell::new(start);
            let mut sleeps = Vec::new();
            let cond = || {
                last_try.set(clock.get());
                false
            };
            let now = || {
                clock.set(clock.get() + STEP);
                clock.get()
            };
            let sleep = |d: Duration| {
                sleeps.push((last_try.get(), clock.get(), d));
                clock.set(clock.get() + d);
            };
            assert!(!wait_with(deadline, cond, now, sleep));
            let end = clock.get();
            assert!(end >= deadline, "returned {:?} early", deadline - end);
            assert!(
                end <= deadline + STEP,
                "{timeout:?}: tried past the deadline"
            );
            assert!(!sleeps.is_empty(), "{timeout:?}: never slept");
            let mut slice = FIRST_SLICE;
            for (i, &(tried, asked, d)) in sleeps.iter().enumerate() {
                assert!(
                    asked - start >= YIELD_FOR,
                    "{timeout:?}: slept while yielding"
                );
                let last = i + 1 == sleeps.len();
                assert!(
                    d == slice || (last && d < slice),
                    "{timeout:?}: slept {d:?} where the slice was {slice:?}"
                );
                assert!(
                    tried + d <= deadline,
                    "{timeout:?}: slept past the deadline"
                );
                slice = (slice * 2).min(MAX_SLICE);
            }
        }
        let mut best = Duration::MAX;
        for timeout in timeouts {
            let deadline = Instant::now() + timeout;
            assert!(!wait_until(deadline, || false));
            let now = Instant::now();
            assert!(now >= deadline, "returned {:?} early", deadline - now);
            best = best.min(now - deadline);
        }
        assert!(
            best < MAX_SLICE,
            "overshot the deadline by {best:?} at best"
        );
    }
}
