//! Request admission: bound the number of in-flight enhancements.
//!
//! TIMER runs a request's rounds on the calling thread, so each admitted
//! request keeps one core busy, and running more of them than the machine
//! has cores only adds cache pressure and latency for everyone. The
//! [`Admission`] gate bounds the concurrent requests by handing out permits
//! up to a cap (hardware parallelism by default); requests beyond the cap
//! queue on a condvar, and
//! a queued request whose deadline expires before a permit frees up is
//! rejected *without* having burned any compute — the deadline-aware half of
//! the daemon's graceful-degradation contract.

use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// A queued request's deadline expired before a permit freed up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionRejected;

impl std::fmt::Display for AdmissionRejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deadline expired while queued for admission")
    }
}

/// The admission gate. Shareable across threads; permits are RAII.
#[derive(Debug)]
pub struct Admission {
    max_inflight: usize,
    in_flight: Mutex<usize>,
    cond: Condvar,
}

/// An admission permit; dropping it frees the slot and wakes one waiter.
#[derive(Debug)]
pub struct Permit<'a> {
    gate: &'a Admission,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut in_flight = self.gate.lock();
        *in_flight = in_flight.saturating_sub(1);
        self.gate.cond.notify_one();
    }
}

impl Admission {
    /// A gate admitting at most `max_inflight` concurrent holders; `0` means
    /// "hardware parallelism" (falling back to 1 when the platform cannot
    /// tell).
    pub fn new(max_inflight: usize) -> Self {
        let cap = if max_inflight == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            max_inflight
        };
        Admission {
            max_inflight: cap,
            in_flight: Mutex::new(0),
            cond: Condvar::new(),
        }
    }

    /// Acquires a permit, queueing while the gate is full. With a deadline,
    /// the wait is bounded: expiry while queued returns
    /// [`AdmissionRejected`] and the request never starts computing.
    ///
    /// # Errors
    /// [`AdmissionRejected`] when `deadline` passes before a slot frees up.
    pub fn acquire(&self, deadline: Option<Instant>) -> Result<Permit<'_>, AdmissionRejected> {
        let mut in_flight = self.lock();
        loop {
            if *in_flight < self.max_inflight {
                *in_flight += 1;
                return Ok(Permit { gate: self });
            }
            match deadline {
                None => in_flight = self.wait(in_flight),
                Some(t) => {
                    let now = Instant::now();
                    if now >= t {
                        return Err(AdmissionRejected);
                    }
                    in_flight = self.wait_timeout(in_flight, t - now);
                }
            }
        }
    }

    /// Permits currently held.
    pub fn in_flight(&self) -> usize {
        *self.lock()
    }

    /// The admission cap.
    pub fn capacity(&self) -> usize {
        self.max_inflight
    }

    fn lock(&self) -> MutexGuard<'_, usize> {
        match self.in_flight.lock() {
            Ok(guard) => guard,
            // The counter is a plain usize: always consistent.
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn wait<'a>(&self, guard: MutexGuard<'a, usize>) -> MutexGuard<'a, usize> {
        match self.cond.wait(guard) {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn wait_timeout<'a>(
        &self,
        guard: MutexGuard<'a, usize>,
        timeout: std::time::Duration,
    ) -> MutexGuard<'a, usize> {
        match self.cond.wait_timeout(guard, timeout) {
            Ok((guard, _)) => guard,
            Err(poisoned) => poisoned.into_inner().0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn permits_are_bounded_and_released_on_drop() {
        let gate = Admission::new(2);
        assert_eq!(gate.capacity(), 2);
        let a = gate.acquire(None).unwrap();
        let b = gate.acquire(None).unwrap();
        assert_eq!(gate.in_flight(), 2);
        // Full: a deadline already in the past is rejected immediately.
        let past = Instant::now() - Duration::from_millis(1);
        assert!(gate.acquire(Some(past)).is_err());
        drop(a);
        let c = gate
            .acquire(Some(Instant::now() + Duration::from_secs(5)))
            .unwrap();
        assert_eq!(gate.in_flight(), 2);
        drop(b);
        drop(c);
        assert_eq!(gate.in_flight(), 0);
    }

    #[test]
    fn queued_request_rejected_at_deadline() {
        let gate = Admission::new(1);
        let held = gate.acquire(None).unwrap();
        let start = Instant::now();
        let result = gate.acquire(Some(start + Duration::from_millis(30)));
        assert_eq!(result.map(|_| ()), Err(AdmissionRejected));
        assert!(start.elapsed() >= Duration::from_millis(30));
        drop(held);
    }

    #[test]
    fn queued_request_admitted_when_slot_frees() {
        let gate = std::sync::Arc::new(Admission::new(1));
        let held = gate.acquire(None).unwrap();
        let worker = {
            let gate = std::sync::Arc::clone(&gate);
            std::thread::spawn(move || {
                let permit = gate.acquire(Some(Instant::now() + Duration::from_secs(10)));
                permit.is_ok()
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        drop(held);
        assert!(worker.join().unwrap(), "waiter must get the freed slot");
    }

    #[test]
    fn zero_means_hardware_parallelism() {
        assert!(Admission::new(0).capacity() >= 1);
    }
}
