//! Per-device health: sticky death flags and circuit breakers, fed by
//! launch outcomes and consulted by planning.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use super::lock_recover;

/// How long an open breaker routes planning around its device before
/// admitting a half-open probe.
pub(super) const BREAKER_COOLDOWN: Duration = Duration::from_millis(100);

/// Per-device circuit breaker state.
#[derive(Debug, Clone, Copy)]
enum Breaker {
    /// Healthy (or recovering): `failures` consecutive failures so far.
    Closed { failures: u32 },
    /// Tripped: planning routes around the device until `until`.
    Open { until: Instant },
    /// Cooldown elapsed: one probe launch may use the device; its
    /// outcome closes or re-opens the breaker.
    HalfOpen,
}

/// Sticky per-device health: permanent-death flags plus circuit
/// breakers. Fed by launch outcomes, consulted by planning.
pub(super) struct HealthRegistry {
    breakers: Vec<Mutex<Breaker>>,
    dead: Vec<AtomicBool>,
    threshold: u32,
    cooldown: Duration,
}

impl HealthRegistry {
    pub(super) fn new(devices: usize, threshold: u32, cooldown: Duration) -> Self {
        Self {
            breakers: (0..devices)
                .map(|_| Mutex::new(Breaker::Closed { failures: 0 }))
                .collect(),
            dead: (0..devices).map(|_| AtomicBool::new(false)).collect(),
            threshold,
            cooldown,
        }
    }

    pub(super) fn record_success(&self, device: usize) {
        if let Some(b) = self.breakers.get(device) {
            *lock_recover(b) = Breaker::Closed { failures: 0 };
        }
    }

    pub(super) fn record_failure(&self, device: usize, permanent: bool) {
        if permanent {
            if let Some(d) = self.dead.get(device) {
                d.store(true, Ordering::Relaxed);
            }
        }
        let Some(b) = self.breakers.get(device) else {
            return;
        };
        let mut b = lock_recover(b);
        *b = match *b {
            Breaker::Closed { failures } => {
                let failures = failures.saturating_add(1);
                if self.threshold > 0 && failures >= self.threshold {
                    Breaker::Open {
                        until: Instant::now() + self.cooldown,
                    }
                } else {
                    Breaker::Closed { failures }
                }
            }
            // A failed half-open probe (or a failure racing an open
            // breaker) restarts the full cooldown.
            Breaker::HalfOpen | Breaker::Open { .. } => Breaker::Open {
                until: Instant::now() + self.cooldown,
            },
        };
    }

    /// Devices planning should currently route around: dead devices plus
    /// open breakers. An expired breaker transitions to half-open here
    /// and is *not* avoided — the calling launch is its probe.
    pub(super) fn avoided(&self) -> Vec<usize> {
        let mut avoid = Vec::new();
        for (i, b) in self.breakers.iter().enumerate() {
            if self.dead[i].load(Ordering::Relaxed) {
                avoid.push(i);
                continue;
            }
            let mut b = lock_recover(b);
            if let Breaker::Open { until } = *b {
                if Instant::now() >= until {
                    *b = Breaker::HalfOpen;
                } else {
                    avoid.push(i);
                }
            }
        }
        avoid
    }

    pub(super) fn open_breakers(&self) -> u64 {
        self.breakers
            .iter()
            .filter(|b| matches!(*lock_recover(b), Breaker::Open { .. }))
            .count() as u64
    }

    pub(super) fn dead_devices(&self) -> u64 {
        self.dead
            .iter()
            .filter(|d| d.load(Ordering::Relaxed))
            .count() as u64
    }
}
