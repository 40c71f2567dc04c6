//! Learning-rate schedules.
//!
//! The DARTS retraining recipe (which the paper inherits for P3: 600
//! epochs) anneals the learning rate with a cosine schedule; the federated
//! retraining uses a constant rate. Both are provided behind one trait so
//! the trainers are schedule-agnostic.

/// A learning-rate schedule: maps a step index to a learning rate.
pub trait LrSchedule: Send {
    /// Learning rate at `step` of `total_steps`.
    fn lr_at(&self, step: usize, total_steps: usize) -> f32;
}

/// Constant learning rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantLr(
    /// The rate returned at every step.
    pub f32,
);

impl LrSchedule for ConstantLr {
    fn lr_at(&self, _step: usize, _total_steps: usize) -> f32 {
        self.0
    }
}

/// Cosine annealing from `max_lr` down to `min_lr` over the run
/// (`SGDR`-style without restarts), as used by DARTS retraining.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CosineLr {
    /// Initial learning rate.
    pub max_lr: f32,
    /// Final learning rate.
    pub min_lr: f32,
}

impl CosineLr {
    /// DARTS retraining values: 0.025 → 0.
    pub fn darts() -> Self {
        CosineLr {
            max_lr: 0.025,
            min_lr: 0.0,
        }
    }
}

impl LrSchedule for CosineLr {
    fn lr_at(&self, step: usize, total_steps: usize) -> f32 {
        if total_steps <= 1 {
            return self.max_lr;
        }
        let progress = (step.min(total_steps - 1)) as f32 / (total_steps - 1) as f32;
        let cos = (std::f32::consts::PI * progress).cos();
        self.min_lr + 0.5 * (self.max_lr - self.min_lr) * (1.0 + cos)
    }
}

/// Linear warm-up into a wrapped schedule: ramps from 0 to the wrapped
/// schedule's value over `warmup_steps`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarmupLr<S> {
    /// Steps spent ramping up.
    pub warmup_steps: usize,
    /// Schedule used after warm-up.
    pub inner: S,
}

impl<S: LrSchedule> LrSchedule for WarmupLr<S> {
    fn lr_at(&self, step: usize, total_steps: usize) -> f32 {
        let base = self.inner.lr_at(step, total_steps);
        if step < self.warmup_steps && self.warmup_steps > 0 {
            base * (step + 1) as f32 / self.warmup_steps as f32
        } else {
            base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let s = ConstantLr(0.1);
        assert_eq!(s.lr_at(0, 100), 0.1);
        assert_eq!(s.lr_at(99, 100), 0.1);
    }

    #[test]
    fn cosine_endpoints_and_midpoint() {
        let s = CosineLr {
            max_lr: 1.0,
            min_lr: 0.0,
        };
        assert!((s.lr_at(0, 101) - 1.0).abs() < 1e-6);
        assert!(s.lr_at(100, 101) < 1e-6);
        assert!((s.lr_at(50, 101) - 0.5).abs() < 1e-6);
        // monotone decreasing
        let mut prev = f32::INFINITY;
        for step in 0..101 {
            let lr = s.lr_at(step, 101);
            assert!(lr <= prev + 1e-7);
            prev = lr;
        }
    }

    #[test]
    fn cosine_degenerate_total() {
        let s = CosineLr::darts();
        assert_eq!(s.lr_at(0, 1), s.max_lr);
        assert_eq!(s.lr_at(5, 0), s.max_lr);
    }

    #[test]
    fn warmup_ramps_then_follows() {
        let s = WarmupLr {
            warmup_steps: 4,
            inner: ConstantLr(0.8),
        };
        assert!((s.lr_at(0, 100) - 0.2).abs() < 1e-6);
        assert!((s.lr_at(3, 100) - 0.8).abs() < 1e-6);
        assert_eq!(s.lr_at(50, 100), 0.8);
    }
}
