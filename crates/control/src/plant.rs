//! Simple process models.
//!
//! The paper's motivating applications are process-industry loops (flow
//! speeds, fluid levels, temperatures). A first-order lag covers
//! temperature and flow; it is integrated with forward Euler at the 10 ms
//! slot rate, far below its time constant.

/// A continuous-time process integrated in discrete steps.
pub trait Plant {
    /// Advances the plant by `dt` seconds under control input `u` and
    /// returns the new output.
    fn step(&mut self, u: f64, dt: f64) -> f64;

    /// The current output without advancing time.
    fn output(&self) -> f64;
}

/// First-order lag: `T * dy/dt = -y + K * u`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FirstOrderPlant {
    gain: f64,
    time_constant: f64,
    state: f64,
}

impl FirstOrderPlant {
    /// Creates the plant at initial output `y0`.
    ///
    /// # Panics
    ///
    /// Panics if `time_constant` is not positive.
    pub fn new(gain: f64, time_constant: f64, y0: f64) -> Self {
        assert!(time_constant > 0.0, "time constant must be positive");
        FirstOrderPlant {
            gain,
            time_constant,
            state: y0,
        }
    }
}

impl Plant for FirstOrderPlant {
    fn step(&mut self, u: f64, dt: f64) -> f64 {
        let dy = (-self.state + self.gain * u) / self.time_constant;
        self.state += dy * dt;
        self.state
    }

    fn output(&self) -> f64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_order_settles_to_gain_times_input() {
        let mut p = FirstOrderPlant::new(2.0, 1.0, 0.0);
        let mut y = 0.0;
        for _ in 0..100_000 {
            y = p.step(1.0, 0.001);
        }
        assert!((y - 2.0).abs() < 1e-6, "{y}");
    }

    #[test]
    fn first_order_initial_slope() {
        // dy/dt at t=0 with y=0, u=1: K/T.
        let mut p = FirstOrderPlant::new(3.0, 2.0, 0.0);
        let y = p.step(1.0, 0.01);
        assert!((y - 3.0 / 2.0 * 0.01).abs() < 1e-12);
    }

    #[test]
    fn output_matches_state() {
        let mut p = FirstOrderPlant::new(1.0, 1.0, 0.25);
        assert_eq!(p.output(), 0.25);
        let y = p.step(0.0, 0.1);
        assert_eq!(p.output(), y);
    }
}
