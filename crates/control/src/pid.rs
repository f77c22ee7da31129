//! A discrete PID controller.
//!
//! WirelessHART gateways "run the PID control function" on each received
//! sensor report (Section II of the paper). This is a standard positional
//! PID with derivative-on-measurement (avoids derivative kick), output
//! clamping and conditional anti-windup.

/// Discrete PID controller gains and limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PidConfig {
    /// Proportional gain.
    pub kp: f64,
    /// Integral gain (per second).
    pub ki: f64,
    /// Derivative gain (seconds).
    pub kd: f64,
    /// Lower output clamp.
    pub output_min: f64,
    /// Upper output clamp.
    pub output_max: f64,
}

impl Default for PidConfig {
    fn default() -> Self {
        PidConfig {
            kp: 1.0,
            ki: 0.0,
            kd: 0.0,
            output_min: -1e9,
            output_max: 1e9,
        }
    }
}

/// The controller state.
#[derive(Debug, Clone, PartialEq)]
pub struct Pid {
    config: PidConfig,
    integral: f64,
    last_measurement: Option<f64>,
}

impl Pid {
    /// Creates a controller.
    ///
    /// # Panics
    ///
    /// Panics if the output limits are inverted or any gain is not finite.
    pub fn new(config: PidConfig) -> Self {
        assert!(
            config.output_min < config.output_max,
            "output limits inverted"
        );
        assert!(
            config.kp.is_finite() && config.ki.is_finite() && config.kd.is_finite(),
            "gains must be finite"
        );
        Pid {
            config,
            integral: 0.0,
            last_measurement: None,
        }
    }

    /// Computes the control output for one sample.
    ///
    /// `dt` is the time since the previous update in seconds (the reporting
    /// interval for a WirelessHART loop).
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive.
    pub fn update(&mut self, setpoint: f64, measurement: f64, dt: f64) -> f64 {
        assert!(dt > 0.0, "dt must be positive");
        let error = setpoint - measurement;
        let proportional = self.config.kp * error;
        // Derivative on measurement (sign flipped) avoids setpoint kick.
        let derivative = match self.last_measurement {
            Some(last) => -self.config.kd * (measurement - last) / dt,
            None => 0.0,
        };
        self.last_measurement = Some(measurement);
        let candidate_integral = self.integral + self.config.ki * error * dt;
        let unclamped = proportional + candidate_integral + derivative;
        let output = unclamped.clamp(self.config.output_min, self.config.output_max);
        // Conditional anti-windup: only integrate while not pushing further
        // into saturation.
        if (output - unclamped).abs() < f64::EPSILON
            || (unclamped > self.config.output_max && error < 0.0)
            || (unclamped < self.config.output_min && error > 0.0)
        {
            self.integral = candidate_integral;
        }
        output
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportional_only_tracks_error() {
        let mut pid = Pid::new(PidConfig {
            kp: 2.0,
            ..PidConfig::default()
        });
        assert_eq!(pid.update(1.0, 0.0, 0.1), 2.0);
        assert_eq!(pid.update(1.0, 0.5, 0.1), 1.0);
        assert_eq!(pid.update(1.0, 1.0, 0.1), 0.0);
    }

    #[test]
    fn integral_accumulates() {
        let mut pid = Pid::new(PidConfig {
            kp: 0.0,
            ki: 1.0,
            ..PidConfig::default()
        });
        let o1 = pid.update(1.0, 0.0, 1.0);
        let o2 = pid.update(1.0, 0.0, 1.0);
        assert!((o1 - 1.0).abs() < 1e-12);
        assert!((o2 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn derivative_damps_fast_measurement_changes() {
        let mut pid = Pid::new(PidConfig {
            kp: 0.0,
            kd: 1.0,
            ..PidConfig::default()
        });
        let _ = pid.update(0.0, 0.0, 0.1);
        // Measurement rising at 10 units/s -> derivative output -10 * kd.
        let o = pid.update(0.0, 1.0, 0.1);
        assert!((o + 10.0).abs() < 1e-12);
    }

    #[test]
    fn output_is_clamped_and_integral_does_not_wind_up() {
        let mut pid = Pid::new(PidConfig {
            kp: 0.0,
            ki: 10.0,
            output_min: -1.0,
            output_max: 1.0,
            ..PidConfig::default()
        });
        for _ in 0..100 {
            assert!(pid.update(10.0, 0.0, 1.0) <= 1.0);
        }
        // After the setpoint flips, recovery is immediate-ish rather than
        // delayed by a huge wound-up integral.
        let o = pid.update(-10.0, 0.0, 1.0);
        assert!(o < 1.0, "integral wound up: {o}");
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn zero_dt_rejected() {
        let mut pid = Pid::new(PidConfig::default());
        let _ = pid.update(1.0, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "output limits inverted")]
    fn bad_limits_rejected() {
        let _ = Pid::new(PidConfig {
            output_min: 1.0,
            output_max: -1.0,
            ..PidConfig::default()
        });
    }
}
