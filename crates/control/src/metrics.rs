//! Control-performance metrics computed from a loop trajectory.

use crate::loop_sim::LoopTrace;

/// Integral of squared error (ISE) against a setpoint, in
/// `units^2 * seconds`.
pub fn integral_squared_error(trace: &LoopTrace, setpoint: f64) -> f64 {
    trace
        .points
        .iter()
        .map(|p| {
            let e = setpoint - p.output;
            e * e * 0.01 // 10 ms slots
        })
        .sum()
}

/// Integral of absolute error (IAE) against a setpoint, in
/// `units * seconds`.
pub fn integral_absolute_error(trace: &LoopTrace, setpoint: f64) -> f64 {
    trace
        .points
        .iter()
        .map(|p| (setpoint - p.output).abs() * 0.01)
        .sum()
}

/// The first time (ms) after which the output stays within
/// `band` of the setpoint for the rest of the trace, if any.
pub fn settling_time_ms(trace: &LoopTrace, setpoint: f64, band: f64) -> Option<u32> {
    let mut settled_since: Option<u32> = None;
    for p in &trace.points {
        if (p.output - setpoint).abs() <= band {
            settled_since.get_or_insert(p.t_ms);
        } else {
            settled_since = None;
        }
    }
    settled_since
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loop_sim::TracePoint;

    fn trace(outputs: &[f64]) -> LoopTrace {
        LoopTrace {
            points: outputs
                .iter()
                .enumerate()
                .map(|(i, &y)| TracePoint {
                    t_ms: i as u32 * 10,
                    output: y,
                    command: 0.0,
                })
                .collect(),
            reports_lost: 0,
            reports_delivered: outputs.len() as u32,
        }
    }

    #[test]
    fn ise_and_iae() {
        let t = trace(&[0.0, 0.5, 1.0]);
        // errors 1.0, 0.5, 0.0 over 10 ms each.
        assert!((integral_squared_error(&t, 1.0) - (1.0 + 0.25) * 0.01).abs() < 1e-12);
        assert!((integral_absolute_error(&t, 1.0) - 1.5 * 0.01).abs() < 1e-12);
    }

    #[test]
    fn settling_time_finds_last_entry_into_band() {
        let t = trace(&[0.0, 0.9, 1.2, 0.98, 1.01, 0.99]);
        // Within +-0.05 from index 3 onwards -> 30 ms.
        assert_eq!(settling_time_ms(&t, 1.0, 0.05), Some(30));
        // Tight band never settles.
        assert_eq!(settling_time_ms(&t, 1.0, 0.001), None);
    }

    #[test]
    fn empty_trace_is_safe() {
        let t = LoopTrace::default();
        assert_eq!(integral_squared_error(&t, 1.0), 0.0);
        assert_eq!(settling_time_ms(&t, 1.0, 0.1), None);
    }
}
