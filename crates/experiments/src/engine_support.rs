//! One shared batch engine for every experiment in the process.
//!
//! The network experiments overlap heavily — fig19's regular-interval
//! baseline and table2 re-evaluate fig13's networks — so they all funnel
//! through a single memoizing [`Engine`]: each distinct path DTMC is
//! solved once per run of the suite.

use std::sync::{Mutex, OnceLock};
use whart_engine::Engine;

/// Runs `f` with the process-wide engine locked.
pub fn with_engine<T>(f: impl FnOnce(&mut Engine) -> T) -> T {
    static ENGINE: OnceLock<Mutex<Engine>> = OnceLock::new();
    let engine = ENGINE.get_or_init(|| Mutex::new(Engine::with_available_parallelism()));
    f(&mut engine.lock().expect("engine lock"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_is_shared_across_calls() {
        let first = with_engine(|engine| {
            engine.submit(whart_engine::Scenario::paths(
                "shared",
                vec![whart_model::sweeps::chain_model(
                    1,
                    0.8,
                    whart_net::ReportingInterval::REGULAR,
                )
                .unwrap()],
            ));
            engine.drain().unwrap();
            engine.stats().jobs_completed
        });
        let second = with_engine(|engine| engine.stats().jobs_completed);
        assert_eq!(first, second);
    }
}
