//! SIGINT (Ctrl-C) observation without a libc dependency.
//!
//! The workspace vendors no FFI crate, so this module declares the C
//! symbol it needs (`signal(2)` registration) directly. The handler
//! only performs an atomic store — the single async-signal-safe
//! operation the accept loop needs to observe a Ctrl-C on its next
//! poll.

use std::sync::atomic::{AtomicBool, Ordering};

static INTERRUPTED: AtomicBool = AtomicBool::new(false);

/// Whether SIGINT has been received since [`install`].
pub fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::Relaxed)
}

/// Clears the flag (test isolation).
#[cfg(test)]
pub(crate) fn reset() {
    INTERRUPTED.store(false, Ordering::Relaxed);
}

#[allow(unsafe_code)]
mod sys {
    use super::{AtomicBool, Ordering, INTERRUPTED};

    const SIGINT: i32 = 2;
    /// `SIG_ERR` return of `signal(2)`.
    const SIG_ERR: usize = usize::MAX;

    extern "C" {
        /// POSIX `signal(2)`; handler passed/returned as a raw address.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_sigint(_signum: i32) {
        // Async-signal-safe: a single atomic store.
        INTERRUPTED.store(true, Ordering::Relaxed);
    }

    /// Tracks whether the handler is already installed.
    static INSTALLED: AtomicBool = AtomicBool::new(false);

    pub(super) fn install() -> bool {
        if INSTALLED.swap(true, Ordering::SeqCst) {
            return true;
        }
        // SAFETY: `signal` is the POSIX registration call; the handler
        // address stays valid for the process lifetime (it is a static
        // function) and performs only an atomic store.
        let previous = unsafe { signal(SIGINT, on_sigint as *const () as usize) };
        previous != SIG_ERR
    }
}

/// Installs the SIGINT handler (idempotent). Returns whether a handler
/// is active.
pub fn install() -> bool {
    sys::install()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_starts_clear_and_install_is_idempotent() {
        reset();
        assert!(!interrupted());
        assert!(install());
        assert!(install(), "second install is a no-op");
        assert!(!interrupted(), "installation alone does not fire");
    }
}
