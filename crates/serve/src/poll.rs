//! Readiness polling over nonblocking sockets without a libc crate.
//!
//! The accept loop needs exactly one OS facility: "which of these file
//! descriptors is readable, or has `timeout` elapsed?". On Unix that is
//! `poll(2)`, declared here directly (the workspace vendors no FFI
//! crate, mirroring [`crate::signal`]). The module also provides
//! [`WakePipe`], a Unix socket pair one thread writes a byte into to
//! interrupt another thread's sleeping `poll` — the std-only stand-in
//! for a self-pipe. Workers wake the event loop with it when they hand a
//! connection back for parking, and the event loop wakes a worker with
//! its own pipe when that worker must give up the connection it holds.

use std::io::{self, Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// `POLLIN`: data is readable (or a peer close is observable).
pub(crate) const POLLIN: i16 = 0x001;
/// `POLLOUT`: a write would not block.
pub(crate) const POLLOUT: i16 = 0x004;

/// One `pollfd` entry, layout-compatible with the C struct.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// An entry watching `fd` for `events` (e.g. [`POLLIN`]).
    pub(crate) fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Whether any watched or error condition fired.
    pub(crate) fn ready(&self) -> bool {
        self.revents != 0
    }
}

#[allow(unsafe_code)]
mod sys {
    use super::PollFd;
    use std::os::raw::{c_int, c_ulong};

    extern "C" {
        /// POSIX `poll(2)`. `nfds_t` is `unsigned long` on the targets
        /// this workspace builds for.
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    pub(super) fn poll_raw(fds: &mut [PollFd], timeout_ms: c_int) -> c_int {
        // SAFETY: `fds` is a valid, exclusively borrowed slice of
        // #[repr(C)] pollfd entries; the kernel writes only `revents`.
        unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) }
    }
}

/// Waits until at least one entry is ready or `timeout` elapses.
/// Returns the number of ready entries (0 on timeout).
///
/// # Errors
///
/// The OS error, including [`io::ErrorKind::Interrupted`] when a signal
/// (e.g. the SIGINT the drain path watches) cut the wait short.
pub(crate) fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let timeout_ms: i32 = match timeout {
        None => -1,
        Some(t) => i32::try_from(t.as_millis().max(1)).unwrap_or(i32::MAX),
    };
    match sys::poll_raw(fds, timeout_ms) {
        -1 => Err(io::Error::last_os_error()),
        n => Ok(n as usize),
    }
}

/// Waits for `events` on a single descriptor. Returns `false` on
/// timeout. Retries interrupted waits internally.
///
/// # Errors
///
/// Any OS error other than `EINTR`.
pub(crate) fn wait_fd(fd: RawFd, events: i16, timeout: Option<Duration>) -> io::Result<bool> {
    let deadline = timeout.map(|t| std::time::Instant::now() + t);
    loop {
        let remaining = match deadline {
            None => None,
            Some(d) => {
                let left = d.saturating_duration_since(std::time::Instant::now());
                if left.is_zero() {
                    return Ok(false);
                }
                Some(left)
            }
        };
        let mut entry = [PollFd::new(fd, events)];
        match poll(&mut entry, remaining) {
            Ok(0) => {
                if deadline.is_none() {
                    continue;
                }
                return Ok(false);
            }
            Ok(_) => return Ok(true),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// A Unix socket pair used to interrupt a sleeping [`poll`].
///
/// Wakers hold cloned write ends; writing one byte makes the read end
/// readable and wakes the thread polling it. Both ends are nonblocking,
/// so draining accumulated wake bytes never stalls the reader and a wake
/// into a full buffer (one is already pending) never stalls the writer.
pub(crate) struct WakePipe {
    reader: UnixStream,
    writer: UnixStream,
}

impl WakePipe {
    /// Creates the pair.
    ///
    /// # Errors
    ///
    /// When the sockets cannot be created.
    pub(crate) fn new() -> io::Result<WakePipe> {
        let (reader, writer) = UnixStream::pair()?;
        reader.set_nonblocking(true)?;
        writer.set_nonblocking(true)?;
        Ok(WakePipe { reader, writer })
    }

    /// The descriptor the waiting thread adds to its poll set.
    pub(crate) fn fd(&self) -> RawFd {
        self.reader.as_raw_fd()
    }

    /// A cloned write end for another thread.
    ///
    /// # Errors
    ///
    /// When the descriptor cannot be duplicated.
    pub(crate) fn waker(&self) -> io::Result<Waker> {
        Ok(Waker {
            stream: self.writer.try_clone()?,
        })
    }

    /// Consumes every pending wake byte.
    pub(crate) fn drain(&mut self) {
        let mut buf = [0u8; 64];
        while matches!(self.reader.read(&mut buf), Ok(n) if n > 0) {}
    }
}

/// A write end that interrupts the poll of the [`WakePipe`]'s reader.
pub(crate) struct Waker {
    stream: UnixStream,
}

impl Waker {
    /// Wakes the reader (best-effort: a full socket buffer already
    /// guarantees a pending wakeup).
    pub(crate) fn wake(&mut self) {
        let _ = self.stream.write(&[1]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn poll_times_out_and_sees_readable_data() {
        let mut pipe = WakePipe::new().unwrap();
        let mut fds = [PollFd::new(pipe.fd(), POLLIN)];
        let started = Instant::now();
        let n = poll(&mut fds, Some(Duration::from_millis(30))).unwrap();
        assert_eq!(n, 0, "nothing written yet");
        assert!(started.elapsed() >= Duration::from_millis(25));

        pipe.waker().unwrap().wake();
        let mut fds = [PollFd::new(pipe.fd(), POLLIN)];
        let n = poll(&mut fds, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].ready());
        pipe.drain();

        // Drained: back to timing out.
        let mut fds = [PollFd::new(pipe.fd(), POLLIN)];
        assert_eq!(poll(&mut fds, Some(Duration::from_millis(10))).unwrap(), 0);
    }

    #[test]
    fn wait_fd_reports_readability() {
        let mut pipe = WakePipe::new().unwrap();
        assert!(!wait_fd(pipe.fd(), POLLIN, Some(Duration::from_millis(10))).unwrap());
        pipe.waker().unwrap().wake();
        assert!(wait_fd(pipe.fd(), POLLIN, Some(Duration::from_secs(5))).unwrap());
        pipe.drain();
    }
}
