//! The event loop's one readiness wait: a safe wrapper over `poll(2)`.
//!
//! This is the workspace's only `unsafe` code (the root manifest denies
//! `unsafe_code` everywhere else). `poll` itself stays private, so every
//! readiness wait goes through [`wait`].
#![allow(unsafe_code)]

use std::io;
use std::os::raw::{c_int, c_ulong};
use std::os::unix::io::RawFd;
use std::time::Duration;

/// Readable (or, on a listener, a connection to accept).
pub(crate) const POLLIN: i16 = 0x001;
/// Writable without blocking.
pub(crate) const POLLOUT: i16 = 0x004;

/// `struct pollfd`, field for field.
#[repr(C)]
pub(crate) struct PollFd {
    pub(crate) fd: RawFd,
    pub(crate) events: i16,
    pub(crate) revents: i16,
}

impl PollFd {
    pub(crate) fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd { fd, events, revents: 0 }
    }
}

extern "C" {
    // `nfds_t` is `unsigned long` on Linux.
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Block until one of `fds` is ready or `timeout` passes. The timeout is
/// rounded *up* to whole milliseconds, so a sub-millisecond deadline
/// cannot become a zero-timeout busy loop; `EINTR` is a spurious wake.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<()> {
    let ms = c_int::try_from(timeout.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX);
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
    // `pollfd`s and `nfds` is its length, so the kernel reads and writes
    // only memory this call owns, and only until it returns.
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, ms) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(())
}
