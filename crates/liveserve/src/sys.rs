//! Raw Linux `epoll`/`eventfd`/`recv` syscall wrappers.
//!
//! The vendored-only policy rules out the `libc` crate, so the handful
//! of syscalls the reactor and the upstream pool need are declared here
//! against the C library `std` already links. This is the **only**
//! module in the crate allowed to contain `unsafe`: everything above it
//! talks to the safe [`Epoll`] / [`WakeFd`] types, which own their file
//! descriptors and close them on drop, or to [`peek_would_block`],
//! which borrows a live socket.
//!
//! ABI notes: on x86_64 the kernel's `struct epoll_event` is packed
//! (no padding between the `u32` events mask and the `u64` data word);
//! on other 64-bit targets it has natural alignment. [`EpollEvent`]
//! mirrors that, and its fields are always read **by copy** — taking a
//! reference into a packed struct is undefined behaviour.
#![allow(unsafe_code)]

use std::io;
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::{c_int, c_uint, c_void};

/// Readable readiness.
pub const EPOLLIN: u32 = 0x001;
/// Writable readiness.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported; cannot be masked off).
pub const EPOLLERR: u32 = 0x008;
/// Hangup (always reported; cannot be masked off).
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down its writing half.
pub const EPOLLRDHUP: u32 = 0x2000;
/// Edge-triggered delivery.
pub const EPOLLET: u32 = 1 << 31;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
#[cfg(test)]
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;
const EFD_CLOEXEC: c_int = 0o2000000;
const MSG_PEEK: c_int = 0x02;
const MSG_DONTWAIT: c_int = 0x40;

/// Mirror of the kernel's `struct epoll_event`.
#[derive(Clone, Copy)]
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
pub struct EpollEvent {
    events: u32,
    data: u64,
}

impl EpollEvent {
    /// A zeroed event, for buffer initialisation.
    pub fn zeroed() -> EpollEvent {
        EpollEvent { events: 0, data: 0 }
    }

    /// The readiness mask (copied out of the packed struct).
    pub fn events(&self) -> u32 {
        self.events
    }

    /// The caller-chosen token registered with the fd.
    pub fn token(&self) -> u64 {
        self.data
    }
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn recv(fd: c_int, buf: *mut c_void, len: usize, flags: c_int) -> isize;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An owned epoll instance.
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Create a new epoll instance (`EPOLL_CLOEXEC`).
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: no pointers involved; the return value is checked.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Register `fd` with the given interest mask and token.
    pub fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Change the interest mask / token of a registered `fd`.
    #[cfg(test)]
    pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Deregister `fd`.
    pub fn del(&self, fd: RawFd) -> io::Result<()> {
        // The event argument is ignored for DEL on modern kernels but
        // must be non-null on pre-2.6.9 ones; pass a real struct.
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Wait for readiness; returns how many entries of `events` were
    /// filled. A timeout or an interrupting signal yields `Ok(0)`.
    pub fn epoll_wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        let max = events.len().min(c_int::MAX as usize) as c_int;
        // SAFETY: the buffer is valid for `max` entries for the whole
        // call; the kernel writes at most `max` of them.
        let n = unsafe { epoll_wait(self.fd, events.as_mut_ptr(), max, timeout_ms) };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(n as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: we own the fd and drop it exactly once.
        unsafe { close(self.fd) };
    }
}

/// An `eventfd`-backed wakeup channel: any thread calls [`WakeFd::wake`]
/// to make the owning reactor's `epoll_wait` return.
pub struct WakeFd {
    fd: RawFd,
}

impl WakeFd {
    /// Create a nonblocking eventfd.
    pub fn new() -> io::Result<WakeFd> {
        // SAFETY: no pointers involved; the return value is checked.
        let fd = cvt(unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) })?;
        Ok(WakeFd { fd })
    }

    /// The raw fd, for epoll registration.
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Nudge the owner. An `EAGAIN` (counter saturated) already implies
    /// a pending wakeup, so all errors are ignorable.
    pub fn wake(&self) {
        let val: u64 = 1;
        // SAFETY: `val` is 8 valid bytes for the duration of the call.
        unsafe { write(self.fd, (&raw const val).cast::<c_void>(), 8) };
    }

    /// Reset the counter so the next `wake` produces a fresh edge.
    pub fn drain(&self) {
        let mut val: u64 = 0;
        // SAFETY: `val` is 8 valid writable bytes for the call.
        unsafe { read(self.fd, (&raw mut val).cast::<c_void>(), 8) };
    }
}

impl Drop for WakeFd {
    fn drop(&mut self) {
        // SAFETY: we own the fd and drop it exactly once.
        unsafe { close(self.fd) };
    }
}

/// Whether a one-byte nonblocking peek at `sock` finds nothing to read
/// and nothing wrong: `true` only for `EAGAIN`; EOF, a pending byte or
/// any other error is `false`. One syscall, and it neither consumes
/// data nor touches the socket's blocking mode.
pub fn peek_would_block(sock: &TcpStream) -> bool {
    let mut probe = 0u8;
    // SAFETY: `probe` is one valid writable byte for the call; the fd
    // is open for as long as `sock` is borrowed.
    let n = unsafe {
        recv(
            sock.as_raw_fd(),
            (&raw mut probe).cast::<c_void>(),
            1,
            MSG_PEEK | MSG_DONTWAIT,
        )
    };
    n < 0 && io::Error::last_os_error().kind() == io::ErrorKind::WouldBlock
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wakefd_wakes_epoll_and_drains() {
        let ep = Epoll::new().unwrap();
        let wake = WakeFd::new().unwrap();
        ep.add(wake.fd(), EPOLLIN, 7).unwrap();

        let mut events = [EpollEvent::zeroed(); 4];
        // Nothing pending: times out empty.
        assert_eq!(ep.epoll_wait(&mut events, 0).unwrap(), 0);

        wake.wake();
        wake.wake(); // coalesces into one readable edge
        let n = ep.epoll_wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 7);
        assert_ne!(events[0].events() & EPOLLIN, 0);

        wake.drain();
        assert_eq!(ep.epoll_wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn peek_tells_quiet_from_pending_from_closed() {
        use std::io::{Read, Write};
        use std::net::TcpListener;

        // Loopback delivery is prompt, not instant: poll, bounded.
        fn becomes_readable(sock: &TcpStream) -> bool {
            (0..1_000_000).any(|_| {
                std::thread::yield_now();
                !peek_would_block(sock)
            })
        }

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut ours = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut theirs, _) = listener.accept().unwrap();
        assert!(peek_would_block(&ours), "idle and open");

        // A pending byte is reported and left in place.
        theirs.write_all(b"x").unwrap();
        assert!(becomes_readable(&ours));
        assert!(!peek_would_block(&ours), "the first peek consumed it");
        let mut byte = [0u8; 1];
        ours.read_exact(&mut byte).unwrap();
        assert_eq!(&byte, b"x");
        assert!(peek_would_block(&ours), "idle again");

        drop(theirs);
        assert!(becomes_readable(&ours), "EOF never surfaced");
    }

    #[test]
    fn add_modify_del_round_trip() {
        let ep = Epoll::new().unwrap();
        let wake = WakeFd::new().unwrap();
        ep.add(wake.fd(), EPOLLIN, 1).unwrap();
        ep.modify(wake.fd(), EPOLLIN | EPOLLOUT, 2).unwrap();
        wake.wake();
        let mut events = [EpollEvent::zeroed(); 4];
        let n = ep.epoll_wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 2);
        ep.del(wake.fd()).unwrap();
        assert_eq!(ep.epoll_wait(&mut events, 0).unwrap(), 0);
    }
}
