//! Raw Linux `epoll`/`eventfd`/`socket` syscall wrappers.
//!
//! The vendored-only policy rules out the `libc` crate, so the handful
//! of syscalls the reactor needs are declared here against the C
//! library `std` already links. This is the **only** module in the
//! crate allowed to contain `unsafe`: everything above it talks to the
//! safe [`Epoll`] / [`WakeFd`] types, which own their file descriptors
//! and close them on drop, or to [`connect_nonblocking`], which hands
//! back an owned `TcpStream`.
//!
//! ABI notes: on x86_64 the kernel's `struct epoll_event` is packed
//! (no padding between the `u32` events mask and the `u64` data word);
//! on other 64-bit targets it has natural alignment. [`EpollEvent`]
//! mirrors that, and its fields are always read **by copy** — taking a
//! reference into a packed struct is undefined behaviour.
#![allow(unsafe_code)]

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{FromRawFd, RawFd};
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
const EPOLL_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;
const EFD_CLOEXEC: c_int = 0o2000000;
const AF_INET: u16 = 2;
const AF_INET6: u16 = 10;
const SOCK_STREAM: c_int = 1;
const SOCK_NONBLOCK: c_int = 0o4000;
const SOCK_CLOEXEC: c_int = 0o2000000;
const EINPROGRESS: i32 = 115;

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

    /// The caller-chosen token registered with the fd.
    pub fn token(&self) -> u64 {
        self.data
    }

    /// The readiness mask (copied out of the packed struct).
    pub fn events(&self) -> u32 {
        self.events
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
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn connect(fd: c_int, addr: *const c_void, len: c_uint) -> c_int;
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

    /// Deregister `fd`.
    pub fn del(&self, fd: RawFd) -> io::Result<()> {
        // The event argument is ignored for DEL on modern kernels but
        // must be non-null on pre-2.6.9 ones; pass a real struct.
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Wait for readiness, `timeout_ms` at most (negative: for as long
    /// as it takes). `Some(n)`: `n` entries of `events` were filled —
    /// none, if the timeout ran out. `None`: a signal cut the wait
    /// short, which is neither.
    pub fn epoll_wait(
        &self,
        events: &mut [EpollEvent],
        timeout_ms: i32,
    ) -> io::Result<Option<usize>> {
        let max = events.len().min(c_int::MAX as usize) as c_int;
        // SAFETY: the buffer is valid for `max` entries for the whole
        // call; the kernel writes at most `max` of them.
        let n = unsafe { epoll_wait(self.fd, events.as_mut_ptr(), max, timeout_ms) };
        if n < 0 {
            return interrupted(io::Error::last_os_error());
        }
        Ok(Some(n as usize))
    }
}

/// What a wait that failed with `err` amounts to: a signal is no
/// failure, and no timeout either.
fn interrupted(err: io::Error) -> io::Result<Option<usize>> {
    match err.kind() {
        io::ErrorKind::Interrupted => Ok(None),
        _ => Err(err),
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

/// Start a TCP connection to `addr` without waiting for the handshake:
/// `socket(SOCK_NONBLOCK)` + `connect`, where `EINPROGRESS` is success.
/// The stream is connected once it polls writable with no pending
/// `SO_ERROR` (`TcpStream::take_error`); a refusal shows up the same way,
/// or — loopback can answer within the call — as this function's error.
pub fn connect_nonblocking(addr: SocketAddr) -> io::Result<TcpStream> {
    // The kernel's `sockaddr_in` / `sockaddr_in6`, field by field: family
    // (host order), port (network order), then v4: the address; v6:
    // flowinfo, the address, scope id.
    let mut sa = [0u8; 28];
    sa[2..4].copy_from_slice(&addr.port().to_be_bytes());
    let (family, len) = match addr {
        SocketAddr::V4(a) => {
            sa[4..8].copy_from_slice(&a.ip().octets());
            (AF_INET, 16)
        }
        SocketAddr::V6(a) => {
            sa[4..8].copy_from_slice(&a.flowinfo().to_ne_bytes());
            sa[8..24].copy_from_slice(&a.ip().octets());
            sa[24..28].copy_from_slice(&a.scope_id().to_ne_bytes());
            (AF_INET6, 28)
        }
    };
    sa[..2].copy_from_slice(&family.to_ne_bytes());
    let ty = SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC;
    // SAFETY: no pointers involved; the return value is checked.
    let fd = cvt(unsafe { socket(c_int::from(family), ty, 0) })?;
    // SAFETY: `fd` is a socket nothing else owns; the stream closes it on
    // every path out of this function.
    let stream = unsafe { TcpStream::from_raw_fd(fd) };
    // SAFETY: `sa` holds a valid socket address of `len` bytes for the
    // duration of the call; the kernel copies it.
    let ret = unsafe { connect(fd, sa.as_ptr().cast(), len) };
    if ret < 0 {
        let err = io::Error::last_os_error();
        if err.raw_os_error() != Some(EINPROGRESS) {
            return Err(err);
        }
    }
    Ok(stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPOLL_CTL_MOD: c_int = 3;

    #[test]
    fn wakefd_wakes_epoll_and_drains() {
        let ep = Epoll::new().unwrap();
        let wake = WakeFd::new().unwrap();
        ep.add(wake.fd(), EPOLLIN, 7).unwrap();

        let mut events = [EpollEvent::zeroed(); 4];
        // Nothing pending: times out empty.
        assert_eq!(ep.epoll_wait(&mut events, 0).unwrap(), Some(0));

        wake.wake();
        wake.wake(); // coalesces into one readable edge
        let n = ep.epoll_wait(&mut events, 1000).unwrap();
        assert_eq!(n, Some(1));
        assert_eq!(events[0].token(), 7);
        assert_ne!(events[0].events() & EPOLLIN, 0);

        wake.drain();
        assert_eq!(ep.epoll_wait(&mut events, 0).unwrap(), Some(0));
    }

    /// `EINTR` is not a tick: the reactor sweeps its stall budgets on
    /// `Some(0)`, and a signal must not read as one.
    #[test]
    fn an_interrupted_wait_is_neither_ready_nor_timed_out() {
        const EINTR: i32 = 4;
        const EBADF: i32 = 9;
        assert_eq!(
            interrupted(io::Error::from_raw_os_error(EINTR)).unwrap(),
            None
        );
        let other = interrupted(io::Error::from_raw_os_error(EBADF)).unwrap_err();
        assert_eq!(other.raw_os_error(), Some(EBADF));
    }

    /// Wait for `sock` to poll writable and report its `SO_ERROR`.
    fn dial_outcome(sock: &TcpStream) -> Option<io::Error> {
        use std::os::fd::AsRawFd;
        let ep = Epoll::new().unwrap();
        ep.add(sock.as_raw_fd(), EPOLLOUT, 1).unwrap();
        let mut events = [EpollEvent::zeroed(); 1];
        assert_eq!(ep.epoll_wait(&mut events, 10_000).unwrap(), Some(1));
        sock.take_error().unwrap()
    }

    #[test]
    fn nonblocking_dial_completes_on_writable_and_reports_refusal() {
        use std::io::{Read, Write};
        use std::net::TcpListener;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut ours = connect_nonblocking(addr).unwrap();
        assert!(dial_outcome(&ours).is_none(), "handshake completed");
        let (mut theirs, _) = listener.accept().unwrap();
        ours.write_all(b"x").unwrap();
        let mut byte = [0u8; 1];
        theirs.read_exact(&mut byte).unwrap();
        assert_eq!(&byte, b"x");
        // Nothing to read yet, and the socket does not block for it.
        assert_eq!(
            ours.read(&mut byte).unwrap_err().kind(),
            io::ErrorKind::WouldBlock
        );

        // Nobody listening: refused within the call or on the poll.
        drop((listener, theirs));
        let refused = match connect_nonblocking(addr) {
            Err(e) => e,
            Ok(sock) => dial_outcome(&sock).expect("a dial to a closed port must fail"),
        };
        assert_eq!(refused.kind(), io::ErrorKind::ConnectionRefused);
    }

    #[test]
    fn add_modify_del_round_trip() {
        let ep = Epoll::new().unwrap();
        let wake = WakeFd::new().unwrap();
        ep.add(wake.fd(), EPOLLIN, 1).unwrap();
        ep.ctl(EPOLL_CTL_MOD, wake.fd(), EPOLLIN | EPOLLOUT, 2)
            .unwrap();
        wake.wake();
        let mut events = [EpollEvent::zeroed(); 4];
        let n = ep.epoll_wait(&mut events, 1000).unwrap();
        assert_eq!(n, Some(1));
        assert_eq!(events[0].token(), 2);
        ep.del(wake.fd()).unwrap();
        assert_eq!(ep.epoll_wait(&mut events, 0).unwrap(), Some(0));
    }
}
