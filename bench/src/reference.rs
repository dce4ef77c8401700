//! Reference work: small fixed programs the harness runs next to every
//! cell of a workload, to learn how fast the box is *right now*.
//!
//! The reference box is a shared two-vCPU guest whose speed moves by a
//! quarter for seconds to minutes at a stretch, and by different amounts
//! for different kinds of work: over ten minutes, in 10-second windows, a
//! dependent ALU chain moved 3 %, a system call 8 %, a thread hand-off
//! 18 % and a cache-missing pointer chase 21 % (quartile distance over
//! median; README "Noise"). No statistic of a 15-second run averages
//! over a state that lasts minutes; dividing by a reference that the
//! same state slowed does. So every workload names a reference shaped
//! like it — the same kind of work over a working set of about its
//! size — and a slice of that reference runs before and after every
//! cell:
//!
//! * [`Relay`] for the live workloads — a request over loopback TCP to
//!   a reader thread, a channel hand-off to a writer thread, a 2 KiB
//!   reply: the system calls, wake-ups and context switches of a proxy
//!   hit, and none of the repo's code;
//! * [`MiniSim`] for the simulator workloads — a binary-heap event loop
//!   over a hash table, of 8 192 entries next to `sim-sweep` (whose
//!   populations of a few thousand files fit the core's caches) and of
//!   32 768 next to `sim-evict` (whose 20 000 file records and their
//!   modification lists, about 2 MB looked up at random, only just do);
//! * [`generate_slice`] for every workload's set-up — allocate, fill
//!   with random draws, sort, free: what input generation does.
//!
//! A timing is *calibrated* by multiplying it by `nominal / ref`: `ref`
//! the reference's wall time next to it, `nominal` the reference's wall
//! time at the box's usual speed. All of this is frozen. A change to a
//! reference or a nominal time redefines every timing metric, so it is
//! a change to the benchmark and never rides along with a change that
//! claims a gain.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Bytes of a relay request (about a `GET` with a few headers).
const RELAY_REQUEST: usize = 96;
/// Bytes of a relay reply (about a head plus the median body).
const RELAY_REPLY: usize = 2_048;
/// Round trips in one relay slice (about 3 ms).
const RELAY_ROUND_TRIPS: usize = 300;
/// Events in one mini-simulation slice (1.5 ms over 8 192 entries,
/// 3.4 ms over 32 768).
const MINISIM_EVENTS: usize = 12_000;
/// Elements in one generation slice (about 1 ms).
const GENERATE_ELEMENTS: usize = 32_768;
/// Wall time of one generation slice at the reference box's usual speed.
pub const GENERATE_NOMINAL_S: f64 = 0.0010;

/// Which reference a workload is calibrated by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReferenceKind {
    /// [`Relay`].
    Relay,
    /// [`MiniSim`] over a table of this many entries.
    MiniSim {
        /// Entries in the table (and events in flight).
        entries: u32,
    },
}

/// A running reference.
#[derive(Debug)]
pub enum Reference {
    /// The live reference.
    Relay(Relay),
    /// The simulator reference.
    MiniSim(MiniSim),
}

impl Reference {
    /// Start the reference of `kind` (a relay's threads inherit the
    /// caller's CPU pin).
    pub fn start(kind: ReferenceKind) -> io::Result<Reference> {
        Ok(match kind {
            ReferenceKind::Relay => Reference::Relay(Relay::spawn()?),
            ReferenceKind::MiniSim { entries } => Reference::MiniSim(MiniSim::new(entries)),
        })
    }

    /// Run one slice; wall seconds.
    pub fn slice(&mut self) -> io::Result<f64> {
        match self {
            Reference::Relay(relay) => relay.slice(),
            Reference::MiniSim(sim) => Ok(sim.slice()),
        }
    }
}

/// The live reference: client → reader thread → writer thread → client.
#[derive(Debug)]
pub struct Relay {
    client: TcpStream,
    threads: Vec<JoinHandle<()>>,
}

impl Relay {
    /// Spawn the two relay threads and connect to them.
    fn spawn() -> io::Result<Relay> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let client = TcpStream::connect(listener.local_addr()?)?;
        client.set_nodelay(true)?;
        let (mut inbound, _) = listener.accept()?;
        inbound.set_nodelay(true)?;
        let mut outbound = inbound.try_clone()?;
        let (tx, rx) = mpsc::channel::<u8>();
        let reader = std::thread::Builder::new()
            .name("ref-reader".into())
            .spawn(move || {
                let mut request = [0u8; RELAY_REQUEST];
                // Ends when the client shuts the connection down.
                while inbound.read_exact(&mut request).is_ok() {
                    if tx.send(request[0]).is_err() {
                        break;
                    }
                }
            })?;
        let writer = std::thread::Builder::new()
            .name("ref-writer".into())
            .spawn(move || {
                let mut reply = [0u8; RELAY_REPLY];
                // Ends when the reader drops its sender.
                while let Ok(tag) = rx.recv() {
                    reply[0] = tag;
                    if outbound.write_all(&reply).is_err() {
                        break;
                    }
                }
            })?;
        Ok(Relay {
            client,
            threads: vec![reader, writer],
        })
    }

    /// One slice: [`RELAY_ROUND_TRIPS`] round trips; wall seconds.
    fn slice(&mut self) -> io::Result<f64> {
        let mut request = [b'r'; RELAY_REQUEST];
        let mut reply = [0u8; RELAY_REPLY];
        let started = Instant::now();
        for i in 0..RELAY_ROUND_TRIPS {
            request[0] = i as u8;
            self.client.write_all(&request)?;
            self.client.read_exact(&mut reply)?;
            if reply[0] != request[0] {
                return Err(io::Error::other("reference relay answered out of order"));
            }
        }
        Ok(started.elapsed().as_secs_f64())
    }
}

impl Drop for Relay {
    fn drop(&mut self) {
        // The reader sees end-of-file, drops its sender, the writer's
        // `recv` fails: both threads end, and are waited for.
        let _ = self.client.shutdown(Shutdown::Both);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// The simulator reference: pop the earliest event, look its file up,
/// update the entry, touch another file's entry, schedule the file's
/// next event.
#[derive(Debug)]
pub struct MiniSim {
    queue: BinaryHeap<Reverse<(u64, u32)>>,
    table: HashMap<u32, [u64; 4]>,
    rng: u64,
}

impl MiniSim {
    /// A simulation of `entries` files, one event in flight for each.
    fn new(entries: u32) -> MiniSim {
        let mut sim = MiniSim {
            queue: BinaryHeap::new(),
            table: HashMap::new(),
            rng: 0x2545_f491_4f6c_dd1d,
        };
        for file in 0..entries {
            let at = sim.next_random() % 1_000_000;
            sim.queue.push(Reverse((at, file)));
            sim.table.insert(file, [at, 0, 0, 0]);
        }
        sim
    }

    fn next_random(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// One slice: [`MINISIM_EVENTS`] events; wall seconds.
    fn slice(&mut self) -> f64 {
        let entries = self.table.len() as u64;
        let started = Instant::now();
        for _ in 0..MINISIM_EVENTS {
            let Some(Reverse((at, file))) = self.queue.pop() else {
                break;
            };
            let gap = 1 + self.next_random() % 500_000;
            let entry = self.table.entry(file).or_default();
            entry[1] += 1;
            entry[2] = entry[2].wrapping_add(at - entry[0]);
            entry[0] = at;
            entry[3] ^= gap;
            // A request for another file now and then, as a cache sees.
            let other = (self.next_random() % entries) as u32;
            if let Some(e) = self.table.get_mut(&other) {
                e[3] = e[3].wrapping_add(1);
            }
            self.queue.push(Reverse((at + gap, file)));
        }
        std::hint::black_box(&self.table);
        started.elapsed().as_secs_f64()
    }
}

/// The set-up reference: allocate a request stream's worth of memory,
/// fill it with random draws, sort it, free it — what every workload's
/// input generation spends its time on. One slice; wall seconds.
pub fn generate_slice() -> f64 {
    let started = Instant::now();
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let mut stream: Vec<(u64, u32)> = Vec::with_capacity(GENERATE_ELEMENTS);
    for i in 0..GENERATE_ELEMENTS {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        stream.push((rng % 4_838_400, i as u32));
    }
    stream.sort_unstable();
    std::hint::black_box(&stream);
    drop(stream);
    started.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_reference_runs_slices_and_a_relay_ends_when_dropped() {
        for kind in [
            ReferenceKind::Relay,
            ReferenceKind::MiniSim { entries: 1_024 },
        ] {
            let mut reference = Reference::start(kind).unwrap();
            assert!(reference.slice().unwrap() > 0.0);
            assert!(reference.slice().unwrap() > 0.0);
            // Dropping a relay joins its two threads; a hang here is
            // the failure.
            drop(reference);
        }
        assert!(generate_slice() > 0.0);
    }
}
