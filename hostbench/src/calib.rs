//! Host-speed calibration.
//!
//! On a shared host the same code runs tens of percent slower for stretches
//! of seconds to minutes while neighbours load the memory system; the
//! guest sees neither steal time nor extra page faults. The slowdown hits
//! allocation and byte copying hardest, which is where the simulator's
//! memory, kernel queues and traffic pumps spend their time, while a
//! register-only loop barely moves. So a fixed loop of that kind is timed
//! around every measured part, and host times are scaled to the loop's
//! reference time.

use crate::splitmix;
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Host seconds one calibration pass takes at the reference speed.
pub const REFERENCE_SECS: f64 = 0.02;

const ITERS: u64 = 20_000;
const PAGES: usize = 256;

/// Times measured parts, each bracketed by calibration passes.
pub struct Stopwatch {
    threads: usize,
    last_pass: f64,
    /// Raw host seconds of every part so far.
    pub raw: f64,
    /// Host seconds of every part so far, each scaled by its passes.
    pub scaled: f64,
    /// Every calibration pass's time.
    pub passes: Vec<f64>,
}

impl Stopwatch {
    /// A stopwatch whose passes load `threads` threads, like the workload.
    pub fn new(threads: usize) -> Stopwatch {
        let last_pass = measure(threads);
        Stopwatch {
            threads,
            last_pass,
            raw: 0.0,
            scaled: 0.0,
            passes: vec![last_pass],
        }
    }

    /// A stopwatch that keeps raw time only and runs no passes.
    pub fn uncalibrated() -> Stopwatch {
        Stopwatch {
            threads: 0,
            last_pass: REFERENCE_SECS,
            raw: 0.0,
            scaled: 0.0,
            passes: Vec::new(),
        }
    }

    /// Runs and times one part; see [`Stopwatch::record`].
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.record(t.elapsed().as_secs_f64());
        r
    }

    /// Records a part that just took `secs`, runs a calibration pass, and
    /// returns the part's time scaled by the mean of the passes before and
    /// after it.
    pub fn record(&mut self, secs: f64) -> f64 {
        self.raw += secs;
        if self.threads == 0 {
            self.scaled += secs;
            return secs;
        }
        let pass = measure(self.threads);
        let scaled = secs * REFERENCE_SECS / ((self.last_pass + pass) / 2.0);
        self.scaled += scaled;
        self.passes.push(pass);
        self.last_pass = pass;
        scaled
    }
}

/// Host seconds of one pass on each of `threads` threads at once, taking
/// the slowest: a call on that many fleet workers waits for its slowest
/// shard in the same way.
fn measure(threads: usize) -> f64 {
    if threads == 1 {
        return pass();
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(pass)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration pass does not panic"))
            .fold(0.0, f64::max)
    })
}

/// Host seconds of one pass: map inserts, 4 KiB page allocation and copy,
/// and byte-queue appends and drains.
fn pass() -> f64 {
    let t = Instant::now();
    let mut s = 1u64;
    let mut map = BTreeMap::new();
    let mut pages: Vec<Vec<u8>> = Vec::with_capacity(PAGES + 1);
    let mut queue = VecDeque::new();
    for i in 0..ITERS {
        let k = splitmix(&mut s);
        map.insert(k, i);
        let mut page = vec![0u8; 4096];
        page[(k % 4096) as usize] = i as u8;
        pages.push(page.clone());
        queue.extend(page.iter().take(512).copied());
        black_box(queue.drain(..256).collect::<Vec<u8>>());
        if pages.len() > PAGES {
            pages.swap_remove((k % PAGES as u64) as usize);
        }
    }
    black_box((map.len(), pages.len(), queue.len()));
    t.elapsed().as_secs_f64()
}
