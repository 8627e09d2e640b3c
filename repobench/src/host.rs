//! Fixed control work that measures how fast the host runs right now: a
//! compute and memory kernel ([`Control`]) for the zoo workloads and the
//! set-ups, and a loopback echo ([`Echo`]) for the serving windows.
//!
//! On a shared host the speed of one core drifts by up to 1.5× within
//! seconds and over minutes (other tenants' work on sibling hardware
//! threads and on the shared caches and memory), which no amount of
//! repetition inside one run averages out. The benchmark runs this kernel,
//! which is the benchmark's own code and no part of the program under
//! test, right before and after every timed operation, and rescales the
//! operation's time to [`NOMINAL_S`], the kernel's time on an undisturbed
//! host. The kernel has two halves of about equal time, an L2-resident f32
//! multiply-add loop and a pass over a buffer larger than the last-level
//! cache, because a compute-only probe misses the slowdowns that memory
//! traffic suffers: over eight 10 s `zoo-qat` runs the run-to-run spread
//! (interquartile range over median) of the mean fine-tune time was 0.15
//! as measured, 0.05 rescaled by the compute half alone, 0.09 by the
//! memory half alone and 0.03 by both.

use std::hint::black_box;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Side of the control matrices: three 64×64 f32 matrices fit in L2.
const N: usize = 64;

/// Matrix products per probe.
const REPS: usize = 24;

/// Floats in the memory half's buffer (8 MiB).
const STREAM: usize = 2 << 20;

/// Seconds one probe takes on an undisturbed host.
const NOMINAL_S: f64 = 0.0025;

/// The control kernel's operands, and the raw and rescaled time of every
/// operation measured so far.
pub struct Control {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    stream: Vec<f32>,
    raw_s: f64,
    rescaled_s: f64,
    probes_s: Vec<f64>,
}

impl Default for Control {
    fn default() -> Self {
        let fill = |k: f32| {
            (0..N * N)
                .map(|i| ((i % 17) as f32 - 8.0) * k)
                .collect::<Vec<f32>>()
        };
        Control {
            a: fill(0.01),
            b: fill(0.02),
            c: vec![0.0; N * N],
            stream: vec![1.0; STREAM],
            raw_s: 0.0,
            rescaled_s: 0.0,
            probes_s: Vec::new(),
        }
    }
}

impl Control {
    /// Runs the fixed control work; returns its wall time, seconds.
    pub fn probe(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..REPS {
            self.c.iter_mut().for_each(|v| *v = 0.0);
            let (a, b) = (black_box(&self.a), black_box(&self.b));
            for (i, row) in self.c.chunks_exact_mut(N).enumerate() {
                for k in 0..N {
                    let aik = a[i * N + k];
                    for (x, &y) in row.iter_mut().zip(&b[k * N..(k + 1) * N]) {
                        *x += aik * y;
                    }
                }
            }
            black_box(&mut self.c);
        }
        for v in black_box(&mut self.stream).iter_mut() {
            *v = *v * 0.5 + 0.25;
        }
        black_box(&mut self.stream);
        let dt = t.elapsed().as_secs_f64();
        self.probes_s.push(dt);
        dt
    }

    /// Rescales `raw` seconds, measured between probes that took `before`
    /// and `after` seconds, to the nominal host speed.
    pub fn rescale(&mut self, raw: f64, before: f64, after: f64) -> f64 {
        let scaled = raw * NOMINAL_S * 2.0 / (before + after);
        self.raw_s += raw;
        self.rescaled_s += scaled;
        scaled
    }

    /// Times `op` between two probes; returns its result and its time
    /// rescaled to the nominal host speed.
    pub fn measure<R>(&mut self, op: impl FnOnce() -> R) -> (R, f64) {
        let before = self.probe();
        let t = Instant::now();
        let r = op();
        let raw = t.elapsed().as_secs_f64();
        let after = self.probe();
        (r, self.rescale(raw, before, after))
    }

    /// Prints how much slower than nominal the host ran for the operations
    /// measured so far.
    pub fn report(&self, what: &str) {
        println!(
            "host: {what} took {:.3} s as measured, {:.3} s at nominal host speed (x{:.3}); \
             median probe {:.3} ms, nominal {:.3} ms",
            self.raw_s,
            self.rescaled_s,
            self.raw_s / self.rescaled_s.max(f64::MIN_POSITIVE),
            crate::stats::median(&self.probes_s) * 1e3,
            NOMINAL_S * 1e3
        );
    }
}

/// Bytes of one echo request and reply: the size of a serving request
/// frame for an 8×8 image and of its ten-logit reply.
const ECHO_REQ: usize = 272;
const ECHO_REPLY: usize = 56;

/// Messages in flight and messages per echo probe.
const ECHO_WINDOW: usize = 32;
const ECHO_MSGS: usize = 1000;

/// Seconds one echo probe takes on an undisturbed host.
const ECHO_NOMINAL_S: f64 = 0.008;

/// A loopback echo shaped like the serving path, as the control for the
/// serving workloads: the client keeps [`ECHO_WINDOW`] requests in flight
/// over one TCP connection; on the far end a reader thread hands each
/// request over a channel to a writer thread, which sends the reply.
///
/// Serving throughput is set by socket calls and thread wake-ups, which
/// [`Control`]'s kernel does not exercise: over eight 30 s `serve-closed`
/// runs the throughput as measured correlated 0.69 with the kernel's speed
/// and 0.94 with the echo's, and its run-to-run spread (interquartile range
/// over median) was 0.081 as measured, 0.073 rescaled by the kernel and
/// 0.026 rescaled by the echo.
pub struct Echo {
    client: Option<(BufWriter<TcpStream>, BufReader<TcpStream>)>,
    threads: Vec<JoinHandle<()>>,
    probes_s: Vec<f64>,
}

impl Echo {
    /// Opens the loopback connection and starts the far end's threads.
    pub fn start() -> std::io::Result<Echo> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let stream = TcpStream::connect(listener.local_addr()?)?;
        let (far, _) = listener.accept()?;
        stream.set_nodelay(true)?;
        far.set_nodelay(true)?;
        let mut far_out = far.try_clone()?;
        let (tx, rx) = mpsc::channel::<u8>();
        let reader = std::thread::spawn(move || {
            let mut far = BufReader::new(far);
            let mut req = [0u8; ECHO_REQ];
            while far.read_exact(&mut req).is_ok() {
                if tx.send(req[0]).is_err() {
                    break;
                }
            }
        });
        let writer = std::thread::spawn(move || {
            let mut reply = [0u8; ECHO_REPLY];
            for b in rx {
                reply[0] = b;
                if far_out.write_all(&reply).is_err() {
                    break;
                }
            }
        });
        Ok(Echo {
            client: Some((BufWriter::new(stream.try_clone()?), BufReader::new(stream))),
            threads: vec![reader, writer],
            probes_s: Vec::new(),
        })
    }

    /// How many times slower than nominal the median probe so far ran.
    pub fn slowdown(&self) -> f64 {
        crate::stats::median(&self.probes_s) / ECHO_NOMINAL_S
    }

    /// Prints the median probe against its nominal time.
    pub fn report(&self) {
        println!(
            "host: median echo probe {:.3} ms over {} probes, nominal {:.3} ms (x{:.3})",
            crate::stats::median(&self.probes_s) * 1e3,
            self.probes_s.len(),
            ECHO_NOMINAL_S * 1e3,
            self.slowdown()
        );
    }

    /// Sends [`ECHO_MSGS`] requests through the echo and records the wall
    /// time.
    pub fn probe(&mut self) -> std::io::Result<()> {
        let (w, r) = self.client.as_mut().expect("echo running");
        let (req, mut reply) = ([7u8; ECHO_REQ], [0u8; ECHO_REPLY]);
        let t = Instant::now();
        let (mut sent, mut got) = (0, 0);
        while got < ECHO_MSGS {
            while sent < ECHO_MSGS && sent - got < ECHO_WINDOW {
                w.write_all(&req)?;
                sent += 1;
            }
            w.flush()?;
            r.read_exact(&mut reply)?;
            got += 1;
        }
        self.probes_s.push(t.elapsed().as_secs_f64());
        Ok(())
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        // Shutting the socket down ends the far end's reader, whose channel
        // then closes and ends the writer.
        if let Some((w, _)) = self.client.take() {
            let _ = w.get_ref().shutdown(std::net::Shutdown::Both);
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}
