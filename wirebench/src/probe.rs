//! A fixed amount of benchmark-owned work, timed before every slice to
//! follow the host's speed: bit-sliced bundling of random masks (the
//! kind of work an encode does) and a loopback TCP ping-pong (the kind
//! of work a wire request does). None of it calls the program under
//! test, so no change to the program can move it.
//!
//! On the 2-vCPU virtual machine this benchmark was built on, the
//! host's speed drifted by 30–40 % over tens of minutes. Across 16 runs
//! the mean probe time correlated with throughput at 0.95–0.99, and
//! scaling by it cut the run-to-run spread of throughput and latency
//! from 15–37 % to 5–9 %.

use crate::Result;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

const WORDS: usize = 32;
const PLANES: usize = 10;
const MASKS: usize = 784;
const BUNDLES: usize = 40;
const ROUND_TRIPS: usize = 200;

/// Masks bundled by every probe.
pub struct Probe {
    masks: Vec<[u64; WORDS]>,
}

impl Probe {
    /// Random masks from a fixed seed.
    pub fn new() -> Probe {
        let mut state = 0x5EED_u64;
        let masks = (0..MASKS)
            .map(|_| std::array::from_fn(|_| crate::wire::splitmix64(&mut state)))
            .collect();
        Probe { masks }
    }

    /// Time one probe: `BUNDLES` bundlings of every mask, then
    /// `ROUND_TRIPS` 64-byte round trips over loopback.
    pub fn time(&self) -> Result<Duration> {
        let start = Instant::now();
        for _ in 0..BUNDLES {
            let mut planes = [[0u64; WORDS]; PLANES];
            for mask in &self.masks {
                let mut carry = *black_box(mask);
                for plane in &mut planes {
                    for w in 0..WORDS {
                        let c = plane[w] & carry[w];
                        plane[w] ^= carry[w];
                        carry[w] = c;
                    }
                }
            }
            black_box(&planes);
        }

        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        std::thread::scope(|scope| -> Result<()> {
            let echo = scope.spawn(move || -> std::io::Result<()> {
                let (mut peer, _) = listener.accept()?;
                peer.set_nodelay(true)?;
                let mut buf = [0u8; 64];
                for _ in 0..ROUND_TRIPS {
                    peer.read_exact(&mut buf)?;
                    peer.write_all(&buf)?;
                }
                Ok(())
            });
            let mut client = TcpStream::connect(addr)?;
            client.set_nodelay(true)?;
            let mut buf = [7u8; 64];
            for _ in 0..ROUND_TRIPS {
                client.write_all(&buf)?;
                client.read_exact(&mut buf)?;
            }
            echo.join().expect("probe echo thread panicked")?;
            Ok(())
        })?;
        Ok(start.elapsed())
    }
}
