//! The daemon workloads: `serve_small` and `serve_store` drive an
//! in-process `Server` over TCP from one connection, with an open-loop
//! generator: request `i` is due at `i / rate` seconds, whether or not
//! earlier replies have come back, and its latency runs from that due
//! time to its reply. Two client threads: one sends, one reads.
//!
//! A long run is a sequence of short open loops, its windows (see
//! [`Daemon::windows`]), so a window in which the generator did not keep
//! time can be told apart and left out.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pardp_core::prelude::*;

use crate::corpus::{Expect, Job};
use crate::report::{percentile, Tally};
use crate::trace::Tracer;

/// A running daemon with its one client connection.
pub struct Daemon {
    server: Server,
    conn: TcpStream,
    reader: BufReader<TcpStream>,
    /// Job lines sent so far on this connection (the daemon numbers
    /// replies per connection).
    sent: usize,
    store_dir: Option<PathBuf>,
}

/// A reply line checked against the oracle.
fn check(line: &str, job: usize, expect: &Expect) -> Result<(), bool> {
    let Ok(rec) = serde_json::from_str::<JobRecord>(line) else {
        return Err(false); // an error line: refused or failed, not wrong
    };
    if rec.job == job && rec.value == expect.value && rec.tables_hash == expect.hash {
        Ok(())
    } else {
        Err(true)
    }
}

impl Daemon {
    /// Bind a daemon with `config` (plus a fresh `FileStore` in
    /// `store_dir`, when given), connect, and send `warm` as the first
    /// requests, waiting for every reply. Panics on a wrong warm-up
    /// answer: set-up must not be timed on a broken daemon.
    pub fn start(mut config: ServeConfig, store_dir: Option<PathBuf>, warm: &[&Job]) -> Daemon {
        if let Some(dir) = &store_dir {
            let store = FileStore::open(dir).expect("the store opens in a fresh directory");
            config.cache = Some(Arc::new(store));
        }
        let server = Server::bind("127.0.0.1:0", &config).expect("binds a loopback port");
        let conn = TcpStream::connect(server.addr()).expect("connects to the daemon");
        conn.set_nodelay(true).expect("sets TCP_NODELAY");
        conn.set_read_timeout(Some(Duration::from_secs(60)))
            .expect("sets a read timeout");
        let reader = BufReader::new(conn.try_clone().expect("clones the socket"));
        let mut d = Daemon {
            server,
            conn,
            reader,
            sent: 0,
            store_dir,
        };
        let text: String = warm.iter().map(|j| j.line() + "\n").collect();
        d.conn
            .write_all(text.as_bytes())
            .expect("sends the warm-up jobs");
        for job in warm {
            let mut line = String::new();
            d.reader
                .read_line(&mut line)
                .expect("reads a warm-up reply");
            assert!(
                check(&line, d.sent, &job.expect).is_ok(),
                "wrong warm-up reply: {line}"
            );
            d.sent += 1;
        }
        d
    }

    /// Close the connection, drain and join the daemon, and delete its
    /// store. Returns the daemon's final counters.
    pub fn stop(self) -> ServeStats {
        let Daemon {
            server,
            conn,
            reader,
            store_dir,
            ..
        } = self;
        drop(reader);
        conn.shutdown(std::net::Shutdown::Both).ok();
        drop(conn);
        let stats = server.join();
        if let Some(dir) = store_dir {
            std::fs::remove_dir_all(dir).ok();
        }
        stats
    }

    /// Send `jobs` open loop at `rate` per second, read every reply, and
    /// check it against the oracle.
    pub fn open_loop(&mut self, jobs: &[&Job], rate: f64, tr: &mut Tracer) -> OpenLoop {
        let lines: Vec<String> = jobs.iter().map(|j| j.line() + "\n").collect();
        let period = Duration::from_secs_f64(1.0 / rate);
        let mut writer = self.conn.try_clone().expect("clones the socket");
        let mut replies: Vec<(Instant, String)> = Vec::with_capacity(jobs.len());
        let t0 = Instant::now() + Duration::from_millis(5);
        let due = |i: usize| t0 + period * i as u32;
        let lateness = std::thread::scope(|s| {
            let sender = s.spawn(|| {
                let mut late = Vec::with_capacity(lines.len());
                for (i, line) in lines.iter().enumerate() {
                    let at = due(i);
                    let mut now = Instant::now();
                    while now < at {
                        std::thread::sleep(at - now);
                        now = Instant::now();
                    }
                    late.push(now - at);
                    if writer.write_all(line.as_bytes()).is_err() {
                        break;
                    }
                }
                late
            });
            for _ in 0..lines.len() {
                let mut line = String::new();
                match self.reader.read_line(&mut line) {
                    Ok(n) if n > 0 => replies.push((Instant::now(), line)),
                    _ => break,
                }
            }
            sender.join().expect("the sender thread does not panic")
        });
        let mut run = OpenLoop {
            tally: Tally::default(),
            latencies: Vec::with_capacity(jobs.len()),
            lateness,
            elapsed: replies.last().map_or(Duration::ZERO, |r| r.0 - t0),
        };
        for (i, job) in jobs.iter().enumerate() {
            run.tally.attempted += 1;
            let verdict = match replies.get(i) {
                Some((at, line)) => {
                    tr.record("serve.request", (self.sent + i) as u64, due(i), *at);
                    check(line, self.sent + i, &job.expect).map(|()| *at - due(i))
                }
                None => Err(false),
            };
            match verdict {
                Ok(lat) => run.latencies.push(Some(lat)),
                Err(wrong) => {
                    run.tally.failed += 1;
                    run.tally.wrong += wrong as u64;
                    run.latencies.push(None);
                }
            }
        }
        self.sent += jobs.len();
        run
    }

    /// Open loops of `per_window` requests each at `rate`, cycling over
    /// `pool`: `target` windows, then more while fewer than half of
    /// `target` kept time (their generator sent its p90 request at most
    /// `late_bound_ms` late), up to twice `target` in all.
    pub fn windows(
        &mut self,
        pool: &[Job],
        rate: f64,
        per_window: usize,
        target: usize,
        late_bound_ms: f64,
        tr: &mut Tracer,
    ) -> Windows {
        let mut w = Windows {
            runs: Vec::new(),
            late_bound_ms,
        };
        while more_windows(w.runs.len(), w.kept().len(), target) {
            let first = w.runs.len() * per_window;
            let sent: Vec<&Job> = (first..first + per_window)
                .map(|i| &pool[i % pool.len()])
                .collect();
            w.runs.push(self.open_loop(&sent, rate, tr));
        }
        w
    }
}

/// Whether a windowed run that has run `done` windows, `kept` of them
/// with a generator that kept time, goes on: until `target` windows are
/// done and half of `target` kept time, and at most `2 * target` windows.
fn more_windows(done: usize, kept: usize, target: usize) -> bool {
    done < target || (2 * kept < target && done < 2 * target)
}

/// A run of open-loop windows.
pub struct Windows {
    pub runs: Vec<OpenLoop>,
    late_bound_ms: f64,
}

impl Windows {
    /// The windows whose generator sent its p90 request at most the
    /// bound late.
    pub fn kept(&self) -> Vec<&OpenLoop> {
        self.runs
            .iter()
            .filter(|r| r.gen_late_ms(0.9) <= self.late_bound_ms)
            .collect()
    }

    /// Whether at least half of `target` windows kept time.
    pub fn valid(&self, target: usize) -> bool {
        2 * self.kept().len() >= target
    }

    pub fn tally(&self) -> Tally {
        let mut t = Tally::default();
        for r in &self.runs {
            t.merge(r.tally);
        }
        t
    }

    /// Time spent inside the windows.
    pub fn elapsed(&self) -> Duration {
        self.runs.iter().map(|r| r.elapsed).sum()
    }

    /// The `over` quantile, across the windows that kept time, of each
    /// window's latency percentile `q`, in ms.
    pub fn lat_ms(&self, q: f64, over: f64) -> f64 {
        let per_window: Vec<f64> = self.kept().iter().map(|r| r.lat_ms(q)).collect();
        percentile(&per_window, over)
    }

    /// Latency percentile `q` in ms over every request of the windows
    /// that kept time.
    pub fn pooled_lat_ms(&self, q: f64) -> f64 {
        let all: Vec<Option<Duration>> = self
            .kept()
            .iter()
            .flat_map(|r| r.latencies.iter().copied())
            .collect();
        latency_ms(&all, q, self.elapsed())
    }

    /// 99th percentile of generator lateness over every window, in ms.
    pub fn gen_late_ms(&self) -> f64 {
        let all: Vec<Duration> = self
            .runs
            .iter()
            .flat_map(|r| r.lateness.iter().copied())
            .collect();
        late_percentile_ms(&all, 0.99)
    }
}

/// What one open-loop run measured.
pub struct OpenLoop {
    pub tally: Tally,
    /// From due time to reply; `None` for a missing or wrong answer.
    pub latencies: Vec<Option<Duration>>,
    /// How late the generator sent each request.
    pub lateness: Vec<Duration>,
    /// From the first due time to the last reply.
    pub elapsed: Duration,
}

impl OpenLoop {
    /// Latency percentile in ms; a missing answer misses every limit.
    pub fn lat_ms(&self, q: f64) -> f64 {
        latency_ms(&self.latencies, q, self.elapsed)
    }

    /// Percentile `q` of generator lateness, in ms.
    pub fn gen_late_ms(&self, q: f64) -> f64 {
        late_percentile_ms(&self.lateness, q)
    }

    /// Whether the daemon kept up: every answer present, and the last
    /// quarter's median latency within twice the first quarter's.
    pub fn kept_up(&self) -> bool {
        let q = self.latencies.len() / 4;
        self.tally.failed == 0
            && q > 0
            && latency_ms(
                &self.latencies[self.latencies.len() - q..],
                0.5,
                self.elapsed,
            ) <= 2.0 * latency_ms(&self.latencies[..q], 0.5, self.elapsed)
    }
}

/// Percentile `q` in ms of generator lateness; no sends at all is
/// infinitely late.
fn late_percentile_ms(lateness: &[Duration], q: f64) -> f64 {
    if lateness.is_empty() {
        return f64::INFINITY;
    }
    let l: Vec<f64> = lateness.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    percentile(&l, q)
}

/// Percentile in ms of latencies, a missing answer counting as `missing`
/// (the whole run: later than any limit).
pub fn latency_ms(latencies: &[Option<Duration>], q: f64, missing: Duration) -> f64 {
    let l: Vec<f64> = latencies
        .iter()
        .map(|d| d.unwrap_or(missing).as_secs_f64() * 1e3)
        .collect();
    percentile(&l, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus;

    /// One genuine reply from a daemon, then the same reply corrupted:
    /// the checker must pass the first and count each corruption as a
    /// wrong answer, and an error line as a missing one.
    #[test]
    fn a_corrupted_reply_counts_as_failed() {
        let plan: corpus::Plan = corpus::serve_small(3).into_iter().take(1).collect();
        let jobs = corpus::with_oracle(plan);
        let server = Server::bind("127.0.0.1:0", &ServeConfig::default()).unwrap();
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        conn.write_all((jobs[0].line() + "\n").as_bytes()).unwrap();
        let mut reply = String::new();
        BufReader::new(conn.try_clone().unwrap())
            .read_line(&mut reply)
            .unwrap();
        drop(conn);
        server.join();

        let expect = &jobs[0].expect;
        assert_eq!(check(&reply, 0, expect), Ok(()));
        let value = format!("\"value\":{},", expect.value);
        let wrong_value = reply.replace(&value, &format!("\"value\":{},", expect.value + 1));
        assert_ne!(wrong_value, reply);
        assert_eq!(check(&wrong_value, 0, expect), Err(true));
        let wrong_hash = reply.replace(&expect.hash, &"0".repeat(16));
        assert_eq!(check(&wrong_hash, 0, expect), Err(true));
        assert_eq!(check(&reply, 1, expect), Err(true));
        let error = pardp_core::spec::error_record(0, ErrorKind::Overloaded, "overloaded");
        assert_eq!(check(&error, 0, expect), Err(false));

        // Through the open loop: a reply that disagrees with its oracle
        // answer is failed and wrong, and has no latency.
        let mut bad = jobs[0].clone();
        bad.expect.value += 1;
        let mut d = Daemon::start(ServeConfig::default(), None, &[&jobs[0]]);
        let run = d.open_loop(&[&jobs[0], &bad, &jobs[0]], 1000.0, &mut Tracer::new(false));
        d.stop();
        assert_eq!(
            (run.tally.attempted, run.tally.failed, run.tally.wrong),
            (3, 1, 1)
        );
        assert!(run.latencies[0].is_some() && run.latencies[1].is_none());
    }

    /// A window whose generator sent its p90 request late is left out
    /// of the latencies; the others are kept whole.
    #[test]
    fn late_generator_windows_are_left_out() {
        let ms = Duration::from_millis;
        let window = |lat: u64, late: u64| OpenLoop {
            tally: Tally {
                attempted: 4,
                ..Tally::default()
            },
            latencies: vec![Some(ms(lat)); 4],
            lateness: vec![ms(late); 4],
            elapsed: ms(2),
        };
        let w = Windows {
            runs: vec![window(1, 0), window(50, 9), window(3, 1)],
            late_bound_ms: 5.0,
        };
        let kept: Vec<f64> = w.kept().iter().map(|r| r.lat_ms(0.5)).collect();
        assert_eq!(kept, [1.0, 3.0]);
        assert_eq!(w.lat_ms(0.5, 0.0), 1.0);
        assert_eq!(w.lat_ms(0.5, 1.0), 3.0);
        assert_eq!(w.tally().attempted, 12);
        assert_eq!(w.gen_late_ms(), 9.0);
        assert!(w.valid(4) && !w.valid(5));
    }

    /// A windowed run does its target, goes on while fewer than half of
    /// the target kept time, and stops at twice the target.
    #[test]
    fn windowed_runs_extend_for_late_windows_up_to_twice() {
        let run = |kept: &[bool], target: usize| {
            let mut done = 0;
            while more_windows(done, kept[..done].iter().filter(|k| **k).count(), target) {
                done += 1;
            }
            done
        };
        assert_eq!(run(&[true; 8], 4), 4);
        assert_eq!(
            run(&[false, false, false, true, true, true, true, true], 4),
            5
        );
        assert_eq!(run(&[false; 8], 4), 8);
    }
}
