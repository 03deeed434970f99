//! Load generation from one client process: a closed loop with one or
//! two clients.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::http::{exchange, Response};
use crate::workload::Request;

/// One timed request as the client saw it.
pub struct Sample {
    pub id: usize,
    /// From send to the last body byte.
    pub latency_s: f64,
    pub response: Result<Response, String>,
}

/// Sends `reqs` from `clients` threads, each taking the next request in
/// list order when its previous one completed. Returns the samples in
/// request order and the phase duration, from the first send to the
/// last completion.
pub fn closed(addr: SocketAddr, reqs: &[Request], clients: usize) -> (Vec<Sample>, f64) {
    let start = Instant::now();
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(reqs.len()));
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(r) = reqs.get(i) else { break };
                let sent = Instant::now();
                let response = exchange(addr, "POST", r.path, &r.body, r.if_none_match(), false);
                let done = response
                    .as_ref()
                    .map(|x| x.done)
                    .unwrap_or_else(|_| Instant::now());
                let sample = Sample {
                    id: r.id,
                    latency_s: done.duration_since(sent).as_secs_f64(),
                    response,
                };
                samples
                    .lock()
                    .expect("a client thread panicked while recording")
                    .push((done, sample));
            });
        }
    });
    let mut samples = samples.into_inner().expect("client threads finished");
    let end = samples.iter().map(|(done, _)| *done).max().unwrap_or(start);
    samples.sort_by_key(|(_, s)| s.id);
    let phase = end.duration_since(start).as_secs_f64();
    (samples.into_iter().map(|(_, s)| s).collect(), phase)
}
