//! `serve_yeast`: the resident daemon over loopback TCP, one client.
//!
//! Each pass has two phases that pay for each other. Phase A sends every
//! pool query once, one request at a time: it gives the latencies. Phase B
//! sends the pool [`PIPELINED_ROUNDS`] times with [`WINDOW`] requests
//! outstanding: it gives the throughput and CPU time, in chunks of
//! [`CHUNK`] replies, and exercises micro-batching. A
//! longer `batch_wait` helps B and costs A — inside one workload.

use crate::clock::process_cpu_ns;
use crate::harness::{
    cold_start_probes, mean, median_ms, span_ms_per_op, EndToEndStats, LayerValue, PassSample,
    RunOpts, Workload,
};
use crate::offline::{load_pool, median_q_error, EstimationSpec, Pool};
use crate::trace::Tracer;
use neursc_core::persist::load_model;
use neursc_core::{GraphContext, NeurSc, Recorder};
use neursc_graph::io::load_graph;
use neursc_graph::Graph;
use neursc_serve::client::{estimate_request, shutdown_request, Client};
use neursc_serve::json::{self, Json};
use neursc_serve::proto::{parse_request, render_result};
use neursc_serve::{serve, ServeConfig, Server};
use neursc_workloads::datasets::DatasetId;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

pub const YEAST: EstimationSpec = EstimationSpec {
    dataset: DatasetId::Yeast,
    query_sets: &[(4, 256)],
    paper_width: false,
    train_per_size: 48,
    // Cheap queries, so that wire, admission, queue and `batch_wait` — not
    // refinement — own the request.
    cheapest_of: 2,
};

/// Requests outstanding in phase B (= the daemon's default `max_batch`).
const WINDOW: usize = 8;
/// Times phase B walks the pool.
const PIPELINED_ROUNDS: usize = 4;
/// Replies per chunk of phase B. Chunk `k` holds the same requests in every
/// pass of a run, so its best pass can be taken on its own.
const CHUNK: usize = 64;

/// A running daemon with one connected client.
pub struct Serve {
    server: Option<Server>,
    client: Client,
    recorder: Arc<Recorder>,
    pool: Pool,
    fixture: PathBuf,
    /// In-process twin of the served model (traced run only): the same
    /// query through `estimate_detailed_with`, without the daemon.
    twin: Option<(Graph, NeurSc, GraphContext)>,
    /// Per traced pass: `(phase-A CPU ns, twin CPU ns)` per request.
    cpu_per_req_ns: Vec<(f64, f64)>,
    /// Batches and requests the daemon counted over all phase Bs.
    pipelined_batches: u64,
    pipelined_requests: u64,
    refused: u64,
    requests: u64,
    /// Wire bytes of the last pass's phase A.
    request_bytes: u64,
    reply_bytes: u64,
}

/// Request id of the `k`-th request of pass `pass_no`: unique per run, and
/// exactly representable in the protocol's `f64` numbers.
fn request_id(pass_no: u64, k: usize) -> u64 {
    pass_no * 1_000_000 + k as u64
}

impl Serve {
    /// Request line and expected reply (served == offline, byte for byte)
    /// of pool query `i` under `id`.
    fn frames(&self, id: u64, i: usize) -> (String, String) {
        (
            estimate_request(id, &self.pool.queries[i]),
            render_result(&Json::Num(id as f64), &Ok(self.pool.details[i].clone())),
        )
    }

    fn counter(&self, name: &str) -> u64 {
        self.recorder.metrics().snapshot().counter(name)
    }

    /// Phase A: closed loop, one request at a time. `exchange` sends one
    /// request and returns its reply (the traced pass puts a span there).
    fn phase_a(
        &mut self,
        order: &[usize],
        pass_no: u64,
        s: &mut PassSample,
        mut exchange: impl FnMut(&mut Client, &str, usize) -> std::io::Result<String>,
    ) {
        let frames: Vec<(String, String)> = order
            .iter()
            .enumerate()
            .map(|(k, &i)| self.frames(request_id(pass_no, k), i))
            .collect();
        self.request_bytes = frames.iter().map(|(r, _)| r.len() as u64 + 1).sum();
        self.reply_bytes = frames.iter().map(|(_, e)| e.len() as u64 + 1).sum();
        for (&i, (request, expected)) in order.iter().zip(&frames) {
            let t0 = Instant::now();
            let reply = exchange(&mut self.client, request, i);
            s.op_ns[i] = t0.elapsed().as_nanos() as u64;
            match reply {
                Ok(reply) => {
                    s.out[i] = estimate_bits(&reply);
                    if reply != *expected {
                        s.errors += 1;
                    }
                }
                Err(_) => s.errors += 1,
            }
        }
        s.attempted += order.len() as u64;
    }

    /// Phase B: the pool [`PIPELINED_ROUNDS`] times over with [`WINDOW`]
    /// requests outstanding; every reply is matched to its request by id.
    fn phase_b(&mut self, order: &[usize], pass_no: u64, s: &mut PassSample) {
        let n = order.len() * PIPELINED_ROUNDS;
        let base = order.len(); // ids continue after phase A's
        let frames: Vec<(String, String)> = (0..n)
            .map(|k| self.frames(request_id(pass_no, base + k), order[k % order.len()]))
            .collect();
        let batches0 = self.counter("serve.batch");
        let requests0 = self.counter("serve.request");
        let mut chunk_start = (Instant::now(), process_cpu_ns());
        let mut sent = 0;
        let mut errors = 0;
        for received in 0..n {
            while sent < n && sent < received + WINDOW {
                if self.client.send_line(&frames[sent].0).is_err() {
                    errors += 1;
                }
                sent += 1;
            }
            match self.client.recv_line() {
                Ok(reply) => {
                    let expected = reply_id(&reply)
                        .and_then(|id| id.checked_sub(request_id(pass_no, base)))
                        .and_then(|k| frames.get(k as usize));
                    if expected.map(|(_, e)| e) != Some(&reply) {
                        errors += 1;
                    }
                }
                Err(_) => errors += 1,
            }
            if (received + 1) % CHUNK == 0 || received + 1 == n {
                let now = (Instant::now(), process_cpu_ns());
                s.chunk_ns
                    .push(now.0.duration_since(chunk_start.0).as_nanos() as u64);
                s.chunk_cpu_ns.push(now.1 - chunk_start.1);
                chunk_start = now;
            }
        }
        s.tput_ops = n as u64;
        s.attempted += n as u64;
        s.errors += errors;
        self.pipelined_batches += self.counter("serve.batch") - batches0;
        self.pipelined_requests += self.counter("serve.request") - requests0;
    }

    fn finish_pass(&mut self, s: &PassSample) {
        self.requests += s.attempted;
        self.refused = self.counter("serve.rejected");
        // The recorder keeps every span the daemon emits; dropping them
        // between passes keeps peak RSS independent of how many passes fit
        // into the run.
        self.recorder.reset_spans();
    }
}

/// The `estimate` field of a reply frame, as bits (0 when absent).
fn estimate_bits(reply: &str) -> u64 {
    json::parse(reply)
        .ok()
        .and_then(|v| v.get("estimate").and_then(Json::as_f64))
        .map_or(0, f64::to_bits)
}

fn reply_id(reply: &str) -> Option<u64> {
    json::parse(reply).ok()?.get("id")?.as_u64()
}

/// Starts the daemon with the default configuration (one worker thread,
/// `max_batch` 8, `batch_wait` 500 µs) and connects one client.
fn start(fixture: &Path) -> (Server, Client, Arc<Recorder>) {
    let g = load_graph(&fixture.join("data.graph")).expect("load the data graph");
    let model = load_model(&fixture.join("model.txt")).expect("load the model");
    let recorder = Arc::new(Recorder::new());
    let server =
        serve(model, g, ServeConfig::default(), recorder.clone()).expect("start the daemon");
    let client = Client::connect_tcp(server.local_addr()).expect("connect to the daemon");
    (server, client, recorder)
}

fn stop(server: Server, client: &mut Client) {
    client
        .send_line(&shutdown_request(u64::from(u32::MAX)))
        .expect("send shutdown");
    let _ = client.recv_line();
    server.join().expect("drain the daemon");
}

impl Workload for Serve {
    fn set_up(fixture: &Path) -> Self {
        let (server, mut client, recorder) = start(fixture);
        let pool = load_pool(fixture);
        let first = client
            .request(&estimate_request(0, &pool.queries[0]))
            .expect("first reply");
        assert_eq!(
            first,
            render_result(&Json::Num(0.0), &Ok(pool.details[0].clone())),
            "first reply differs from the offline reference"
        );
        Serve {
            server: Some(server),
            client,
            recorder,
            pool,
            fixture: fixture.to_path_buf(),
            twin: None,
            cpu_per_req_ns: Vec::new(),
            pipelined_batches: 0,
            pipelined_requests: 0,
            refused: 0,
            requests: 0,
            request_bytes: 0,
            reply_bytes: 0,
        }
    }

    fn n_ops(&self) -> usize {
        self.pool.queries.len()
    }

    fn reference(&self) -> &[u64] {
        &self.pool.reference
    }

    fn pass(&mut self, order: &[usize], pass_no: u64) -> PassSample {
        let mut s = PassSample::new(self.n_ops());
        self.phase_a(order, pass_no, &mut s, |client, request, _| {
            client.request(request)
        });
        self.phase_b(order, pass_no, &mut s);
        self.finish_pass(&s);
        s
    }

    fn traced_pass(&mut self, order: &[usize], pass_no: u64, tracer: &mut Tracer) -> PassSample {
        let mut s = PassSample::new(self.n_ops());
        let cpu0 = process_cpu_ns();
        self.phase_a(order, pass_no, &mut s, |client, request, i| {
            tracer.set_op(i as u32);
            tracer.span("op", |tr| {
                tr.span("serve.wire", |_| client.request(request))
            })
        });
        let cpu_served = (process_cpu_ns() - cpu0) as f64;

        // Probes: the codec on the same frames, and the same queries
        // through the in-process estimator.
        for (k, &i) in order.iter().enumerate() {
            tracer.set_op(i as u32);
            let (request, _) = self.frames(request_id(pass_no, k), i);
            let detail = Ok(self.pool.details[i].clone());
            tracer.span("probe", |tr| {
                tr.span("serve.parse", |_| {
                    parse_request(&request).expect("own frames parse")
                });
                tr.span("serve.render", |_| {
                    render_result(&Json::Num(k as f64), &detail)
                });
            });
        }
        let (g, model, ctx) = self.twin.get_or_insert_with(|| load_twin(&self.fixture));
        let cpu0 = process_cpu_ns();
        for &i in order {
            tracer.set_op(i as u32);
            let d = tracer.span("serve.inproc", |_| {
                model.estimate_detailed_with(&self.pool.queries[i], g, ctx)
            });
            assert!(
                d.is_ok_and(|d| d == self.pool.details[i]),
                "op {i}: twin differs"
            );
        }
        let cpu_twin = (process_cpu_ns() - cpu0) as f64;
        let n = order.len() as f64;
        self.cpu_per_req_ns.push((cpu_served / n, cpu_twin / n));
        self.finish_pass(&s);
        s
    }

    fn qerr_p50(&mut self, order: &[usize], last: &PassSample) -> (f64, usize) {
        median_q_error(order, &last.out, &self.pool.truth)
    }

    fn layer_metrics(
        &mut self,
        opts: &RunOpts,
        tracer: &Tracer,
        n_traced: usize,
        e2e: &EndToEndStats,
    ) -> Vec<LayerValue> {
        let fixture = &opts.fixture;
        let n = e2e.op_ms.len();
        let per_op = |name: &str| span_ms_per_op(tracer, name, n_traced, self.n_ops(), n);
        let wire = per_op("serve.wire");
        let inproc = per_op("serve.inproc");
        let overhead = wire - inproc;
        let cpu: Vec<f64> = self
            .cpu_per_req_ns
            .iter()
            .map(|(s, t)| (s - t) / 1e6)
            .collect();
        let share = overhead / e2e.lat_p50_ms;
        println!(
            "character: wire {wire:.3} ms, in-process {inproc:.3} ms, overhead {overhead:.3} ms = {:.1}% of lat_p50",
            share * 100.0
        );
        assert!(
            share >= 0.50,
            "serve overhead is only {share:.2} of lat_p50_ms: the estimator, not the daemon, dominates"
        );
        // Start = load graph and model, `serve()`, connect; the daemon is
        // stopped outside the timed part.
        let mut started = Vec::new();
        let start_ms = median_ms(3, || started.push(start(fixture)));
        for (server, mut client, _) in started {
            stop(server, &mut client);
        }
        let (g, model, _) = self.twin.as_ref().expect("traced passes loaded the twin");
        let mut values = cold_start_probes(fixture, g, model);
        let requests = self.pipelined_requests.max(1) as f64;
        values.extend([
            ("serve.start_ms", start_ms, 3),
            ("serve.parse_us_per_req", per_op("serve.parse") * 1e3, n),
            ("serve.render_us_per_req", per_op("serve.render") * 1e3, n),
            (
                "serve.request_bytes_per_req",
                self.request_bytes as f64 / n as f64,
                n,
            ),
            (
                "serve.reply_bytes_per_req",
                self.reply_bytes as f64 / n as f64,
                n,
            ),
            ("serve.overhead_ms_per_req", overhead, n),
            ("serve.cpu_overhead_ms_per_req", mean(&cpu), cpu.len()),
            (
                "serve.batch_size_mean",
                requests / self.pipelined_batches.max(1) as f64,
                self.pipelined_batches as usize,
            ),
            (
                "serve.batches_per_100_req",
                100.0 * self.pipelined_batches as f64 / requests,
                self.pipelined_requests as usize,
            ),
            (
                "serve.refused_per_1000_req",
                1000.0 * self.refused as f64 / self.requests.max(1) as f64,
                self.requests as usize,
            ),
        ]);
        values
    }

    fn shut_down(mut self) {
        if let Some(server) = self.server.take() {
            stop(server, &mut self.client);
        }
    }
}

/// Loads the in-process twin (a second copy of graph and model) that the
/// traced run compares the daemon against.
fn load_twin(fixture: &Path) -> (Graph, NeurSc, GraphContext) {
    let g = load_graph(&fixture.join("data.graph")).expect("load the data graph");
    let model = load_model(&fixture.join("model.txt")).expect("load the model");
    (g, model, GraphContext::new())
}
