//! The traced run: the same seed and op script, replayed through each
//! layer's own public API in turn, top to bottom, with a span around every
//! call the benchmark makes. A layer's self time is its total minus the
//! layer below on the same ops; every replay must end in state
//! byte-identical to the service's shards, or the ledger would describe
//! different work from the end-to-end run.

use std::cell::RefCell;
use std::hint::black_box;
use std::path::Path;
use std::time::Duration;

use dgs_connectivity::{incidence_coefficient, ForestParams, SpanningForestSketch};
use dgs_core::checkpoint::{CheckpointStore, RecoveryDriver};
use dgs_core::supervise::{QueryBudget, QueryPolicy, SupervisedIngestor};
use dgs_field::{Codec, Fp, KWiseHash, Reader, SeedTree, Writer};
use dgs_hypergraph::{read_wal, HyperEdge, Update, WalConfig, WalWriter};
use dgs_sketch::{L0Sampler, Profile, SketchError};

use crate::backend::{build_forest, Sketch};
use crate::script::{Backend, Step, BATCH, MAX_RANK, REPETITIONS};
use crate::service_run::{self, Answer, Dirs, Inputs, Pass, PushClass, Runner};
use crate::stats;
use crate::trace::{Trace, NO_BATCH};
use crate::{Metric, Outcome};

/// Flush batches of the timed phase, in order, as the service pass
/// classified its pushes.
struct Schedule {
    /// Global offset of each batch's first update.
    first: Vec<u64>,
    /// The first flush after a freeze: copy-on-write clones every shard.
    cow: Vec<bool>,
    /// A snapshot is due after this batch.
    snapshot: Vec<bool>,
}

impl Schedule {
    fn new(inp: &Inputs, pass: &Pass) -> Schedule {
        let mut s = Schedule {
            first: Vec::new(),
            cow: Vec::new(),
            snapshot: Vec::new(),
        };
        for (i, &c) in pass.push_class.iter().enumerate() {
            if c & PushClass::FLUSH != 0 {
                s.first.push(inp.preload_len() + (i + 1 - BATCH) as u64);
                s.cow.push(c & PushClass::COPY_ON_WRITE != 0);
                s.snapshot.push(c & PushClass::SNAPSHOT != 0);
            }
        }
        s
    }

    fn batch(&self, inp: &Inputs, b: usize) -> Vec<Update> {
        (self.first[b]..self.first[b] + BATCH as u64)
            .map(|g| inp.tiled.update(g))
            .collect()
    }

    fn end(&self, inp: &Inputs) -> u64 {
        inp.preload_len() + (self.first.len() * BATCH) as u64
    }

    fn updates(&self) -> f64 {
        (self.first.len() * BATCH) as f64
    }
}

fn pairs(batch: &[Update]) -> Vec<(HyperEdge, i64)> {
    batch
        .iter()
        .map(|u| (u.edge.clone(), u.op.delta()))
        .collect()
}

fn encode<T: Codec>(t: &T) -> Vec<u8> {
    let mut w = Writer::new();
    t.encode(&mut w);
    w.into_bytes()
}

fn sketch_err(what: &str) -> impl Fn(SketchError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Byte-identity of a replay's shards, from shard `first` on, against the
/// service's.
fn check_state(
    what: &str,
    got: &[Vec<u8>],
    want: &[Vec<u8>],
    first: usize,
    violations: &mut Vec<String>,
) {
    for (i, (g, w)) in got.iter().zip(&want[first..]).enumerate() {
        let i = first + i;
        if g != w {
            violations.push(format!(
                "{what}: shard {i} differs from the service's shard"
            ));
        }
    }
}

/// Outcome of the stand-alone `SupervisedIngestor` replay.
struct SupReplay {
    answers: Vec<Answer>,
    encodings: Vec<Vec<u8>>,
    flush_ns: f64,
    decodes: usize,
    decode_failures: usize,
    resident_decodes: usize,
    answered: usize,
}

const FLUSHES: [&str; 3] = [
    "supervise.flush",
    "supervise.flush_cow",
    "supervise.flush_snapshot",
];

/// Drives a stand-alone ingestor that flushes and freezes at the service's
/// offsets: a batch size one past the service's means `push` never
/// flushes, so pushes and flushes are timed apart.
fn replay_supervise<S: Sketch>(
    inp: &Inputs,
    sched: &Schedule,
    epochs: usize,
    root: &Path,
    threads: usize,
    queries: bool,
    tr: &mut Trace,
) -> Result<SupReplay, String> {
    let dirs = Dirs::under(root, &format!("supervise-t{threads}"));
    let cfg = dgs_core::SupervisorConfig {
        threads,
        ..inp.supervisor(BATCH + 1)
    };
    let err = |e: dgs_core::RecoveryError| format!("supervise replay: {e}");
    let mut ing = SupervisedIngestor::<S>::create(
        &dirs.wal,
        &dirs.snap,
        inp.spec.n,
        MAX_RANK,
        cfg,
        inp.shard_factory::<S>(),
    )
    .map_err(err)?;
    let mut view = ing.freeze().map_err(err)?;
    if inp.spec.preload {
        for chunk in inp.preload().chunks(BATCH) {
            for u in chunk {
                ing.push(u).map_err(err)?;
            }
            ing.flush().map_err(err)?;
        }
        view = ing.freeze_with_recovery().map_err(err)?;
    }
    let budget = QueryBudget {
        deadline: Some(Duration::from_secs(3600)),
        per_shard_deadline: Some(Duration::from_secs(1200)),
        max_decode_steps: Some(REPETITIONS),
    };
    let steps = inp.spec.epoch_steps();
    let mut out = SupReplay {
        answers: Vec::new(),
        encodings: Vec::new(),
        flush_ns: 0.0,
        decodes: 0,
        decode_failures: 0,
        resident_decodes: 0,
        answered: 0,
    };
    let mut offset = inp.preload_len();
    let (mut b, mut in_batch) = (0usize, 0usize);
    for _ in 0..epochs {
        let mut in_epoch = 0;
        for step in &steps {
            match step {
                Step::Push => {
                    let u = inp.tiled.update(offset);
                    offset += 1;
                    tr.record("supervise.push", NO_BATCH, 0, || ing.push(&u))
                        .0
                        .map_err(err)?;
                    in_batch += 1;
                    in_epoch += 1;
                    if in_batch == BATCH {
                        let name = if sched.snapshot[b] {
                            FLUSHES[2]
                        } else if sched.cow[b] {
                            FLUSHES[1]
                        } else {
                            FLUSHES[0]
                        };
                        tr.record(name, b as u32, 0, || ing.flush())
                            .0
                            .map_err(err)?;
                        b += 1;
                        in_batch = 0;
                    }
                    if in_epoch == inp.spec.refresh_every {
                        // The previous view is dropped after the span: the
                        // service drops it inside `refresh_view`, so that
                        // cost stays in the service's self time.
                        view = tr
                            .record("supervise.freeze", NO_BATCH, 0, || {
                                ing.freeze_with_recovery()
                            })
                            .0
                            .map_err(err)?;
                    }
                }
                Step::Query if queries => {
                    let calls = RefCell::new(Vec::new());
                    let origin = tr.origin();
                    let decode = |_: usize, s: &S| {
                        let t = std::time::Instant::now();
                        let r = s.labels();
                        let end = std::time::Instant::now();
                        calls.borrow_mut().push((
                            (t - origin).as_nanos() as u64,
                            (end - origin).as_nanos() as u64,
                            r.is_ok(),
                            s.is_resident(),
                        ));
                        r
                    };
                    let (outcome, parent) = tr.record("supervise.view_query", NO_BATCH, 0, || {
                        view.query(
                            &budget,
                            QueryPolicy::FirstSuccess,
                            Some(REPETITIONS),
                            decode,
                        )
                    });
                    for (start, end, ok, resident) in calls.into_inner() {
                        tr.push(S::DECODE, parent, NO_BATCH, 0, start, end);
                        out.decodes += 1;
                        out.decode_failures += usize::from(!ok);
                        out.resident_decodes += usize::from(resident);
                    }
                    let labels = outcome.answer.value().cloned();
                    out.answered += usize::from(labels.is_some());
                    out.answers.push(Answer {
                        epoch: view.epoch(),
                        labels,
                    });
                }
                Step::Query => {}
            }
        }
    }
    out.flush_ns = FLUSHES.iter().map(|f| tr.total(f)).sum();
    out.encodings = (0..REPETITIONS).map(|i| ing.shard_encoded(i)).collect();
    drop(ing);
    dirs.remove();
    Ok(out)
}

/// Outcome of the WAL + checkpoint replay.
struct Durable {
    snapshot_bytes: Vec<f64>,
    wal_bytes_per_update: f64,
}

/// `WalWriter::{append, sync}`, `Recoverable::apply_batch`, the
/// copy-on-write `Clone::clone` at each post-freeze flush and
/// `CheckpointStore::save`, in the order the supervisor makes them; then
/// `read_wal` and `RecoveryDriver::recover_capped` over the result.
fn replay_durable<S: Sketch>(
    inp: &Inputs,
    sched: &Schedule,
    root: &Path,
    tr: &mut Trace,
    reference: &[Vec<u8>],
    violations: &mut Vec<String>,
) -> Result<Durable, String> {
    let (n, seed) = (inp.spec.n, inp.sketch_seed());
    let wal_dir = root.join("durable-wal");
    let werr = |e: dgs_hypergraph::WalError| format!("wal replay: {e}");
    let cerr = |e: dgs_core::RecoveryError| format!("checkpoint replay: {e}");
    let mut wal = WalWriter::create(&wal_dir, n, MAX_RANK, WalConfig::default()).map_err(werr)?;
    let mut shards: Vec<S> = (0..REPETITIONS)
        .map(|i| {
            tr.record("forest.build", NO_BATCH, i as u8, || S::build(n, seed, i))
                .0
        })
        .collect();
    let stores = (0..REPETITIONS)
        .map(|i| CheckpointStore::open(root.join(format!("durable-snap/shard-{i}")), i as u64))
        .collect::<Result<Vec<_>, _>>()
        .map_err(cerr)?;
    for chunk in inp.preload().chunks(BATCH) {
        for u in chunk {
            wal.append(u).map_err(werr)?;
        }
        for s in &mut shards {
            s.apply_batch(chunk)
                .map_err(|(_, e)| format!("preload: {e}"))?;
        }
    }
    // The view's copies: kept alive like a frozen view keeps them.
    let mut frozen: Vec<Option<S>> = vec![None; REPETITIONS];
    let mut snapshot_bytes = Vec::new();
    for b in 0..sched.first.len() {
        let batch = sched.batch(inp, b);
        let bt = b as u32;
        for u in &batch {
            tr.record("wal.append", bt, 0, || wal.append(u))
                .0
                .map_err(werr)?;
        }
        for (i, s) in shards.iter_mut().enumerate() {
            if sched.cow[b] {
                frozen[i] = Some(tr.record(S::CLONE, bt, i as u8, || s.clone()).0);
            }
            tr.record("checkpoint.apply_batch", bt, i as u8, || {
                s.apply_batch(&batch)
            })
            .0
            .map_err(|(_, e)| format!("apply_batch: {e}"))?;
        }
        if sched.snapshot[b] {
            tr.record("wal.sync", bt, 0, || wal.sync())
                .0
                .map_err(werr)?;
            let offset = sched.first[b] + BATCH as u64;
            for (i, s) in shards.iter().enumerate() {
                let path = tr
                    .record("checkpoint.save", bt, i as u8, || stores[i].save(s, offset))
                    .0
                    .map_err(cerr)?;
                let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
                snapshot_bytes.push(bytes as f64);
            }
        }
    }
    drop(frozen);
    drop(wal);
    let got: Vec<Vec<u8>> = shards.iter().map(encode).collect();
    check_state("checkpoint replay", &got, reference, 0, violations);

    let replay = tr
        .record("wal.read", NO_BATCH, 0, || read_wal(&wal_dir))
        .0
        .map_err(werr)?;
    let end = sched.end(inp);
    if replay.updates.len() as u64 != end {
        violations.push(format!(
            "read_wal returned {} records, {end} were appended",
            replay.updates.len()
        ));
    }
    let wal_bytes: u64 = std::fs::read_dir(&wal_dir)
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    let ladder = RecoveryDriver::new(&wal_dir, stores[0].clone());
    let rec = tr
        .record("checkpoint.recover", NO_BATCH, 0, || {
            ladder.recover_capped(Some(end), |_, _| S::build(n, seed, 0))
        })
        .0
        .map_err(cerr)?;
    check_state(
        "checkpoint recovery",
        &[encode(&rec.sketch)],
        reference,
        0,
        violations,
    );
    Ok(Durable {
        snapshot_bytes,
        wal_bytes_per_update: wal_bytes as f64 / end.max(1) as f64,
    })
}

/// The sketch's own `try_update_batch` at the workload's batch size.
fn replay_sketch<S: Sketch>(
    inp: &Inputs,
    sched: &Schedule,
    tr: &mut Trace,
    reference: &[Vec<u8>],
    violations: &mut Vec<String>,
) -> Result<S, String> {
    let mut shards: Vec<S> = (0..REPETITIONS)
        .map(|i| S::build(inp.spec.n, inp.sketch_seed(), i))
        .collect();
    for chunk in inp.preload().chunks(BATCH) {
        let p = pairs(chunk);
        for s in &mut shards {
            s.update_batch(&p).map_err(sketch_err("preload"))?;
        }
    }
    for b in 0..sched.first.len() {
        let p = pairs(&sched.batch(inp, b));
        for (i, s) in shards.iter_mut().enumerate() {
            tr.record(S::UPDATE, b as u32, i as u8, || s.update_batch(&p))
                .0
                .map_err(sketch_err(S::UPDATE))?;
        }
    }
    let got: Vec<Vec<u8>> = shards.iter().map(encode).collect();
    check_state("sketch replay", &got, reference, 0, violations);
    Ok(shards.swap_remove(0))
}

/// A batch as the forest hands it to its ℓ0 samplers: the distinct edge
/// ranks whose deltas do not cancel, and per vertex the `(rank id, delta ×
/// incidence coefficient)` entries in the field.
struct Incidence {
    keys: Vec<u64>,
    by_vertex: Vec<Vec<(u32, Fp)>>,
}

fn incidence(f: &SpanningForestSketch, batch: &[Update]) -> Incidence {
    let mut sums: Vec<(u64, Fp, &HyperEdge)> = Vec::new();
    for u in batch {
        let rank = f.space().rank(&u.edge);
        let d = Fp::from_i64(u.op.delta());
        match sums.iter_mut().find(|(r, _, _)| *r == rank) {
            Some(entry) => entry.1 = entry.1.add(d),
            None => sums.push((rank, d, &u.edge)),
        }
    }
    let mut inc = Incidence {
        keys: Vec::new(),
        by_vertex: vec![Vec::new(); f.space().n()],
    };
    for (rank, sum, e) in sums.into_iter().filter(|(_, s, _)| *s != Fp::ZERO) {
        let id = inc.keys.len() as u32;
        inc.keys.push(rank);
        for &v in e.vertices() {
            let coeff = Fp::from_i64(incidence_coefficient(e, v)).mul(sum);
            inc.by_vertex[v as usize].push((id, coeff));
        }
    }
    inc
}

/// The ℓ0 calls the forest's batched update makes: one
/// `L0Sampler::plan_updates` per round, then `apply_planned_many` on every
/// vertex's sampler of that round. Returns the entries applied.
fn l0_apply(rounds: &mut [Vec<L0Sampler>], inc: &Incidence) -> Result<usize, String> {
    if inc.keys.is_empty() {
        return Ok(0);
    }
    let mut applied = 0;
    for round in rounds {
        let plan = round[0]
            .plan_updates(&inc.keys)
            .map_err(sketch_err("l0 plan_updates"))?;
        for (s, items) in round.iter_mut().zip(&inc.by_vertex) {
            if !items.is_empty() {
                s.apply_planned_many(&plan, items)
                    .map_err(sketch_err("l0 apply_planned_many"))?;
                applied += items.len();
            }
        }
    }
    Ok(applied)
}

/// Totals of the ℓ0 and field replays.
#[derive(Default)]
struct Kernels {
    l0_entries: f64,
    field_keys: f64,
}

/// The forest's ℓ0 sampler calls on the same batches, and
/// `KWiseHash::eval_batch` of each round's level hash on the keys that
/// round plans. The ℓ0 replay's samplers, put back into a fresh forest,
/// must encode byte-identically to the service's.
fn replay_kernels(
    inp: &Inputs,
    sched: &Schedule,
    tr: &mut Trace,
    reference: &[Vec<u8>],
    violations: &mut Vec<String>,
) -> Result<Kernels, String> {
    let (n, seed) = (inp.spec.n, inp.sketch_seed());
    let mut k = Kernels::default();
    for i in 0..REPETITIONS {
        let mut f = build_forest(n, seed, i);
        // Round-major, like the forest's own storage.
        let by_vertex: Vec<Vec<L0Sampler>> = (0..n).map(|v| f.vertex_samplers(v as u32)).collect();
        let mut rounds: Vec<Vec<L0Sampler>> = (0..f.rounds())
            .map(|r| by_vertex.iter().map(|s| s[r].clone()).collect())
            .collect();
        drop(by_vertex);
        // The level hash each sampler of round `r` draws from its seed.
        let independence = ForestParams::new(Profile::Practical, f.space().dimension())
            .l0
            .level_independence;
        let level_hashes: Vec<KWiseHash> = (0..f.rounds())
            .map(|r| {
                let round = SeedTree::new(seed).child(i as u64).child(r as u64);
                KWiseHash::new(&round.child(0), independence)
            })
            .collect();
        for chunk in inp.preload().chunks(BATCH) {
            l0_apply(&mut rounds, &incidence(&f, chunk))?;
        }
        let mut out = vec![Fp::ZERO; BATCH];
        for b in 0..sched.first.len() {
            let (bt, shard) = (b as u32, i as u8);
            let inc = incidence(&f, &sched.batch(inp, b));
            let (applied, _) = tr.record("l0.update", bt, shard, || l0_apply(&mut rounds, &inc));
            k.l0_entries += applied? as f64;
            tr.record("field.eval", bt, shard, || {
                for h in &level_hashes {
                    h.eval_batch(&inc.keys, &mut out[..inc.keys.len()]);
                    black_box(&out);
                }
            });
            k.field_keys += (inc.keys.len() * level_hashes.len()) as f64;
        }
        if i == 0 {
            for s in rounds.iter().flat_map(|r| r.iter().take(64)) {
                let _ = tr.record("l0.sample", NO_BATCH, 0, || black_box(s.sample()));
            }
        }
        for v in 0..n {
            let samplers = rounds.iter().map(|r| r[v].clone()).collect();
            f.try_set_vertex_samplers(v as u32, samplers)
                .map_err(sketch_err("set_vertex_samplers"))?;
        }
        check_state("l0 replay", &[encode(&f)], reference, i, violations);
    }
    Ok(k)
}

/// Median of a span's durations, scaled; 0 when the call never happened.
fn med(tr: &Trace, name: &str, scale: f64) -> f64 {
    stats::median(&tr.durations(name)) / scale
}

fn pct(tr: &Trace, name: &str, q: f64, scale: f64) -> f64 {
    stats::percentile(&stats::sorted(&tr.durations(name)), q).unwrap_or(0.0) / scale
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Times a call a few times on the final state; the median in ms.
fn repeat_ms(tr: &mut Trace, name: &'static str, mut f: impl FnMut()) -> f64 {
    for _ in 0..3 {
        tr.record(name, NO_BATCH, 0, &mut f);
    }
    med(tr, name, 1e6)
}

pub fn traced<S: Sketch>(inp: &Inputs, seconds: f64, root: &Path) -> Result<Outcome, String> {
    let spec = inp.spec;
    let hybrid = spec.backend == Backend::Hybrid;
    let mut violations = Vec::new();

    // 1. ConnectivityService: an untraced and a traced tenant on the same
    // ops, epochs alternating so both see the same host and heap state.
    let (dirs_a, dirs_b) = (Dirs::under(root, "untraced"), Dirs::under(root, "traced"));
    let a = service_run::setup::<S>(inp, &dirs_a, true)?;
    let b = service_run::setup::<S>(inp, &dirs_b, false)?;
    let mut tr = Trace::new();
    let (mut untraced, mut traced) = (Runner::new(&a, inp), Runner::new(&b, inp));
    while !untraced.done(seconds) {
        untraced.epoch(None);
        traced.epoch(Some(&mut tr));
    }
    let (plain, traced) = (untraced.pass, traced.pass);
    let reference = service_run::encodings(&b)?;
    drop((a, b));
    dirs_a.remove();
    dirs_b.remove();
    let epochs = plain.epochs;
    let wrong = service_run::silent_wrong(inp, &plain.answers)
        + service_run::silent_wrong(inp, &traced.answers);
    if plain.answers != traced.answers {
        violations.push("traced service pass answered differently from the untraced".into());
    }

    // 2. SupervisedIngestor and FrozenEnsemble.
    let sched = Schedule::new(inp, &traced);
    let sup = replay_supervise::<S>(inp, &sched, epochs, root, spec.threads, true, &mut tr)?;
    check_state(
        "supervise replay",
        &sup.encodings,
        &reference,
        0,
        &mut violations,
    );
    if sup.answers != traced.answers {
        violations.push("supervise replay answered differently from the service".into());
    }
    // The 1-stripe replay covers the first round only: enough batches for
    // the ratio, without doubling the run.
    let flush_speedup = if spec.threads > 1 {
        let round = spec.epochs_per_round;
        let mut one = Trace::new();
        let single = replay_supervise::<S>(inp, &sched, round, root, 1, false, &mut one)?;
        let batches = (round * spec.refresh_every / BATCH) as u32;
        let striped: f64 = tr
            .spans
            .iter()
            .filter(|s| FLUSHES.contains(&s.name) && s.batch < batches)
            .map(|s| s.ns())
            .sum();
        ratio(single.flush_ns, striped)
    } else {
        0.0
    };

    // 3. WAL and checkpoint.
    let durable = replay_durable::<S>(inp, &sched, root, &mut tr, &reference, &mut violations)?;

    // 4. The sketch's own batched update, then Codec and Clone.
    let shard0 = replay_sketch::<S>(inp, &sched, &mut tr, &reference, &mut violations)?;
    let inner = shard0.forest();
    if hybrid {
        // The copy-on-write clone of a hybrid copies its idle inner forest.
        repeat_ms(&mut tr, "forest.clone", || drop(black_box(inner.clone())));
    }
    let bytes = encode(inner);
    let encode_ms = repeat_ms(&mut tr, "forest.encode", || drop(black_box(encode(inner))));
    let codec_decode_ms = repeat_ms(&mut tr, "forest.codec_decode", || {
        let mut r = Reader::new(&bytes);
        drop(black_box(<SpanningForestSketch as Codec>::decode(&mut r)));
    });
    let words = bytes.chunks_exact(8);
    let zero_word_frac = ratio(
        words.clone().filter(|w| w.iter().all(|&b| b == 0)).count() as f64,
        words.len() as f64,
    );
    let forest_bytes = inner.size_bytes() as f64;
    drop(shard0);

    // 5–6. ℓ0 sampler and field kernels, where the forest is on the path.
    let kernels = if hybrid {
        Kernels::default()
    } else {
        replay_kernels(inp, &sched, &mut tr, &reference, &mut violations)?
    };

    // The ledger: self time per layer on the same ops, as shares of the
    // closed loop's wall time.
    let threads = spec.threads;
    let service_total = traced.call_ns();
    let untraced_total = plain.call_ns();
    let supervise_total: f64 = ["supervise.push", "supervise.freeze", "supervise.view_query"]
        .iter()
        .map(|n| tr.total(n))
        .sum::<f64>()
        + sup.flush_ns;
    let wal = tr.total("wal.append") + tr.total("wal.sync");
    let apply = tr.critical(&["checkpoint.apply_batch"], threads);
    let apply_clone = tr.critical(&["checkpoint.apply_batch", S::CLONE], threads);
    let saves = tr.total("checkpoint.save");
    let decode = tr.total(S::DECODE);
    let update = tr.critical(&[S::UPDATE], threads);
    let l0 = tr.critical(&["l0.update"], threads);
    let field = tr.critical(&["field.eval"], threads);
    let own = update + (apply_clone - apply) + decode;
    let selfs = [
        ("service", service_total - supervise_total),
        (
            "supervise",
            supervise_total - wal - apply_clone - saves - decode,
        ),
        ("wal", wal),
        ("checkpoint", apply - update + saves),
        ("forest", if hybrid { 0.0 } else { own - l0 }),
        ("hybrid", if hybrid { own } else { 0.0 }),
        ("l0", l0 - field),
        ("field", field),
    ];
    let in_calls = ratio(untraced_total, plain.wall_ns);
    let share = |layer: &str| {
        let s = selfs
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0.0, |(_, s)| *s);
        ratio(s, service_total) * in_calls
    };

    let updates = sched.updates() * REPETITIONS as f64;
    let query_overhead: Vec<f64> = traced
        .query_ns
        .iter()
        .zip(&traced.decode_ns)
        .map(|(q, d)| q - d)
        .collect();
    let metrics: Vec<Metric> = vec![
        (
            "service.push_overhead_ns",
            med(&tr, "service.push", 1.0) - med(&tr, "supervise.push", 1.0),
            "ns",
        ),
        (
            "service.query_overhead_us",
            stats::median(&query_overhead) / 1e3,
            "us",
        ),
        ("service.refresh_ms", med(&tr, "service.refresh", 1e6), "ms"),
        (
            "service.rejections",
            (plain.rejections + traced.rejections) as f64,
            "count",
        ),
        (
            "supervise.push_ns_p50",
            med(&tr, "supervise.push", 1.0),
            "ns",
        ),
        ("supervise.flush_ms_p50", med(&tr, FLUSHES[0], 1e6), "ms"),
        (
            "supervise.flush_ms_p99",
            pct(&tr, FLUSHES[0], 0.99, 1e6),
            "ms",
        ),
        (
            "supervise.cow_flush_ms_p50",
            med(&tr, FLUSHES[1], 1e6),
            "ms",
        ),
        (
            "supervise.snapshot_flush_ms",
            med(&tr, FLUSHES[2], 1e6),
            "ms",
        ),
        (
            "supervise.freeze_us",
            med(&tr, "supervise.freeze", 1e3),
            "us",
        ),
        (
            "supervise.view_query_us_p50",
            med(&tr, "supervise.view_query", 1e3),
            "us",
        ),
        (
            "supervise.consulted_per_answer",
            ratio(sup.decodes as f64, sup.answered as f64),
            "ratio",
        ),
        (
            "checkpoint.apply_batch_ns_per_update",
            ratio(tr.total("checkpoint.apply_batch"), updates),
            "ns",
        ),
        (
            "checkpoint.snapshot_ms",
            med(&tr, "checkpoint.save", 1e6),
            "ms",
        ),
        (
            "checkpoint.snapshot_bytes",
            stats::median(&durable.snapshot_bytes),
            "bytes",
        ),
        (
            "checkpoint.recover_ms",
            med(&tr, "checkpoint.recover", 1e6),
            "ms",
        ),
        ("wal.append_ns_p50", med(&tr, "wal.append", 1.0), "ns"),
        ("wal.append_ns_p99", pct(&tr, "wal.append", 0.99, 1.0), "ns"),
        ("wal.sync_ms", med(&tr, "wal.sync", 1e6), "ms"),
        (
            "wal.bytes_per_update",
            durable.wal_bytes_per_update,
            "bytes",
        ),
        ("wal.read_ms", med(&tr, "wal.read", 1e6), "ms"),
        ("forest.build_ms", med(&tr, "forest.build", 1e6), "ms"),
        (
            "forest.update_ns_per_update",
            ratio(tr.total("forest.update"), updates),
            "ns",
        ),
        ("forest.clone_ms", med(&tr, "forest.clone", 1e6), "ms"),
        ("forest.decode_us_p50", med(&tr, "forest.decode", 1e3), "us"),
        (
            "forest.decode_us_p99",
            pct(&tr, "forest.decode", 0.99, 1e3),
            "us",
        ),
        (
            "forest.decode_fail_frac",
            if hybrid {
                0.0
            } else {
                ratio(sup.decode_failures as f64, sup.decodes as f64)
            },
            "fraction",
        ),
        ("forest.encode_ms", encode_ms, "ms"),
        ("forest.codec_decode_ms", codec_decode_ms, "ms"),
        ("forest.bytes", forest_bytes, "bytes"),
        (
            "l0.update_ns_per_entry",
            ratio(tr.total("l0.update"), kernels.l0_entries),
            "ns",
        ),
        ("l0.sample_us", med(&tr, "l0.sample", 1e3), "us"),
        ("l0.zero_word_frac", zero_word_frac, "fraction"),
        (
            "field.eval_ns_per_key",
            ratio(tr.total("field.eval"), kernels.field_keys),
            "ns",
        ),
        (
            "hybrid.update_ns_per_update",
            ratio(tr.total("hybrid.update"), updates),
            "ns",
        ),
        ("hybrid.decode_us", med(&tr, "hybrid.decode", 1e3), "us"),
        ("hybrid.clone_ms", med(&tr, "hybrid.clone", 1e6), "ms"),
        (
            "hybrid.resident_frac",
            if hybrid {
                ratio(sup.resident_decodes as f64, sup.decodes as f64)
            } else {
                0.0
            },
            "fraction",
        ),
        ("pool.flush_speedup", flush_speedup, "ratio"),
        ("ledger.service_share", share("service"), "fraction"),
        ("ledger.supervise_share", share("supervise"), "fraction"),
        ("ledger.wal_share", share("wal"), "fraction"),
        ("ledger.checkpoint_share", share("checkpoint"), "fraction"),
        ("ledger.forest_share", share("forest"), "fraction"),
        ("ledger.hybrid_share", share("hybrid"), "fraction"),
        ("ledger.l0_share", share("l0"), "fraction"),
        ("ledger.field_share", share("field"), "fraction"),
        ("ledger.residual_frac", 1.0 - in_calls, "fraction"),
        (
            "ledger.trace_overhead_frac",
            ratio(service_total, untraced_total) - 1.0,
            "fraction",
        ),
    ];

    let mut report = vec![crate::properties(
        inp,
        epochs,
        plain.push_ns.len(),
        reference.iter().map(Vec::len).sum::<usize>() / REPETITIONS,
    )];
    report.push(format!("push classes, untraced: {}", plain.class_summary()));
    report.push(format!(
        "push classes, traced: {}; refresh_view p50={:.1}us",
        traced.class_summary(),
        stats::median(&traced.refresh_ns) / 1e3
    ));
    report.push(format!(
        "ledger: closed-loop wall {:.1} ms, untraced service calls {:.1} ms, traced {:.1} ms",
        plain.wall_ns / 1e6,
        untraced_total / 1e6,
        service_total / 1e6
    ));
    for (layer, s) in selfs {
        report.push(format!(
            "ledger: {layer:<10} self {:>10.1} ms  share {:.4}",
            s / 1e6 + 0.0,
            share(layer) + 0.0
        ));
    }
    report.push(format!("peak_rss_mib={:.1}", crate::peak_rss_mib()));
    report.push(format!(
        "integrity: {} answers checked, silent_wrong={wrong}; {} state mismatches",
        plain.answers.len() + traced.answers.len() + sup.answers.len(),
        violations.len()
    ));
    report.extend(violations.iter().map(|v| format!("mismatch: {v}")));
    report.extend(tr.summary());
    Ok(Outcome {
        correct: wrong == 0 && violations.is_empty(),
        attempted: plain.attempted() + traced.attempted(),
        failed: plain.failed + traced.failed,
        metrics,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::{workload, Spec};
    use dgs_connectivity::SpanningForestSketch;
    use dgs_core::HybridConnectivitySketch;

    /// One short epoch of a shrunken workload through every layer replay.
    fn replays_match<S: Sketch>(base: &str, change: impl FnOnce(&mut Spec)) {
        let mut spec = workload(base).expect("workload");
        spec.n = 16;
        spec.graphs = spec.graphs.min(2);
        spec.epochs_per_round = 1;
        change(&mut spec);
        let root =
            std::env::temp_dir().join(format!("perfbench-test-{base}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("test dir");
        let out = traced::<S>(&Inputs::new(spec, 5), 1e-9, &root);
        let _ = std::fs::remove_dir_all(&root);
        let out = out.expect("traced run");
        assert!(
            out.correct,
            "{base}: {:?}",
            out.report
                .iter()
                .filter(|l| l.starts_with("mismatch") || l.starts_with("integrity"))
                .collect::<Vec<_>>()
        );
        assert!(out.report.iter().any(|l| l.contains("0 state mismatches")));
    }

    #[test]
    fn every_layer_replay_ends_in_the_service_state() {
        replays_match::<SpanningForestSketch>("churn-ingest", |s| {
            s.refresh_every = 128;
            s.push_stride = 128;
        });
        replays_match::<SpanningForestSketch>("query-serve", |_| {});
        replays_match::<HybridConnectivitySketch>("sparse-hybrid", |s| {
            s.refresh_every = 128;
        });
    }
}
