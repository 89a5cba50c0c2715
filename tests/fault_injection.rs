//! Resilience integration suite: every injected fault is either *detected*
//! (a typed error at stream validation, ingest, assembly, or decode) or
//! *degraded gracefully* (an explicit failure/unknown, or an answer that is
//! consistent with the stream actually received) — never a silent wrong
//! answer, and never a panic. See DESIGN.md, "Failure semantics & fault
//! model".

use std::collections::BTreeMap;

use dynamic_graph_streams::prelude::*;

use dgs_hypergraph::algo::hyper_component_count;
use dgs_hypergraph::fault::ChannelError;
use dgs_hypergraph::generators;
use dgs_obs::Registry;

/// Component count of the *support* of a (possibly corrupted) stream: the
/// graph formed by edges whose net multiplicity is nonzero. This is the
/// ground truth a linear sketch that ingested the stream answers against —
/// the sketch cannot know what the sender *meant*, only what arrived.
fn support_component_count(stream: &UpdateStream) -> usize {
    let mut mult: BTreeMap<HyperEdge, i64> = BTreeMap::new();
    for u in &stream.updates {
        *mult.entry(u.edge.clone()).or_insert(0) += u.op.delta();
    }
    let edges = mult.into_iter().filter(|&(_, m)| m != 0).map(|(e, _)| e);
    hyper_component_count(&Hypergraph::from_edges(stream.n, edges))
}

#[test]
fn every_stream_fault_is_detected_or_degrades_gracefully() {
    // Every fault this loop injects (and therefore every fault the
    // assertions below prove detected) must also show up in the injector's
    // labelled counter — the observability layer may not undercount the
    // fault surface the resilience claims rest on.
    let registry = Registry::new();
    let mut injected_by_class: BTreeMap<String, u64> = BTreeMap::new();
    for class in FaultClass::ALL {
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let h = Hypergraph::from_graph(&generators::gnp(18, 0.22, &mut rng));
            let clean = generators::churn_stream(&h, generators::ChurnConfig::default(), &mut rng);
            if clean.is_empty() {
                continue;
            }
            let mut injector = FaultInjector::new(seed * 31 + 7);
            injector.set_sink(&registry.sink());
            let (bad, fault) = injector.inject(&clean, class);
            *injected_by_class.entry(class.to_string()).or_insert(0) += 1;

            // Stage 1 — strict stream application: the reference detector.
            let strict = bad.final_hypergraph();

            // Stage 2 — a sketch ingests whatever arrives. Each element is
            // either accepted or rejected with a *non-retryable* typed
            // error; nothing panics.
            let space = EdgeSpace::graph(bad.n).unwrap();
            let params = ForestParams::new(Profile::Practical, space.dimension());
            let mut sk =
                SpanningForestSketch::new_full(space, &SeedTree::new(seed ^ 0xABCD), params);
            let mut ingest_rejected = false;
            let mut ingested = UpdateStream::new(bad.n, bad.max_rank);
            for u in &bad.updates {
                match sk.try_update(&u.edge, u.op.delta()) {
                    Ok(()) => ingested.updates.push(u.clone()),
                    Err(e) => {
                        assert!(
                            !e.is_retryable(),
                            "ingest rejection must be InvalidInput, got: {e}"
                        );
                        ingest_rejected = true;
                    }
                }
            }

            // Per-class detection guarantees.
            match class {
                FaultClass::OutOfRangeVertex => {
                    assert!(
                        ingest_rejected,
                        "out-of-range vertex must be rejected at ingest ({})",
                        fault.detail
                    );
                    assert!(matches!(strict, Err(GraphError::VertexOutOfRange { .. })));
                }
                FaultClass::DuplicateUpdate | FaultClass::DeleteAbsent => {
                    assert!(
                        matches!(strict, Err(GraphError::MultiplicityViolation(_))),
                        "{class}: strict application must detect ({})",
                        fault.detail
                    );
                }
                // A dropped update can leave a self-consistent stream; the
                // graceful-degradation check below is the guarantee.
                FaultClass::DropUpdate => {}
            }

            // Stage 3 — never a silent wrong answer: when the decode
            // certifies, the answer matches the support of what was
            // actually ingested; otherwise the failure is a typed error.
            // An Err here is fine: detected, typed, no panic.
            if let Ok(c) = sk.try_component_count() {
                assert_eq!(
                    c,
                    support_component_count(&ingested),
                    "{class} seed {seed}: silent wrong answer ({})",
                    fault.detail
                );
            }
        }
    }

    // Reconcile: each class's labelled counter equals the number of faults
    // injected (and detected or gracefully degraded) above.
    assert!(!injected_by_class.is_empty(), "no faults were injected");
    for (class, expected) in &injected_by_class {
        let key = format!("dgs_hypergraph_fault_injected{{class=\"{class}\"}}");
        assert_eq!(
            registry.counter_value(&key),
            Some(*expected),
            "fault counter {key} disagrees with the injection log"
        );
    }
}

#[test]
fn duplicated_stream_elements_trip_the_strict_decode() {
    // The strict decode's multiplicity check: a duplicated insert makes
    // some boundary weight reach ±2, impossible for a multiplicity-0/1
    // rank-2 stream. Use a single bridge edge so the duplicated edge is
    // guaranteed to be on a sampled boundary.
    let n = 4;
    let space = EdgeSpace::graph(n).unwrap();
    let params = ForestParams::new(Profile::Practical, space.dimension());
    let mut sk = SpanningForestSketch::new_full(space, &SeedTree::new(21), params);
    sk.try_update(&HyperEdge::pair(0, 1), 1).unwrap();
    sk.try_update(&HyperEdge::pair(0, 1), 1).unwrap(); // the duplicate
    let err = sk.try_decode_with_labels_strict().unwrap_err();
    assert!(
        !err.is_retryable(),
        "impossible weight is not retryable: {err}"
    );
    assert!(err.to_string().contains("impossible"), "{err}");

    // The non-strict decode (weighted streams legal) still answers, and
    // consistently with the support graph.
    let (_, labels) = sk.try_decode_with_labels().unwrap();
    assert_eq!(labels.component_count(), 3);
}

#[test]
fn dropped_player_messages_are_detected_by_strict_assembly() {
    let mut rng = StdRng::seed_from_u64(5);
    let h = Hypergraph::from_graph(&generators::gnp(12, 0.4, &mut rng));
    let space = EdgeSpace::graph(12).unwrap();
    let params = ForestParams::new(Profile::Practical, space.dimension());
    let seeds = SeedTree::new(77);
    let incident = |v: u32| -> Vec<HyperEdge> {
        h.edges()
            .iter()
            .filter(|e| e.contains(v))
            .cloned()
            .collect()
    };
    let messages: Vec<_> = (0..12u32)
        .map(|v| player_sketch(&space, v, &incident(v), &seeds, params))
        .collect();

    // The complete set assembles into the central sketch.
    let full = assemble_players_strict(&space, messages.clone(), &seeds, params).unwrap();
    assert_eq!(
        full.decode_with_labels().1.component_count(),
        hyper_component_count(&h)
    );

    // A lost message is a typed error — not a silently-isolated vertex,
    // which is what the lenient assembly would produce.
    let mut lost = messages.clone();
    lost.remove(4);
    let err = assemble_players_strict(&space, lost, &seeds, params).unwrap_err();
    assert!(!err.is_retryable());
    assert!(err.to_string().contains("missing player message"), "{err}");

    // So is a duplicated one.
    let mut duped = messages;
    let again = duped[3].clone();
    duped.push(again);
    let err = assemble_players_strict(&space, duped, &seeds, params).unwrap_err();
    assert!(
        err.to_string().contains("duplicate player message"),
        "{err}"
    );
}

#[test]
fn sparsifier_protocol_survives_a_lossy_channel() {
    // The e15 protocol under fault injection: every player's
    // SparsifierPlayerMessage crosses a checksum-framed channel with 15%
    // loss and 10% corruption; stop-and-wait retransmission must deliver
    // every message intact, and the referee's decode must equal the
    // central sketch's.
    let n = 10;
    let mut rng = StdRng::seed_from_u64(6);
    let h = Hypergraph::from_graph(&generators::gnp(n, 0.4, &mut rng));
    let space = EdgeSpace::graph(n).unwrap();
    let params = ForestParams::new(Profile::Practical, space.dimension());
    let cfg = SparsifierConfig::explicit(2, 5, params);
    let seeds = SeedTree::new(88);

    let mut central = HypergraphSparsifier::new(space.clone(), cfg, &seeds);
    for e in h.edges() {
        central.update(e, 1);
    }

    let incident = |v: u32| -> Vec<HyperEdge> {
        h.edges()
            .iter()
            .filter(|e| e.contains(v))
            .cloned()
            .collect()
    };
    let mut referee = HypergraphSparsifier::new(space.clone(), cfg, &seeds);
    let mut channel = LossyChannel::new(9, 0.15, 0.10);
    for v in 0..n as u32 {
        let msg = HypergraphSparsifier::player_message(&space, &cfg, &seeds, v, &incident(v));
        let (delivered, _) = channel.transmit_with_retry(&msg, 64).unwrap();
        referee.install_player(delivered);
    }
    assert_eq!(channel.stats.delivered, n);
    assert!(
        channel.stats.losses + channel.stats.rejected > 0,
        "channel noise never exercised — raise the fault rates"
    );

    let (a, b) = (central.decode(), referee.decode());
    assert_eq!(a.per_level, b.per_level);
    let ea: Vec<_> = a.sparsifier.iter().map(|(e, w)| (e.clone(), w)).collect();
    let eb: Vec<_> = b.sparsifier.iter().map(|(e, w)| (e.clone(), w)).collect();
    assert_eq!(ea, eb);

    // A channel that always loses fails *typed*, never silently.
    let mut dead = LossyChannel::new(10, 1.0, 0.0);
    let msg = HypergraphSparsifier::player_message(&space, &cfg, &seeds, 0, &incident(0));
    assert_eq!(
        dead.transmit_with_retry(&msg, 3).unwrap_err(),
        ChannelError::Exhausted { attempts: 3 }
    );
}

#[test]
fn channel_retry_budget_is_configurable_and_exhaustion_is_typed() {
    // The channel-level budget: `transmit` uses the configured budget, a
    // budget raise turns a typed exhaustion into a delivery, and the stats
    // always account for every attempt — the caller can never block
    // forever or lose a message silently.
    let msg: Vec<u64> = (0..24).collect();

    // A very noisy (but not dead) channel with a tiny budget exhausts on
    // at least one message of a batch; the same channel parameters with a
    // generous budget deliver every message intact.
    let mut tight = LossyChannel::new(31, 0.6, 0.6).with_retry_budget(2);
    let mut exhausted = 0;
    for _ in 0..40 {
        match tight.transmit(&msg) {
            Ok((got, attempts)) => {
                assert_eq!(got, msg);
                assert!(attempts <= 2, "budget overrun: {attempts}");
            }
            Err(ChannelError::Exhausted { attempts }) => {
                assert_eq!(attempts, 2);
                exhausted += 1;
            }
        }
    }
    assert!(exhausted > 0, "tight budget never exhausted — not probing");

    let mut generous = LossyChannel::new(31, 0.6, 0.6).with_retry_budget(512);
    for _ in 0..40 {
        let (got, _) = generous
            .transmit(&msg)
            .expect("512 attempts at 36% success");
        assert_eq!(got, msg);
    }
    assert_eq!(generous.stats.delivered, 40);
}

#[test]
fn boosting_drives_the_failure_rate_down() {
    // The δ → δ^R amplification, measured on the substrate structure whose
    // per-repetition failure probability is actually visible: a starved
    // ℓ0-sampler (sparsity 1, one row) over a multi-element vector fails
    // to sample roughly a fifth of the time. (The top-level forest decode
    // hides that δ — Borůvka's cascading merges finish well inside the
    // round budget, so its end-to-end failure rate is near zero even with
    // these parameters; `dgs_core::boost`'s tests cover boosting that
    // structure.)
    //
    // R sibling-seeded repetitions of the same sampler over the same
    // vector must (a) answer correctly whenever any repetition answers,
    // and (b) reach "all repetitions failed" at a rate that falls sharply
    // as R grows.
    let weak = L0Params {
        sparsity: 1,
        rows: 1,
        level_independence: 2,
    };
    let dim = 2016u64; // C(64, 2): a graph-scale index space
    let reps = 4usize;
    let trials = 150u64;
    let mut failures_by_r = vec![0usize; reps + 1]; // index = R
    for t in 0..trials {
        // A fixed 8-sparse vector per trial.
        let mut rng = StdRng::seed_from_u64(3000 + t);
        let mut support: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        while support.len() < 8 {
            support.insert(rng.gen_range(0..dim));
        }

        let seeds = SeedTree::new(7000 + t);
        let mut samplers: Vec<L0Sampler> = (0..reps)
            .map(|i| L0Sampler::new(&seeds.child(i as u64), dim, weak))
            .collect();
        for s in &mut samplers {
            for &i in &support {
                s.update(i, 1).unwrap();
            }
        }
        let boosted = BoostedQuery::from_repetitions(samplers);

        // Whenever the boosted query answers, the answer is a real element
        // of the vector with its true weight — never a fabricated one.
        match boosted.query(|s| s.sample()) {
            QueryOutcome::Answer { value, .. } => {
                let (idx, w) = value.expect("nonzero vector certified zero");
                assert!(support.contains(&idx), "sampled index {idx} not in support");
                assert_eq!(w, 1);
            }
            QueryOutcome::Unknown { .. } => {}
            QueryOutcome::Invalid(e) => panic!("clean vector flagged invalid: {e}"),
        }

        // Failure rate for every prefix R = 1..=reps of the same data: the
        // R-boosted query degrades to Unknown iff its first R repetitions
        // all fail.
        let per_rep_failed: Vec<bool> = boosted
            .sketches()
            .iter()
            .map(|s| s.sample().is_err())
            .collect();
        for r in 1..=reps {
            if per_rep_failed[..r].iter().all(|&f| f) {
                failures_by_r[r] += 1;
            }
        }
    }

    assert!(
        failures_by_r[1] >= 15,
        "single repetitions failed only {}/{trials} times — the workload no \
         longer probes the failure path",
        failures_by_r[1]
    );
    for r in 2..=reps {
        assert!(
            failures_by_r[r] <= failures_by_r[r - 1],
            "failure count rose with R: {failures_by_r:?}"
        );
    }
    assert!(
        failures_by_r[reps] * 5 < failures_by_r[1],
        "boosting did not amplify: {failures_by_r:?} over {trials} trials"
    );
}

#[test]
fn parallel_decode_outcome_matches_sequential_under_faults() {
    // Thread count and thread scheduling must not change *which* outcome a
    // faulted decode surfaces: for every injected-fault class and seed, the
    // decode engine at 1/2/4 threads returns exactly the reference
    // decoder's answer — the same forest, or the same typed error with the
    // same retryability — never a different error picked by whichever
    // worker finished first.
    use dgs_connectivity::DecodeScratch;

    let (mut ok_seen, mut err_seen) = (0usize, 0usize);
    for class in FaultClass::ALL {
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(500 + seed);
            let h = Hypergraph::from_graph(&generators::gnp(16, 0.25, &mut rng));
            let clean = generators::churn_stream(&h, generators::ChurnConfig::default(), &mut rng);
            if clean.is_empty() {
                continue;
            }
            let mut injector = FaultInjector::new(seed * 17 + 3);
            let (bad, _) = injector.inject(&clean, class);
            let space = EdgeSpace::graph(bad.n).unwrap();
            // Starved sizing induces genuine sampler failures on a healthy
            // fraction of seeds, so both the success and the
            // error-surfacing paths are compared.
            let params = ForestParams {
                l0: L0Params {
                    sparsity: 2,
                    rows: 1,
                    level_independence: 8,
                },
                extra_rounds: 0,
            };
            let mut sk =
                SpanningForestSketch::new_full(space, &SeedTree::new(seed ^ 0x5EED), params);
            for u in &bad.updates {
                // Ingest-time rejections (e.g. out-of-range vertices) are a
                // separate detection stage; here we compare decode outcomes
                // on whatever state the accepted updates produced.
                let _ = sk.try_update(&u.edge, u.op.delta());
            }
            for strict in [false, true] {
                let reference = sk.try_decode_reference(strict);
                match &reference {
                    Ok(_) => ok_seen += 1,
                    Err(_) => err_seen += 1,
                }
                for threads in [1usize, 2, 4] {
                    let engine =
                        sk.try_decode_with_scratch(strict, threads, &mut DecodeScratch::new());
                    match (&reference, &engine) {
                        (Ok((re, _)), Ok((ee, _))) => assert_eq!(
                            re, ee,
                            "{class:?} seed {seed} strict={strict} threads={threads}"
                        ),
                        (Err(a), Err(b)) => assert_eq!(
                            (a.is_retryable(), a.to_string()),
                            (b.is_retryable(), b.to_string()),
                            "{class:?} seed {seed} strict={strict} threads={threads}"
                        ),
                        _ => panic!(
                            "{class:?} seed {seed} strict={strict} threads={threads}: \
                             reference {reference:?} vs engine {engine:?}"
                        ),
                    }
                }
            }
        }
    }
    assert!(
        ok_seen > 0 && err_seen > 0,
        "workload must exercise both outcomes: {ok_seen} ok, {err_seen} err"
    );
}

/// Truth for a stream prefix: component count of the support of
/// `updates[..len]`.
fn prefix_component_count(stream: &UpdateStream, len: usize) -> usize {
    let prefix = UpdateStream {
        updates: stream.updates[..len].to_vec(),
        ..stream.clone()
    };
    support_component_count(&prefix)
}

#[test]
fn degraded_queries_widen_delta_but_never_the_answer() {
    // The degradation ladder (DESIGN.md, "Failure domains & degradation
    // ladder"): as shards are poisoned and quarantined one by one, the
    // supervised query keeps answering from the R' survivors. The reported
    // confidence must track the loss exactly — effective_delta = δ^R' with
    // R' the *live* repetition count — while the answer itself never moves:
    // a value is only ever drawn from a live repetition's successful
    // decode, so on a decodable instance it equals the exact component
    // count of the stream received so far or the query says Unknown.
    let n = 16;
    let mut rng = StdRng::seed_from_u64(0xDE6);
    let h = Hypergraph::from_graph(&generators::gnp(n, 0.3, &mut rng));
    let stream = generators::churn_stream(&h, generators::ChurnConfig::default(), &mut rng);
    let step = 16; // one flush per quarantine rung
    assert!(stream.len() > 4 * step, "stream too short for the ladder");
    let head = stream.len() - 3 * step;

    let reps = 4;
    let cfg = SupervisorConfig {
        repetitions: reps,
        threads: 2,
        batch_size: step,
        // No self-healing: each rung must *stay* degraded while we probe it.
        rebuild_after_flushes: u64::MAX,
        seed: 0xDE6,
        ..SupervisorConfig::default()
    };
    let wal = std::env::temp_dir().join(format!("dgs-degrade-wal-{}", std::process::id()));
    let snap = std::env::temp_dir().join(format!("dgs-degrade-snap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal);
    let _ = std::fs::remove_dir_all(&snap);
    let mut sup =
        SupervisedIngestor::create(&wal, &snap, stream.n, stream.max_rank, cfg, move |i| {
            let space = EdgeSpace::graph(n).unwrap();
            let params = ForestParams::new(Profile::Practical, space.dimension());
            SpanningForestSketch::new_full(space, &SeedTree::new(0xDE60 + i as u64), params)
        })
        .unwrap();

    for u in &stream.updates[..head] {
        sup.push(u).unwrap();
    }
    sup.flush().unwrap();

    // The per-repetition δ that supervised answers report with.
    let delta = 0.5f64;
    for rung in 0..=3usize {
        let consumed = head + rung * step;
        let live = reps - rung;
        assert_eq!(sup.live_repetitions(), live, "rung {rung}");
        let truth = prefix_component_count(&stream, consumed);
        let answer = sup
            .query(&QueryBudget::default(), |_, s: &SpanningForestSketch| {
                s.try_component_count()
            })
            .unwrap();
        match answer {
            SupervisedAnswer::Full { value, .. } => {
                assert_eq!(rung, 0, "Full answer from a depleted ensemble");
                assert_eq!(value, truth, "rung {rung}: silent wrong answer");
            }
            SupervisedAnswer::Degraded {
                value,
                healthy_repetitions,
                total_repetitions,
                effective_delta,
                ..
            } => {
                assert!(rung > 0, "Degraded answer from a full ensemble");
                assert_eq!(value, truth, "rung {rung}: silent wrong answer");
                assert_eq!(healthy_repetitions, live, "rung {rung}");
                assert_eq!(total_repetitions, reps, "rung {rung}");
                assert!(
                    (effective_delta - delta.powi(live as i32)).abs() < 1e-12,
                    "rung {rung}: effective_delta {effective_delta} vs δ^{live}"
                );
            }
            // An honest per-repetition δ event: every live decode failed.
            // Allowed — but the reported residual confidence must still
            // track the live count exactly.
            SupervisedAnswer::Unknown {
                healthy_repetitions,
                effective_delta,
                ..
            } => {
                assert_eq!(healthy_repetitions, live, "rung {rung}");
                assert!(
                    (effective_delta - delta.powi(live as i32)).abs() < 1e-12,
                    "rung {rung}: effective_delta {effective_delta} vs δ^{live}"
                );
            }
            other => panic!("rung {rung}: unexpected outcome {other:?}"),
        }
        if rung < 3 {
            sup.inject_apply_fault(
                rung,
                SketchError::failure("chaos", "ladder poison"),
                u32::MAX,
            );
            for u in &stream.updates[consumed..consumed + step] {
                sup.push(u).unwrap();
            }
            sup.flush().unwrap();
            assert_eq!(
                sup.shard_states()[rung],
                ShardState::Quarantined,
                "rung {} poison did not quarantine",
                rung + 1
            );
        }
    }
    std::fs::remove_dir_all(&wal).unwrap();
    std::fs::remove_dir_all(&snap).unwrap();
}

#[test]
fn partial_ensemble_unknown_rate_respects_the_widened_bound() {
    // E18's empirical-vs-theoretical check, replayed at the ensemble layer:
    // drive `query_ensemble` directly with R' = 2 live starved samplers
    // (δ = 1/2 each, the paper's constant-failure regime) out of a
    // configured R = 4, over adversarial insert/delete vectors. The
    // observed Unknown rate must stay within 2x of the *widened* bound
    // δ^R' — and every answer must still be a true churn survivor.
    use dynamic_graph_streams::core::supervise::{query_ensemble, QueryPolicy};
    use std::collections::BTreeSet;

    const DIM: u64 = 2016; // C(64, 2): a graph-scale index space
    const SUPPORT: usize = 8;
    const CHURN: usize = 32;
    let starved = L0Params {
        sparsity: 1,
        rows: 1,
        level_independence: 2,
    };
    let (r_total, r_live) = (4usize, 2usize);
    let delta = 0.5f64;
    let trials = 300u64;

    let mut unknowns = 0u64;
    let mut full_unknowns = 0u64;
    for t in 0..trials {
        // The adversarial vector: SUPPORT + CHURN distinct indices in, the
        // CHURN half deleted again in reverse, forcing exact cancellation.
        let mut rng = StdRng::seed_from_u64(0xFA17_0000 + t);
        let mut indices: BTreeSet<u64> = BTreeSet::new();
        while indices.len() < SUPPORT + CHURN {
            indices.insert(rng.gen_range(0..DIM));
        }
        let indices: Vec<u64> = indices.into_iter().collect();
        let support: BTreeSet<u64> = indices.iter().take(SUPPORT).copied().collect();

        let seeds = SeedTree::new(0xD06_0000 + t);
        let mut samplers: Vec<L0Sampler> = (0..r_total)
            .map(|i| L0Sampler::new(&seeds.child(i as u64), DIM, starved))
            .collect();
        for s in samplers.iter_mut() {
            for &i in &indices {
                s.update(i, 1).unwrap();
            }
            for &i in indices.iter().skip(SUPPORT).rev() {
                s.update(i, -1).unwrap();
            }
        }

        // The degraded ensemble: only the first R' of the R repetitions are
        // live (the rest "quarantined").
        let live: Vec<(usize, &L0Sampler)> = samplers.iter().enumerate().take(r_live).collect();
        let out = query_ensemble(
            &live,
            r_total,
            delta,
            &QueryBudget::default(),
            QueryPolicy::FirstSuccess,
            |_, s| s.sample(),
        );
        match out.answer {
            SupervisedAnswer::Degraded {
                value,
                healthy_repetitions,
                effective_delta,
                ..
            } => {
                assert_eq!(healthy_repetitions, r_live, "trial {t}");
                assert!(
                    (effective_delta - delta.powi(r_live as i32)).abs() < 1e-12,
                    "trial {t}: effective_delta {effective_delta}"
                );
                let (index, weight) = value.expect("nonzero vector certified zero");
                assert!(
                    support.contains(&index),
                    "trial {t}: sampled cancelled index {index} — a silent wrong answer"
                );
                assert_eq!(weight, 1, "trial {t}: wrong recovered weight");
            }
            SupervisedAnswer::Unknown {
                healthy_repetitions,
                effective_delta,
                ..
            } => {
                assert_eq!(healthy_repetitions, r_live, "trial {t}");
                assert!(
                    (effective_delta - delta.powi(r_live as i32)).abs() < 1e-12,
                    "trial {t}: effective_delta {effective_delta}"
                );
                unknowns += 1;
            }
            other => panic!("trial {t}: unexpected outcome {other:?}"),
        }

        // Control: the same trial with every repetition live. Used below to
        // show the degradation is real, not an artifact of a loose δ.
        let full: Vec<(usize, &L0Sampler)> = samplers.iter().enumerate().collect();
        let out = query_ensemble(
            &full,
            r_total,
            delta,
            &QueryBudget::default(),
            QueryPolicy::FirstSuccess,
            |_, s| s.sample(),
        );
        match out.answer {
            SupervisedAnswer::Full { .. } => {}
            SupervisedAnswer::Unknown { .. } => full_unknowns += 1,
            other => panic!("trial {t}: unexpected full-ensemble outcome {other:?}"),
        }
    }

    let observed = unknowns as f64 / trials as f64;
    let bound = delta.powi(r_live as i32);
    assert!(
        observed <= 2.0 * bound,
        "observed Unknown rate {observed:.4} exceeds 2x the widened bound {bound:.4}"
    );
    // The widening is real: losing half the ensemble must cost strictly
    // more residual failures than the full ensemble pays on the identical
    // trials (otherwise the test never exercised the degraded regime).
    assert!(
        unknowns > full_unknowns,
        "partial ensemble ({unknowns} unknowns) did not fail more often than \
         the full ensemble ({full_unknowns}) — the degraded regime was not exercised"
    );
}
