//! Self-healing sharded ingestion: shard supervision, quarantine and
//! rebuild, degraded queries, and a deterministic chaos campaign.
//!
//! A [`SupervisedIngestor`] runs R boosted repetitions as independent
//! failure domains. This example poisons one shard mid-stream, lets a
//! second diverge *silently* (no typed error will ever fire), and shows
//! the degradation ladder at work: the poisoned shard is quarantined and
//! rebuilt bit-identically from the WAL, the diverged shard is outvoted
//! by a majority query and healed by the background scrub, and every
//! answer along the way is either exact or an explicit `Unknown` — a
//! degraded ensemble widens the failure probability, never the answer.
//!
//! ```sh
//! cargo run --release --example self_healing
//! ```

use std::fs;

use dynamic_graph_streams::prelude::*;

use dgs_hypergraph::generators;
use dgs_obs::Registry;

fn main() {
    let mut rng = StdRng::seed_from_u64(20);
    let n = 32;
    let h = Hypergraph::from_graph(&generators::gnp(n, 0.15, &mut rng));
    let stream = generators::churn_stream(&h, generators::ChurnConfig::default(), &mut rng);
    println!(
        "workload: {} updates ({}% deletions) over {} vertices",
        stream.len(),
        (stream.deletion_fraction() * 100.0).round(),
        n
    );

    let base = std::env::temp_dir().join(format!("dgs-example-heal-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    let cfg = SupervisorConfig {
        repetitions: 3,
        threads: 2,
        batch_size: 32,
        // Scrub a live shard at every flush: the silent divergence below is
        // invisible to every typed error, only the audit can find it.
        scrub_interval: 32,
        seed: 0x5E1F,
        ..SupervisorConfig::default()
    };
    let mut sup = SupervisedIngestor::create(
        base.join("wal"),
        base.join("snapshots"),
        n,
        stream.max_rank,
        cfg,
        move |i| {
            let space = EdgeSpace::graph(n).unwrap();
            let params = ForestParams::new(Profile::Practical, space.dimension());
            SpanningForestSketch::new_full(space, &SeedTree::new(2000 + i as u64), params)
        },
    )
    .expect("create supervised ingestor");
    let registry = Registry::new();
    sup.set_sink(&registry.sink());

    // --- A chaos campaign: two faults at scripted update indices ----------
    let poison_at = stream.len() / 3;
    let diverge_at = stream.len() / 2;
    let campaign = ChaosCampaign::new("example", 0x5E1F)
        .at(poison_at, ChaosFault::ShardPoison { shard: 0 })
        .at(diverge_at, ChaosFault::SilentCorruption { shard: 2 });
    let mut sched = ChaosScheduler::new(&campaign);
    println!(
        "campaign: poison shard 0 at update {poison_at}, silently diverge shard 2 at {diverge_at}"
    );

    let budget = QueryBudget::default();
    for (pos, u) in stream.updates.iter().enumerate() {
        for event in sched.due(pos) {
            match event.fault {
                ChaosFault::ShardPoison { shard } => {
                    // A stuck shard: every apply fails until it is rebuilt.
                    sup.inject_apply_fault(
                        shard,
                        SketchError::failure("chaos", "stuck shard"),
                        u32::MAX,
                    );
                    println!("[{pos:>5}] chaos: shard {shard} poisoned");
                }
                ChaosFault::SilentCorruption { shard } => {
                    // A phantom edge applied to one shard only, bypassing
                    // the WAL — no typed error will ever report this.
                    sup.apply_divergent_update(shard, &Update::insert(HyperEdge::pair(0, 1)))
                        .expect("divergent apply");
                    println!("[{pos:>5}] chaos: shard {shard} silently diverged");
                }
                other => unreachable!("not scripted: {other:?}"),
            }
        }
        sup.push(u).expect("push");
    }
    sup.flush().expect("final flush");

    // --- The ladder, as the metrics saw it --------------------------------
    let counter = |name: &str| registry.counter_value(name).unwrap_or(0);
    println!(
        "\nsupervision: {} quarantine(s), {} rebuild(s), {} scrub mismatch(es) caught",
        counter("dgs_core_supervise_quarantines"),
        counter("dgs_core_supervise_rebuilds"),
        counter("dgs_core_supervise_scrub_mismatches"),
    );
    println!(
        "shard health after the soak: {:?} ({}/{} live)",
        sup.shard_states(),
        sup.live_repetitions(),
        sup.repetitions()
    );
    assert!(
        counter("dgs_core_supervise_scrub_mismatches") >= 1,
        "the silent divergence must be caught by the scrub audit"
    );
    assert_eq!(
        sup.live_repetitions(),
        sup.repetitions(),
        "every shard must be healed by the end of the soak"
    );

    // --- Queries: majority vote, deadline-bounded, never wrong ------------
    let answer = sup
        .query(
            &budget,
            QueryPolicy::Majority,
            |_, s: &SpanningForestSketch| s.try_component_count(),
        )
        .expect("query");
    let mut reference = {
        let space = EdgeSpace::graph(n).unwrap();
        let params = ForestParams::new(Profile::Practical, space.dimension());
        SpanningForestSketch::new_full(space, &SeedTree::new(9), params)
    };
    for u in &stream.updates {
        reference
            .try_update(&u.edge, u.op.delta())
            .expect("stream edges lie in the sketch's space");
    }
    let truth = reference.try_component_count().ok();
    match answer {
        SupervisedAnswer::Full { value, .. } => {
            println!("query: Full answer {value} (every repetition live), truth {truth:?}");
            assert_eq!(Some(value), truth);
        }
        SupervisedAnswer::Degraded {
            value,
            healthy_repetitions,
            total_repetitions,
            effective_delta,
            ..
        } => {
            println!(
                "query: Degraded answer {value} from {healthy_repetitions}/{total_repetitions} \
                 live repetitions (effective delta {effective_delta}), truth {truth:?}"
            );
            assert_eq!(Some(value), truth);
        }
        other => println!("query: {other:?}"),
    }

    let _ = fs::remove_dir_all(&base);
    println!("\nok: faults cost confidence, never correctness");
}
