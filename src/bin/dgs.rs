//! `dgs` — stream a dynamic (hyper)graph through the paper's sketches from
//! the command line.
//!
//! Streams use the text format of `dgs_hypergraph::io` (header `n <v> <r>`,
//! then `+ v1 v2 [..]` / `- v1 v2 [..]` lines), read from a file or stdin.
//!
//! ```text
//! dgs gen --kind harary --n 16 --kappa 3 --churn > stream.txt
//! dgs connectivity [--save ckpt.bin | --load ckpt.bin]   < stream.txt
//! dgs bipartite               < stream.txt
//! dgs edge-conn --k 5         < stream.txt
//! dgs vertex-conn --k 3 --query 4,7        < stream.txt
//! dgs vertex-conn --k 3 --estimate         < stream.txt
//! dgs reconstruct --k 2       < stream.txt
//! dgs sparsify --k 6 --levels 8            < stream.txt
//! ```

use std::process::ExitCode;

use dynamic_graph_streams::connectivity::BipartitenessSketch;
use dynamic_graph_streams::core::EdgeConnSketch;
use dynamic_graph_streams::hypergraph::encoding::binomial;
use dynamic_graph_streams::hypergraph::generators;
use dynamic_graph_streams::hypergraph::io::{read_stream, write_stream};
use dynamic_graph_streams::prelude::*;

struct Args {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Args {
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = if raw.peek().is_some_and(|v| !v.starts_with("--")) {
                    raw.next().expect("peeked")
                } else {
                    "true".to_string()
                };
                flags.push((name.to_string(), value));
            } else {
                positional.push(a);
            }
        }
        Args { flags, positional }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn usize_or(&self, name: &str, default: usize) -> usize {
        self.get(name)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| die(&format!("--{name} wants a number")))
            })
            .unwrap_or(default)
    }

    /// A count flag that the sketch constructors require to be at least 1.
    fn positive_or(&self, name: &str, default: usize) -> usize {
        match self.usize_or(name, default) {
            0 => die(&format!("--{name} must be at least 1")),
            v => v,
        }
    }

    fn f64_or(&self, name: &str, default: f64) -> f64 {
        self.get(name)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| die(&format!("--{name} wants a number")))
            })
            .unwrap_or(default)
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// The value of a sketch operation, or its typed error through [`die`].
fn or_die<T>(result: SketchResult<T>) -> T {
    result.unwrap_or_else(|e| die(&e.to_string()))
}

fn load_stream(args: &Args) -> UpdateStream {
    let result = match args.get("input") {
        Some(path) => {
            let file = std::fs::File::open(path)
                .unwrap_or_else(|e| die(&format!("cannot open {path}: {e}")));
            read_stream(std::io::BufReader::new(file))
        }
        None => {
            let stdin = std::io::stdin();
            read_stream(stdin.lock())
        }
    };
    result.unwrap_or_else(|e| die(&format!("bad stream: {e}")))
}

fn forest_params(space: &EdgeSpace) -> ForestParams {
    ForestParams::new(Profile::Practical, space.dimension())
}

fn seed(args: &Args) -> SeedTree {
    SeedTree::new(args.usize_or("seed", 42) as u64)
}

fn cmd_connectivity(args: &Args) {
    use dynamic_graph_streams::field::{Codec, Reader, Writer};
    // Checkpoint/restore: --load resumes from a saved sketch; --save writes
    // the state after ingesting (both optional; linearity makes the resumed
    // state bit-identical to uninterrupted processing).
    let loaded: Option<SpanningForestSketch> = args.get("load").map(|path| {
        let bytes =
            std::fs::read(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
        let mut r = Reader::new(&bytes);
        let sk = <SpanningForestSketch as Codec>::decode(&mut r)
            .unwrap_or_else(|e| die(&format!("corrupt checkpoint {path}: {e}")));
        r.expect_end()
            .unwrap_or_else(|e| die(&format!("corrupt checkpoint {path}: {e}")));
        sk
    });
    let stream = if loaded.is_some() && args.get("input").is_none() {
        UpdateStream::new(0, 2) // resume-only invocation: no new updates
    } else {
        load_stream(args)
    };
    let mut sk = match loaded {
        Some(sk) => sk,
        None => {
            let space = EdgeSpace::new(stream.n.max(2), stream.max_rank.max(2))
                .unwrap_or_else(|e| die(&format!("{e}")));
            SpanningForestSketch::new_full(space.clone(), &seed(args), forest_params(&space))
        }
    };
    for u in &stream.updates {
        or_die(sk.try_update(&u.edge, u.op.delta()));
    }
    if let Some(path) = args.get("save") {
        let mut w = Writer::new();
        sk.encode(&mut w);
        std::fs::write(path, w.into_bytes())
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        println!("checkpoint written to {path}");
    }
    let (edges, labels) = or_die(sk.try_decode_with_labels());
    println!("updates processed: {}", stream.len());
    println!("sketch bytes: {}", sk.size_bytes());
    println!("components (whp): {}", labels.component_count());
    println!("connected: {}", labels.component_count() <= 1);
    println!("spanning structure ({} edges):", edges.len());
    for e in edges {
        println!("  {:?}", e.vertices());
    }
}

fn cmd_bipartite(args: &Args) {
    let stream = load_stream(args);
    if stream.max_rank > 2 {
        die("bipartiteness is a graph (rank-2) query");
    }
    let n = stream.n;
    let params = ForestParams::new(
        Profile::Practical,
        EdgeSpace::graph(2 * n.max(2)).unwrap().dimension(),
    );
    let mut sk = BipartitenessSketch::new(n, &seed(args), params);
    for u in &stream.updates {
        let &[a, b] = u.edge.vertices() else {
            die("bipartiteness is a graph (rank-2) query");
        };
        or_die(sk.try_update(a, b, u.op.delta()));
    }
    println!("bipartite (whp): {}", or_die(sk.try_is_bipartite()));
    println!("odd components (whp): {}", or_die(sk.try_odd_components()));
    println!("sketch bytes: {}", sk.size_bytes());
}

fn cmd_edge_conn(args: &Args) {
    let stream = load_stream(args);
    let k = args.positive_or("k", 3);
    let space = EdgeSpace::new(stream.n.max(2), stream.max_rank.max(2))
        .unwrap_or_else(|e| die(&format!("{e}")));
    let mut sk = EdgeConnSketch::new(space.clone(), k, &seed(args), forest_params(&space));
    for u in &stream.updates {
        or_die(sk.try_update(&u.edge, u.op.delta()));
    }
    let (lambda, side) = or_die(sk.try_edge_connectivity());
    println!("min(λ, {k}) (whp): {lambda}");
    println!("k-edge-connected for k = {k}: {}", lambda >= k);
    if lambda < k {
        let witness: Vec<usize> = side
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(v, _)| v)
            .collect();
        println!("witness cut side: {witness:?}");
    }
    println!("sketch bytes: {}", sk.size_bytes());
}

fn cmd_vertex_conn(args: &Args) {
    let stream = load_stream(args);
    let k = args.positive_or("k", 2);
    let mult = args.f64_or("mult", 2.0);
    let space = EdgeSpace::new(stream.n.max(2), stream.max_rank.max(2))
        .unwrap_or_else(|e| die(&format!("{e}")));
    let cfg = VertexConnConfig::query(k, stream.n, mult, Profile::Practical);
    let mut sk = VertexConnSketch::new(space, cfg, &seed(args));
    for u in &stream.updates {
        or_die(sk.try_update(&u.edge, u.op.delta()));
    }
    println!(
        "sketch: {} bytes, {} subsampled subgraphs",
        sk.size_bytes(),
        sk.config().subgraphs
    );
    let cert = or_die(sk.try_certificate());
    if let Some(q) = args.get("query") {
        let set: Vec<u32> = q
            .split(',')
            .map(|p| {
                p.trim()
                    .parse()
                    .unwrap_or_else(|_| die("--query wants v1,v2,..."))
            })
            .collect();
        if let Some(v) = set.iter().find(|&&v| v as usize >= stream.n) {
            die(&format!(
                "--query vertex {v} is not among the {} vertices",
                stream.n
            ));
        }
        if set.len() > k {
            eprintln!(
                "warning: |S| = {} exceeds k = {k}; answer unreliable",
                set.len()
            );
        }
        println!(
            "removing {set:?} disconnects (whp): {}",
            cert.disconnects(&set)
        );
    }
    if args.get("estimate").is_some() {
        println!(
            "κ lower bound from decoded union (whp): {}",
            cert.vertex_connectivity(2 * k + 1)
        );
    }
}

fn cmd_reconstruct(args: &Args) {
    let stream = load_stream(args);
    let k = args.positive_or("k", 2);
    let space = EdgeSpace::new(stream.n.max(2), stream.max_rank.max(2))
        .unwrap_or_else(|e| die(&format!("{e}")));
    let mut sk = LightRecoverySketch::new(space.clone(), k, &seed(args), forest_params(&space));
    for u in &stream.updates {
        or_die(sk.try_update(&u.edge, u.op.delta()));
    }
    let rec = or_die(sk.try_recover());
    if rec.complete {
        println!(
            "reconstructed {} hyperedges ({k}-cut-degenerate input):",
            rec.edge_count()
        );
    } else {
        println!(
            "input is not {k}-cut-degenerate; recovered light_{k} = {} hyperedges:",
            rec.edge_count()
        );
    }
    for e in rec.edges() {
        println!("  {:?}", e.vertices());
    }
    println!(
        "per-player message bytes: {}",
        sk.max_player_message_bytes()
    );
}

fn cmd_sparsify(args: &Args) {
    let stream = load_stream(args);
    let k = args.positive_or("k", 4);
    let levels = args.positive_or("levels", 8);
    let space = EdgeSpace::new(stream.n.max(2), stream.max_rank.max(2))
        .unwrap_or_else(|e| die(&format!("{e}")));
    let cfg = SparsifierConfig::explicit(k, levels, forest_params(&space));
    let mut sp = HypergraphSparsifier::new(space, cfg, &seed(args));
    for u in &stream.updates {
        or_die(sp.try_update(&u.edge, u.op.delta()));
    }
    let res = or_die(sp.try_decode());
    println!(
        "sparsifier: {} weighted hyperedges (complete = {}), per-level {:?}",
        res.sparsifier.edge_count(),
        res.complete,
        res.per_level
    );
    for (e, w) in res.sparsifier.iter() {
        println!("  {w:>6.1}  {:?}", e.vertices());
    }
    println!("sketch bytes: {}", sp.size_bytes());
}

/// Generates with the flags' generator, after checking the preconditions
/// its generator asserts, so a bad flag is an `error:` line, not a panic.
fn cmd_gen(args: &Args) {
    let kind = args.get("kind").unwrap_or("gnp");
    let n = args.usize_or("n", 16);
    let mut rng = StdRng::seed_from_u64(args.usize_or("seed", 42) as u64);
    let h = match kind {
        "gnp" => {
            let p = args.f64_or("p", 0.3);
            if !(0.0..=1.0).contains(&p) {
                die(&format!("--p must lie in [0, 1] (got {p})"));
            }
            Hypergraph::from_graph(&generators::gnp(n, p, &mut rng))
        }
        "harary" => {
            let kappa = args.usize_or("kappa", 3);
            if kappa == 0 || kappa >= n {
                die(&format!(
                    "--kappa must satisfy 1 <= kappa < n (got --kappa {kappa}, --n {n})"
                ));
            }
            Hypergraph::from_graph(&generators::harary(kappa, n))
        }
        "tree" => Hypergraph::from_graph(&generators::random_tree(n, &mut rng)),
        "grid" => Hypergraph::from_graph(&generators::grid(n, args.usize_or("h", 4))),
        "hyper" => {
            let rank = args.usize_or("rank", 3);
            if rank < 2 || rank > n {
                die(&format!(
                    "--rank must satisfy 2 <= rank <= n (got --rank {rank}, --n {n})"
                ));
            }
            let m = args.usize_or("m", 2 * n);
            let distinct = binomial(n as u64, rank as u64);
            if m as u64 > distinct {
                die(&format!(
                    "--m {m} exceeds the {distinct} distinct rank-{rank} edges on {n} vertices"
                ));
            }
            generators::random_uniform_hypergraph(n, rank, m, &mut rng)
        }
        other => die(&format!(
            "unknown --kind {other} (gnp|harary|tree|grid|hyper)"
        )),
    };
    let stream = if args.get("churn").is_some() {
        generators::churn_stream(&h, generators::ChurnConfig::default(), &mut rng)
    } else {
        generators::insert_only_stream(&h, &mut rng)
    };
    write_stream(&stream, std::io::stdout().lock())
        .unwrap_or_else(|e| die(&format!("write failed: {e}")));
}

fn main() -> ExitCode {
    // `dgs ... | head` closes our stdout early; exit quietly like other
    // stream tools instead of panicking on the broken pipe.
    std::panic::set_hook(Box::new(|info| {
        let msg = info.to_string();
        if msg.contains("Broken pipe") {
            std::process::exit(141);
        }
        eprintln!("{info}");
        std::process::exit(101);
    }));
    let mut raw = std::env::args().skip(1);
    let Some(cmd) = raw.next() else {
        eprintln!(
            "usage: dgs <connectivity|bipartite|edge-conn|vertex-conn|reconstruct|sparsify|gen> \
             [--input file] [--seed N] [command flags]"
        );
        return ExitCode::from(2);
    };
    let args = Args::parse(raw);
    match cmd.as_str() {
        "connectivity" => cmd_connectivity(&args),
        "bipartite" => cmd_bipartite(&args),
        "edge-conn" => cmd_edge_conn(&args),
        "vertex-conn" => cmd_vertex_conn(&args),
        "reconstruct" => cmd_reconstruct(&args),
        "sparsify" => cmd_sparsify(&args),
        "gen" => cmd_gen(&args),
        other => {
            eprintln!("unknown command: {other}");
            return ExitCode::from(2);
        }
    }
    let _ = args.positional;
    ExitCode::SUCCESS
}
