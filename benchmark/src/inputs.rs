//! Generated inputs: the column, its oracle, and the request plan of each
//! serving shape. Everything derives from `--seed`; the program under
//! test only ever sees what is generated here.

use stochastic_cracking::prelude::*;

/// Shards behind `BatchScheduler` and `TxnManager` (fixed load: the
/// executor caps live workers at the host's parallelism on its own).
pub const SHARDS: usize = 4;
/// Ops per `execute_ops` batch; one batch is one request.
pub const BATCH: usize = 256;
/// Snapshot reads per transactional session.
pub const SESSION_READS: usize = 4;
/// Ops counted per session: the reads, one insert, one delete, the commit.
pub const SESSION_OPS: u64 = SESSION_READS as u64 + 3;
/// Width of the key stripes that clients own alternately, so no two
/// overlapping sessions ever write (or read) the same key: none can fail
/// by design, and every answer depends only on its own client's history.
pub const STRIPE: u64 = 1024;
/// Tuples per read, the paper's default selectivity.
pub const SELECTIVITY: u64 = 10;

/// The four serving shapes of ROADMAP item 1, outermost public type first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// `build_engine` + `Engine::select` + `QueryOutput::key_checksum`.
    Bare,
    /// `build_update_engine`: the same reads beside queued writes.
    Updatable,
    /// `BatchScheduler::execute_ops` over key-disjoint shards.
    Batch,
    /// `TxnManager` sessions, overlapping in rounds.
    Txn,
}

impl Shape {
    pub const ALL: [Shape; 4] = [Shape::Bare, Shape::Updatable, Shape::Batch, Shape::Txn];
}

/// How much of a shape to run. `timed` counts reads for `Bare` and
/// `Batch`, queries (with as many updates again) for `Updatable`, and
/// rounds (one session per client each) for `Txn`; `warm` counts untimed
/// reads first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sizes {
    pub warm: usize,
    pub timed: usize,
    /// `Txn` only: sessions open at the same time in every round.
    pub clients: usize,
    /// `Updatable` only: end the episode with a `flush` of everything
    /// still pending and compare the final state with the model. A flush
    /// costs one ripple walk per same-kind run of pending updates — tens
    /// of seconds at workload size — so only the probe episode does it.
    pub checkpoint: bool,
}

/// One session's script: reads, then one insert and one delete, all in
/// stripes its client owns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionPlan {
    pub reads: [QueryRange; SESSION_READS],
    pub insert: u64,
    pub delete: u64,
}

/// The request stream of one shape.
#[derive(Clone, Debug)]
pub enum Plan {
    Bare {
        warm: Vec<QueryRange>,
        timed: Vec<QueryRange>,
    },
    Updatable {
        warm: Vec<QueryRange>,
        timed: Vec<MixedOp>,
        checkpoint: bool,
    },
    Batch {
        warm: Vec<Vec<BatchOp<u64>>>,
        timed: Vec<Vec<BatchOp<u64>>>,
    },
    Txn {
        warm: Vec<QueryRange>,
        clients: Vec<Vec<SessionPlan>>,
    },
}

/// SplitMix64: the benchmark's own stream for what the library's
/// generators do not cover (session scripts, probe buffers).
#[derive(Clone, Debug)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (modulo bias is far below measurement noise).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The column and its ground truth.
pub struct Inputs {
    pub seed: u64,
    pub data: Vec<u64>,
    pub oracle: Oracle,
}

impl Inputs {
    pub fn generate(n: u64, seed: u64) -> Inputs {
        let data: Vec<u64> = unique_permutation(n, seed);
        let oracle = Oracle::new(&data);
        Inputs { seed, data, oracle }
    }
}

fn reads(kind: WorkloadKind, n: u64, count: usize, seed: u64) -> Vec<QueryRange> {
    if count == 0 {
        return Vec::new();
    }
    WorkloadSpec::new(kind, n, count, seed)
        .with_selectivity(SELECTIVITY)
        .generate()
}

fn batches(reads: &[QueryRange]) -> Vec<Vec<BatchOp<u64>>> {
    reads
        .chunks(BATCH)
        .map(|chunk| chunk.iter().map(|q| BatchOp::Select(*q)).collect())
        .collect()
}

/// Builds the request plan of `shape` over a column of `n` unique keys
/// with read pattern `kind`.
pub fn plan(shape: Shape, kind: WorkloadKind, n: u64, sizes: Sizes, seed: u64) -> Plan {
    match shape {
        Shape::Bare => {
            let mut warm = reads(kind, n, sizes.warm + sizes.timed, seed);
            let timed = warm.split_off(sizes.warm);
            Plan::Bare { warm, timed }
        }
        Shape::Updatable => Plan::Updatable {
            warm: reads(kind, n, sizes.warm, seed),
            // Fig. 15's shape with deletes beside the inserts: one update
            // per query in bursts of 10, uniform keys.
            timed: MixedWorkloadSpec::fig15(kind, n, sizes.timed, seed ^ 0x5EED)
                .with_insert_fraction(0.5)
                .generate(),
            checkpoint: sizes.checkpoint,
        },
        Shape::Batch => {
            let mut warm = reads(kind, n, sizes.warm + sizes.timed, seed);
            let timed = warm.split_off(sizes.warm);
            Plan::Batch {
                warm: batches(&warm),
                timed: batches(&timed),
            }
        }
        Shape::Txn => {
            let stripes = n / STRIPE;
            let clients = sizes.clients as u64;
            assert!(
                stripes >= clients,
                "column too small for {clients} client stripes"
            );
            let scripts = (0..clients)
                .map(|c| {
                    let mut rng = SplitMix(seed ^ (c + 1).wrapping_mul(0xA24B_AED4_963E_E407));
                    let own_base = move |rng: &mut SplitMix| {
                        (rng.below(stripes / clients) * clients + c) * STRIPE
                    };
                    (0..sizes.timed)
                        .map(|_| {
                            let reads = std::array::from_fn(|_| {
                                let a = own_base(&mut rng) + rng.below(STRIPE - SELECTIVITY);
                                QueryRange::new(a, a + SELECTIVITY)
                            });
                            SessionPlan {
                                reads,
                                insert: own_base(&mut rng) + rng.below(STRIPE),
                                delete: own_base(&mut rng) + rng.below(STRIPE),
                            }
                        })
                        .collect()
                })
                .collect();
            Plan::Txn {
                warm: reads(kind, n, sizes.warm, seed),
                clients: scripts,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: u64 = 1 << 14;

    fn sizes() -> Sizes {
        Sizes {
            warm: 100,
            timed: 300,
            clients: 2,
            checkpoint: true,
        }
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for shape in Shape::ALL {
            let a = plan(shape, WorkloadKind::Random, N, sizes(), 7);
            let b = plan(shape, WorkloadKind::Random, N, sizes(), 7);
            let c = plan(shape, WorkloadKind::Random, N, sizes(), 8);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            assert_ne!(format!("{a:?}"), format!("{c:?}"));
        }
        assert_eq!(Inputs::generate(N, 3).data, Inputs::generate(N, 3).data);
        assert_ne!(Inputs::generate(N, 3).data, Inputs::generate(N, 4).data);
    }

    #[test]
    fn plans_have_the_requested_sizes() {
        let s = sizes();
        match plan(Shape::Bare, WorkloadKind::Sequential, N, s, 1) {
            Plan::Bare { warm, timed } => assert_eq!((warm.len(), timed.len()), (100, 300)),
            _ => unreachable!(),
        }
        match plan(Shape::Updatable, WorkloadKind::Random, N, s, 1) {
            Plan::Updatable { warm, timed, .. } => {
                assert_eq!(warm.len(), 100);
                let queries = timed
                    .iter()
                    .filter(|op| matches!(op, MixedOp::Query(_)))
                    .count();
                assert_eq!((queries, timed.len()), (300, 600), "one update per query");
            }
            _ => unreachable!(),
        }
        match plan(Shape::Batch, WorkloadKind::Random, N, s, 1) {
            Plan::Batch { warm, timed } => {
                assert_eq!(warm.iter().map(Vec::len).sum::<usize>(), 100);
                assert_eq!(timed.iter().map(Vec::len).sum::<usize>(), 300);
                assert_eq!(timed.len(), 2, "256 + 44");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn session_scripts_stay_inside_their_clients_stripes() {
        let p = plan(Shape::Txn, WorkloadKind::Random, N, sizes(), 5);
        let Plan::Txn { clients, .. } = &p else {
            unreachable!()
        };
        assert_eq!(clients.len(), 2);
        for (c, scripts) in clients.iter().enumerate() {
            assert_eq!(scripts.len(), 300);
            let owner = |k: u64| (k / STRIPE) as usize % 2;
            for s in scripts {
                assert_eq!(owner(s.insert), c);
                assert_eq!(owner(s.delete), c);
                for q in s.reads {
                    assert_eq!(q.width(), SELECTIVITY);
                    assert_eq!(owner(q.low), c);
                    assert_eq!(owner(q.high - 1), c, "reads never straddle a stripe");
                    assert!(q.high <= N);
                }
            }
        }
    }
}
