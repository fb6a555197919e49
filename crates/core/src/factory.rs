//! Engine construction by name: one entry point for experiments and tests.

use crate::baseline::{ScanEngine, SortEngine};
use crate::config::CrackConfig;
use crate::cracker::CrackerEngine;
use crate::engine::Engine;
use scrack_types::Element;

/// Every strategy evaluated in the paper, as a constructible description.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EngineKind {
    /// Full scan, no indexing (§3).
    Scan,
    /// Full sort on the first query (§3).
    Sort,
    /// Original database cracking (§2–3).
    Crack,
    /// Data Driven Center, recursive (Fig. 4).
    Ddc,
    /// Data Driven Random, recursive.
    Ddr,
    /// One center crack then plain cracking.
    Dd1c,
    /// One random crack then plain cracking.
    Dd1r,
    /// Materializing DD1R (Fig. 5); the default "Scrack".
    Mdd1r,
    /// Data Driven Midpoint, recursive: key-space midpoint splits down to
    /// `CRACK_SIZE` (deterministic counterpart of DDC/DDR).
    Ddm,
    /// One midpoint crack then plain cracking.
    Dd1m,
    /// MDD1R's query shape with midpoint pivots: deterministic, never
    /// cracks on query bounds.
    Mdd1m,
    /// Progressive stochastic cracking with a swap budget in percent.
    Progressive {
        /// Percentage of the piece size allowed as swaps per query.
        swap_pct: u32,
    },
    /// Selective: stochastic every `x`-th query (x=2 is FiftyFifty).
    EveryX {
        /// The period.
        x: u32,
    },
    /// Selective: stochastic with probability 1/2 per query.
    FlipCoin,
    /// Selective: ScrackMon with the given counter threshold.
    Monitor {
        /// Crack-count threshold per piece.
        threshold: u32,
    },
    /// Selective: stochastic only above the L1 piece size.
    SizeThreshold,
    /// Naive: inject a random query every `every` user queries (Fig. 12).
    RandomInject {
        /// The injection period.
        every: u32,
    },
}

impl EngineKind {
    /// The paper's label for the strategy.
    pub fn label(&self) -> String {
        match self {
            EngineKind::Scan => "Scan".into(),
            EngineKind::Sort => "Sort".into(),
            EngineKind::Crack => "Crack".into(),
            EngineKind::Ddc => "DDC".into(),
            EngineKind::Ddr => "DDR".into(),
            EngineKind::Dd1c => "DD1C".into(),
            EngineKind::Dd1r => "DD1R".into(),
            EngineKind::Mdd1r => "MDD1R".into(),
            EngineKind::Ddm => "DDM".into(),
            EngineKind::Dd1m => "DD1M".into(),
            EngineKind::Mdd1m => "MDD1M".into(),
            EngineKind::Progressive { swap_pct } => format!("P{swap_pct}%"),
            EngineKind::EveryX { x: 2 } => "FiftyFifty".into(),
            EngineKind::EveryX { x } => format!("Every{x}"),
            EngineKind::FlipCoin => "FlipCoin".into(),
            EngineKind::Monitor { threshold } => format!("ScrackMon{threshold}"),
            EngineKind::SizeThreshold => "L1Switch".into(),
            EngineKind::RandomInject { every } => format!("R{every}crack"),
        }
    }

    /// The kinds exercised across the paper's figures, for sweep tests.
    pub fn paper_selection() -> Vec<EngineKind> {
        vec![
            EngineKind::Scan,
            EngineKind::Sort,
            EngineKind::Crack,
            EngineKind::Ddc,
            EngineKind::Ddr,
            EngineKind::Dd1c,
            EngineKind::Dd1r,
            EngineKind::Mdd1r,
            EngineKind::Progressive { swap_pct: 1 },
            EngineKind::Progressive { swap_pct: 10 },
            EngineKind::Progressive { swap_pct: 50 },
            EngineKind::Progressive { swap_pct: 100 },
            EngineKind::EveryX { x: 2 },
            EngineKind::FlipCoin,
            EngineKind::Monitor { threshold: 10 },
            EngineKind::SizeThreshold,
            EngineKind::RandomInject { every: 2 },
        ]
    }

    /// [`EngineKind::paper_selection`] plus the post-paper data-driven
    /// midpoint family (DDM/DD1M/MDD1M): everything the repo can build.
    /// Sweep tests, the update factory and the chooser's full config
    /// space enumerate this, so new kinds added here are picked up
    /// everywhere at once.
    pub fn extended_selection() -> Vec<EngineKind> {
        let mut kinds = Self::paper_selection();
        kinds.extend([EngineKind::Ddm, EngineKind::Dd1m, EngineKind::Mdd1m]);
        kinds
    }
}

/// Builds a boxed engine of the given kind over `data`.
///
/// `seed` feeds every randomized component, making runs reproducible.
pub fn build_engine<E: Element>(
    kind: EngineKind,
    data: Vec<E>,
    config: CrackConfig,
    seed: u64,
) -> Box<dyn Engine<E>> {
    match kind {
        EngineKind::Scan => Box::new(ScanEngine::new(data)),
        EngineKind::Sort => Box::new(SortEngine::new(data)),
        _ => Box::new(CrackerEngine::new(kind, data, config, seed)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(EngineKind::Progressive { swap_pct: 10 }.label(), "P10%");
        assert_eq!(EngineKind::RandomInject { every: 4 }.label(), "R4crack");
        assert_eq!(EngineKind::EveryX { x: 2 }.label(), "FiftyFifty");
        assert_eq!(EngineKind::EveryX { x: 8 }.label(), "Every8");
        assert_eq!(EngineKind::FlipCoin.label(), "FlipCoin");
        assert_eq!(EngineKind::SizeThreshold.label(), "L1Switch");
        assert_eq!(EngineKind::Monitor { threshold: 50 }.label(), "ScrackMon50");
    }

    #[test]
    fn extended_selection_is_paper_selection_plus_midpoint_family() {
        let paper = EngineKind::paper_selection();
        let extended = EngineKind::extended_selection();
        assert_eq!(&extended[..paper.len()], &paper[..]);
        assert_eq!(
            &extended[paper.len()..],
            &[EngineKind::Ddm, EngineKind::Dd1m, EngineKind::Mdd1m]
        );
    }

    #[test]
    fn build_all_kinds() {
        let data: Vec<u64> = (0..100).collect();
        for kind in EngineKind::extended_selection() {
            let mut eng = build_engine(kind, data.clone(), CrackConfig::default(), 42);
            let out = eng.select(scrack_types::QueryRange::new(10, 20));
            assert_eq!(out.len(), 10, "{} wrong result size", eng.name());
        }
    }
}
