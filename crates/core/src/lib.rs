//! # rlcut — adaptive multi-agent RL graph partitioning for geo-distributed DCs
//!
//! Implementation of **RLCut** (Zhou et al., ICDE 2022): a Learning-Automata
//! multi-agent partitioner over the hybrid-cut model that minimizes the
//! inter-DC data transfer time of geo-distributed graph analytics subject
//! to a WAN cost budget, and adapts its own training overhead to graph
//! dynamicity.
//!
//! One learning agent per vertex; the environment state is the vector of
//! master locations (§IV-B). Each training step every sampled agent runs
//! the five-step loop of Fig 5:
//!
//! 1. **Score function** (Eq 10) — [`score`]: for every candidate DC,
//!    project the move with `geopart`'s `O(deg)` incremental evaluator and
//!    blend time/cost improvements with the adaptive `tw`/`cw` weights.
//! 2. **Reinforcement signal** (Eq 11) — reward the best-scoring DC,
//!    penalize the rest.
//! 3. **Probability update** (Eq 12) — [`agent`]: reward-only by default
//!    (the paper shows penalty updates converge ~30× slower, Fig 6);
//!    penalty updates (Eq 9) are available behind a flag.
//! 4. **Action selection** (Eq 13) — UCB over realized signals, with the
//!    LA probability vector breaking exploration ties.
//! 5. **Vertex migration** (Fig 7) — [`trainer`]: batched, globally
//!    checked: each batch is evaluated against a frozen snapshot, applied
//!    moves roll back if their Eq 10 score against the live state is
//!    negative.
//!
//! Overhead adaptation (§V): [`straggler`] assigns agents to threads by
//! degree (greedy LPT), [`sampling`] trains only the lowest-degree `k%` of
//! agents and retunes `k` per step from the remaining time budget (Eq 14).
//! [`adaptive`] wraps it all for dynamic graphs: each arrival window
//! re-partitions within the required optimization overhead `T_opt`.
//!
//! ## Quickstart
//!
//! ```
//! use geograph::{GeoGraph, locality::LocalityConfig, generators::{rmat, RmatConfig}};
//! use geosim::regions::ec2_eight_regions;
//! use rlcut::{partition, RlCutConfig};
//!
//! let graph = rmat(&RmatConfig::social(1024, 8192), 7);
//! let geo = GeoGraph::from_graph(graph, &LocalityConfig::paper_default(7));
//! let env = ec2_eight_regions();
//! let budget = geosim::cost::default_budget(&env, &geo.locations, &geo.data_sizes, 0.4);
//!
//! let config = RlCutConfig::new(budget).with_seed(1);
//! let profile = geopart::TrafficProfile::uniform(geo.num_vertices(), 8.0);
//! let result = partition(&geo, &env, profile, 10.0, &config);
//! assert!(result.final_objective(&env).total_cost() <= budget);
//! ```

pub mod adaptive;
pub mod agent;
pub mod config;
pub mod durable;
pub mod pool;
pub mod sampling;
pub mod score;
pub mod stats;
pub mod straggler;
pub mod trainer;

pub use adaptive::{AdaptiveRlCut, WindowReport};
pub use config::RlCutConfig;
pub use durable::DurableAdaptive;
pub use stats::StepStats;
pub use trainer::partition;
