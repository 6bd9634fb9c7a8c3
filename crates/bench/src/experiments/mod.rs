//! One module per paper table/figure; each exposes `run(&ExpContext)`
//! printing the regenerated rows/series. The `run_all` binary drives them
//! all at a reduced scale.

pub mod ablation;
pub mod exp1_overall;
pub mod exp2_budget;
pub mod exp3_batch;
pub mod exp4_topt;
pub mod exp5_dynamic;
pub mod exp6_faults;
pub mod fig1_geo_edges;
pub mod fig2_hybrid_vs_vertex;
pub mod fig3_heterogeneity;
pub mod fig4_dynamicity;
pub mod fig6_penalty;
pub mod fig8_agent_overhead;
pub mod fig9_degree_sampling;
pub mod substrate_scale;
pub mod table1_regions;
