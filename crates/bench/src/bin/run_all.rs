//! Regenerates every table and figure of the paper in sequence.

type Experiment = (&'static str, fn(&geobench::ExpContext));

fn main() {
    let ctx = geobench::ExpContext::from_args(0.0005);
    let experiments: &[Experiment] = &[
        ("Table I", geobench::experiments::table1_regions::run),
        ("Fig 1", geobench::experiments::fig1_geo_edges::run),
        ("Fig 2", geobench::experiments::fig2_hybrid_vs_vertex::run),
        ("Fig 3", geobench::experiments::fig3_heterogeneity::run),
        ("Fig 4", geobench::experiments::fig4_dynamicity::run),
        ("Fig 6", geobench::experiments::fig6_penalty::run),
        ("Fig 8", geobench::experiments::fig8_agent_overhead::run),
        ("Fig 9", geobench::experiments::fig9_degree_sampling::run),
        ("Exp#1 (Fig 10/11, Table III)", geobench::experiments::exp1_overall::run),
        ("Exp#2 (Fig 12)", geobench::experiments::exp2_budget::run),
        ("Exp#3 (Table IV)", geobench::experiments::exp3_batch::run),
        ("Exp#4 (Fig 13/14)", geobench::experiments::exp4_topt::run),
        ("Exp#5 (Fig 15)", geobench::experiments::exp5_dynamic::run),
        ("Exp#6 (faults, extension)", geobench::experiments::exp6_faults::run),
        ("Ablation (design choices)", geobench::experiments::ablation::run),
        ("Substrate scale (LJ-analog ingest)", geobench::experiments::substrate_scale::run),
    ];
    for (name, run) in experiments {
        println!("\n######## {name} ########");
        run(&ctx);
    }
}
