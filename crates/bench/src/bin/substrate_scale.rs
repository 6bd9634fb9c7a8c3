//! Substrate at paper scale (not a paper artifact); see
//! `geobench::experiments::substrate_scale`.

fn main() {
    let ctx = geobench::ExpContext::from_args(0.002);
    geobench::experiments::substrate_scale::run(&ctx);
}
