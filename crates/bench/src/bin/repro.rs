//! Regenerates every table and figure of the paper.
//!
//! ```text
//! repro [EXPERIMENT...] [--scale N] [--no-prototype] [--hw]
//!
//! EXPERIMENT: all (default) | fig1 | table1 | table2 | fig2 | table3
//!           | model41 | ablations | batch | pmu | shards
//!           | spans (request-lifecycle phase breakdown)
//!           | obs (live observer endpoints + flight-recording replay)
//!           | conns (connection server: blocking vs completion-based
//!             front-end at equal client counts)
//!           | faults (needs --features faultinject to arm the hooks)
//! --scale N: multiply workload sizes by N (default 1; paper-style
//!            stability from ~4)
//! --no-prototype: skip the real-runtime wall-clock part of table3
//! --hw: table1 and table2 additionally replay on the host PMU and
//!       print sim and hardware columns side by side; shards, spans,
//!       obs and conns arm PMU sessions on the run they already
//!       make and print its service-shard and client columns under the
//!       table (columns are labeled /hw, or /sw where the host has no
//!       PMU and the software fallback counted)
//! ```
//!
//! An unknown experiment name prints the usage line and exits 2.

use ngm_bench::experiments::{
    ablations, conns, faults, fig1, fig2, model41, obs, pmu, shards, spans, table1, table2, table3,
};
use ngm_bench::Scale;

/// Every name the command line accepts, as the usage line spells them
/// (`batch` re-renders one ablation; `all` leaves it to `ablations`).
const EXPERIMENTS: &str =
    "all|fig1|table1|table2|fig2|table3|model41|ablations|batch|pmu|shards|spans|obs|conns|faults";

fn usage() -> String {
    format!(
        "usage: repro [{EXPERIMENTS}]... [--scale N] [--no-prototype] [--hw]\n\
         --hw: PMU columns (/hw, or /sw without a PMU) for table1, table2, \
         shards, spans, obs, conns"
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale(1);
    let mut with_prototype = true;
    let mut with_hw = false;
    let mut experiments: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                let n = args
                    .get(i)
                    .and_then(|s| s.parse::<u32>().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--scale expects a positive integer");
                        std::process::exit(2);
                    });
                scale = Scale(n.max(1));
            }
            "--no-prototype" => with_prototype = false,
            "--hw" => with_hw = true,
            "--help" | "-h" => {
                println!("{}", usage());
                return;
            }
            name if EXPERIMENTS.split('|').any(|e| e == name) => experiments.push(name.to_string()),
            unknown => {
                eprintln!("unknown experiment or option: {unknown}\n{}", usage());
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if experiments.is_empty() {
        experiments.push("all".into());
    }

    let want = |name: &str| experiments.iter().any(|e| e == name || e == "all");

    println!("NextGen-Malloc reproduction harness (scale {}x)", scale.0);
    println!("================================================\n");

    if want("fig1") {
        println!("{}", fig1::run(scale).render());
    }
    if want("table1") {
        println!("{}", table1::run(scale).render());
        if with_hw {
            println!("{}", table1::run_hw(scale).render());
        }
    }
    if want("table2") {
        println!("{}", table2::run(scale).render());
        if with_hw {
            println!("{}", table2::run_hw(scale).render());
        }
    }
    if want("fig2") {
        println!("{}", fig2::run_fig2(scale).render());
        println!("{}", fig2::run_who_pays(scale).render());
    }
    if want("table3") {
        println!("{}", table3::run(scale, with_prototype).render());
    }
    if want("model41") {
        println!("{}", model41::run().render());
    }
    let real_ops = 20_000u32.saturating_mul(scale.0);
    if want("ablations") {
        println!("{}", ablations::render_all(scale, real_ops));
    }
    // "batch" re-renders just the batched-front-end ablation ("all"
    // already includes it via the full ablation set).
    if experiments.iter().any(|e| e == "batch") {
        println!("{}", ablations::render_batched(scale, real_ops));
    }
    if want("pmu") {
        println!("{}", pmu::run(scale, real_ops));
    }
    if want("shards") {
        println!("{}", shards::run(scale, with_hw).render());
    }
    if want("spans") {
        println!("{}", spans::run(scale, with_hw).render());
    }
    if want("obs") {
        println!("{}", obs::run(scale, with_hw).render());
    }
    if want("conns") {
        println!("{}", conns::run(scale, with_hw).render());
    }
    if want("faults") {
        println!("{}", faults::run(scale));
    }
}
