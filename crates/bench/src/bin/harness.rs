//! Harness regenerating every table and figure of the paper.
//!
//! ```text
//! cargo run -p unisvd-bench --release --bin harness -- all
//! cargo run -p unisvd-bench --release --bin harness -- table1 fig4 [--full]
//! ```
//!
//! Experiments: table1 table2 table3 table4 fig3 fig4 fig5 fig6
//!              ablation-fusion ablation-splitk tune
//!
//! `--full` extends the numeric accuracy runs to larger sizes / more
//! matrices (closer to the paper's setup, much slower). JSON copies of
//! every result are written to `results/`.

use std::fs;
use std::io::Write;

use unisvd_bench::{accuracy, figures, hyperparams, ratios};
use unisvd_gpu::hw::all_platforms;

fn write_json<T: serde::Serialize>(name: &str, value: &T) {
    let _ = fs::create_dir_all("results");
    let path = format!("results/{name}.json");
    match fs::File::create(&path) {
        Ok(mut f) => {
            let _ = writeln!(f, "{}", serde_json::to_string_pretty(value).unwrap());
            println!("  [results written to {path}]");
        }
        Err(e) => eprintln!("  [could not write {path}: {e}]"),
    }
}

fn table1(full: bool) {
    let (sizes, per_dist): (&[usize], usize) = if full {
        (&[64, 256, 1024], 10)
    } else {
        (&[64, 256], 2)
    };
    println!(
        "\nrunning Table 1 (numeric accuracy, sizes {sizes:?}, {per_dist} matrices/distribution)…"
    );
    let rows = accuracy::table1(sizes, per_dist);
    accuracy::print_table1(&rows);
    write_json("table1", &rows);
}

fn table2() {
    println!("\n== Table 2: hardware descriptors ==");
    println!(
        "{:>16} | {:>4} | {:>9} | {:>9} | {:>10} | {:>8} | {:>5}",
        "GPU", "SMs", "L1/SM", "L2", "bandwidth", "FP32", "warp"
    );
    for hw in all_platforms() {
        println!(
            "{:>16} | {:>4} | {:>6} KB | {:>6} MB | {:>7.2} TB/s | {:>5.1} TF | {:>5}",
            hw.name,
            hw.sm_count,
            hw.l1_bytes / 1024,
            hw.l2_bytes / (1024 * 1024),
            hw.bandwidth / 1e12,
            hw.fp32_flops / 1e12,
            hw.warp_size
        );
    }
    write_json("table2", &all_platforms());
}

fn table3() {
    let rows = hyperparams::table3();
    hyperparams::print_table3(&rows);
    write_json("table3", &rows);
}

fn table4(full: bool) {
    let max_n = if full { 65536 } else { 16384 };
    let rows = ratios::table4(max_n);
    ratios::print_table4(&rows);
    write_json("table4", &rows);
}

fn fig3(full: bool) {
    let max_n = if full { 65536 } else { 16384 };
    let curves = ratios::fig3(max_n);
    ratios::print_curves("Fig. 3: unified vs MAGMA / SLATE", &curves);
    write_json("fig3", &curves);
}

fn fig4() {
    let curves = ratios::fig4();
    ratios::print_curves("Fig. 4: unified vs vendor libraries", &curves);
    write_json("fig4", &curves);
}

fn fig5(full: bool) {
    let max_n = if full { 131072 } else { 32768 };
    let curves = figures::fig5(max_n);
    figures::print_fig5(&curves);
    write_json("fig5", &curves);
}

fn fig6(full: bool) {
    let max_n = if full { 32768 } else { 16384 };
    let rows = figures::fig6(max_n);
    figures::print_fig6(&rows);
    write_json("fig6", &rows);
}

fn ablation_fusion(full: bool) {
    let rows = figures::fusion_ablation(if full { 16384 } else { 8192 });
    figures::print_fusion(&rows);
    write_json("ablation_fusion", &rows);
}

fn ablation_splitk() {
    println!("\n== SPLITK ablation (H100 FP32, n = 512, TS=32, CPB=32) ==");
    let curve = hyperparams::splitk_ablation(512);
    for (sk, t) in &curve {
        println!("  SPLITK = {sk:>2}: {:.4} ms", t * 1e3);
    }
    let best = curve
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap();
    println!("  optimum: SPLITK = {} (paper default: 8)", best.0);
    write_json("ablation_splitk", &curve);
}

fn tune() {
    println!("\n== Brute-force hyperparameter tuning (n = 4096) ==");
    let best = hyperparams::tune(4096);
    for (hw, prec, p, t) in &best {
        println!(
            "{:>16} {:>5}: TILESIZE={:>3} COLPERBLOCK={:>3} SPLITK={:>2}  ({:.4} s)",
            hw,
            prec.name(),
            p.tilesize,
            p.colperblock,
            p.splitk,
            t
        );
    }
}

/// An experiment's name and how to run it (the argument is `--full`).
type Experiment = (&'static str, fn(bool));

/// Every experiment, in the order a run executes them.
const EXPERIMENTS: [Experiment; 11] = [
    ("table2", |_| table2()),
    ("table1", table1),
    ("table3", |_| table3()),
    ("fig3", fig3),
    ("fig4", |_| fig4()),
    ("table4", table4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("ablation-fusion", ablation_fusion),
    ("ablation-splitk", |_| ablation_splitk()),
    ("tune", |_| tune()),
];

const USAGE: &str = "usage: harness [all | EXPERIMENT...] [--full]
experiments: table1 table2 table3 table4 fig3 fig4 fig5 fig6
             ablation-fusion ablation-splitk tune";

/// A parsed command line: the experiments to run, in run order, and
/// whether `--full` was given.
#[derive(Debug, PartialEq)]
struct Args {
    experiments: Vec<&'static str>,
    full: bool,
}

/// Parses the arguments after the program name. No experiment (or
/// `all`) selects every one; an unknown experiment or flag is an error
/// naming it.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut full, mut all) = (false, false);
    let mut named = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--full" => full = true,
            "all" => all = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            name => match EXPERIMENTS.iter().find(|e| e.0 == name) {
                Some(e) => named.push(e.0),
                None => return Err(format!("unknown experiment `{name}`")),
            },
        }
    }
    let all = all || named.is_empty();
    let experiments = EXPERIMENTS
        .iter()
        .map(|e| e.0)
        .filter(|e| all || named.contains(e))
        .collect();
    Ok(Args { experiments, full })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args { experiments, full } = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("harness: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };

    println!("unisvd reproduction harness (simulated devices; see README.md / ARCHITECTURE.md)");
    for (name, run) in EXPERIMENTS {
        if experiments.contains(&name) {
            run(full);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn no_experiment_or_all_runs_everything() {
        for args in [&[][..], &["all"], &["--full"], &["all", "fig5"]] {
            let every: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
            assert_eq!(parse(args).unwrap().experiments, every, "{args:?}");
        }
        assert!(parse(&["--full"]).unwrap().full);
        assert!(!parse(&[]).unwrap().full);
    }

    #[test]
    fn named_experiments_run_once_in_run_order() {
        let args = parse(&["fig5", "table2", "fig5", "--full"]).unwrap();
        assert_eq!(args.experiments, ["table2", "fig5"]);
        assert!(args.full);
    }

    #[test]
    fn unknown_names_and_flags_are_errors() {
        assert_eq!(
            parse(&["fig5x", "table2"]),
            Err("unknown experiment `fig5x`".to_string())
        );
        assert_eq!(
            parse(&["table2", "tabel2"]),
            Err("unknown experiment `tabel2`".to_string())
        );
        assert_eq!(
            parse(&["--fast", "table2"]),
            Err("unknown flag `--fast`".to_string())
        );
    }
}
