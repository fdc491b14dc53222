//! The repository benchmark's measuring program.
//!
//! `perfbench <workload> --seed N --seconds S --trace 0|1` runs one
//! workload in this process and prints one JSON line: the ops attempted
//! and failed, the metrics (end-to-end when untraced, per-layer when
//! traced), the deterministic simulated figures and their digest. The
//! runner `run.py` builds this program, runs it and reshapes that line into
//! the benchmark's result. See README.md.

mod building;
mod harness;
mod layers;
mod model_check;
mod projection;
mod simrun;
mod spectrum;

use harness::{Metric, Report, RunCfg};

const USAGE: &str =
    "usage: perfbench <projection|spectrum|building|model_check> --seed N --seconds S --trace 0|1";

fn parse() -> Result<(String, RunCfg), String> {
    let mut args = std::env::args().skip(1);
    let workload = args.next().ok_or("missing workload")?;
    let mut cfg = RunCfg {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--seed" => cfg.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => cfg.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => cfg.trace = value.parse::<u8>().map_err(|_| bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if cfg.seconds.is_nan() || cfg.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok((workload, cfg))
}

fn json_metrics(ms: &[Metric]) -> String {
    let fields: Vec<String> = ms
        .iter()
        .map(|m| {
            // A non-finite figure is printed as null, which the runner rejects.
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".into()
            };
            format!(
                "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn main() {
    let (workload, cfg) = match parse() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report: Report = match workload.as_str() {
        "projection" => simrun::run(&projection::Projection { seed: cfg.seed }, &cfg),
        "spectrum" => simrun::run(&spectrum::Spectrum { seed: cfg.seed }, &cfg),
        "building" => simrun::run(&building::Building::new(cfg.seed), &cfg),
        "model_check" => model_check::run(&cfg),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "{{\"workload\":\"{workload}\",\"seed\":{},\"trace\":{},\"rounds\":{},\"attempted\":{},\"failed\":{},\"digest\":\"{:016x}\",\"sim\":{},\"metrics\":{}}}",
        cfg.seed,
        cfg.trace,
        report.rounds,
        report.attempted,
        report.failed,
        report.digest,
        json_metrics(&report.sim),
        json_metrics(&report.metrics),
    );
}
