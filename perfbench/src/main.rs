//! Loopback benchmark of the hashing daemon.
//!
//! Boots `krv_server::Server` on loopback inside this process, drives
//! one seeded workload over one client connection — a closed-loop
//! capacity phase, then an open-loop latency phase — checks every reply
//! against the benchmark's own reference computation, and prints every
//! metric by name with its unit. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//!
//! ```text
//! krv-perfbench --workload <hash_small|kem_mixed|stream_bulk|all>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! traced run instead and reports the per-layer metrics, writing its
//! spans to `out/` next to this package's manifest. See `README.md`.

mod cases;
mod drive;
mod layers;
mod stats;
mod trace;
mod workload;

use stats::median;
use std::process::{Command, ExitCode};
use workload::{Metric, Workload};

/// Fresh processes whose set-up cost is measured per run; `setup_s` is
/// the median of their set-up CPU time.
const SETUP_PROBES: usize = 11;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        setup_probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            args.setup_probe = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Measures set-up in fresh child processes and returns the medians of
/// its CPU time (`setup_s`) and of its wall-clock time.
fn measure_setup(workload: Workload, seed: u64) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut cpu, mut wall) = (Vec::new(), Vec::new());
    for i in 0..SETUP_PROBES as u64 {
        let output = Command::new(&exe)
            .args(["--setup-probe", "--workload", workload.name()])
            .args(["--seed", &seed.wrapping_add(i).to_string()])
            .output()
            .map_err(|e| format!("spawn set-up probe: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let values: Option<(f64, f64)> = stdout
            .lines()
            .find_map(|line| line.strip_prefix("setup_s "))
            .and_then(|v| {
                let (c, w) = v.trim().split_once(' ')?;
                Some((c.parse().ok()?, w.parse().ok()?))
            });
        match (output.status.success(), values) {
            (true, Some((c, w))) => {
                cpu.push(c);
                wall.push(w);
            }
            _ => {
                return Err(format!(
                    "set-up probe failed: {}",
                    String::from_utf8_lossy(&output.stderr).trim()
                ))
            }
        }
    }
    Ok((median(&cpu), median(&wall)))
}

fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, String)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Runs one workload in this process and prints its report; returns
/// whether every output was correct.
fn run_one(workload: Workload, args: &Args) -> Result<bool, String> {
    println!(
        "workload {} seed {} seconds {} trace {}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (metrics, tally, mirror_mismatches, notes): (Vec<Metric>, _, _, _) = if args.trace {
        let traced = layers::run_traced(workload, args.seed, args.seconds)?;
        (
            traced.metrics,
            traced.tally,
            traced.mirror_mismatches,
            traced.notes,
        )
    } else {
        let (setup_s, setup_wall_s) = measure_setup(workload, args.seed)?;
        let mut e2e = workload::run_e2e(workload, args.seed, args.seconds, setup_s);
        e2e.notes.push(format!(
            "set-up wall clock (not bounded): {setup_wall_s} s, median of {SETUP_PROBES} fresh processes"
        ));
        (e2e.metrics, e2e.tally, e2e.mirror_mismatches, e2e.notes)
    };
    for note in &notes {
        println!("  {note}");
    }
    for (name, value, unit) in &metrics {
        println!("  {name} = {value} {unit}");
    }
    let correct = tally.mismatch == 0 && mirror_mismatches == 0;
    let named: Vec<(String, f64, String)> = metrics
        .iter()
        .map(|&(name, value, unit)| (name.to_string(), value, unit.to_string()))
        .collect();
    println!(
        "{}",
        json_line(correct, tally.attempted().max(1), tally.failed(), &named)
    );
    Ok(correct)
}

/// Runs every workload, each in a fresh child process, and prints one
/// combined JSON line with metrics named `<workload>.<metric>`.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics: Vec<(String, f64, String)> = Vec::new();
    for workload in Workload::ALL {
        let output = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("spawn {}: {e}", workload.name()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for line in lines {
            println!("{line}");
        }
        correct &= output.status.success();
        attempted += field(last, "\"attempted\": ").unwrap_or(0.0) as u64;
        failed += field(last, "\"failed\": ").unwrap_or(0.0) as u64;
        for line in stdout.lines() {
            if let Some((name, rest)) = line.trim().split_once(" = ") {
                if let Some((value, unit)) = rest.split_once(' ') {
                    if let Ok(value) = value.parse::<f64>() {
                        let name = format!("{}.{name}", workload.name());
                        metrics.push((name, value, unit.to_string()));
                    }
                }
            }
        }
    }
    println!("{}", json_line(correct, attempted.max(1), failed, &metrics));
    Ok(correct)
}

/// The number after `key` in a JSON line.
fn field(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("krv-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.workload == "all" {
        run_all(&args)
    } else if let Some(workload) = Workload::parse(&args.workload) {
        if args.setup_probe {
            workload::setup_probe(workload, args.seed).map(|(cpu, wall)| {
                println!("setup_s {cpu} {wall}");
                true
            })
        } else {
            run_one(workload, &args)
        }
    } else {
        Err(format!("unknown workload {}", args.workload))
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("krv-perfbench: wrong outputs or mirror mismatches (see above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("krv-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
