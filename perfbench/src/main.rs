//! Command line of the benchmark: `--workload <name> --seed <n>
//! --seconds <s> --trace <0|1>`. Prints a human-readable report, then the
//! JSON result as the last line of standard output.

use perfbench::workload::Workload;
use perfbench::{result_json, run, Options};

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("workloads: {}", names.join(", "));
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage(&format!("{flag} needs a value")) };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value}"))),
                )
            }
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage("--seed takes an integer")),
            "--seconds" => {
                seconds = value.parse().unwrap_or_else(|_| usage("--seconds takes a number"))
            }
            "--trace" => trace = value == "1",
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let out = run(&Options::new(workload, seed, seconds, trace));
    for line in &out.lines {
        println!("{line}");
    }
    println!("{}", result_json(&out));
}
