//! `perfbench` — the benchmark's helper binary, driven by `run.py`:
//!
//! ```text
//! perfbench split  --corpus F --cut UNIX --base OUT --live OUT
//! perfbench load   --addr HOST:PORT --seconds S --live F --asns A,B,.. --out F
//! perfbench traced --workload W --spec F --seed N --corpus F --probes F --start UNIX
//!                  --end UNIX --cli-json F [--snapshot F] --seconds S
//!                  --work-dir DIR --trace-out F --out F
//! ```

mod client;
mod load;
mod split;
mod stats;
mod traced;

use std::collections::BTreeMap;
use std::process::ExitCode;

struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut map = BTreeMap::new();
        for pair in args.chunks(2) {
            let name = pair[0]
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {}", pair[0]))?;
            let value = pair
                .get(1)
                .ok_or_else(|| format!("--{name} needs a value"))?;
            map.insert(name.to_string(), value.clone());
        }
        Ok(Flags(map))
    }

    fn get(&self, name: &str) -> Result<&str, String> {
        self.0
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{name}"))
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let v = self.get(name)?;
        v.parse().map_err(|_| format!("invalid --{name} {v}"))
    }
}

fn write_json(path: &str, doc: &serde_json::Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(doc).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("write {path}: {e}"))
}

fn split(f: &Flags) -> Result<(), String> {
    let path = f.get("corpus")?;
    let corpus = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    let (base, live) = split::split_last_day(&corpus, f.num("cut")?)?;
    split::write_lines(f.get("base")?, &base)?;
    split::write_lines(f.get("live")?, &live)?;
    println!(
        "{}",
        serde_json::json!({"base": base.len(), "live": live.len()})
    );
    Ok(())
}

fn load(f: &Flags) -> Result<(), String> {
    let live_path = f.get("live")?;
    let live = std::fs::read(live_path).map_err(|e| format!("read {live_path}: {e}"))?;
    let plan = load::LoadPlan {
        addr: f.num("addr")?,
        seconds: f.num("seconds")?,
        asns: f
            .get("asns")?
            .split(',')
            .map(|a| a.parse().map_err(|_| format!("invalid ASN {a}")))
            .collect::<Result<_, _>>()?,
        live_lines: live
            .split(|&b| b == b'\n')
            .filter(|l| !l.is_empty())
            .map(<[u8]>::to_vec)
            .collect(),
    };
    write_json(f.get("out")?, &load::run(&plan)?)
}

fn traced(f: &Flags) -> Result<(), String> {
    let read = |flag: &str| -> Result<String, String> {
        let path = f.get(flag)?;
        std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))
    };
    let plan = traced::TracedPlan {
        workload: f.get("workload")?.to_string(),
        spec: serde_json::from_str(&read("spec")?).map_err(|e| format!("--spec: {e}"))?,
        seed: f.num("seed")?,
        corpus: f.get("corpus")?.to_string(),
        probes: f.get("probes")?.to_string(),
        window: (f.num("start")?, f.num("end")?),
        cli_json: read("cli-json")?,
        snapshot: f.get("snapshot").ok().map(str::to_string),
        seconds: f.num("seconds")?,
        work_dir: f.get("work-dir")?.to_string(),
        trace_out: f.get("trace-out")?.to_string(),
    };
    write_json(f.get("out")?, &traced::run(&plan)?)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) => Flags::parse(rest).and_then(|f| match cmd.as_str() {
            "split" => split(&f),
            "load" => load(&f),
            "traced" => traced(&f),
            other => Err(format!("unknown subcommand {other} (split|load|traced)")),
        }),
        None => Err("usage: perfbench split|load|traced --flag value ...".to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
