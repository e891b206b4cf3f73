//! `dmc`: the harness. One binary, one argument parser, one `--workload`
//! selector over [`dmc_bench::workloads`], one exit convention.
//!
//! ```sh
//! cargo run --release -p dmc-bench --bin dmc -- figures
//! cargo run --release -p dmc-bench --bin dmc -- explain --workload stencil --out-dir target/e
//! cargo run --release -p dmc-bench --bin dmc -- check
//! ```
//!
//! | subcommand | what it does; `--check` runs its battery |
//! |---|---|
//! | `figures` | prints the figure series of EXPERIMENTS.md |
//! | `explain` | captures each workload once and writes `trace_W.json`, `explain_W.md` and `profile_W.collapsed` ([`dmc_bench::explain`]) |
//! | `store` | populates the store at `--cache-dir`, bounded by `--max-bytes` ([`dmc_bench::store`]) |
//! | `snapshot` | writes `BENCH_pipeline.json` (or `--out PATH`); `--check [PATH]` gates against it ([`dmc_bench::snapshot`]) |
//! | `check` | runs `explain`, `store` and `snapshot` with `--check`, in this process |
//!
//! Exit codes: **0** clean; **1** an invariant failed (one stderr line
//! names it; drift findings follow it, one per line); **2** the command
//! line or an input file could not be used (usage on stderr), before
//! anything is measured.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

use dmc_bench::{explain, snapshot, store, Workload};
use dmc_obs::json::{self, Json};

mod figures;

/// How a subcommand ends when it does not succeed.
enum Exit {
    /// An invariant failed: exit 1.
    Failed(String),
    /// An input file could not be read or parsed: exit 2.
    Input(String),
    /// The command line could not be used: the reason (if any) and the
    /// usage, exit 2.
    Usage(String),
}

impl From<String> for Exit {
    fn from(msg: String) -> Exit {
        Exit::Failed(msg)
    }
}

/// A flag and the metavariables of its values; `[PATH]` is optional.
type Flag = (&'static str, &'static [&'static str]);

struct Cmd {
    name: &'static str,
    flags: &'static [Flag],
    run: fn(&Args) -> Result<(), Exit>,
}

const CACHE_DIR: Flag = ("--cache-dir", &["PATH"]);
const CHECK: Flag = ("--check", &[]);

static CMDS: &[Cmd] = &[
    Cmd {
        name: "figures",
        flags: &[],
        run: figures,
    },
    Cmd {
        name: "explain",
        flags: &[
            ("--workload", &["NAME|all"]),
            ("--out-dir", &["PATH"]),
            CHECK,
        ],
        run: explain,
    },
    Cmd {
        name: "store",
        flags: &[CACHE_DIR, ("--max-bytes", &["N"]), CHECK],
        run: store,
    },
    Cmd {
        name: "snapshot",
        flags: &[("--out", &["PATH"]), ("--check", &["[PATH]"]), CACHE_DIR],
        run: snapshot,
    },
    Cmd {
        name: "check",
        flags: &[],
        run: check,
    },
];

/// The subcommands `dmc check` runs with `--check`.
const BATTERIES: [&str; 3] = ["explain", "store", "snapshot"];

fn usage_line(cmd: &Cmd) -> String {
    let mut line = format!("dmc {}", cmd.name);
    for (flag, metas) in cmd.flags {
        line.push_str(&format!(" [{}]", [&[*flag], *metas].concat().join(" ")));
    }
    line
}

/// A parsed command line: each given flag with its values, in order.
struct Args {
    given: Vec<(&'static str, Vec<String>)>,
}

impl Args {
    fn parse(cmd: &Cmd, argv: &[String]) -> Result<Args, Exit> {
        let usage = || Exit::Usage(String::new());
        let mut given = Vec::new();
        let mut argv = argv.iter().peekable();
        while let Some(arg) = argv.next() {
            let (flag, metas) = cmd.flags.iter().find(|(f, _)| f == arg).ok_or_else(usage)?;
            let mut values = Vec::new();
            for meta in *metas {
                let optional = meta.starts_with('[');
                match argv.next_if(|v| !optional || !v.starts_with("--")) {
                    Some(v) => values.push(v.clone()),
                    None if optional => {}
                    None => return Err(usage()),
                }
            }
            given.push((*flag, values));
        }
        Ok(Args { given })
    }

    /// The values of the last occurrence of `flag`, if it was given.
    fn values(&self, flag: &str) -> Option<&[String]> {
        let given = self.given.iter().rev().find(|(f, _)| *f == flag);
        given.map(|(_, v)| v.as_slice())
    }

    fn has(&self, flag: &str) -> bool {
        self.values(flag).is_some()
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.values(flag)?.first().map(String::as_str)
    }

    fn number<T: FromStr>(&self, flag: &str) -> Result<Option<T>, Exit> {
        self.value(flag)
            .map(|v| v.parse().map_err(|_| Exit::Usage(String::new())))
            .transpose()
    }

    fn path(&self, flag: &str, default: &str) -> PathBuf {
        PathBuf::from(self.value(flag).unwrap_or(default))
    }

    /// `--out-dir` (or `default`), created.
    fn out_dir(&self, default: &str) -> Result<PathBuf, Exit> {
        let dir = self.path("--out-dir", default);
        std::fs::create_dir_all(&dir)
            .map_err(|e| Exit::Failed(format!("create {}: {e}", dir.display())))?;
        Ok(dir)
    }

    fn workloads(&self) -> Result<Vec<Workload>, Exit> {
        dmc_bench::select(self.value("--workload")).map_err(Exit::Usage)
    }
}

fn read(path: &str) -> Result<String, Exit> {
    std::fs::read_to_string(path).map_err(|e| Exit::Input(format!("read {path}: {e}")))
}

fn read_json(path: &str) -> Result<Json, Exit> {
    json::parse(&read(path)?).map_err(|e| Exit::Input(format!("{path}: {e}")))
}

fn write(path: &Path, text: &str) -> Result<(), Exit> {
    std::fs::write(path, text).map_err(|e| Exit::Failed(format!("write {}: {e}", path.display())))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first().and_then(|name| find(name)) else {
        eprintln!("usage: dmc SUBCOMMAND [FLAG...], one of:");
        for cmd in CMDS {
            eprintln!("  {}", usage_line(cmd));
        }
        return ExitCode::from(2);
    };
    ExitCode::from(dispatch(cmd, &argv[1..]))
}

fn find(name: &str) -> Option<&'static Cmd> {
    CMDS.iter().find(|c| c.name == name)
}

/// Parses `argv` for `cmd`, runs it and reports how it ended; returns the
/// exit code.
fn dispatch(cmd: &Cmd, argv: &[String]) -> u8 {
    match Args::parse(cmd, argv).and_then(|args| (cmd.run)(&args)) {
        Ok(()) => 0,
        Err(Exit::Failed(msg)) => {
            eprintln!("dmc {}: {msg}", cmd.name);
            1
        }
        Err(Exit::Input(msg)) => {
            eprintln!("dmc {}: {msg}", cmd.name);
            2
        }
        Err(Exit::Usage(why)) => {
            if !why.is_empty() {
                eprintln!("dmc {}: {why}", cmd.name);
            }
            eprintln!("usage: {}", usage_line(cmd));
            2
        }
    }
}

fn figures(_: &Args) -> Result<(), Exit> {
    figures::print();
    Ok(())
}

fn explain(args: &Args) -> Result<(), Exit> {
    let selected = args.workloads()?;
    let out_dir = args.out_dir("target/dmc-explain")?;
    for w in &selected {
        let cap = explain::capture(w)?;
        let name = w.name;
        let collapsed = cap.profile.collapsed_stack();
        for (file, text) in [
            (format!("trace_{name}.json"), &cap.chrome),
            (format!("explain_{name}.md"), &cap.report),
            (format!("profile_{name}.collapsed"), &collapsed),
        ] {
            write(&out_dir.join(file), text)?;
        }
        // A ratio far above the nests' depth means some nest loops over
        // misses (a level the kernel could not make tight). Below one
        // evaluation per point is expected: the planner's counted sets
        // come as runs, each one evaluation for many points.
        let d = &cap.delta;
        println!(
            "{name:<10} scan: {} points from {} range evaluations ({:.2} per point)",
            d.scan_points,
            d.scan_range_evals,
            d.scan_range_evals as f64 / d.scan_points.max(1) as f64
        );
        if args.has("--check") {
            println!("{}", explain::check(w, &cap)?);
        } else {
            let crit = &cap.crit;
            let cats = crit.total.categories();
            let total: u64 = cats.iter().map(|(_, v)| v).sum();
            let shares: Vec<String> = cats
                .iter()
                .map(|(c, v)| format!("{c} {:.1}%", 100.0 * *v as f64 / total.max(1) as f64))
                .collect();
            println!(
                "{name:<10} makespan {:.3} ms, {} event(s), {} critical, path {}\n           \
                 blame: {}\n{name:<10} {} work units -> {}/{{trace,explain,profile}}_{name}.*",
                crit.makespan_ns as f64 / 1e6,
                crit.events.len(),
                crit.critical_events(),
                crit.chain.len(),
                shares.join(", "),
                cap.profile.total_work(),
                out_dir.display(),
            );
        }
    }
    Ok(())
}

fn store(args: &Args) -> Result<(), Exit> {
    let max_bytes = args.number("--max-bytes")?;
    if args.has("--check") {
        let dir = args.path("--cache-dir", "target/dmc-store-check");
        println!("{}\nstore check ok", store::check(&dir)?);
        return Ok(());
    }
    let dir = args
        .value("--cache-dir")
        .ok_or(Exit::Usage("nothing to do".into()))?;
    let (_, stats, s) = store::sweep(store::open(Path::new(dir), max_bytes)?)?;
    println!(
        "served {} workload(s): {} stage hit(s) ({} from disk), {} miss(es)\n\
         store {dir}: {} entries, {} payload bytes ({} written, {} read), \
         {} eviction(s), {} corrupt",
        dmc_bench::workloads().len(),
        stats.stage_hits,
        stats.stage_disk_hits,
        stats.stage_misses,
        s.entries,
        s.bytes,
        s.bytes_written,
        s.bytes_read,
        s.evictions,
        s.corrupt
    );
    Ok(())
}

fn snapshot(args: &Args) -> Result<(), Exit> {
    let cache_dir = args.path("--cache-dir", "target/dmc-snapshot-store");
    let mut log = String::new();
    let Some(check) = args.values("--check") else {
        let path = args.value("--out").unwrap_or("BENCH_pipeline.json");
        let doc = snapshot::document(&cache_dir, &mut log);
        print!("{log}");
        write(Path::new(path), &doc?)?;
        println!("wrote {path}");
        return Ok(());
    };
    if args.has("--out") {
        return Err(Exit::Usage(String::new()));
    }
    let path = check.first().map_or("BENCH_pipeline.json", String::as_str);
    let golden = read_json(path)?;
    let verdict = snapshot::check(path, &golden, &cache_dir, &mut log);
    print!("{log}");
    println!("snapshot check ok: {}", verdict?);
    Ok(())
}

fn check(_: &Args) -> Result<(), Exit> {
    let check = ["--check".to_owned()];
    let failed: Vec<&str> = BATTERIES
        .into_iter()
        .filter(|name| find(name).is_none_or(|cmd| dispatch(cmd, &check) != 0))
        .collect();
    if !failed.is_empty() {
        return Err(Exit::Failed(format!("failed: {}", failed.join(", "))));
    }
    println!("check ok: {}", BATTERIES.join(", "));
    Ok(())
}
