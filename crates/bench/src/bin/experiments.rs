//! Regenerates every experiment table (DESIGN.md §3, EXPERIMENTS.md).
//!
//! ```sh
//! cargo run --release -p auros-bench --bin experiments            # tables
//! cargo run --release -p auros-bench --bin experiments -- --csv out/
//! ```

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let csv_dir = args.iter().position(|a| a == "--csv").and_then(|i| args.get(i + 1)).cloned();
    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).expect("create csv output directory");
    }
    let tables = auros_bench::all();
    print!("{}", auros_bench::report(&tables));
    if let Some(dir) = &csv_dir {
        for (i, table) in tables.iter().enumerate() {
            let path = format!("{dir}/e{:02}.csv", i + 1);
            std::fs::write(&path, table.to_csv()).expect("write csv");
            eprintln!("wrote {path}");
        }
    }
}
