//! EXPERIMENTS.md's "Raw tables" block is the harness's verbatim output.
//! Regenerating the tables and diffing them against the document keeps
//! the paper-claim evidence from drifting away from the code.

#[test]
fn raw_tables_block_matches_the_harness() {
    let doc = include_str!("../../../EXPERIMENTS.md");
    let (_, section) = doc.split_once("\n## Raw tables\n").expect("a \"Raw tables\" section");
    let (_, fenced) = section.split_once("```text\n").expect("a fenced text block");
    let (block, _) = fenced.split_once("```").expect("a closed fenced block");
    let fresh = auros_bench::report(&auros_bench::all());
    if block == fresh {
        return;
    }
    let (doc_lines, run_lines): (Vec<_>, Vec<_>) =
        (block.lines().collect(), fresh.lines().collect());
    let line = (0..doc_lines.len().max(run_lines.len()))
        .find(|&i| doc_lines.get(i) != run_lines.get(i))
        .unwrap_or(doc_lines.len());
    panic!(
        "EXPERIMENTS.md raw tables differ from the harness at block line {}:\n  doc:     {:?}\n  harness: {:?}\n\
         regenerate with `cargo run --release -p auros-bench --bin experiments`",
        line + 1,
        doc_lines.get(line),
        run_lines.get(line),
    );
}
