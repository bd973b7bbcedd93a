//! Runs every experiment in sequence, then the AES design-choice ablations
//! (the data source for EXPERIMENTS.md).
//!
//! ```console
//! all_experiments
//! ```
//!
//! For the traced §6.4 blowfish run, use
//! `profile blowfish --trace FILE --metrics FILE`.

use std::process::Command;

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("usage: all_experiments");
        std::process::exit(2);
    }

    // Run in-process for the tables to avoid rebuild churn.
    for bin in
        ["table_6_1", "table_6_2", "fig_6_1", "fig_6_2", "fig_6_3", "fig_6_4", "fig_6_5", "fig_6_6"]
    {
        println!("\n=== {bin} ===\n");
        let status = Command::new(std::env::current_exe().unwrap().with_file_name(bin))
            .status()
            .expect("spawn experiment binary");
        assert!(status.success(), "{bin} failed");
    }
    println!("\n=== blowfish tuned (§6.4) ===\n");
    let t = twill::experiments::blowfish_tuned(None);
    println!(
        "default: {} cycles / {} queues; tuned: {} cycles / {} queues ({:.2}x vs pure HW)",
        t.default_cycles, t.default_queues, t.tuned_cycles, t.tuned_queues, t.tuned_vs_hw
    );
    println!("\n=== ablations (AES) ===\n");
    let a = twill::experiments::ablations();
    println!("HLS chaining / loop pipelining (pure-HW cycles):");
    for (name, cycles) in &a.hls {
        println!("  {name:24} {cycles} cycles");
    }
    println!("DSWP options (hybrid cycles, queues):");
    for (name, cycles, queues) in &a.dswp {
        println!("  {name:24} {cycles} cycles, {queues} queues");
    }
}
