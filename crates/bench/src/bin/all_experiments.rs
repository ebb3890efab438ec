//! Runs every table/figure harness in sequence (the EXPERIMENTS.md
//! regeneration entry point).

use std::process::Command;

fn main() {
    let me = std::env::current_exe().expect("own path");
    let dir = me.parent().expect("bin directory").to_path_buf();
    // Forward our arguments to every harness.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bins = [
        "fig2_tree",
        "fig3_locate",
        "table1_read",
        "fig4_init",
        "sec33_cold",
        "sec32_write",
        "sec35_space",
        "abl_locators",
        "abl_ramtail",
        "abl_fanout",
        "mot_fs",
        "sec4_hbfs",
        "conc_read",
        "group_commit",
        "multi_shard",
    ];
    let mut failures = 0;
    for bin in bins {
        println!("\n{}", "=".repeat(90));
        println!("== {bin}");
        println!("{}\n", "=".repeat(90));
        let path = dir.join(bin);
        match Command::new(&path).args(&args).status() {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("** {bin} exited with {s}");
                failures += 1;
            }
            Err(e) => {
                eprintln!("** could not run {}: {e}", path.display());
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("\n{failures} experiment(s) failed");
        std::process::exit(1);
    }
    println!("\nAll experiments completed.");
}
