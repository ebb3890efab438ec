//! Drives the `cliodump` binary end-to-end on a real volume file.

use std::process::Command;

fn cliodump(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_cliodump"))
        .args(args)
        .output()
        .expect("spawn cliodump");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned() + &String::from_utf8_lossy(&out.stderr),
    )
}

#[test]
fn dump_workflow_on_a_demo_volume() {
    let dir = std::env::temp_dir();
    let vol = dir.join(format!("cliodump-test-{}.clio", std::process::id()));
    let vol = vol.to_str().unwrap();

    let (ok, out) = cliodump(&["mkdemo", vol]);
    assert!(ok, "mkdemo failed: {out}");

    let (ok, out) = cliodump(&["label", vol]);
    assert!(
        ok && out.contains("block size:   512 bytes"),
        "label: {out}"
    );
    assert!(out.contains("entrymap N:   4"));

    let (ok, out) = cliodump(&["verify", vol]);
    assert!(ok && out.contains("0 corrupt"), "verify: {out}");

    let (ok, out) = cliodump(&["logs", vol]);
    assert!(ok && out.contains("/mail/smith"), "logs: {out}");

    let (ok, out) = cliodump(&["cat", "/mail/smith", vol]);
    assert!(
        ok && out.contains("message 0") && out.contains("entries"),
        "cat: {out}"
    );

    let (ok, out) = cliodump(&["tree", vol]);
    assert!(ok && out.contains("level-1 group"), "tree: {out}");

    // Error paths: unknown command and missing file.
    let (ok, _) = cliodump(&["frobnicate", vol]);
    assert!(!ok, "unknown command must fail");
    let (ok, out) = cliodump(&["label", "/nonexistent/volume"]);
    assert!(!ok && out.contains("cliodump:"), "missing file: {out}");

    // A torn final write costs one block, not the volume (§2.3.1): the
    // image still mounts, every whole block reads, and inspecting it
    // changes nothing.
    let mut image = std::fs::read(vol).unwrap();
    image.extend_from_slice(&[0xEE; 200]);
    std::fs::write(vol, &image).unwrap();
    let (ok, out) = cliodump(&["verify", vol]);
    assert!(ok && out.contains("0 corrupt"), "verify, torn tail: {out}");
    let (ok, out) = cliodump(&["cat", "/mail/smith", vol]);
    assert!(ok && out.contains("message 0"), "cat, torn tail: {out}");
    assert_eq!(std::fs::read(vol).unwrap(), image, "cliodump wrote to it");

    std::fs::remove_file(vol).unwrap();
}
