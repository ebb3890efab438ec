//! `cliodump` — inspect Clio log volumes.
//!
//! The paper expects log files to be "accessed and managed using the same
//! I/O and utility routines that are used to access and manage conventional
//! files" (§2); this is the fsck/dump side of that tool set, operating on
//! file-backed volumes:
//!
//! ```text
//! cliodump mkdemo <file>             create a demo volume to play with
//! cliodump label  <file>             show the volume label
//! cliodump verify <file>             CRC-check every block
//! cliodump blocks <file>             per-block summary
//! cliodump tree   <file>             dump the entrymap records
//! cliodump logs   <file>...          mount a sequence, list the catalog
//! cliodump cat <path> <file>...      dump a log file's entries
//! ```

use std::io::{Read, Write};
use std::process::ExitCode;
use std::sync::Arc;

use clio::core::service::{AppendOpts, LogService};
use clio::core::ServiceConfig;
use clio::device::{FileWormDevice, SharedDevice};
use clio::format::{BlockView, EntrymapRecord, VolumeLabel};
use clio::testkit::sync::atomic::{AtomicU32, Ordering};
use clio::types::{LogFileId, Result, SystemClock, VolumeSeqId};
use clio::volume::{MemDevicePool, RecordingPool};

/// Prints a line to stdout, exiting quietly if the reader went away
/// (`cliodump blocks volume | head` must not panic on the broken pipe).
macro_rules! outln {
    ($($arg:tt)*) => {{
        let mut out = std::io::stdout().lock();
        if writeln!(out, $($arg)*).is_err() {
            std::process::exit(0);
        }
    }};
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) => run(cmd, rest),
        None => {
            usage();
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cliodump: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!(
        "usage: cliodump <mkdemo|label|verify|blocks|tree> <volume-file>\n       cliodump <logs> <volume-file>...\n       cliodump cat <log-path> <volume-file>..."
    );
}

fn run(cmd: &str, rest: &[String]) -> Result<()> {
    match (cmd, rest) {
        ("mkdemo", [file]) => mkdemo(file),
        ("label", [file]) => label(file),
        ("verify", [file]) => verify(file),
        ("blocks", [file]) => blocks(file),
        ("tree", [file]) => tree(file),
        ("logs", files) if !files.is_empty() => logs(files),
        ("cat", [path, files @ ..]) if !files.is_empty() => cat(path, files),
        _ => {
            usage();
            Err(clio::types::ClioError::BadPath(format!(
                "unknown command or missing arguments: {cmd}"
            )))
        }
    }
}

/// Reads the block size out of the raw label without knowing the geometry.
fn probe_block_size(file: &str) -> Result<usize> {
    let mut f = std::fs::File::open(file)?;
    let mut head = [0u8; 64];
    let n = f.read(&mut head)?;
    if n < 47 {
        return Err(clio::types::ClioError::BadRecord(
            "file too short for a label",
        ));
    }
    let bs = u32::from_le_bytes(head[33..37].try_into().expect("4 bytes"));
    if !(128..=65536).contains(&(bs as usize)) {
        return Err(clio::types::ClioError::BadRecord(
            "implausible block size in label",
        ));
    }
    Ok(bs as usize)
}

fn open_device(file: &str) -> Result<(SharedDevice, usize)> {
    let bs = probe_block_size(file)?;
    let len = std::fs::metadata(file)?.len();
    let dev = FileWormDevice::open(file, bs, (len / bs as u64).max(1))?;
    Ok((Arc::new(dev), bs))
}

fn read_label(file: &str) -> Result<VolumeLabel> {
    let (dev, bs) = open_device(file)?;
    let mut buf = vec![0u8; bs];
    dev.read_block(clio::types::BlockNo(0), &mut buf)?;
    VolumeLabel::decode(&buf)
}

fn mkdemo(file: &str) -> Result<()> {
    let cfg = ServiceConfig {
        block_size: 512,
        fanout: 4,
        // One append domain: the demo is a single volume file.
        shards: 1,
        ..ServiceConfig::default()
    };
    let path = file.to_owned();
    let volumes = AtomicU32::new(0);
    let pool = Arc::new(RecordingPool::wrapping(
        Arc::new(MemDevicePool::new(512, 4096)),
        move |_ignored| {
            // Successor volumes get numbered siblings of the first file;
            // never re-create (and truncate) an existing volume.
            let n = volumes.fetch_add(1, Ordering::Relaxed);
            let p = if n == 0 {
                path.clone()
            } else {
                format!("{path}.{n}")
            };
            Arc::new(FileWormDevice::create(&p, 512, 4096).expect("create demo volume file"))
                as SharedDevice
        },
    ));
    let svc = LogService::create(VolumeSeqId(77), pool, cfg, Arc::new(SystemClock))?;
    svc.create_log("/mail")?;
    svc.create_log("/mail/smith")?;
    svc.create_log("/audit")?;
    for i in 0..40 {
        svc.append_path(
            "/audit",
            format!("login user{} tty{}", i % 5, i).as_bytes(),
            AppendOpts::standard(),
        )?;
        if i % 4 == 0 {
            svc.append_path(
                "/mail/smith",
                format!("message {i}").as_bytes(),
                AppendOpts::forced(),
            )?;
        }
    }
    svc.flush()?;
    outln!("demo volume written to {file}");
    Ok(())
}

fn label(file: &str) -> Result<()> {
    let l = read_label(file)?;
    outln!("volume:       {}", l.volume);
    outln!("sequence:     {}", l.sequence);
    outln!("index:        {}", l.volume_index);
    outln!(
        "predecessor:  {}",
        l.predecessor.map_or("(none)".to_owned(), |p| p.to_string())
    );
    outln!("block size:   {} bytes", l.block_size);
    outln!("entrymap N:   {}", l.fanout);
    outln!("created:      {}", l.created);
    Ok(())
}

fn with_blocks<F: FnMut(u64, &[u8])>(file: &str, mut f: F) -> Result<()> {
    let (dev, bs) = open_device(file)?;
    let end = dev.query_end().map_or(0, |b| b.0);
    let mut buf = vec![0u8; bs];
    for b in 1..end {
        dev.read_block(clio::types::BlockNo(b), &mut buf)?;
        f(b - 1, &buf);
    }
    Ok(())
}

fn verify(file: &str) -> Result<()> {
    let mut good = 0u64;
    let mut invalidated = Vec::new();
    let mut corrupt = Vec::new();
    with_blocks(file, |db, img| match BlockView::parse(img) {
        Ok(_) => good += 1,
        Err(clio::types::ClioError::InvalidatedBlock(_)) => invalidated.push(db),
        Err(_) => corrupt.push(db),
    })?;
    outln!("{good} good blocks");
    outln!("{} invalidated: {invalidated:?}", invalidated.len());
    outln!("{} corrupt:     {corrupt:?}", corrupt.len());
    if corrupt.is_empty() {
        Ok(())
    } else {
        Err(clio::types::ClioError::CorruptBlock(clio::types::BlockNo(
            corrupt[0] + 1,
        )))
    }
}

fn blocks(file: &str) -> Result<()> {
    outln!(
        "{:>8}  {:>7}  {:>16}  flags",
        "block",
        "entries",
        "first-ts"
    );
    with_blocks(file, |db, img| match BlockView::parse(img) {
        Ok(v) => {
            let f = v.flags();
            let mut flags = String::new();
            if f.has_entrymap {
                flags.push('M');
            }
            if f.continues_prev {
                flags.push('C');
            }
            if f.sealed_early {
                flags.push('F');
            }
            outln!(
                "{db:>8}  {:>7}  {:>16}  {flags}",
                v.count(),
                v.first_ts().to_string()
            );
        }
        Err(e) => outln!("{db:>8}  {e}"),
    })
}

fn tree(file: &str) -> Result<()> {
    with_blocks(file, |db, img| {
        let Ok(v) = BlockView::parse(img) else { return };
        for e in v.entries() {
            let Ok(e) = e else { break };
            if e.header.id != LogFileId::ENTRYMAP {
                continue;
            }
            if let Ok(rec) = EntrymapRecord::decode(e.payload) {
                let files: Vec<String> = rec
                    .maps
                    .iter()
                    .map(|(id, bm)| {
                        format!(
                            "{id}:{}",
                            (0..bm.len())
                                .map(|i| if bm.get(i) { '1' } else { '0' })
                                .collect::<String>()
                        )
                    })
                    .collect();
                outln!(
                    "block {db:>6}: level-{} group {:>6} ({} files){}{}",
                    rec.level,
                    rec.group,
                    rec.maps.len(),
                    if rec.continued { " [continued]" } else { "" },
                    if files.is_empty() {
                        String::new()
                    } else {
                        format!("  {}", files.join("  "))
                    }
                );
            }
        }
    })
}

/// Mounts volume files read-only as a service (recovery path).
fn mount(files: &[String]) -> Result<LogService> {
    let mut devices: Vec<SharedDevice> = Vec::new();
    let mut bs = 0usize;
    for f in files {
        let (dev, b) = open_device(f)?;
        bs = b;
        devices.push(dev);
    }
    // The pool is only consulted if the service writes; dumping never does.
    let pool = Arc::new(MemDevicePool::new(bs, 16));
    let (svc, _) = LogService::recover(
        devices,
        pool,
        ServiceConfig::default(),
        Arc::new(SystemClock),
    )?;
    Ok(svc)
}

fn logs(files: &[String]) -> Result<()> {
    let svc = mount(files)?;
    outln!("{} volume(s) mounted", svc.volumes().volume_count());
    fn walk(svc: &LogService, path: &str, depth: usize) -> Result<()> {
        for name in svc.list(path)? {
            let child = if path == "/" {
                format!("/{name}")
            } else {
                format!("{path}/{name}")
            };
            let id = svc.resolve(&child)?;
            let attrs = svc.attrs(id)?;
            outln!(
                "{:indent$}{child}  (id {id}, perms {:#x}{})",
                "",
                attrs.perms,
                if attrs.sealed { ", sealed" } else { "" },
                indent = depth * 2
            );
            walk(svc, &child, depth + 1)?;
        }
        Ok(())
    }
    walk(&svc, "/", 0)
}

fn cat(path: &str, files: &[String]) -> Result<()> {
    let svc = mount(files)?;
    let mut cur = svc.cursor(path)?;
    let mut n = 0u64;
    while let Some(e) = cur.next()? {
        n += 1;
        // Escape control bytes so binary payloads (catalog records, etc.)
        // stay terminal-safe.
        let preview: String = e.data[..e.data.len().min(72)]
            .iter()
            .map(|&b| {
                if (0x20..0x7F).contains(&b) {
                    char::from(b)
                } else {
                    '.'
                }
            })
            .collect();
        outln!(
            "[{}] {} {} bytes: {}",
            e.effective_ts(),
            e.id,
            e.data.len(),
            preview
        );
    }
    outln!("{n} entries");
    Ok(())
}
