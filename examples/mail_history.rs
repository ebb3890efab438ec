//! The history-based mail system (§4.2): mailboxes are sublogs of /mail;
//! messages are permanently accessible; the directory/query state is a
//! rebuildable cache.
//!
//! Run with: `cargo run --example mail_history`

use std::sync::Arc;

use clio::core::service::LogService;
use clio::core::ServiceConfig;
use clio::costmodel::MailWorkload;
use clio::history::MailSystem;
use clio::types::{ManualClock, Timestamp, VolumeSeqId};
use clio::volume::MemDevicePool;

fn main() -> clio::types::Result<()> {
    let clock = Arc::new(ManualClock::starting_at(Timestamp::from_secs(1000)));
    let svc = Arc::new(LogService::create(
        VolumeSeqId(5),
        Arc::new(MemDevicePool::new(1024, 1 << 16)),
        ServiceConfig::default(),
        clock,
    )?);
    let mail = MailSystem::attach(svc.clone(), "/mail")?;

    let users = ["smith", "jones", "garcia"];
    for u in users {
        mail.create_mailbox(u)?;
    }

    // A burst of generated deliveries (forced writes — mail must survive a
    // crash the moment delivery is acknowledged).
    let mut wl = MailWorkload::new(99, users.len());
    let mut checkpoint = Timestamp::ZERO;
    for (i, (to, subject, body)) in wl.deliveries(30).into_iter().enumerate() {
        let ts = mail.deliver(users[to], &subject, &body)?;
        if i == 20 {
            checkpoint = ts;
        }
    }

    for u in users {
        let listing = mail.list(u)?;
        println!("{u}: {} messages", listing.len());
    }
    let first = mail.read("smith", 0)?;
    println!(
        "smith's first message: {:?} ({} bytes)",
        first.subject,
        first.body.len()
    );

    // Time queries run straight off the history (§4.2).
    let recent = mail.since("smith", checkpoint)?;
    println!("smith has {} messages since the checkpoint", recent.len());

    // The mail agent restarts; its pointers and caches are rebuilt from
    // the mail history — no message is ever lost.
    drop(mail);
    let mail = MailSystem::attach(svc, "/mail")?;
    println!(
        "after agent restart: mailboxes = {:?}, smith still has {} messages",
        mail.mailboxes()?,
        mail.list("smith")?.len()
    );
    Ok(())
}
