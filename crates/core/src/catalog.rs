//! The in-memory catalog: log-file descriptors derived from the catalog log
//! file.
//!
//! "local-logfile-id … is an index into a table (called a catalog) of log
//! file specific information (i.e. file descriptors) maintained by the
//! server, and derived from the catalog log file" (§2.2). The catalog also
//! carries the sublog tree (§2.1): every log file is a sublog of its
//! parent, the root being the volume sequence log file, which gives log
//! files their place in "the familiar file naming hierarchy" — e.g.
//! `/mail/smith` is a sublog of `/mail`.

use std::collections::BTreeMap;

use clio_types::{ClioError, LogFileId, Result, Timestamp, FIRST_CLIENT_LOGFILE_ID, MAX_LOGFILES};

use clio_format::records::{CatalogRecord, LogFileAttrs, PERM_APPEND, PERM_READ};

/// The server's table of log file descriptors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Catalog {
    files: BTreeMap<LogFileId, LogFileAttrs>,
    next_id: u16,
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog::new()
    }
}

impl Catalog {
    /// A catalog knowing only the service's own log files.
    #[must_use]
    pub fn new() -> Catalog {
        let mut files = BTreeMap::new();
        for (id, name) in [
            (LogFileId::VOLUME_SEQUENCE, ""),
            (LogFileId::ENTRYMAP, ".entrymap"),
            (LogFileId::CATALOG, ".catalog"),
            (LogFileId::BAD_BLOCK, ".badblocks"),
        ] {
            files.insert(
                id,
                LogFileAttrs {
                    id,
                    parent: LogFileId::VOLUME_SEQUENCE,
                    perms: PERM_READ,
                    created: Timestamp::ZERO,
                    sealed: false,
                    name: name.to_owned(),
                },
            );
        }
        Catalog {
            files,
            next_id: FIRST_CLIENT_LOGFILE_ID,
        }
    }

    /// The id that will be assigned to the next created log file.
    #[must_use]
    pub fn next_id(&self) -> u16 {
        self.next_id
    }

    /// The descriptor for `id`.
    pub fn attrs(&self, id: LogFileId) -> Result<&LogFileAttrs> {
        self.files.get(&id).ok_or(ClioError::UnknownLogFileId(id))
    }

    /// All client log files, in id order.
    pub fn client_files(&self) -> impl Iterator<Item = &LogFileAttrs> {
        self.files.values().filter(|a| !a.id.is_reserved())
    }

    /// Direct sublogs of `id`.
    pub fn children(&self, id: LogFileId) -> impl Iterator<Item = &LogFileAttrs> {
        self.files
            .values()
            .filter(move |a| a.parent == id && a.id != LogFileId::VOLUME_SEQUENCE)
    }

    /// `id` and every transitive sublog of it — the set of
    /// local-logfile-ids whose entries belong to `id` (§2.1: "if log file
    /// l2 is a sublog of log file l1, then any entry that is logged in l2
    /// will also belong to l1").
    ///
    /// For the volume sequence log file this is every id, matching its
    /// definition as "the entire sequence of log entries … written to a
    /// volume" (§2).
    #[must_use]
    pub fn closure(&self, id: LogFileId) -> Vec<LogFileId> {
        if id == LogFileId::VOLUME_SEQUENCE {
            return self.files.keys().copied().collect();
        }
        let mut out = vec![id];
        let mut i = 0;
        while i < out.len() {
            let cur = out[i];
            for c in self.children(cur) {
                out.push(c.id);
            }
            i += 1;
        }
        out
    }

    /// Resolves a path like `/mail/smith` to its log file id. `/` names
    /// the volume sequence log file.
    pub fn resolve(&self, path: &str) -> Result<LogFileId> {
        let mut cur = LogFileId::VOLUME_SEQUENCE;
        for comp in Self::components(path)? {
            match self.children(cur).find(|a| a.name == comp) {
                Some(a) => cur = a.id,
                None => return Err(ClioError::NoSuchLogFile(path.to_owned())),
            }
        }
        Ok(cur)
    }

    /// The full path of `id` (for display).
    pub fn path_of(&self, id: LogFileId) -> Result<String> {
        if id == LogFileId::VOLUME_SEQUENCE {
            return Ok("/".to_owned());
        }
        let mut parts = Vec::new();
        let mut cur = id;
        loop {
            let a = self.attrs(cur)?;
            parts.push(a.name.clone());
            if a.parent == LogFileId::VOLUME_SEQUENCE {
                break;
            }
            cur = a.parent;
        }
        parts.reverse();
        Ok(format!("/{}", parts.join("/")))
    }

    fn components(path: &str) -> Result<Vec<&str>> {
        let trimmed = path.strip_prefix('/').unwrap_or(path);
        if trimmed.is_empty() {
            return Ok(vec![]);
        }
        let comps: Vec<&str> = trimmed.split('/').collect();
        for c in &comps {
            Self::check_name(c, path)?;
        }
        Ok(comps)
    }

    fn check_name(name: &str, path: &str) -> Result<()> {
        if name.is_empty() || name.starts_with('.') || name.contains('/') {
            return Err(ClioError::BadPath(path.to_owned()));
        }
        Ok(())
    }

    /// Allocates a descriptor for a new log file named `name` under
    /// `parent`, returning the catalog record to be logged (§2.2: "any
    /// change to these attributes is also logged … in the catalog log
    /// file"). The record must be durably appended before the creation is
    /// acknowledged; [`Catalog::apply`] with the same record is how replay
    /// reproduces this state.
    pub fn prepare_create(
        &self,
        parent: LogFileId,
        name: &str,
        now: Timestamp,
    ) -> Result<CatalogRecord> {
        Self::check_name(name, name)?;
        self.attrs(parent)?;
        if self.children(parent).any(|a| a.name == name) {
            return Err(ClioError::LogFileExists(name.to_owned()));
        }
        if usize::from(self.next_id) >= MAX_LOGFILES {
            return Err(ClioError::LogFileIdsExhausted);
        }
        Ok(CatalogRecord::Create(LogFileAttrs {
            id: LogFileId(self.next_id),
            parent,
            perms: PERM_READ | PERM_APPEND,
            created: now,
            sealed: false,
            name: name.to_owned(),
        }))
    }

    /// Validates renaming `id` to `name` (its place in the hierarchy is
    /// unchanged), returning the catalog record to be logged;
    /// [`Catalog::apply`] repeats the checks on replay.
    pub fn prepare_rename(&self, id: LogFileId, name: &str) -> Result<CatalogRecord> {
        self.check_rename(id, name)?;
        Ok(CatalogRecord::Rename {
            id,
            name: name.to_owned(),
        })
    }

    /// `id` exists, `name` is a valid component, and no sibling of `id`
    /// already has it.
    fn check_rename(&self, id: LogFileId, name: &str) -> Result<()> {
        let parent = self.attrs(id)?.parent;
        Self::check_name(name, name)?;
        if self.children(parent).any(|s| s.name == name && s.id != id) {
            return Err(ClioError::LogFileExists(name.to_owned()));
        }
        Ok(())
    }

    /// Applies a catalog record (both on the live path and during replay).
    pub fn apply(&mut self, rec: &CatalogRecord) -> Result<()> {
        match rec {
            CatalogRecord::Create(a) => {
                if a.id.is_reserved() {
                    return Err(ClioError::BadRecord("create of reserved id"));
                }
                self.files.insert(a.id, a.clone());
                if a.id.0 >= self.next_id {
                    self.next_id = a.id.0 + 1;
                }
                Ok(())
            }
            CatalogRecord::SetPerms { id, perms } => {
                let a = self
                    .files
                    .get_mut(id)
                    .ok_or(ClioError::UnknownLogFileId(*id))?;
                a.perms = *perms;
                Ok(())
            }
            CatalogRecord::Rename { id, name } => {
                self.check_rename(*id, name)?;
                let a = self
                    .files
                    .get_mut(id)
                    .ok_or(ClioError::UnknownLogFileId(*id))?;
                a.name = name.clone();
                Ok(())
            }
            CatalogRecord::Seal { id } => {
                let a = self
                    .files
                    .get_mut(id)
                    .ok_or(ClioError::UnknownLogFileId(*id))?;
                a.sealed = true;
                Ok(())
            }
            CatalogRecord::Checkpoint { next_id, files } => {
                let mut fresh = Catalog::new();
                for a in files {
                    fresh.files.insert(a.id, a.clone());
                }
                fresh.next_id = (*next_id).max(FIRST_CLIENT_LOGFILE_ID);
                *self = fresh;
                Ok(())
            }
        }
    }

    /// Which of `mask + 1` append-domain shards entries of `id` route to:
    /// its *top-level* ancestor's id masked down (so a log file and all
    /// its sublogs land on one shard, keeping closures single-domain), and
    /// every reserved service file on shard 0 alongside the catalog log.
    /// Unknown ids also answer 0, the coordination shard.
    #[must_use]
    pub fn route(&self, id: LogFileId, mask: usize) -> usize {
        if mask == 0 || id.is_reserved() {
            return 0;
        }
        let mut cur = id;
        loop {
            match self.attrs(cur) {
                Ok(a) if a.parent == LogFileId::VOLUME_SEQUENCE => {
                    return usize::from(a.id.0) & mask
                }
                Ok(a) => cur = a.parent,
                Err(_) => return 0,
            }
        }
    }

    /// A checkpoint record capturing all client log files, written at the
    /// start of each successor volume so recovery never needs predecessor
    /// volumes to rebuild the catalog.
    #[must_use]
    pub fn checkpoint(&self) -> CatalogRecord {
        CatalogRecord::Checkpoint {
            next_id: self.next_id,
            files: self.client_files().cloned().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn create(cat: &mut Catalog, parent: LogFileId, name: &str) -> LogFileId {
        let rec = cat.prepare_create(parent, name, Timestamp(1)).unwrap();
        let id = match &rec {
            CatalogRecord::Create(a) => a.id,
            _ => unreachable!(),
        };
        cat.apply(&rec).unwrap();
        id
    }

    #[test]
    fn fresh_catalog_has_service_files() {
        let cat = Catalog::new();
        assert!(cat.attrs(LogFileId::ENTRYMAP).is_ok());
        assert!(cat.attrs(LogFileId::CATALOG).is_ok());
        assert_eq!(cat.next_id(), FIRST_CLIENT_LOGFILE_ID);
        assert_eq!(cat.client_files().count(), 0);
    }

    #[test]
    fn create_and_resolve_hierarchy() {
        let mut cat = Catalog::new();
        let mail = create(&mut cat, LogFileId::VOLUME_SEQUENCE, "mail");
        let smith = create(&mut cat, mail, "smith");
        assert_eq!(cat.resolve("/mail").unwrap(), mail);
        assert_eq!(cat.resolve("/mail/smith").unwrap(), smith);
        assert_eq!(cat.resolve("/").unwrap(), LogFileId::VOLUME_SEQUENCE);
        assert_eq!(cat.path_of(smith).unwrap(), "/mail/smith");
        assert!(cat.resolve("/mail/jones").is_err());
        assert!(cat.resolve("/.entrymap").is_err());
    }

    #[test]
    fn closure_includes_sublogs() {
        let mut cat = Catalog::new();
        let mail = create(&mut cat, LogFileId::VOLUME_SEQUENCE, "mail");
        let smith = create(&mut cat, mail, "smith");
        let jones = create(&mut cat, mail, "jones");
        let deep = create(&mut cat, smith, "inbox");
        let mut c = cat.closure(mail);
        c.sort();
        assert_eq!(c, vec![mail, smith, jones, deep]);
        assert_eq!(cat.closure(jones), vec![jones]);
        // The volume sequence closure is everything.
        assert_eq!(cat.closure(LogFileId::VOLUME_SEQUENCE).len(), 4 + 4);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut cat = Catalog::new();
        create(&mut cat, LogFileId::VOLUME_SEQUENCE, "mail");
        assert!(matches!(
            cat.prepare_create(LogFileId::VOLUME_SEQUENCE, "mail", Timestamp(2)),
            Err(ClioError::LogFileExists(_))
        ));
    }

    #[test]
    fn bad_names_rejected() {
        let cat = Catalog::new();
        for bad in ["", ".hidden", "a/b"] {
            assert!(
                cat.prepare_create(LogFileId::VOLUME_SEQUENCE, bad, Timestamp(1))
                    .is_err(),
                "{bad:?} should be rejected"
            );
        }
        assert!(cat.resolve("//x").is_err());
    }

    #[test]
    fn rename_and_seal() {
        let mut cat = Catalog::new();
        let mail = create(&mut cat, LogFileId::VOLUME_SEQUENCE, "mail");
        let _news = create(&mut cat, LogFileId::VOLUME_SEQUENCE, "news");
        cat.apply(&CatalogRecord::Rename {
            id: mail,
            name: "post".into(),
        })
        .unwrap();
        assert_eq!(cat.resolve("/post").unwrap(), mail);
        assert!(cat.resolve("/mail").is_err());
        // Renaming onto an existing sibling fails.
        assert!(cat
            .apply(&CatalogRecord::Rename {
                id: mail,
                name: "news".into(),
            })
            .is_err());
        cat.apply(&CatalogRecord::Seal { id: mail }).unwrap();
        assert!(cat.attrs(mail).unwrap().sealed);
    }

    #[test]
    fn prepare_rename_validates_without_applying() {
        let mut cat = Catalog::new();
        let mail = create(&mut cat, LogFileId::VOLUME_SEQUENCE, "mail");
        let _news = create(&mut cat, LogFileId::VOLUME_SEQUENCE, "news");
        let before = cat.clone();
        assert!(matches!(
            cat.prepare_rename(mail, "news"),
            Err(ClioError::LogFileExists(_))
        ));
        assert!(matches!(
            cat.prepare_rename(mail, ".hidden"),
            Err(ClioError::BadPath(_))
        ));
        assert!(matches!(
            cat.prepare_rename(LogFileId(99), "post"),
            Err(ClioError::UnknownLogFileId(_))
        ));
        // Renaming to its own name is no clash.
        assert!(cat.prepare_rename(mail, "mail").is_ok());
        let rec = cat.prepare_rename(mail, "post").unwrap();
        assert_eq!(cat, before, "prepare changes nothing");
        cat.apply(&rec).unwrap();
        assert_eq!(cat.resolve("/post").unwrap(), mail);
    }

    #[test]
    fn checkpoint_round_trips_state() {
        let mut cat = Catalog::new();
        let mail = create(&mut cat, LogFileId::VOLUME_SEQUENCE, "mail");
        let _smith = create(&mut cat, mail, "smith");
        cat.apply(&CatalogRecord::Seal { id: mail }).unwrap();
        let cp = cat.checkpoint();
        let mut fresh = Catalog::new();
        fresh.apply(&cp).unwrap();
        assert_eq!(fresh, cat);
    }

    #[test]
    fn replay_reproduces_creation() {
        let mut a = Catalog::new();
        let rec = a
            .prepare_create(LogFileId::VOLUME_SEQUENCE, "audit", Timestamp(7))
            .unwrap();
        a.apply(&rec).unwrap();
        let mut b = Catalog::new();
        b.apply(&rec).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.next_id(), b.next_id());
    }

    #[test]
    fn routing_is_by_top_level_ancestor() {
        let mut cat = Catalog::new();
        let mail = create(&mut cat, LogFileId::VOLUME_SEQUENCE, "mail"); // id 8
        let smith = create(&mut cat, mail, "smith"); // id 9
        let news = create(&mut cat, LogFileId::VOLUME_SEQUENCE, "news"); // id 10
        let deep = create(&mut cat, smith, "inbox"); // id 11
        let mask = 3; // 4 shards
        assert_eq!(cat.route(mail, mask), usize::from(mail.0) & mask);
        // Sublogs follow their top-level ancestor, not their own id.
        assert_eq!(cat.route(smith, mask), cat.route(mail, mask));
        assert_eq!(cat.route(deep, mask), cat.route(mail, mask));
        assert_eq!(cat.route(news, mask), usize::from(news.0) & mask);
        // Reserved files and single-shard mode pin to shard 0.
        assert_eq!(cat.route(LogFileId::CATALOG, mask), 0);
        assert_eq!(cat.route(news, 0), 0);
    }

    #[test]
    fn id_exhaustion() {
        let mut cat = Catalog::new();
        cat.next_id = (MAX_LOGFILES - 1) as u16;
        let rec = cat
            .prepare_create(LogFileId::VOLUME_SEQUENCE, "last", Timestamp(0))
            .unwrap();
        cat.apply(&rec).unwrap();
        assert!(matches!(
            cat.prepare_create(LogFileId::VOLUME_SEQUENCE, "toomany", Timestamp(0)),
            Err(ClioError::LogFileIdsExhausted)
        ));
    }
}
