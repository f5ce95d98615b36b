//! The bounded statement parse cache: the one memo of parsed SQL in the
//! workspace.
//!
//! Every oracle of a suite, and every attribution re-check, loads the same
//! scenario SQL, so parsing each text once and sharing the parsed
//! [`Statement`] saves the lexer and parser work of every reload.
//! `spatter_core::backend::InProcessBackend` shares one cache between its
//! sessions and its `without_fault` variants; a `spatter-sdb-server`
//! process keeps one across `\reset`, as it keeps its relate memo. Parsing
//! consults no fault and hits no coverage probe, so a warm cache changes no
//! answer, no fired log and no probe tally.

use crate::ast::Statement;
use crate::engine::{Engine, QueryResult};
use crate::error::SdbResult;
use crate::parser::parse_statement;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Entries kept before the cache is emptied; bounds memory over long
/// campaigns (each iteration's INSERTs are unique statements) while still
/// amortizing every within-scenario reload.
pub const PARSE_CACHE_CAPACITY: usize = 4096;

/// Parsed statements keyed by their SQL text, shared by every engine that
/// executes through it (see the module docs).
#[derive(Debug, Default)]
pub struct ParseCache {
    statements: Mutex<HashMap<String, Arc<Statement>>>,
}

impl ParseCache {
    /// Executes `sql` on `engine`, parsing it at most once per cache
    /// lifetime. A hit costs one lock, one hash probe and one `Arc` clone;
    /// nothing is parsed, cloned or executed under the lock. A statement
    /// that fails to parse is not cached and counts as one statement of the
    /// engine's fired log ([`Engine::reject_unparsed`]), exactly as
    /// [`Engine::execute`] counts it.
    pub fn execute(&self, engine: &mut Engine, sql: &str) -> SdbResult<QueryResult> {
        let cached = self.lock().get(sql).cloned();
        let statement = match cached {
            Some(statement) => statement,
            None => {
                let statement =
                    Arc::new(parse_statement(sql).map_err(|error| engine.reject_unparsed(error))?);
                let mut cache = self.lock();
                if cache.len() >= PARSE_CACHE_CAPACITY {
                    cache.clear();
                }
                cache.insert(sql.to_string(), Arc::clone(&statement));
                statement
            }
        };
        engine.execute_parsed(&statement)
    }

    /// The number of cached statements.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no statement is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Locks the map, recovering it from poisoning: it only holds immutable
    /// parsed statements, so a panic on another thread while the lock was
    /// held cannot have left it inconsistent, and one panic must not kill
    /// every later session.
    fn lock(&self) -> MutexGuard<'_, HashMap<String, Arc<Statement>>> {
        self.statements
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::EngineProfile;

    const SETUP: [&str; 2] = [
        "CREATE TABLE t (g geometry)",
        "INSERT INTO t (g) VALUES ('POINT(0 0)'), ('POINT(3 4)')",
    ];
    const QUERY: &str = "SELECT COUNT(*) FROM t a JOIN t b ON ST_DWithin(a.g, b.g, 5)";

    #[test]
    fn engines_sharing_a_cache_parse_each_text_once() {
        let cache = ParseCache::default();
        for _ in 0..3 {
            let mut engine = Engine::reference(EngineProfile::PostgisLike);
            for sql in SETUP {
                cache.execute(&mut engine, sql).unwrap();
            }
            assert_eq!(cache.execute(&mut engine, QUERY).unwrap().count(), Some(4));
        }
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn parse_failures_are_logged_statements_and_never_cached() {
        let cache = ParseCache::default();
        let mut cached = Engine::new(EngineProfile::PostgisLike);
        let mut direct = Engine::new(EngineProfile::PostgisLike);
        for sql in ["NOT EVEN SQL", SETUP[0], "NOT EVEN SQL"] {
            let through_cache = cache.execute(&mut cached, sql).map(|r| r.count());
            assert_eq!(
                through_cache,
                direct.execute(sql).map(|r| r.count()),
                "{sql}"
            );
        }
        assert_eq!(cached.logged_statements(), 3);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn the_cache_empties_at_capacity() {
        let cache = ParseCache::default();
        let mut engine = Engine::reference(EngineProfile::PostgisLike);
        for i in 0..=PARSE_CACHE_CAPACITY {
            cache
                .execute(&mut engine, &format!("CREATE TABLE t{i} (g geometry)"))
                .unwrap();
        }
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_poisoned_cache_recovers() {
        let cache = Arc::new(ParseCache::default());
        let holder = Arc::clone(&cache);
        let panicked = std::thread::spawn(move || {
            let _guard = holder.statements.lock().unwrap();
            panic!("a panic while the parse cache is locked");
        })
        .join();
        assert!(panicked.is_err());
        assert!(cache.statements.is_poisoned());
        let mut engine = Engine::reference(EngineProfile::PostgisLike);
        for sql in SETUP {
            cache.execute(&mut engine, sql).unwrap();
        }
        assert_eq!(cache.execute(&mut engine, QUERY).unwrap().count(), Some(4));
        assert_eq!(cache.len(), 3);
    }
}
