//! Sessions: multi-statement transactions over the SQL interface.

use mb2_common::{DbError, DbResult};
use mb2_exec::{collect, Batch, OuRecorder, QueryResult};
use mb2_sql::{parse, Statement};
use mb2_txn::Transaction;

use crate::database::Database;

/// A client session with optional explicit transaction scope.
pub struct Session<'db> {
    db: &'db Database,
    txn: Option<Transaction>,
}

impl<'db> Session<'db> {
    pub fn new(db: &'db Database) -> Session<'db> {
        Session { db, txn: None }
    }

    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    /// Execute a statement, honoring BEGIN/COMMIT/ROLLBACK.
    pub fn execute(&mut self, sql: &str) -> DbResult<QueryResult> {
        self.execute_recorded(sql, None)
    }

    pub fn execute_recorded(
        &mut self,
        sql: &str,
        recorder: Option<&dyn OuRecorder>,
    ) -> DbResult<QueryResult> {
        collect(|sink| self.execute_streaming(sql, recorder, sink))
    }

    /// Execute a statement, streaming result batches to `on_batch` instead
    /// of materializing them. The session handles transaction control
    /// itself; every other statement runs on the database's one statement
    /// path, inside the session's open transaction if there is one.
    /// Returns rows streamed / rows affected.
    pub fn execute_streaming(
        &mut self,
        sql: &str,
        recorder: Option<&dyn OuRecorder>,
        on_batch: &mut dyn FnMut(Batch) -> DbResult<()>,
    ) -> DbResult<usize> {
        match parse(sql)? {
            Statement::Begin => {
                if self.txn.is_some() {
                    return Err(DbError::Plan("nested BEGIN".into()));
                }
                self.txn = Some(self.db.begin());
                Ok(0)
            }
            Statement::Commit => self
                .txn
                .take()
                .ok_or_else(|| DbError::Plan("COMMIT outside a transaction".into()))?
                .commit()
                .map(|_| 0),
            Statement::Rollback => {
                self.txn
                    .take()
                    .ok_or_else(|| DbError::Plan("ROLLBACK outside a transaction".into()))?
                    .abort();
                Ok(0)
            }
            stmt => self
                .db
                .run(&stmt, sql, self.txn.as_mut(), recorder, on_batch),
        }
    }

    /// Abort any open transaction (also happens on drop).
    pub fn rollback_open(&mut self) {
        if let Some(txn) = self.txn.take() {
            txn.abort();
        }
    }
}

impl Drop for Session<'_> {
    fn drop(&mut self) {
        self.rollback_open();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb2_common::Value;

    #[test]
    fn explicit_commit_makes_writes_visible() {
        let db = Database::open();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        let mut s = db.session();
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO t VALUES (1)").unwrap();
        // Another autocommit reader doesn't see it yet.
        assert_eq!(
            db.execute("SELECT COUNT(*) FROM t").unwrap().rows[0][0],
            Value::Int(0)
        );
        // The session itself does (own writes).
        assert_eq!(
            s.execute("SELECT COUNT(*) FROM t").unwrap().rows[0][0],
            Value::Int(1)
        );
        s.execute("COMMIT").unwrap();
        assert_eq!(
            db.execute("SELECT COUNT(*) FROM t").unwrap().rows[0][0],
            Value::Int(1)
        );
    }

    #[test]
    fn rollback_discards_writes() {
        let db = Database::open();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        let mut s = db.session();
        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO t VALUES (1)").unwrap();
        s.execute("ROLLBACK").unwrap();
        assert_eq!(
            db.execute("SELECT COUNT(*) FROM t").unwrap().rows[0][0],
            Value::Int(0)
        );
    }

    #[test]
    fn drop_rolls_back() {
        let db = Database::open();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        {
            let mut s = db.session();
            s.execute("BEGIN").unwrap();
            s.execute("INSERT INTO t VALUES (1)").unwrap();
        }
        assert_eq!(
            db.execute("SELECT COUNT(*) FROM t").unwrap().rows[0][0],
            Value::Int(0)
        );
    }

    #[test]
    fn nested_begin_rejected() {
        let db = Database::open();
        let mut s = db.session();
        s.execute("BEGIN").unwrap();
        assert!(s.execute("BEGIN").is_err());
        // DDL inside a transaction: the same error from both entry points.
        let ddl = "CREATE TABLE u (a INT)";
        let materialized = s.execute(ddl).unwrap_err().to_string();
        let streamed = s
            .execute_streaming(ddl, None, &mut |_| Ok(()))
            .unwrap_err()
            .to_string();
        assert!(
            materialized.contains("DDL is autocommit-only"),
            "{materialized}"
        );
        assert_eq!(streamed, materialized);
    }

    #[test]
    fn commit_without_begin_rejected() {
        let db = Database::open();
        let mut s = db.session();
        assert!(s.execute("COMMIT").is_err());
        assert!(s.execute("ROLLBACK").is_err());
    }

    #[test]
    fn autocommit_passthrough() {
        let db = Database::open();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        let mut s = db.session();
        s.execute("INSERT INTO t VALUES (7)").unwrap();
        assert!(!s.in_transaction());
        assert_eq!(
            db.execute("SELECT COUNT(*) FROM t").unwrap().rows[0][0],
            Value::Int(1)
        );
    }
}
