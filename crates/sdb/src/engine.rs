//! The execution engine: statement execution, joins, index scans and the
//! prepared-geometry path, with engine-level seeded faults.

use crate::ast::{BinaryOp, ColumnType, Expr, SelectItem, SelectStatement, Statement, TableRef};
use crate::catalog::{Database, SpatialIndex, Table};
use crate::coverage::{self, probe};
use crate::error::{SdbError, SdbResult};
use crate::faults::{FaultId, FaultSet};
use crate::functions::{self, DistancePredicate, FunctionContext};
use crate::parser::{parse_script, parse_statement};
use crate::profile::EngineProfile;
use crate::value::Value;
use spatter_geom::{Envelope, Geometry};
use spatter_index::RTree;
use spatter_topo::predicates::NamedPredicate;
use spatter_topo::prepared::PreparedGeometry;
use spatter_topo::RelateCache;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The effect of a mutating statement (the db2 executor shape): how many rows
/// a DML statement touched, or which DDL object was dropped. Queries and
/// pure-DDL setup statements (`CREATE ...`, `INSERT`, `SET`) carry no effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionResult {
    /// `UPDATE` touched this many rows.
    Update {
        /// Number of rows updated.
        rows_updated: usize,
    },
    /// `DELETE` removed this many rows.
    Delete {
        /// Number of rows deleted.
        rows_deleted: usize,
    },
    /// `DROP INDEX` removed an index.
    DropIndex,
    /// `DROP TABLE` removed a table.
    DropTable,
}

/// The result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Column labels (empty for DDL/DML).
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
    /// The mutation effect, for `UPDATE`/`DELETE`/`DROP` statements.
    pub effect: Option<ExecutionResult>,
}

impl QueryResult {
    /// An empty result (DDL/DML/SET statements).
    pub fn none() -> Self {
        QueryResult {
            columns: Vec::new(),
            rows: Vec::new(),
            effect: None,
        }
    }

    /// An empty result carrying a mutation effect.
    pub fn with_effect(effect: ExecutionResult) -> Self {
        QueryResult {
            effect: Some(effect),
            ..QueryResult::none()
        }
    }

    /// The single scalar value of a one-row, one-column result.
    pub fn single_value(&self) -> Option<&Value> {
        if self.rows.len() == 1 && self.rows[0].len() == 1 {
            Some(&self.rows[0][0])
        } else {
            None
        }
    }

    /// The COUNT(*) value of a count query.
    pub fn count(&self) -> Option<i64> {
        self.single_value().and_then(|v| v.as_int())
    }

    /// Number of result rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }
}

/// Reusable per-engine buffers for the join paths: index-probe candidates,
/// matched pair lists and the prepared distance join's cached inner
/// envelopes. Taken out of the engine for the duration of one SELECT (so the
/// shared borrow of `self` stays available) and put back afterwards; scenario
/// batches thereby stop churning the allocator on every join.
#[derive(Debug, Clone, Default)]
struct ExecScratch {
    candidates: Vec<usize>,
    pairs: Vec<(usize, usize)>,
    right_envelopes: Vec<Envelope>,
}

/// A spatial SQL engine instance: one profile, one fault set, one database.
#[derive(Debug, Clone)]
pub struct Engine {
    /// The profile, the faults (enabled and fired), and the relate memo
    /// every DE-9IM matrix goes through. A clone shares the memo, and so
    /// may engines with other fault sets.
    ctx: FunctionContext,
    database: Database,
    enable_seqscan: bool,
    enable_prepared: bool,
    enable_distance_join: bool,
    engine_time: Duration,
    statements_executed: usize,
    scratch: ExecScratch,
}

impl Engine {
    /// A stock engine of the given profile, carrying that profile's default
    /// seeded faults (the "released version" the paper tested).
    pub fn new(profile: EngineProfile) -> Self {
        Engine::with_faults(profile, profile.default_faults())
    }

    /// A reference engine with no faults (the "fully patched" build used to
    /// validate oracle findings).
    pub fn reference(profile: EngineProfile) -> Self {
        Engine::with_faults(profile, FaultSet::none())
    }

    /// An engine with an explicit fault set and a relate memo of its own.
    pub fn with_faults(profile: EngineProfile, faults: FaultSet) -> Self {
        Engine::with_relate_cache(profile, faults, Arc::default())
    }

    /// An engine with an explicit fault set that relates geometry pairs
    /// through `relate`, a memo it may share with other engines (see
    /// [`RelateCache`]: the memo is fault-independent).
    pub fn with_relate_cache(
        profile: EngineProfile,
        faults: FaultSet,
        relate: Arc<RelateCache>,
    ) -> Self {
        Engine {
            ctx: FunctionContext {
                profile,
                faults,
                relate,
                fired: Default::default(),
            },
            database: Database::new(),
            enable_seqscan: true,
            enable_prepared: true,
            enable_distance_join: true,
            engine_time: Duration::ZERO,
            statements_executed: 0,
            scratch: ExecScratch::default(),
        }
    }

    /// The engine's profile.
    pub fn profile(&self) -> EngineProfile {
        self.ctx.profile
    }

    /// The enabled faults.
    pub fn faults(&self) -> &FaultSet {
        &self.ctx.faults
    }

    /// The faults that took their divergent branch since the engine was
    /// built (a clone keeps its original's). A fault outside this set
    /// provably influenced nothing the engine did, which is what lets
    /// attribution skip re-running without it.
    pub fn fired_faults(&self) -> FaultSet {
        self.ctx.fired.to_set()
    }

    /// The underlying database (for introspection in tests and examples).
    pub fn database(&self) -> &Database {
        &self.database
    }

    /// Whether sequential scans are enabled (`SET enable_seqscan = ...`).
    pub fn seqscan_enabled(&self) -> bool {
        self.enable_seqscan
    }

    /// Whether the prepared-geometry join path is enabled
    /// (`SET enable_prepared = ...`).
    pub fn prepared_enabled(&self) -> bool {
        self.enable_prepared
    }

    /// Cumulative wall-clock time spent executing statements, and the number
    /// of statements executed (the Figure 7 measurement).
    pub fn execution_stats(&self) -> (Duration, usize) {
        (self.engine_time, self.statements_executed)
    }

    /// Resets the execution statistics.
    pub fn reset_stats(&mut self) {
        self.engine_time = Duration::ZERO;
        self.statements_executed = 0;
    }

    /// Executes one SQL statement.
    pub fn execute(&mut self, sql: &str) -> SdbResult<QueryResult> {
        let statement = parse_statement(sql)?;
        self.execute_parsed(&statement)
    }

    /// Executes a semicolon-separated script, returning one result per
    /// statement. Execution stops at the first error.
    pub fn execute_script(&mut self, sql: &str) -> SdbResult<Vec<QueryResult>> {
        let statements = parse_script(sql)?;
        let mut results = Vec::with_capacity(statements.len());
        for statement in &statements {
            results.push(self.execute_parsed(statement)?);
        }
        Ok(results)
    }

    /// Executes an already-parsed statement.
    pub fn execute_parsed(&mut self, statement: &Statement) -> SdbResult<QueryResult> {
        let start = Instant::now();
        let result = self.dispatch(statement);
        self.engine_time += start.elapsed();
        self.statements_executed += 1;
        result
    }

    fn dispatch(&mut self, statement: &Statement) -> SdbResult<QueryResult> {
        match statement {
            Statement::CreateTable { name, columns } => {
                coverage::hit(probe!("sdb.exec.create_table"));
                self.database.create_table(name, columns.clone())?;
                Ok(QueryResult::none())
            }
            Statement::DropTable { name } => {
                coverage::hit(probe!("sdb.exec.drop_table"));
                self.database.drop_table(name)?;
                Ok(QueryResult::with_effect(ExecutionResult::DropTable))
            }
            Statement::DropIndex { name } => {
                coverage::hit(probe!("sdb.exec.drop_index"));
                self.database.drop_index(name)?;
                Ok(QueryResult::with_effect(ExecutionResult::DropIndex))
            }
            Statement::CreateIndex {
                name,
                table,
                column,
            } => {
                coverage::hit(probe!("sdb.exec.create_index"));
                self.create_index(name, table, column)
            }
            Statement::Insert {
                table,
                columns,
                rows,
            } => {
                coverage::hit(probe!("sdb.exec.insert"));
                self.insert(table, columns, rows)
            }
            Statement::Update {
                table,
                column,
                value,
                where_clause,
            } => {
                coverage::hit(probe!("sdb.exec.update"));
                self.update(table, column, value, where_clause.as_ref())
            }
            Statement::Delete {
                table,
                where_clause,
            } => {
                coverage::hit(probe!("sdb.exec.delete"));
                self.delete(table, where_clause.as_ref())
            }
            Statement::Set { name, value } => self.set(name, value),
            Statement::Select(select) => self.select(select),
        }
    }

    // ------------------------------------------------------------------
    // DDL / DML
    // ------------------------------------------------------------------

    fn create_index(&mut self, name: &str, table: &str, column: &str) -> SdbResult<QueryResult> {
        let table_data = self.database.table(table)?.clone();
        let col_idx = table_data
            .column_index(column)
            .ok_or_else(|| SdbError::Semantic(format!("column {column} does not exist")))?;
        let ctx = &self.ctx;
        if ctx.faults.is_active(FaultId::PostgisCrashIndexAllEmpty) {
            let geometries: Vec<&Geometry> = table_data
                .live_rows()
                .filter_map(|(_, row)| row[col_idx].as_geometry())
                .collect();
            if !geometries.is_empty() && geometries.iter().all(|g| g.is_empty()) {
                ctx.fire(FaultId::PostgisCrashIndexAllEmpty);
                coverage::hit(probe!("sdb.fault.crash_path"));
                return Err(SdbError::Crash(
                    "GiST index build over a column of only EMPTY geometries".into(),
                ));
            }
        }
        let tree = build_rtree(&table_data, column);
        self.database.create_index(
            name,
            SpatialIndex {
                table: table.to_string(),
                column: column.to_string(),
                tree,
            },
        )?;
        Ok(QueryResult::none())
    }

    fn insert(
        &mut self,
        table: &str,
        columns: &[String],
        rows: &[Vec<Expr>],
    ) -> SdbResult<QueryResult> {
        let ctx = &self.ctx;
        let schema = self.database.table(table)?.columns.clone();
        let column_order: Vec<usize> = if columns.is_empty() {
            (0..schema.len()).collect()
        } else {
            columns
                .iter()
                .map(|c| {
                    schema
                        .iter()
                        .position(|(name, _)| name.eq_ignore_ascii_case(c))
                        .ok_or_else(|| SdbError::Semantic(format!("column {c} does not exist")))
                })
                .collect::<SdbResult<Vec<usize>>>()?
        };

        let mut materialized_rows = Vec::with_capacity(rows.len());
        for row_exprs in rows {
            if row_exprs.len() != column_order.len() {
                return Err(SdbError::Semantic(
                    "INSERT value count does not match column count".into(),
                ));
            }
            let mut row = vec![Value::Null; schema.len()];
            for (expr, &target) in row_exprs.iter().zip(column_order.iter()) {
                let value = evaluate_expr(expr, None, &self.database, ctx)?;
                let value = coerce_for_column(value, schema[target].1, ctx)?;
                row[target] = value;
            }
            materialized_rows.push(row);
        }

        let table_ref = self.database.table_mut(table)?;
        let base_slot = table_ref.rows.len();
        table_ref.rows.extend(materialized_rows);
        // Incremental index maintenance: append the new rows' envelopes
        // instead of rebuilding every tree (mutation workloads would turn a
        // rebuild into O(n) work per statement — and a rebuild would also
        // silently heal any staleness earlier mutations left behind).
        let new_rows: Vec<(usize, Vec<Value>)> = self
            .database
            .table(table)?
            .rows
            .iter()
            .enumerate()
            .skip(base_slot)
            .map(|(slot, row)| (slot, row.clone()))
            .collect();
        for idx in self.database.indexes_for_mut(table) {
            let Some(col_idx) = schema
                .iter()
                .position(|(name, _)| name.eq_ignore_ascii_case(&idx.column))
            else {
                continue;
            };
            for (slot, row) in &new_rows {
                let envelope = row
                    .get(col_idx)
                    .map(Database::value_envelope)
                    .unwrap_or_else(Envelope::empty);
                idx.tree.insert(envelope, *slot);
            }
        }
        Ok(QueryResult::none())
    }

    fn update(
        &mut self,
        table: &str,
        column: &str,
        value_expr: &Expr,
        where_clause: Option<&Expr>,
    ) -> SdbResult<QueryResult> {
        let ctx = &self.ctx;
        let table_data = self.database.table(table)?;
        let col_idx = table_data
            .column_index(column)
            .ok_or_else(|| SdbError::Semantic(format!("column {column} does not exist")))?;
        let column_type = table_data.columns[col_idx].1;
        // Generated workloads only use row-independent SET expressions; a
        // row-dependent one would need per-row evaluation, which no template
        // emits, so it surfaces as a semantic error here.
        let new_value = evaluate_expr(value_expr, None, &self.database, ctx)?;
        let new_value = coerce_for_column(new_value, column_type, ctx)?;
        let new_env = Database::value_envelope(&new_value);
        let targets = self.matching_row_slots(table, where_clause)?;
        // The seeded stale-index fault: maintenance "forgets" the reinsert
        // when the new geometry reaches into the negative-x half-plane
        // (mirroring `gist_fault_drops_row`'s quantization criterion), so the
        // index keeps answering from the pre-update envelope. Only mutation
        // workloads can reach this path.
        let stale_fault = ctx.faults.is_active(FaultId::PostgisGistStaleOnMutation)
            && !new_env.is_empty()
            && new_env.min_x() < 0.0;
        let mut rows_updated = 0usize;
        for slot in targets {
            let table_ref = self.database.table_mut(table)?;
            let old_value =
                std::mem::replace(&mut table_ref.rows[slot][col_idx], new_value.clone());
            rows_updated += 1;
            let old_env = Database::value_envelope(&old_value);
            if stale_fault {
                ctx.fire(FaultId::PostgisGistStaleOnMutation);
                coverage::hit(probe!("sdb.fault.logic_path"));
                continue;
            }
            for idx in self.database.indexes_for_mut(table) {
                if !idx.column.eq_ignore_ascii_case(column) {
                    continue;
                }
                if !idx.tree.reinsert(&old_env, new_env, slot) {
                    // The entry was not under its old envelope (e.g. earlier
                    // faulty maintenance); insert under the new one so the
                    // correct path stays self-consistent.
                    idx.tree.insert(new_env, slot);
                }
            }
        }
        Ok(QueryResult::with_effect(ExecutionResult::Update {
            rows_updated,
        }))
    }

    fn delete(&mut self, table: &str, where_clause: Option<&Expr>) -> SdbResult<QueryResult> {
        let schema = self.database.table(table)?.columns.clone();
        let targets = self.matching_row_slots(table, where_clause)?;
        let mut rows_deleted = 0usize;
        for slot in targets {
            let Some(old_row) = self.database.table_mut(table)?.tombstone(slot) else {
                continue;
            };
            rows_deleted += 1;
            // Deletes maintain every index incrementally; the slot stays
            // allocated (tombstoned) so the surviving entries' payloads —
            // row slots — remain valid.
            for idx in self.database.indexes_for_mut(table) {
                let Some(col_idx) = schema
                    .iter()
                    .position(|(name, _)| name.eq_ignore_ascii_case(&idx.column))
                else {
                    continue;
                };
                let envelope = old_row
                    .get(col_idx)
                    .map(Database::value_envelope)
                    .unwrap_or_else(Envelope::empty);
                idx.tree.remove(&envelope, &slot);
            }
        }
        Ok(QueryResult::with_effect(ExecutionResult::Delete {
            rows_deleted,
        }))
    }

    /// Row slots matched by a mutation's WHERE clause (all live slots when
    /// absent). The `column = <row-independent expr>` shape is matched
    /// structurally with the column's coercion applied to the probe, so
    /// geometry equality selects rows by exact value — `compare_values`
    /// deliberately has no geometry ordering. Other shapes evaluate through
    /// the general expression path.
    fn matching_row_slots(
        &self,
        table_name: &str,
        where_clause: Option<&Expr>,
    ) -> SdbResult<Vec<usize>> {
        let ctx = &self.ctx;
        let table = self.database.table(table_name)?;
        let Some(condition) = where_clause else {
            return Ok(table.live_rows().map(|(slot, _)| slot).collect());
        };
        if let Expr::Binary {
            op: BinaryOp::Eq,
            left,
            right,
        } = condition
        {
            if let Expr::Column {
                table: qualifier,
                column,
            } = left.as_ref()
            {
                let qualifier_matches = qualifier
                    .as_deref()
                    .is_none_or(|q| q.eq_ignore_ascii_case(table_name));
                if qualifier_matches {
                    if let Some(col_idx) = table.column_index(column) {
                        if let Ok(probe) = evaluate_expr(right, None, &self.database, ctx) {
                            let probe = coerce_for_column(probe, table.columns[col_idx].1, ctx)?;
                            return Ok(table
                                .live_rows()
                                .filter(|(_, row)| row[col_idx] == probe)
                                .map(|(slot, _)| slot)
                                .collect());
                        }
                    }
                }
            }
        }
        let table_ref = TableRef {
            table: table_name.to_string(),
            alias: table_name.to_string(),
        };
        let mut slots = Vec::new();
        for (slot, row) in table.live_rows() {
            let binding = RowBinding::single(&table_ref, table, row);
            if evaluate_expr(condition, Some(&binding), &self.database, ctx)?.is_truthy() {
                slots.push(slot);
            }
        }
        Ok(slots)
    }

    fn set(&mut self, name: &str, value_expr: &Expr) -> SdbResult<QueryResult> {
        let ctx = &self.ctx;
        let value = evaluate_expr(value_expr, None, &self.database, ctx)?;
        if let Some(variable) = name.strip_prefix('@') {
            coverage::hit(probe!("sdb.exec.set_variable"));
            self.database.set_variable(&format!("@{variable}"), value);
            return Ok(QueryResult::none());
        }
        coverage::hit(probe!("sdb.exec.set_setting"));
        match name.to_ascii_lowercase().as_str() {
            "enable_seqscan" => self.enable_seqscan = value.is_truthy(),
            "enable_prepared" => self.enable_prepared = value.is_truthy(),
            "enable_distance_join" => self.enable_distance_join = value.is_truthy(),
            other => {
                return Err(SdbError::Semantic(format!("unknown setting {other}")));
            }
        }
        Ok(QueryResult::none())
    }

    // ------------------------------------------------------------------
    // SELECT
    // ------------------------------------------------------------------

    fn select(&mut self, select: &SelectStatement) -> SdbResult<QueryResult> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let inner = self.select_inner(select, &mut scratch);
        self.scratch = scratch;
        let mut result = inner?;
        // LIMIT caps *result* rows. The non-aggregate paths already
        // truncated their row sets before projection (so this is a no-op
        // there); aggregate and scalar selects produce their single row
        // first and are capped here, matching PostgreSQL's
        // `SELECT COUNT(*) ... LIMIT 0` returning zero rows.
        if let Some(limit) = select.limit {
            result.rows.truncate(limit);
        }
        Ok(result)
    }

    fn select_inner(
        &mut self,
        select: &SelectStatement,
        scratch: &mut ExecScratch,
    ) -> SdbResult<QueryResult> {
        let ctx = &self.ctx;
        match select.from.len() {
            0 => {
                coverage::hit(probe!("sdb.exec.scalar_select"));
                let mut row = Vec::new();
                let mut columns = Vec::new();
                for (idx, item) in select.items.iter().enumerate() {
                    match item {
                        SelectItem::CountStar => {
                            row.push(Value::Int(1));
                            columns.push("count".to_string());
                        }
                        SelectItem::Expr(expr) => {
                            row.push(evaluate_expr(expr, None, &self.database, ctx)?);
                            columns.push(format!("col{idx}"));
                        }
                    }
                }
                Ok(QueryResult {
                    columns,
                    rows: vec![row],
                    effect: None,
                })
            }
            1 | 2 => {
                if select.from.len() == 1 {
                    // Every single-table plan filters one table; the probe
                    // counts even a scan of a table that no longer exists.
                    coverage::hit(probe!("sdb.exec.filter_scan"));
                }
                let tables = select
                    .from
                    .iter()
                    .map(|table_ref| self.database.table(&table_ref.table))
                    .collect::<SdbResult<Vec<&Table>>>()?;
                let condition = combine_conditions(&select.join_on, &select.where_clause);
                let plan = self.plan(select, &tables, condition.as_ref());
                self.execute_plan(&plan, select, &tables, condition.as_ref(), scratch)
            }
            n => Err(SdbError::Semantic(format!(
                "queries over {n} tables are not supported"
            ))),
        }
    }

    /// The engine's one plan decision for a SELECT over `tables` (one or
    /// two, in FROM order) filtered by `condition`. It is the only reader of
    /// `enable_seqscan`, `enable_prepared` and `enable_distance_join`, and
    /// it evaluates each plan's row-independent constant — the `~=` probe,
    /// the KNN origin, the distance threshold — once. A constant that
    /// depends on the row or fails to evaluate keeps the general plan, which
    /// evaluates it per row and reports its error there.
    fn plan(&self, select: &SelectStatement, tables: &[&Table], condition: Option<&Expr>) -> Plan {
        let ctx = &self.ctx;
        let (left_ref, left) = (&select.from[0], tables[0]);
        let Some(&right) = tables.get(1) else {
            if self.enable_seqscan {
                return Plan::SeqScan;
            }
            let index_plan = match condition {
                Some(condition) => self.same_box_plan(condition, left_ref, left),
                None if !is_pure_count(select) => self.knn_plan(select, left_ref, left),
                None => None,
            };
            return index_plan.unwrap_or(Plan::SeqScan);
        };
        let right_ref = &select.from[1];
        let Some(join) = condition.and_then(|condition| {
            kernel_join(
                condition,
                [left_ref, right_ref],
                [left, right],
                self.enable_distance_join,
                &self.database,
                ctx,
            )
        }) else {
            return Plan::NestedLoopJoin;
        };
        // ST_Disjoint holds exactly on the pairs an envelope probe prunes, so
        // it never takes the index (real engines give it no index operator
        // support either).
        let indexable = match join.kernel {
            Kernel::Predicate(predicate) => predicate.has_index_support(),
            Kernel::Distance(..) => true,
        };
        if !self.enable_seqscan
            && indexable
            && self
                .index_on_column(right_ref, right, join.right_column)
                .is_some()
        {
            Plan::IndexJoin(join)
        } else if self.enable_prepared {
            Plan::PreparedJoin(join)
        } else {
            Plan::NestedLoopJoin
        }
    }

    /// The `~=` window plan for `col ~= <probe>` on an indexed column
    /// (Listing 8's scenario).
    fn same_box_plan(&self, condition: &Expr, table_ref: &TableRef, table: &Table) -> Option<Plan> {
        let ctx = &self.ctx;
        let Expr::Binary {
            op: BinaryOp::SameBox,
            left,
            right,
        } = condition
        else {
            return None;
        };
        let Expr::Column { column, .. } = left.as_ref() else {
            return None;
        };
        let column = table.column_index(column)?;
        self.index_on_column(table_ref, table, column)?;
        let probe = evaluate_expr(right, None, &self.database, ctx).ok()?;
        Some(Plan::IndexFilter {
            column,
            probe: probe.as_geometry()?.envelope(),
        })
    }

    /// The index nearest-neighbour plan for `SELECT ... FROM t ORDER BY
    /// ST_Distance(t.col, <origin>) LIMIT k` with no filter, on an indexed
    /// column and a non-EMPTY origin.
    fn knn_plan(
        &self,
        select: &SelectStatement,
        table_ref: &TableRef,
        table: &Table,
    ) -> Option<Plan> {
        let ctx = &self.ctx;
        let order = select.order_by.as_ref().filter(|order| !order.descending)?;
        let k = select.limit?;
        let Expr::Function { name, args } = &order.expr else {
            return None;
        };
        let [Expr::Column {
            table: qualifier,
            column,
        }, origin] = args.as_slice()
        else {
            return None;
        };
        if !name.eq_ignore_ascii_case("ST_DISTANCE")
            || qualifier
                .as_ref()
                .is_some_and(|q| !q.eq_ignore_ascii_case(&table_ref.alias))
        {
            return None;
        }
        let column = table.column_index(column)?;
        self.index_on_column(table_ref, table, column)?;
        let origin = evaluate_expr(origin, None, &self.database, ctx).ok()?;
        let origin = origin.as_geometry()?.envelope();
        (!origin.is_empty()).then_some(Plan::IndexKnn { column, origin, k })
    }

    /// The spatial index on one column of a FROM table, if there is one.
    fn index_on_column(
        &self,
        table_ref: &TableRef,
        table: &Table,
        column: usize,
    ) -> Option<&SpatialIndex> {
        self.database
            .index_on(&table_ref.table, &table.columns[column].0)
    }

    /// The index an index plan was built on. The planner only picks such a
    /// plan when [`Engine::index_on_column`] finds one, and the database
    /// cannot change between planning and execution: both borrow the engine.
    fn planned_index(&self, table_ref: &TableRef, table: &Table, column: usize) -> &SpatialIndex {
        self.index_on_column(table_ref, table, column)
            .expect("index plans are only built on an existing index")
    }

    /// Runs a plan built by [`Engine::plan`] over the same tables.
    fn execute_plan(
        &self,
        plan: &Plan,
        select: &SelectStatement,
        tables: &[&Table],
        condition: Option<&Expr>,
        scratch: &mut ExecScratch,
    ) -> SdbResult<QueryResult> {
        let ctx = &self.ctx;
        let (table_ref, table) = (&select.from[0], tables[0]);
        let bind = |slot: usize| RowBinding::single(table_ref, table, &table.rows[slot]);
        let candidate_rows: Vec<usize> = match plan {
            Plan::SeqScan => table.live_rows().map(|(slot, _)| slot).collect(),
            Plan::IndexFilter { column, probe } => {
                self.index_filter(table, self.planned_index(table_ref, table, *column), probe)
            }
            Plan::IndexKnn { column, origin, k } => {
                let index = self.planned_index(table_ref, table, *column);
                let rows = self.index_knn(select, table, index, origin, *k)?;
                return project(select, &rows, bind, &self.database, ctx);
            }
            Plan::NestedLoopJoin | Plan::PreparedJoin(_) | Plan::IndexJoin(_) => {
                return self.execute_join(plan, select, tables, condition, scratch);
            }
        };
        let mut matching = Vec::new();
        for slot in candidate_rows {
            // Skips tombstoned slots (and stale index entries pointing at one).
            if !table.is_live(slot) {
                continue;
            }
            let keep = match condition {
                None => true,
                Some(expr) => {
                    evaluate_expr(expr, Some(&bind(slot)), &self.database, ctx)?.is_truthy()
                }
            };
            if keep {
                matching.push(slot);
            }
        }
        if !is_pure_count(select) {
            matching = order_and_limit(select, matching, |expr, &slot| {
                order_key(expr, &bind(slot), &self.database, ctx)
            })?;
        }
        project(select, &matching, bind, &self.database, ctx)
    }

    /// The nearest-neighbour scan of an [`Plan::IndexKnn`] plan: a
    /// best-first search of the index instead of sorting a full scan.
    fn index_knn(
        &self,
        select: &SelectStatement,
        table: &Table,
        index: &SpatialIndex,
        origin: &Envelope,
        k: usize,
    ) -> SdbResult<Vec<usize>> {
        let ctx = &self.ctx;
        coverage::hit(probe!("sdb.exec.knn_index_scan"));
        let table_ref = &select.from[0];
        let order = select
            .order_by
            .as_ref()
            .expect("KNN plans are only built for an ORDER BY");
        let gist_fault = ctx.faults.is_active(FaultId::PostgisGistIndexDropsRows);
        let dropped_by_fault = |row_idx: usize| -> bool {
            let dropped = gist_fault && gist_fault_drops_row(&table.rows[row_idx]);
            if dropped {
                ctx.fire(FaultId::PostgisGistIndexDropsRows);
            }
            dropped
        };
        let mut eval_error = None;
        let neighbours = index.tree.nearest_with(origin, k, |&row_idx| {
            if dropped_by_fault(row_idx) {
                coverage::hit(probe!("sdb.fault.logic_path"));
                return None;
            }
            let row = &table.rows[row_idx];
            if row.is_empty() {
                // Stale index entry pointing at a tombstoned slot.
                return None;
            }
            let binding = RowBinding::single(table_ref, table, row);
            match evaluate_expr(&order.expr, Some(&binding), &self.database, ctx) {
                // NaN distances are canonicalized to the positive quiet NaN
                // so the tree's `total_cmp` priority queue orders them last,
                // matching `compare_doubles` (a negative NaN would otherwise
                // sort *first* under `total_cmp`).
                Ok(value) => value
                    .as_double()
                    .map(|d| if d.is_nan() { f64::NAN } else { d }),
                Err(error) => {
                    eval_error = Some(error);
                    None
                }
            }
        });
        if let Some(error) = eval_error {
            return Err(error);
        }
        // The tree returns boundary ties beyond `k`; re-apply the sequential
        // path's deterministic order (distance via the engine-wide
        // `compare_doubles` semantics, then row position) and cut. Using the
        // shared comparator keeps NaN distances ordered exactly like the
        // seqscan sort: after every defined key, before NULL keys.
        let mut picked: Vec<(f64, usize)> = neighbours
            .into_iter()
            .map(|(distance, &row_idx)| (distance, row_idx))
            .collect();
        picked.sort_by(|a, b| compare_doubles(a.0, b.0).then(a.1.cmp(&b.1)));
        picked.truncate(k);
        let mut row_indices: Vec<usize> = picked.into_iter().map(|(_, idx)| idx).collect();
        // Rows whose sort key is NULL (EMPTY geometries, faulty NULL
        // distances) sort after every defined key in the sequential path;
        // pad with them in row order when the limit is not yet reached.
        if row_indices.len() < k {
            for row_idx in 0..table.rows.len() {
                if row_indices.len() == k {
                    break;
                }
                if !table.is_live(row_idx)
                    || row_indices.contains(&row_idx)
                    || dropped_by_fault(row_idx)
                {
                    continue;
                }
                let binding = RowBinding::single(table_ref, table, &table.rows[row_idx]);
                let key =
                    evaluate_expr(&order.expr, Some(&binding), &self.database, ctx)?.as_double();
                if key.is_none() {
                    row_indices.push(row_idx);
                }
            }
        }
        Ok(row_indices)
    }

    /// The candidate rows of an [`Plan::IndexFilter`] plan: the index
    /// entries whose box equals `probe`, in row order.
    fn index_filter(&self, table: &Table, index: &SpatialIndex, probe: &Envelope) -> Vec<usize> {
        coverage::hit(probe!("sdb.exec.join_index_scan"));
        let ctx = &self.ctx;
        let gist_fault = ctx.faults.is_active(FaultId::PostgisGistIndexDropsRows);
        let mut rows: Vec<usize> = index
            .tree
            .query_same_box(probe)
            .into_iter()
            .copied()
            .collect();
        if probe.is_empty() {
            // Correct behaviour: EMPTY geometries all share the empty
            // bounding box, so they match an EMPTY probe. The seeded GiST
            // fault omits this compensation (Listing 8: count 0 instead of 1).
            if !gist_fault {
                rows.extend(index.tree.empty_envelope_entries().iter().copied());
            } else {
                ctx.fire(FaultId::PostgisGistIndexDropsRows);
                coverage::hit(probe!("sdb.fault.logic_path"));
            }
        }
        if gist_fault {
            // The faulty scan also drops geometries lying in the negative
            // quadrant (a key-quantization bug).
            gist_fault_retain(&mut rows, table, ctx);
        }
        rows.sort_unstable();
        rows
    }

    /// Runs a join plan: matches pairs of row slots, then orders, limits
    /// and projects them.
    fn execute_join(
        &self,
        plan: &Plan,
        select: &SelectStatement,
        tables: &[&Table],
        condition: Option<&Expr>,
        scratch: &mut ExecScratch,
    ) -> SdbResult<QueryResult> {
        let ctx = &self.ctx;
        let (left_ref, right_ref) = (&select.from[0], &select.from[1]);
        let (left_table, right_table) = (tables[0], tables[1]);
        let bind = |(li, ri): (usize, usize)| {
            RowBinding::pair(
                left_ref,
                left_table,
                &left_table.rows[li],
                right_ref,
                right_table,
                &right_table.rows[ri],
            )
        };
        scratch.pairs.clear();
        match plan {
            Plan::IndexJoin(join) => {
                coverage::hit(match join.kernel {
                    Kernel::Predicate(_) => probe!("sdb.exec.join_index_scan"),
                    Kernel::Distance(..) => probe!("sdb.exec.join_distance_index"),
                });
                let index = self.planned_index(right_ref, right_table, join.right_column);
                self.index_join(join, left_table, right_table, index, scratch)?;
            }
            Plan::PreparedJoin(join) => match join.kernel {
                Kernel::Predicate(_) => {
                    coverage::hit(probe!("sdb.exec.join_prepared"));
                    self.prepared_join(join, left_table, right_table, scratch)?;
                }
                Kernel::Distance(_, d) => {
                    coverage::hit(probe!("sdb.exec.join_distance_prepared"));
                    distance_prepared_join(join, d, left_table, right_table, ctx, scratch)?;
                }
            },
            _ => {
                coverage::hit(probe!("sdb.exec.join_nested_loop"));
                for (li, _) in left_table.live_rows() {
                    for (ri, _) in right_table.live_rows() {
                        let keep = match condition {
                            None => true,
                            Some(expr) => {
                                evaluate_expr(expr, Some(&bind((li, ri))), &self.database, ctx)?
                                    .is_truthy()
                            }
                        };
                        if keep {
                            scratch.pairs.push((li, ri));
                        }
                    }
                }
            }
        }

        let mut matching = std::mem::take(&mut scratch.pairs);
        if !is_pure_count(select) {
            matching = order_and_limit(select, matching, |expr, &pair| {
                order_key(expr, &bind(pair), &self.database, ctx)
            })?;
        }
        let result = project(select, &matching, bind, &self.database, ctx);
        // Hand the pair buffer (or the ordered rebuild of it) back for reuse
        // by the next join.
        scratch.pairs = matching;
        result
    }

    /// Index nested-loop join, for either kernel: probe the inner index with
    /// each outer geometry's envelope through the kernel's R-tree query, then
    /// verify the candidates with the kernel.
    fn index_join(
        &self,
        join: &KernelJoin,
        left_table: &Table,
        right_table: &Table,
        index: &SpatialIndex,
        scratch: &mut ExecScratch,
    ) -> SdbResult<()> {
        let ctx = &self.ctx;
        let gist_fault = ctx.faults.is_active(FaultId::PostgisGistIndexDropsRows);
        let ExecScratch {
            candidates, pairs, ..
        } = scratch;
        for (li, left_geom) in geometries(left_table, join.left_column) {
            join.kernel
                .index_candidates(&index.tree, &left_geom.envelope(), candidates);
            // The faulty index additionally drops negative-quadrant rows it
            // should have returned.
            if gist_fault {
                ctx.fire(FaultId::PostgisGistIndexDropsRows);
                coverage::hit(probe!("sdb.fault.logic_path"));
                candidates.retain(|&ri| !gist_fault_drops_row(&right_table.rows[ri]));
            }
            candidates.sort_unstable();
            for &ri in candidates.iter() {
                // `.get` guards stale index entries referencing tombstones.
                let Some(right_geom) = right_table.rows[ri]
                    .get(join.right_column)
                    .and_then(|v| v.as_geometry())
                else {
                    continue;
                };
                if join.holds(left_geom, right_geom, ctx)? {
                    pairs.push((li, ri));
                }
            }
        }
        Ok(())
    }

    /// Prepared-geometry join: the outer geometry is prepared once and reused
    /// for every inner row (the component of Listing 7's bug).
    fn prepared_join(
        &self,
        join: &KernelJoin,
        left_table: &Table,
        right_table: &Table,
        scratch: &mut ExecScratch,
    ) -> SdbResult<()> {
        let ctx = &self.ctx;
        let duplicate_fault = ctx.faults.is_active(FaultId::GeosPreparedDuplicateDropped);
        // The faulty prepared cache compares shapes by their WKT: write each
        // inner row's once per join, and only while that fault is active.
        let right_wkts: Vec<Option<String>> = if duplicate_fault {
            right_table
                .rows
                .iter()
                .map(|rrow| {
                    rrow.get(join.right_column)
                        .and_then(|v| v.as_geometry())
                        .map(spatter_geom::wkt::write_wkt)
                })
                .collect()
        } else {
            Vec::new()
        };
        for (li, left_geom) in geometries(left_table, join.left_column) {
            // The prepare step itself; the predicate verdicts below go through
            // the shared library so that its seeded faults (and crashes)
            // surface on this path too, keeping the reference engine's
            // prepared/non-prepared equivalence.
            let _prepared = PreparedGeometry::new(left_geom.clone());
            let mut left_wkt: Option<String> = None;
            let mut matched_shapes: Vec<&str> = Vec::new();
            for (ri, right_geom) in geometries(right_table, join.right_column) {
                let right_wkt = right_wkts.get(ri).and_then(Option::as_deref);
                if let Some(right_wkt) = right_wkt {
                    if matched_shapes.contains(&right_wkt)
                        && *left_wkt.get_or_insert_with(|| spatter_geom::wkt::write_wkt(left_geom))
                            != right_wkt
                    {
                        // The faulty prepared cache treats a repeated inner
                        // geometry as already processed and skips it.
                        ctx.fire(FaultId::GeosPreparedDuplicateDropped);
                        coverage::hit(probe!("sdb.fault.logic_path"));
                        continue;
                    }
                }
                if join.holds(left_geom, right_geom, ctx)? {
                    matched_shapes.extend(right_wkt);
                    scratch.pairs.push((li, ri));
                }
            }
        }
        Ok(())
    }
}

/// Prepared distance join: the inner table's envelopes are computed once and
/// cached, then each pair is screened on the cached envelopes before the
/// exact kernel runs. The screen is the kernel's own first test, so it can
/// only skip pairs the kernel would reject.
fn distance_prepared_join(
    join: &KernelJoin,
    d: f64,
    left_table: &Table,
    right_table: &Table,
    ctx: &FunctionContext,
    scratch: &mut ExecScratch,
) -> SdbResult<()> {
    if d.is_nan() || d < 0.0 {
        // Negative or NaN thresholds never hold for any pair.
        return Ok(());
    }
    let d_sq = d * d;
    let ExecScratch {
        right_envelopes,
        pairs,
        ..
    } = scratch;
    right_envelopes.clear();
    // Tombstoned rows get an EMPTY envelope (`.get` on the empty row), which
    // the screen rejects with its infinite distance.
    right_envelopes.extend(right_table.rows.iter().map(|rrow| {
        rrow.get(join.right_column)
            .and_then(|v| v.as_geometry())
            .map(|g| g.envelope())
            .unwrap_or_else(Envelope::empty)
    }));
    for (li, left_geom) in geometries(left_table, join.left_column) {
        let left_env = left_geom.envelope();
        for (ri, rrow) in right_table.rows.iter().enumerate() {
            // The kernel rejects pairs with an EMPTY side or with boxes
            // further apart than `d` outright (`distance_sq` of an EMPTY
            // envelope is infinite, which covers both cases; `>` is false for
            // a NaN/overflowed d², disabling the screen rather than
            // mis-pruning).
            if left_env.distance_sq(&right_envelopes[ri]) > d_sq {
                continue;
            }
            let Some(right_geom) = rrow.get(join.right_column).and_then(|v| v.as_geometry()) else {
                continue;
            };
            if join.holds(left_geom, right_geom, ctx)? {
                pairs.push((li, ri));
            }
        }
    }
    Ok(())
}

/// The live rows of `table` whose `column` holds a geometry, as `(slot,
/// geometry)` pairs in slot order: the outer loop of every kernel join.
fn geometries(table: &Table, column: usize) -> impl Iterator<Item = (usize, &Geometry)> {
    table
        .live_rows()
        .filter_map(move |(slot, row)| row[column].as_geometry().map(|g| (slot, g)))
}

// ---------------------------------------------------------------------------
// Expression evaluation
// ---------------------------------------------------------------------------

/// Bindings from table aliases to the current row.
struct RowBinding<'a> {
    entries: Vec<(String, &'a Table, &'a [Value])>,
}

impl<'a> RowBinding<'a> {
    fn single(table_ref: &TableRef, table: &'a Table, row: &'a [Value]) -> Self {
        RowBinding {
            entries: vec![(table_ref.alias.clone(), table, row)],
        }
    }

    fn pair(
        left_ref: &TableRef,
        left: &'a Table,
        left_row: &'a [Value],
        right_ref: &TableRef,
        right: &'a Table,
        right_row: &'a [Value],
    ) -> Self {
        RowBinding {
            entries: vec![
                (left_ref.alias.clone(), left, left_row),
                (right_ref.alias.clone(), right, right_row),
            ],
        }
    }

    fn lookup(&self, table: Option<&str>, column: &str) -> Option<Value> {
        for (alias, table_data, row) in &self.entries {
            if let Some(qualifier) = table {
                if !alias.eq_ignore_ascii_case(qualifier) {
                    continue;
                }
            }
            if let Some(idx) = table_data.column_index(column) {
                return Some(row[idx].clone());
            }
            if table.is_some() {
                return None;
            }
        }
        None
    }
}

fn evaluate_expr(
    expr: &Expr,
    binding: Option<&RowBinding<'_>>,
    database: &Database,
    ctx: &FunctionContext,
) -> SdbResult<Value> {
    match expr {
        Expr::Literal(value) => Ok(value.clone()),
        Expr::Variable(name) => {
            coverage::hit(probe!("sdb.expr.variable"));
            database
                .variable(&format!("@{name}"))
                .cloned()
                .ok_or_else(|| SdbError::Semantic(format!("unknown variable @{name}")))
        }
        Expr::Column { table, column } => {
            coverage::hit(probe!("sdb.expr.column"));
            binding
                .and_then(|b| b.lookup(table.as_deref(), column))
                .ok_or_else(|| {
                    SdbError::Semantic(format!(
                        "unknown column {}{column}",
                        table.as_ref().map(|t| format!("{t}.")).unwrap_or_default()
                    ))
                })
        }
        Expr::Cast { expr, target } => {
            let inner = evaluate_expr(expr, binding, database, ctx)?;
            match target.as_str() {
                "geometry" => match inner {
                    Value::Geometry(g) => Ok(Value::Geometry(g)),
                    Value::Text(text) => {
                        Ok(Value::Geometry(functions::parse_geometry_text(&text, ctx)?))
                    }
                    other => Err(SdbError::Execution(format!(
                        "cannot cast {} to geometry",
                        other.type_name()
                    ))),
                },
                "int" | "integer" | "bigint" => inner
                    .as_int()
                    .or_else(|| inner.as_text().and_then(|t| t.trim().parse::<i64>().ok()))
                    .map(Value::Int)
                    .ok_or_else(|| SdbError::Execution("cannot cast to integer".into())),
                // Text parses like PostgreSQL's `'NaN'::float8` /
                // `'Infinity'::float8`: non-finite spellings are legal and
                // flow into the engine-wide `compare_doubles` semantics.
                "double" | "float" => inner
                    .as_double()
                    .or_else(|| inner.as_text().and_then(|t| t.trim().parse::<f64>().ok()))
                    .map(Value::Double)
                    .ok_or_else(|| SdbError::Execution("cannot cast to double".into())),
                "text" | "varchar" => Ok(Value::Text(inner.to_string())),
                other => Err(SdbError::Execution(format!(
                    "unsupported cast target {other}"
                ))),
            }
        }
        Expr::Function { name, args } => {
            let mut evaluated = Vec::with_capacity(args.len());
            for arg in args {
                evaluated.push(evaluate_expr(arg, binding, database, ctx)?);
            }
            functions::evaluate(name, &evaluated, ctx)
        }
        Expr::Not(inner) => {
            coverage::hit(probe!("sdb.expr.logical"));
            let value = evaluate_expr(inner, binding, database, ctx)?;
            Ok(Value::Bool(!value.is_truthy()))
        }
        Expr::Binary { op, left, right } => {
            let lhs = evaluate_expr(left, binding, database, ctx)?;
            let rhs = evaluate_expr(right, binding, database, ctx)?;
            evaluate_binary(*op, lhs, rhs, ctx)
        }
    }
}

fn evaluate_binary(
    op: BinaryOp,
    lhs: Value,
    rhs: Value,
    ctx: &FunctionContext,
) -> SdbResult<Value> {
    match op {
        BinaryOp::And => {
            coverage::hit(probe!("sdb.expr.logical"));
            Ok(Value::Bool(lhs.is_truthy() && rhs.is_truthy()))
        }
        BinaryOp::Or => {
            coverage::hit(probe!("sdb.expr.logical"));
            Ok(Value::Bool(lhs.is_truthy() || rhs.is_truthy()))
        }
        BinaryOp::SameBox => {
            coverage::hit(probe!("sdb.expr.samebox"));
            let a = coerce_geometry(lhs, ctx)?;
            let b = coerce_geometry(rhs, ctx)?;
            Ok(Value::Bool(a.envelope().same_box(&b.envelope())))
        }
        BinaryOp::Eq
        | BinaryOp::NotEq
        | BinaryOp::Lt
        | BinaryOp::LtEq
        | BinaryOp::Gt
        | BinaryOp::GtEq => {
            coverage::hit(probe!("sdb.expr.comparison"));
            let ordering = compare_values(&lhs, &rhs)?;
            let result = match op {
                BinaryOp::Eq => ordering == std::cmp::Ordering::Equal,
                BinaryOp::NotEq => ordering != std::cmp::Ordering::Equal,
                BinaryOp::Lt => ordering == std::cmp::Ordering::Less,
                BinaryOp::LtEq => ordering != std::cmp::Ordering::Greater,
                BinaryOp::Gt => ordering == std::cmp::Ordering::Greater,
                BinaryOp::GtEq => ordering != std::cmp::Ordering::Less,
                _ => unreachable!("comparison operators only"),
            };
            Ok(Value::Bool(result))
        }
    }
}

/// The engine-wide total order on doubles, following PostgreSQL's `float8`
/// semantics: every NaN compares equal to every other NaN and **greater than
/// every non-NaN value** (so NaN sorts last among defined keys, before SQL
/// NULL). Shared by WHERE-clause comparisons ([`compare_values`]), the
/// `ORDER BY` sort ([`compare_order_keys`]) and the index KNN path's final
/// ordering, so the same NaN-producing expression behaves identically in a
/// filter, a sort key and a nearest-neighbour distance — it is never a hard
/// error in one path and a silently ordered value in another.
fn compare_doubles(a: f64, b: f64) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => a.partial_cmp(&b).expect("non-NaN doubles are ordered"),
    }
}

fn compare_values(lhs: &Value, rhs: &Value) -> SdbResult<std::cmp::Ordering> {
    if let (Some(a), Some(b)) = (lhs.as_double(), rhs.as_double()) {
        return Ok(compare_doubles(a, b));
    }
    if let (Value::Text(a), Value::Text(b)) = (lhs, rhs) {
        return Ok(a.cmp(b));
    }
    Err(SdbError::Execution(format!(
        "cannot compare {} with {}",
        lhs.type_name(),
        rhs.type_name()
    )))
}

fn coerce_geometry(value: Value, ctx: &FunctionContext) -> SdbResult<Geometry> {
    match value {
        Value::Geometry(g) => Ok(g),
        Value::Text(text) => functions::parse_geometry_text(&text, ctx),
        other => Err(SdbError::Execution(format!(
            "expected a geometry, got {}",
            other.type_name()
        ))),
    }
}

fn coerce_for_column(
    value: Value,
    column_type: ColumnType,
    ctx: &FunctionContext,
) -> SdbResult<Value> {
    match column_type {
        ColumnType::Geometry => match value {
            Value::Null => Ok(Value::Null),
            other => Ok(Value::Geometry(coerce_geometry(other, ctx)?)),
        },
        ColumnType::Integer => Ok(value.as_int().map(Value::Int).unwrap_or(Value::Null)),
        ColumnType::Double => Ok(value.as_double().map(Value::Double).unwrap_or(Value::Null)),
        ColumnType::Boolean => Ok(Value::Bool(value.is_truthy())),
        ColumnType::Text => Ok(Value::Text(value.to_string())),
    }
}

// ---------------------------------------------------------------------------
// Plans
// ---------------------------------------------------------------------------

/// How the engine runs one SELECT over one or two tables: the whole plan
/// decision as plain data, built by [`Engine::plan`] and run by
/// [`Engine::execute_plan`]. Plans only change how a result is computed,
/// never what it is — except where a seeded fault sits on one plan's own
/// path (the GiST index, the prepared cache), which is what the Index
/// oracle compares plans to find.
#[derive(Debug, PartialEq)]
enum Plan {
    /// Every live row, filtered by the condition.
    SeqScan,
    /// `col ~= <probe>` on an indexed column: the index entries whose box
    /// equals the probe's, then the condition.
    IndexFilter {
        /// The indexed column.
        column: usize,
        /// The envelope of the evaluated probe geometry.
        probe: Envelope,
    },
    /// `ORDER BY ST_Distance(col, <origin>) LIMIT k` with no filter, on an
    /// indexed column: a best-first nearest-neighbour search of the index.
    IndexKnn {
        /// The indexed column.
        column: usize,
        /// The envelope of the evaluated (non-EMPTY) origin geometry.
        origin: Envelope,
        /// The `LIMIT`.
        k: usize,
    },
    /// Every pair of live rows, filtered by the condition.
    NestedLoopJoin,
    /// The kernel over every pair, each outer geometry prepared once.
    PreparedJoin(KernelJoin),
    /// The kernel over the inner index's candidates for each outer geometry.
    IndexJoin(KernelJoin),
}

/// The per-pair test of a join whose `ON` is one kernel call over the two
/// geometry columns.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kernel {
    /// A named topological predicate, `ST_Intersects(a.g, b.g)` and the like.
    Predicate(NamedPredicate),
    /// `ST_DWithin`/`ST_DFullyWithin(a.g, b.g, d)` with its row-independent
    /// threshold `d`.
    Distance(DistancePredicate, f64),
}

impl Kernel {
    /// Fills `out` with the index entries that may pass the kernel against
    /// an outer geometry with `envelope`. Neither query loses a pair the
    /// kernel accepts: the predicates with index support only hold on
    /// interacting envelopes and never on an EMPTY operand (which envelope
    /// queries never return), and the distance query's leaf test —
    /// "envelope expanded by `d`" as a squared-distance test, so no rounding
    /// slack — is the distance kernel's own envelope rejection.
    fn index_candidates(self, tree: &RTree<usize>, envelope: &Envelope, out: &mut Vec<usize>) {
        match self {
            Kernel::Predicate(_) => tree.query_intersects_into(envelope, out),
            Kernel::Distance(_, d) => {
                // A negative (or NaN) threshold never holds; probe with a NaN
                // radius, which matches nothing, instead of the spuriously
                // positive d².
                let d_sq = if d >= 0.0 { d * d } else { f64::NAN };
                tree.query_within_distance_into(envelope, d_sq, out)
            }
        }
    }
}

/// A join planned on its kernel: which column of each table the kernel
/// compares, and in which SQL argument order.
#[derive(Debug, Clone, Copy, PartialEq)]
struct KernelJoin {
    kernel: Kernel,
    left_column: usize,
    right_column: usize,
    /// The SQL spelled the right table's column as the first argument.
    /// Verdicts are always computed in the original SQL argument order —
    /// seeded faults (e.g. `PostgisDFullyWithinSmallCoords`, which triggers
    /// on the first argument as written) are argument-order sensitive, so a
    /// commuted join must behave exactly like the nested loop it replaces.
    swapped: bool,
}

impl KernelJoin {
    /// The kernel's verdict on one pair, through the same functions the
    /// expression interpreter calls.
    fn holds(&self, left: &Geometry, right: &Geometry, ctx: &FunctionContext) -> SdbResult<bool> {
        let (a, b) = if self.swapped {
            (right, left)
        } else {
            (left, right)
        };
        match self.kernel {
            Kernel::Predicate(predicate) => functions::evaluate_predicate(predicate, a, b, ctx),
            Kernel::Distance(kind, d) => {
                Ok(functions::evaluate_distance_predicate(kind, a, b, d, ctx))
            }
        }
    }
}

/// Matches a pair of column expressions against the two join aliases, in
/// either order. Returns the left-table column, the right-table column, and
/// whether the SQL spelled the right table's column first.
fn join_column_pair<'a>(
    first: &'a Expr,
    second: &'a Expr,
    left_ref: &TableRef,
    right_ref: &TableRef,
) -> Option<(&'a str, &'a str, bool)> {
    let (
        Expr::Column {
            table: ft,
            column: fc,
        },
        Expr::Column {
            table: st,
            column: sc,
        },
    ) = (first, second)
    else {
        return None;
    };
    let ft = ft.as_deref()?;
    let st = st.as_deref()?;
    if ft.eq_ignore_ascii_case(&left_ref.alias) && st.eq_ignore_ascii_case(&right_ref.alias) {
        return Some((fc, sc, false));
    }
    if ft.eq_ignore_ascii_case(&right_ref.alias) && st.eq_ignore_ascii_case(&left_ref.alias) {
        return Some((sc, fc, true));
    }
    None
}

/// Recognizes a join condition that is one kernel call over a geometry
/// column of each table, in either argument order. Distance calls qualify
/// only when `distance_joins` is on, the profile has the function, and the
/// threshold evaluates to a number without a row.
fn kernel_join(
    expr: &Expr,
    [left_ref, right_ref]: [&TableRef; 2],
    [left_table, right_table]: [&Table; 2],
    distance_joins: bool,
    database: &Database,
    ctx: &FunctionContext,
) -> Option<KernelJoin> {
    let Expr::Function { name, args } = expr else {
        return None;
    };
    let (kernel, (lc, rc, swapped)) = match NamedPredicate::from_function_name(name) {
        Some(predicate) => {
            let [first, second] = args.as_slice() else {
                return None;
            };
            (
                Kernel::Predicate(predicate),
                join_column_pair(first, second, left_ref, right_ref)?,
            )
        }
        None => {
            let kind = match name.to_ascii_uppercase().as_str() {
                "ST_DWITHIN" => DistancePredicate::DWithin,
                "ST_DFULLYWITHIN" => DistancePredicate::DFullyWithin,
                _ => return None,
            };
            let [first, second, d] = args.as_slice() else {
                return None;
            };
            // Profiles that lack the function must keep erroring through the
            // general expression path rather than silently executing the
            // kernel.
            if !distance_joins || !ctx.profile.supports_function(kind.function_name()) {
                return None;
            }
            let columns = join_column_pair(first, second, left_ref, right_ref)?;
            // Anything but a number — another column, an unknown variable —
            // keeps the nested loop, which evaluates it per pair and reports
            // its errors there.
            let d = evaluate_expr(d, None, database, ctx).ok()?.as_double()?;
            (Kernel::Distance(kind, d), columns)
        }
    };
    Some(KernelJoin {
        kernel,
        left_column: left_table.column_index(lc)?,
        right_column: right_table.column_index(rc)?,
        swapped,
    })
}

/// Whether the select is a bare aggregate (`SELECT COUNT(*)`): ordering is
/// meaningless and `LIMIT` must not shrink the counted set — it caps the
/// single result row instead (applied centrally in `select`).
fn is_pure_count(select: &SelectStatement) -> bool {
    select.items.len() == 1 && select.items[0] == SelectItem::CountStar
}

/// The `PostgisGistIndexDropsRows` drop criterion, shared by every index
/// path (window filter, predicate join, KNN scan) so the three scans
/// simulate one fault: the faulty index loses rows whose non-EMPTY
/// geometries reach into the negative-x half-plane.
fn gist_fault_drops_row(row: &[Value]) -> bool {
    !row.iter()
        .filter_map(|v| v.as_geometry())
        .all(|g| g.envelope().is_empty() || g.envelope().min_x() >= 0.0)
}

/// Drops the index hits the faulty GiST scan loses, firing
/// `PostgisGistIndexDropsRows` when it actually loses one.
fn gist_fault_retain(rows: &mut Vec<usize>, table: &Table, ctx: &FunctionContext) {
    let before = rows.len();
    rows.retain(|&row_idx| !gist_fault_drops_row(&table.rows[row_idx]));
    if rows.len() != before {
        ctx.fire(FaultId::PostgisGistIndexDropsRows);
    }
}

/// Applies the select's `ORDER BY` (stable sort, NULL keys last) and then
/// `LIMIT` to a list of matched items; `key_of` evaluates the sort key of
/// one item against the given key expression. Shared by the single-table
/// and join paths so their ordering semantics can never diverge.
fn order_and_limit<T>(
    select: &SelectStatement,
    mut items: Vec<T>,
    mut key_of: impl FnMut(&Expr, &T) -> SdbResult<Option<f64>>,
) -> SdbResult<Vec<T>> {
    if let Some(order) = &select.order_by {
        coverage::hit(probe!("sdb.exec.order_by"));
        let mut keyed = Vec::with_capacity(items.len());
        for (pos, item) in items.into_iter().enumerate() {
            let key = key_of(&order.expr, &item)?;
            keyed.push((key, pos, item));
        }
        keyed.sort_by(|a, b| compare_order_keys(&a.0, a.1, &b.0, b.1, order.descending));
        items = keyed.into_iter().map(|(_, _, item)| item).collect();
    }
    if let Some(limit) = select.limit {
        coverage::hit(probe!("sdb.exec.limit"));
        items.truncate(limit);
    }
    Ok(items)
}

/// Evaluates an `ORDER BY` key for one row binding. Keys must be numeric or
/// NULL — the KNN template's `ST_Distance` key is the motivating case.
fn order_key(
    expr: &Expr,
    binding: &RowBinding<'_>,
    database: &Database,
    ctx: &FunctionContext,
) -> SdbResult<Option<f64>> {
    match evaluate_expr(expr, Some(binding), database, ctx)? {
        Value::Null => Ok(None),
        value => value.as_double().map(Some).ok_or_else(|| {
            SdbError::Execution(format!(
                "ORDER BY key must be numeric, got {}",
                value.type_name()
            ))
        }),
    }
}

/// Sort comparator for `ORDER BY`: NULL keys last (in input order), defined
/// keys by value with the input position as the stability tie-break.
fn compare_order_keys(
    a: &Option<f64>,
    a_pos: usize,
    b: &Option<f64>,
    b_pos: usize,
    descending: bool,
) -> std::cmp::Ordering {
    let by_key = match (a, b) {
        (Some(x), Some(y)) => {
            let ordering = compare_doubles(*x, *y);
            if descending {
                ordering.reverse()
            } else {
                ordering
            }
        }
        (Some(_), None) => std::cmp::Ordering::Less,
        (None, Some(_)) => std::cmp::Ordering::Greater,
        (None, None) => std::cmp::Ordering::Equal,
    };
    by_key.then(a_pos.cmp(&b_pos))
}

fn combine_conditions(join_on: &Option<Expr>, where_clause: &Option<Expr>) -> Option<Expr> {
    match (join_on, where_clause) {
        (None, None) => None,
        (Some(a), None) => Some(a.clone()),
        (None, Some(b)) => Some(b.clone()),
        (Some(a), Some(b)) => Some(Expr::Binary {
            op: BinaryOp::And,
            left: Box::new(a.clone()),
            right: Box::new(b.clone()),
        }),
    }
}

/// Evaluates the select list over the matched items of a plan — row slots
/// of one table, or pairs of slots of two — each bound to its rows by
/// `bind`.
fn project<'t, T: Copy>(
    select: &SelectStatement,
    matching: &[T],
    bind: impl Fn(T) -> RowBinding<'t>,
    database: &Database,
    ctx: &FunctionContext,
) -> SdbResult<QueryResult> {
    if is_pure_count(select) {
        coverage::hit(probe!("sdb.exec.count_star"));
        return Ok(QueryResult {
            columns: vec!["count".into()],
            rows: vec![vec![Value::Int(matching.len() as i64)]],
            effect: None,
        });
    }
    coverage::hit(probe!("sdb.exec.projection"));
    let mut out_rows = Vec::with_capacity(matching.len());
    for &item in matching {
        let binding = bind(item);
        let mut out = Vec::with_capacity(select.items.len());
        for select_item in &select.items {
            match select_item {
                SelectItem::CountStar => out.push(Value::Int(matching.len() as i64)),
                SelectItem::Expr(expr) => {
                    out.push(evaluate_expr(expr, Some(&binding), database, ctx)?)
                }
            }
        }
        out_rows.push(out);
    }
    Ok(QueryResult {
        columns: (0..select.items.len()).map(|i| format!("col{i}")).collect(),
        rows: out_rows,
        effect: None,
    })
}

fn build_rtree(table: &Table, column: &str) -> RTree<usize> {
    let Some(col_idx) = table.column_index(column) else {
        return RTree::new();
    };
    let mut tree = RTree::new();
    for (row_idx, row) in table.live_rows() {
        let envelope = row
            .get(col_idx)
            .map(Database::value_envelope)
            .unwrap_or_else(Envelope::empty);
        tree.insert(envelope, row_idx);
    }
    tree
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(engine: &mut Engine, sql: &str) -> i64 {
        engine.execute(sql).unwrap().count().unwrap()
    }

    /// The plan `sql`, a SELECT over one or two tables, gets on `engine`.
    fn plan_of(engine: &Engine, sql: &str) -> Plan {
        let Statement::Select(select) = parse_statement(sql).unwrap() else {
            panic!("not a SELECT: {sql}");
        };
        let tables: Vec<&Table> = select
            .from
            .iter()
            .map(|table_ref| engine.database.table(&table_ref.table).unwrap())
            .collect();
        let condition = combine_conditions(&select.join_on, &select.where_clause);
        engine.plan(&select, &tables, condition.as_ref())
    }

    #[test]
    fn listing1_join_count_with_and_without_fault() {
        let setup = "CREATE TABLE t1 (g geometry);
            CREATE TABLE t2 (g geometry);
            INSERT INTO t1 (g) VALUES ('LINESTRING(0 1,2 0)');
            INSERT INTO t2 (g) VALUES ('POINT(0.2 0.9)');";
        let query = "SELECT COUNT(*) FROM t1 JOIN t2 ON ST_Covers(t1.g,t2.g);";

        let mut faulty = Engine::new(EngineProfile::PostgisLike);
        faulty.execute_script(setup).unwrap();
        assert_eq!(
            count(&mut faulty, query),
            0,
            "the stock engine exhibits the Listing 1 bug"
        );

        let mut fixed = Engine::reference(EngineProfile::PostgisLike);
        fixed.execute_script(setup).unwrap();
        assert_eq!(
            count(&mut fixed, query),
            1,
            "the patched engine returns the correct count"
        );
    }

    #[test]
    fn listing2_affine_pair_is_correct_even_on_the_faulty_engine() {
        let setup = "CREATE TABLE t1 (g geometry);
            CREATE TABLE t2 (g geometry);
            INSERT INTO t1 (g) VALUES ('LINESTRING(1 1,0 0)');
            INSERT INTO t2 (g) VALUES ('POINT(0.9 0.9)');";
        let query = "SELECT COUNT(*) FROM t1 JOIN t2 ON ST_Covers(t1.g,t2.g);";
        let mut faulty = Engine::new(EngineProfile::PostgisLike);
        faulty.execute_script(setup).unwrap();
        assert_eq!(count(&mut faulty, query), 1);
    }

    #[test]
    fn listing7_prepared_join_misses_a_pair() {
        let setup = "CREATE TABLE t (id int, geom geometry);
            INSERT INTO t (id, geom) VALUES
            (1,'GEOMETRYCOLLECTION(MULTIPOINT((0 0),(3 1)))'::geometry),
            (2,'GEOMETRYCOLLECTION(MULTIPOINT((0 0),(3 1)))'::geometry),
            (3,'MULTIPOLYGON(((0 0,5 0,0 5,0 0)))'::geometry);";
        let query =
            "SELECT a1.id, a2.id FROM t As a1, t As a2 WHERE ST_Contains(a1.geom, a2.geom);";

        let mut fixed = Engine::reference(EngineProfile::PostgisLike);
        fixed.execute_script(setup).unwrap();
        let correct = fixed.execute(query).unwrap();
        let correct_pairs: Vec<(i64, i64)> = correct
            .rows
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect();
        assert_eq!(
            correct_pairs,
            vec![(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]
        );

        let mut faulty = Engine::with_faults(
            EngineProfile::PostgisLike,
            FaultSet::with([FaultId::GeosPreparedDuplicateDropped]),
        );
        faulty.execute_script(setup).unwrap();
        let buggy = faulty.execute(query).unwrap();
        let buggy_pairs: Vec<(i64, i64)> = buggy
            .rows
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect();
        assert_eq!(
            buggy_pairs,
            vec![(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 3)],
            "the (3,2) pair is dropped by the prepared-geometry fault"
        );
    }

    #[test]
    fn listing8_index_scan_drops_empty_geometry() {
        let setup = "CREATE TABLE t (id int, geom geometry);
            INSERT INTO t (id, geom) VALUES (1, 'POINT EMPTY');
            CREATE INDEX idx ON t USING GIST (geom);
            SET enable_seqscan = false;";
        let query = "SELECT COUNT(*) FROM t WHERE geom ~= 'POINT EMPTY'::geometry;";

        let mut faulty = Engine::with_faults(
            EngineProfile::PostgisLike,
            FaultSet::with([FaultId::PostgisGistIndexDropsRows]),
        );
        faulty.execute_script(setup).unwrap();
        assert_eq!(
            count(&mut faulty, query),
            0,
            "the faulty index scan misses the row"
        );

        let mut fixed = Engine::reference(EngineProfile::PostgisLike);
        fixed.execute_script(setup).unwrap();
        assert_eq!(count(&mut fixed, query), 1);

        // With sequential scans the faulty engine is also correct: this is
        // exactly what the Index oracle compares.
        let mut faulty_seq = Engine::with_faults(
            EngineProfile::PostgisLike,
            FaultSet::with([FaultId::PostgisGistIndexDropsRows]),
        );
        faulty_seq
            .execute_script(
                "CREATE TABLE t (id int, geom geometry);
             INSERT INTO t (id, geom) VALUES (1, 'POINT EMPTY');
             CREATE INDEX idx ON t USING GIST (geom);",
            )
            .unwrap();
        assert_eq!(count(&mut faulty_seq, query), 1);
    }

    #[test]
    fn listings3_and_4_run_through_session_variables() {
        let mut mysql = Engine::new(EngineProfile::MysqlLike);
        mysql
            .execute("SET @g1='MULTILINESTRING((990 280,100 20))';")
            .unwrap();
        mysql.execute("SET @g2='GEOMETRYCOLLECTION(MULTILINESTRING((990 280, 100 20)),POLYGON((360 60,850 620,850 420,360 60)))';").unwrap();
        let result = mysql
            .execute("SELECT ST_Crosses(ST_GeomFromText(@g1), ST_GeomFromText(@g2));")
            .unwrap();
        assert_eq!(
            result.single_value(),
            Some(&Value::Bool(true)),
            "the stock MySQL-like engine shows the Listing 3 bug"
        );

        let mut fixed = Engine::reference(EngineProfile::MysqlLike);
        fixed
            .execute("SET @g1='MULTILINESTRING((990 280,100 20))';")
            .unwrap();
        fixed.execute("SET @g2='GEOMETRYCOLLECTION(MULTILINESTRING((990 280, 100 20)),POLYGON((360 60,850 620,850 420,360 60)))';").unwrap();
        let result = fixed
            .execute("SELECT ST_Crosses(ST_GeomFromText(@g1), ST_GeomFromText(@g2));")
            .unwrap();
        assert_eq!(result.single_value(), Some(&Value::Bool(false)));
    }

    #[test]
    fn join_count_matches_between_seqscan_index_and_prepared_on_reference_engine() {
        let setup = "CREATE TABLE a (g geometry);
            CREATE TABLE b (g geometry);
            INSERT INTO a (g) VALUES ('POLYGON((0 0,4 0,4 4,0 4,0 0))'), ('POINT(10 10)'), ('LINESTRING(-3 -3,-1 -1)');
            INSERT INTO b (g) VALUES ('POINT(2 2)'), ('POINT(-2 -2)'), ('POLYGON((3 3,6 3,6 6,3 6,3 3))'), ('POINT EMPTY');
            CREATE INDEX idx_b ON b USING GIST (g);";
        let query = "SELECT COUNT(*) FROM a JOIN b ON ST_Intersects(a.g, b.g);";

        let mut reference = Engine::reference(EngineProfile::PostgisLike);
        reference.execute_script(setup).unwrap();
        let with_prepared = count(&mut reference, query);

        reference.execute("SET enable_prepared = false;").unwrap();
        let nested_loop = count(&mut reference, query);

        reference.execute("SET enable_seqscan = false;").unwrap();
        let with_index = count(&mut reference, query);

        assert_eq!(with_prepared, nested_loop);
        assert_eq!(nested_loop, with_index);
        // Three intersecting pairs: polygon/point(2 2), polygon/polygon, and
        // the line through (-2 -2) with that point.
        assert_eq!(nested_loop, 3);
    }

    #[test]
    fn unknown_settings_and_variables_error() {
        let mut engine = Engine::reference(EngineProfile::PostgisLike);
        assert!(engine.execute("SET bogus_setting = true;").is_err());
        assert!(engine.execute("SELECT ST_AsText(@missing);").is_err());
    }

    #[test]
    fn insert_validates_column_counts_and_types() {
        let mut engine = Engine::reference(EngineProfile::PostgisLike);
        engine
            .execute("CREATE TABLE t (id int, g geometry);")
            .unwrap();
        assert!(engine.execute("INSERT INTO t (id, g) VALUES (1);").is_err());
        assert!(engine
            .execute("INSERT INTO t (id, missing) VALUES (1, 'POINT(0 0)');")
            .is_err());
        engine
            .execute("INSERT INTO t (id, g) VALUES (1, 'POINT(0 0)');")
            .unwrap();
        assert_eq!(engine.database().table("t").unwrap().row_count(), 1);
    }

    #[test]
    fn execution_stats_accumulate() {
        let mut engine = Engine::reference(EngineProfile::DuckdbSpatialLike);
        engine.execute("CREATE TABLE t (g geometry);").unwrap();
        engine
            .execute("INSERT INTO t (g) VALUES ('POINT(1 1)');")
            .unwrap();
        let (time, statements) = engine.execution_stats();
        assert_eq!(statements, 2);
        assert!(time >= Duration::ZERO);
        engine.reset_stats();
        assert_eq!(engine.execution_stats().1, 0);
    }

    #[test]
    fn crash_fault_at_create_index_time() {
        let mut faulty = Engine::with_faults(
            EngineProfile::PostgisLike,
            FaultSet::with([FaultId::PostgisCrashIndexAllEmpty]),
        );
        faulty
            .execute_script(
                "CREATE TABLE t (g geometry); INSERT INTO t (g) VALUES ('POINT EMPTY');",
            )
            .unwrap();
        let err = faulty
            .execute("CREATE INDEX idx ON t USING GIST (g);")
            .unwrap_err();
        assert!(err.is_crash());
    }

    fn knn_setup(engine: &mut Engine) {
        engine
            .execute_script(
                "CREATE TABLE t (id int, g geometry);
                 INSERT INTO t (id, g) VALUES
                 (1, 'POINT(10 0)'),
                 (2, 'POINT(1 1)'),
                 (3, 'POINT(-3 0)'),
                 (4, 'POINT EMPTY'),
                 (5, 'POINT(0 2)');",
            )
            .unwrap();
    }

    fn knn_ids(engine: &mut Engine, k: usize) -> Vec<i64> {
        let sql = format!(
            "SELECT a.id FROM t a ORDER BY ST_Distance(a.g, 'POINT(0 0)'::geometry) LIMIT {k}"
        );
        engine
            .execute(&sql)
            .unwrap()
            .rows
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .collect()
    }

    #[test]
    fn order_by_limit_sorts_ascending_with_nulls_last() {
        for profile in EngineProfile::ALL {
            let mut engine = Engine::reference(profile);
            knn_setup(&mut engine);
            assert_eq!(knn_ids(&mut engine, 3), vec![2, 5, 3], "{}", profile.name());
            // The EMPTY geometry (NULL distance) sorts after every defined
            // key, in row order.
            assert_eq!(
                knn_ids(&mut engine, 5),
                vec![2, 5, 3, 1, 4],
                "{}",
                profile.name()
            );
        }
    }

    #[test]
    fn order_by_desc_reverses_defined_keys() {
        let mut engine = Engine::reference(EngineProfile::PostgisLike);
        knn_setup(&mut engine);
        let result = engine
            .execute(
                "SELECT a.id FROM t a ORDER BY ST_Distance(a.g, 'POINT(0 0)'::geometry) DESC LIMIT 2",
            )
            .unwrap();
        let ids: Vec<i64> = result.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn limit_without_order_truncates_in_row_order() {
        let mut engine = Engine::reference(EngineProfile::MysqlLike);
        knn_setup(&mut engine);
        let result = engine.execute("SELECT a.id FROM t a LIMIT 2").unwrap();
        let ids: Vec<i64> = result.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(ids, vec![1, 2]);
        // LIMIT does not cap an aggregate's input set...
        let count = engine
            .execute("SELECT COUNT(*) FROM t LIMIT 1")
            .unwrap()
            .count()
            .unwrap();
        assert_eq!(count, 5);
        // ...but it does cap the aggregate's *result* rows (PostgreSQL
        // returns zero rows for `SELECT COUNT(*) ... LIMIT 0`).
        let result = engine.execute("SELECT COUNT(*) FROM t LIMIT 0").unwrap();
        assert_eq!(result.row_count(), 0);
    }

    #[test]
    fn knn_index_scan_matches_sequential_order_by() {
        let mut seq = Engine::reference(EngineProfile::PostgisLike);
        knn_setup(&mut seq);

        let mut indexed = Engine::reference(EngineProfile::PostgisLike);
        knn_setup(&mut indexed);
        indexed
            .execute("CREATE INDEX idx ON t USING GIST (g);")
            .unwrap();
        indexed.execute("SET enable_seqscan = false;").unwrap();

        for k in 1..=5 {
            assert_eq!(knn_ids(&mut seq, k), knn_ids(&mut indexed, k), "k = {k}");
        }
    }

    #[test]
    fn knn_index_scan_breaks_distance_ties_like_the_stable_sort() {
        let setup = "CREATE TABLE t (id int, g geometry);
            INSERT INTO t (id, g) VALUES
            (1, 'POINT(0 5)'), (2, 'POINT(5 0)'), (3, 'POINT(-5 0)'), (4, 'POINT(1 0)');";
        let mut seq = Engine::reference(EngineProfile::PostgisLike);
        seq.execute_script(setup).unwrap();
        let mut indexed = Engine::reference(EngineProfile::PostgisLike);
        indexed.execute_script(setup).unwrap();
        indexed
            .execute("CREATE INDEX idx ON t USING GIST (g);")
            .unwrap();
        indexed.execute("SET enable_seqscan = false;").unwrap();
        // Three rows tie at distance 5; the limit cuts inside the tie and
        // both paths must pick the same (earliest-row) subset.
        for k in 1..=4 {
            assert_eq!(knn_ids(&mut seq, k), knn_ids(&mut indexed, k), "k = {k}");
        }
    }

    #[test]
    fn knn_index_scan_exhibits_the_gist_fault() {
        let mut faulty = Engine::with_faults(
            EngineProfile::PostgisLike,
            FaultSet::with([FaultId::PostgisGistIndexDropsRows]),
        );
        knn_setup(&mut faulty);
        faulty
            .execute("CREATE INDEX idx ON t USING GIST (g);")
            .unwrap();
        faulty.execute("SET enable_seqscan = false;").unwrap();
        // The negative-quadrant row (id 3) is dropped by the faulty scan.
        assert_eq!(knn_ids(&mut faulty, 3), vec![2, 5, 1]);
    }

    #[test]
    fn order_by_rejects_non_numeric_keys() {
        let mut engine = Engine::reference(EngineProfile::PostgisLike);
        knn_setup(&mut engine);
        assert!(engine
            .execute("SELECT a.id FROM t a ORDER BY ST_AsText(a.g) LIMIT 2")
            .is_err());
    }

    #[test]
    fn order_by_limit_applies_to_joins() {
        let mut engine = Engine::reference(EngineProfile::PostgisLike);
        engine
            .execute_script(
                "CREATE TABLE a (id int, g geometry);
                 CREATE TABLE b (id int, g geometry);
                 INSERT INTO a (id, g) VALUES (1, 'POINT(0 0)'), (2, 'POINT(10 0)');
                 INSERT INTO b (id, g) VALUES (1, 'POINT(0 1)'), (2, 'POINT(10 2)');",
            )
            .unwrap();
        let result = engine
            .execute(
                "SELECT a.id, b.id FROM a JOIN b ON ST_DWithin(a.g, b.g, 100) \
                 ORDER BY ST_Distance(a.g, b.g) LIMIT 2",
            )
            .unwrap();
        let pairs: Vec<(i64, i64)> = result
            .rows
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect();
        assert_eq!(pairs, vec![(1, 1), (2, 2)]);
    }

    #[test]
    fn range_join_counts_are_plan_independent() {
        let queries = [
            (
                "SELECT COUNT(*) FROM a JOIN b ON ST_DWithin(a.g, b.g, 5)",
                1,
            ),
            // The negated form has no join-plan shape and stays on the
            // nested loop.
            (
                "SELECT COUNT(*) FROM a JOIN b ON NOT ST_DWithin(a.g, b.g, 5)",
                1,
            ),
            (
                "SELECT COUNT(*) FROM a JOIN b ON ST_DFullyWithin(a.g, b.g, 200)",
                2,
            ),
        ];
        let mut engine = Engine::reference(EngineProfile::PostgisLike);
        engine
            .execute_script(
                "CREATE TABLE a (g geometry);
                 CREATE TABLE b (g geometry);
                 INSERT INTO a (g) VALUES ('POINT(0 0)'), ('POINT(100 100)');
                 INSERT INTO b (g) VALUES ('POINT(3 4)');",
            )
            .unwrap();
        for (sql, expected) in queries {
            assert_eq!(count(&mut engine, sql), expected, "prepared plan: {sql}");
        }
        engine.execute("SET enable_distance_join = false").unwrap();
        for (sql, expected) in queries {
            assert_eq!(count(&mut engine, sql), expected, "nested loop: {sql}");
        }
    }

    #[test]
    fn distance_joins_take_the_dedicated_plans() {
        let setup = "CREATE TABLE a (g geometry);
            CREATE TABLE b (g geometry);
            INSERT INTO a (g) VALUES ('POINT(0 0)');
            INSERT INTO b (g) VALUES ('POINT(1 1)'), ('POINT(50 50)');";
        let query = "SELECT COUNT(*) FROM a JOIN b ON ST_DWithin(a.g, b.g, 5)";
        let join = KernelJoin {
            kernel: Kernel::Distance(DistancePredicate::DWithin, 5.0),
            left_column: 0,
            right_column: 0,
            swapped: false,
        };

        let mut engine = Engine::reference(EngineProfile::PostgisLike);
        engine.execute_script(setup).unwrap();
        assert_eq!(plan_of(&engine, query), Plan::PreparedJoin(join));
        assert_eq!(count(&mut engine, query), 1);

        engine
            .execute_script(
                "CREATE INDEX idx_b ON b USING GIST (g);
                 SET enable_seqscan = false;",
            )
            .unwrap();
        assert_eq!(plan_of(&engine, query), Plan::IndexJoin(join));
        assert_eq!(count(&mut engine, query), 1);

        // With the plan disabled the join falls back to the general loop.
        engine
            .execute_script("SET enable_seqscan = true; SET enable_distance_join = false;")
            .unwrap();
        assert_eq!(plan_of(&engine, query), Plan::NestedLoopJoin);
        assert_eq!(count(&mut engine, query), 1);
    }

    #[test]
    fn distance_index_join_matches_the_sequential_plans() {
        let setup = "CREATE TABLE a (g geometry);
            CREATE TABLE b (g geometry);
            INSERT INTO a (g) VALUES ('POINT(0 0)'), ('LINESTRING(4 0,8 0)'),
                ('POLYGON((10 10,14 10,14 14,10 14,10 10))'), ('POINT EMPTY');
            INSERT INTO b (g) VALUES ('POINT(2 2)'), ('POINT(9 1)'),
                ('POLYGON((13 13,16 13,16 16,13 16,13 13))'), ('POINT EMPTY'),
                ('MULTIPOINT((5 5),EMPTY)');
            CREATE INDEX idx_b ON b USING GIST (g);";
        for function in ["ST_DWithin", "ST_DFullyWithin"] {
            for d in ["0", "1", "2.83", "10", "1e300"] {
                let query = format!(
                    "SELECT ST_AsText(a.g), ST_AsText(b.g) FROM a JOIN b \
                     ON {function}(a.g, b.g, {d}) \
                     ORDER BY ST_Distance(a.g, b.g) LIMIT 6"
                );
                let mut prepared = Engine::reference(EngineProfile::PostgisLike);
                prepared.execute_script(setup).unwrap();
                let mut indexed = Engine::reference(EngineProfile::PostgisLike);
                indexed.execute_script(setup).unwrap();
                indexed.execute("SET enable_seqscan = false;").unwrap();
                assert_eq!(
                    prepared.execute(&query).unwrap(),
                    indexed.execute(&query).unwrap(),
                    "{function} d={d}"
                );
            }
        }
    }

    #[test]
    fn distance_index_join_exhibits_the_gist_fault() {
        // The faulty index loses the negative-quadrant inner row, exactly as
        // the predicate index join does; the sequential plans keep it.
        let setup = "CREATE TABLE a (g geometry);
            CREATE TABLE b (g geometry);
            INSERT INTO a (g) VALUES ('POINT(0 0)');
            INSERT INTO b (g) VALUES ('POINT(-1 0)'), ('POINT(1 0)');
            CREATE INDEX idx_b ON b USING GIST (g);";
        let query = "SELECT COUNT(*) FROM a JOIN b ON ST_DWithin(a.g, b.g, 5)";

        let mut faulty = Engine::with_faults(
            EngineProfile::PostgisLike,
            FaultSet::with([FaultId::PostgisGistIndexDropsRows]),
        );
        faulty.execute_script(setup).unwrap();
        assert_eq!(count(&mut faulty, query), 2, "seqscan plans are unaffected");
        faulty.execute("SET enable_seqscan = false;").unwrap();
        assert_eq!(count(&mut faulty, query), 1, "the faulty index drops a row");

        let mut fixed = Engine::reference(EngineProfile::PostgisLike);
        fixed.execute_script(setup).unwrap();
        fixed.execute("SET enable_seqscan = false;").unwrap();
        assert_eq!(count(&mut fixed, query), 2);
    }

    #[test]
    fn commuted_symmetric_predicate_joins_leave_the_nested_loop() {
        // `Pred(b.g, a.g)` used to miss the predicate-join shape and silently
        // take the nested loop; it now plans exactly like `Pred(a.g, b.g)`.
        let setup = "CREATE TABLE a (g geometry);
            CREATE TABLE b (g geometry);
            INSERT INTO a (g) VALUES ('POLYGON((0 0,4 0,4 4,0 4,0 0))'),
                ('LINESTRING(0 0,2 2)'), ('POINT(10 10)');
            INSERT INTO b (g) VALUES ('POLYGON((2 2,6 2,6 6,2 6,2 2))'),
                ('LINESTRING(4 0,0 4)'), ('POINT(10 10)'), ('POINT(20 20)');";
        for predicate in [
            "ST_Intersects",
            "ST_Disjoint",
            "ST_Crosses",
            "ST_Overlaps",
            "ST_Touches",
            "ST_Equals",
        ] {
            let forward = format!("SELECT COUNT(*) FROM a JOIN b ON {predicate}(a.g, b.g)");
            let commuted = format!("SELECT COUNT(*) FROM a JOIN b ON {predicate}(b.g, a.g)");
            let mut engine = Engine::reference(EngineProfile::PostgisLike);
            engine.execute_script(setup).unwrap();
            let expected = count(&mut engine, &forward);
            assert_eq!(
                count(&mut engine, &commuted),
                expected,
                "{predicate} is symmetric"
            );
            assert_eq!(
                plan_of(&engine, &commuted),
                Plan::PreparedJoin(KernelJoin {
                    kernel: Kernel::Predicate(
                        NamedPredicate::from_function_name(predicate).unwrap()
                    ),
                    left_column: 0,
                    right_column: 0,
                    swapped: true,
                }),
                "{predicate}: the commuted form takes the prepared plan"
            );
        }
    }

    #[test]
    fn commuted_distance_joins_preserve_sql_argument_order_for_faults() {
        // The DFullyWithin fault triggers on the *first* argument as written
        // in the SQL: with `ST_DFullyWithin(b.g, a.g, d)` the small-coordinate
        // check must apply to b.g even though b is the inner join table.
        let setup = "CREATE TABLE a (g geometry);
            CREATE TABLE b (g geometry);
            INSERT INTO a (g) VALUES ('POINT(50 50)');
            INSERT INTO b (g) VALUES ('POINT(51 51)');";
        let forward = "SELECT COUNT(*) FROM a JOIN b ON ST_DFullyWithin(a.g, b.g, 100)";
        let commuted = "SELECT COUNT(*) FROM a JOIN b ON ST_DFullyWithin(b.g, a.g, 100)";

        let mut faulty = Engine::with_faults(
            EngineProfile::PostgisLike,
            FaultSet::with([FaultId::PostgisDFullyWithinSmallCoords]),
        );
        faulty
            .execute_script(
                "CREATE TABLE a (g geometry);
                 CREATE TABLE b (g geometry);
                 INSERT INTO a (g) VALUES ('POINT(50 50)');
                 INSERT INTO b (g) VALUES ('POINT(1 1)');",
            )
            .unwrap();
        // b.g has small coordinates: the commuted form hits the fault (false
        // for every pair), the forward form does not (a.g is large).
        assert_eq!(count(&mut faulty, forward), 1);
        assert_eq!(count(&mut faulty, commuted), 0);
        // The nested loop agrees on both orders, so the plan is faithful.
        faulty.execute("SET enable_distance_join = false").unwrap();
        assert_eq!(count(&mut faulty, forward), 1);
        assert_eq!(count(&mut faulty, commuted), 0);

        // Without the fault the predicate is symmetric and both orders plan
        // identically.
        let mut fixed = Engine::reference(EngineProfile::PostgisLike);
        fixed.execute_script(setup).unwrap();
        assert_eq!(count(&mut fixed, forward), 1);
        assert_eq!(count(&mut fixed, commuted), 1);
    }

    /// The three plan switches of a session.
    #[derive(Debug, Clone, Copy)]
    struct Switches {
        seqscan: bool,
        prepared: bool,
        distance_join: bool,
    }

    #[test]
    fn every_plan_table_row_is_planned_under_every_setting() {
        let setup = "CREATE TABLE a (id int, g geometry);
            CREATE TABLE b (id int, g geometry);
            CREATE TABLE t (id int, g geometry);
            INSERT INTO a (id, g) VALUES (1, 'POINT(0 0)'), (2, 'POINT(-4 1)');
            INSERT INTO b (id, g) VALUES (1, 'POINT(1 1)'), (2, 'POLYGON EMPTY');
            INSERT INTO t (id, g) VALUES (1, 'POINT(2 2)'), (2, 'POINT(-1 0)');";
        let indexes = "CREATE INDEX idx_b ON b USING GIST (g);
            CREATE INDEX idx_t ON t USING GIST (g);";
        let join = |kernel, swapped| KernelJoin {
            kernel,
            left_column: 1,
            right_column: 1,
            swapped,
        };
        let intersects = join(Kernel::Predicate(NamedPredicate::Intersects), false);
        let commuted_contains = join(Kernel::Predicate(NamedPredicate::Contains), true);
        let disjoint = join(Kernel::Predicate(NamedPredicate::Disjoint), false);
        let dwithin = join(Kernel::Distance(DistancePredicate::DWithin, 5.0), false);
        let commuted_dfully = join(Kernel::Distance(DistancePredicate::DFullyWithin, 2.5), true);
        // Every kernel join: the index when seqscans are off and the inner
        // column is indexed (and the kernel may use one), else the prepared
        // scan when enabled, else the nested loop.
        let kernel_plan = |s: Switches, join: KernelJoin, indexed: bool| {
            if !s.seqscan && indexed {
                Plan::IndexJoin(join)
            } else if s.prepared {
                Plan::PreparedJoin(join)
            } else {
                Plan::NestedLoopJoin
            }
        };
        let distance_plan = move |s: Switches, join: KernelJoin, indexed: bool| {
            if s.distance_join {
                kernel_plan(s, join, indexed)
            } else {
                Plan::NestedLoopJoin
            }
        };
        let envelope = |wkt: &str| spatter_geom::wkt::parse_wkt(wkt).unwrap().envelope();
        let (probe, origin) = (envelope("POINT(2 2)"), envelope("POINT(0 0)"));
        let index_or_seqscan = move |s: Switches, plan: Plan| {
            if s.seqscan {
                Plan::SeqScan
            } else {
                plan
            }
        };
        type Expected = Box<dyn Fn(Switches) -> Plan>;
        let knn = "SELECT t.id FROM t ORDER BY ST_Distance(t.g, 'POINT(0 0)'::geometry) LIMIT 2";
        let same_box = "SELECT COUNT(*) FROM t WHERE t.g ~= 'POINT(2 2)'::geometry";
        let cases: Vec<(&str, EngineProfile, bool, Expected)> = vec![
            // Index scan / prepared scan.
            (
                "SELECT COUNT(*) FROM a JOIN b ON ST_Intersects(a.g, b.g)",
                EngineProfile::PostgisLike,
                true,
                Box::new(move |s| kernel_plan(s, intersects, true)),
            ),
            (
                "SELECT COUNT(*) FROM a JOIN b ON ST_Intersects(a.g, b.g)",
                EngineProfile::PostgisLike,
                false,
                Box::new(move |s| kernel_plan(s, intersects, false)),
            ),
            (
                "SELECT a.id FROM a, b WHERE ST_Contains(b.g, a.g)",
                EngineProfile::PostgisLike,
                true,
                Box::new(move |s| kernel_plan(s, commuted_contains, true)),
            ),
            // ST_Disjoint has no index support: never the index scan.
            (
                "SELECT COUNT(*) FROM a JOIN b ON ST_Disjoint(a.g, b.g)",
                EngineProfile::PostgisLike,
                true,
                Box::new(move |s| kernel_plan(s, disjoint, false)),
            ),
            // Distance index / distance prepared.
            (
                "SELECT COUNT(*) FROM a JOIN b ON ST_DWithin(a.g, b.g, 5)",
                EngineProfile::PostgisLike,
                true,
                Box::new(move |s| distance_plan(s, dwithin, true)),
            ),
            (
                "SELECT COUNT(*) FROM a JOIN b ON ST_DFullyWithin(b.g, a.g, 2.5)",
                EngineProfile::PostgisLike,
                false,
                Box::new(move |s| distance_plan(s, commuted_dfully, false)),
            ),
            // Nested loop: a negated ON, a non-constant d, a function the
            // profile lacks, no ON at all.
            (
                "SELECT COUNT(*) FROM a JOIN b ON NOT ST_DWithin(a.g, b.g, 5)",
                EngineProfile::PostgisLike,
                true,
                Box::new(|_| Plan::NestedLoopJoin),
            ),
            (
                "SELECT COUNT(*) FROM a JOIN b ON ST_DWithin(a.g, b.g, a.id)",
                EngineProfile::PostgisLike,
                true,
                Box::new(|_| Plan::NestedLoopJoin),
            ),
            (
                "SELECT COUNT(*) FROM a JOIN b ON ST_DFullyWithin(a.g, b.g, 5)",
                EngineProfile::MysqlLike,
                true,
                Box::new(|_| Plan::NestedLoopJoin),
            ),
            (
                "SELECT COUNT(*) FROM a, b",
                EngineProfile::PostgisLike,
                true,
                Box::new(|_| Plan::NestedLoopJoin),
            ),
            // The `~=` window; a row-dependent probe keeps the scan.
            (
                same_box,
                EngineProfile::PostgisLike,
                true,
                Box::new(move |s| index_or_seqscan(s, Plan::IndexFilter { column: 1, probe })),
            ),
            (
                same_box,
                EngineProfile::PostgisLike,
                false,
                Box::new(|_| Plan::SeqScan),
            ),
            (
                "SELECT COUNT(*) FROM t WHERE t.g ~= t.g",
                EngineProfile::PostgisLike,
                true,
                Box::new(|_| Plan::SeqScan),
            ),
            // KNN with and without an index; a count never takes it.
            (
                knn,
                EngineProfile::PostgisLike,
                true,
                Box::new(move |s| {
                    index_or_seqscan(
                        s,
                        Plan::IndexKnn {
                            column: 1,
                            origin,
                            k: 2,
                        },
                    )
                }),
            ),
            (
                knn,
                EngineProfile::PostgisLike,
                false,
                Box::new(|_| Plan::SeqScan),
            ),
            (
                "SELECT COUNT(*) FROM t ORDER BY ST_Distance(t.g, 'POINT(0 0)'::geometry) LIMIT 2",
                EngineProfile::PostgisLike,
                true,
                Box::new(|_| Plan::SeqScan),
            ),
        ];
        for (sql, profile, indexed, expected) in &cases {
            let mut answers = Vec::new();
            for bits in 0..8u8 {
                let s = Switches {
                    seqscan: bits & 1 != 0,
                    prepared: bits & 2 != 0,
                    distance_join: bits & 4 != 0,
                };
                let mut engine = Engine::reference(*profile);
                engine.execute_script(setup).unwrap();
                if *indexed {
                    engine.execute_script(indexes).unwrap();
                }
                engine
                    .execute_script(&format!(
                        "SET enable_seqscan = {}; SET enable_prepared = {}; \
                         SET enable_distance_join = {};",
                        s.seqscan, s.prepared, s.distance_join
                    ))
                    .unwrap();
                assert_eq!(plan_of(&engine, sql), expected(s), "{sql} under {s:?}");
                answers.push(format!("{:?}", engine.execute(sql)));
            }
            assert!(
                answers.iter().all(|answer| *answer == answers[0]),
                "{sql}: every plan gives the same answer: {answers:#?}"
            );
        }
    }

    #[test]
    fn a_row_dependent_same_box_probe_falls_back_to_the_scan() {
        let setup = "CREATE TABLE t (g geometry);
            INSERT INTO t (g) VALUES ('POINT(0 0)'), ('POINT(1 1)'), ('POLYGON EMPTY');
            CREATE INDEX idx ON t USING GIST (g);";
        let query = "SELECT COUNT(*) FROM t WHERE t.g ~= t.g";
        let mut engine = Engine::reference(EngineProfile::PostgisLike);
        engine.execute_script(setup).unwrap();
        assert_eq!(count(&mut engine, query), 3);
        engine.execute("SET enable_seqscan = false").unwrap();
        assert_eq!(count(&mut engine, query), 3);
    }

    #[test]
    fn nan_comparison_semantics_in_where_clauses() {
        // Regression (filter path): a NaN-producing expression used to be a
        // hard "cannot compare NaN" execution error in a WHERE clause while
        // the same value was silently ordered by ORDER BY. The unified
        // semantics follow PostgreSQL float8: NaN = NaN, NaN > everything.
        let mut engine = Engine::reference(EngineProfile::PostgisLike);
        engine
            .execute_script(
                "CREATE TABLE t (id int, x double);
                 INSERT INTO t (id, x) VALUES (1, 3.0), (2, 'NaN'::double), (3, 1.0);",
            )
            .unwrap();
        // NaN is greater than every non-NaN value...
        assert_eq!(count(&mut engine, "SELECT COUNT(*) FROM t WHERE x > 2"), 2);
        // ...equal to itself...
        assert_eq!(
            count(
                &mut engine,
                "SELECT COUNT(*) FROM t WHERE x = 'NaN'::double"
            ),
            1
        );
        // ...and never less than anything.
        assert_eq!(
            count(
                &mut engine,
                "SELECT COUNT(*) FROM t WHERE x < 'Infinity'::double"
            ),
            2
        );
        // Scalar comparisons agree with the filter path.
        let result = engine
            .execute("SELECT 'NaN'::double = 'NaN'::double;")
            .unwrap();
        assert_eq!(result.single_value(), Some(&Value::Bool(true)));
    }

    #[test]
    fn nan_order_keys_sort_after_defined_before_null() {
        // Regression (sort path): NaN keys order after every defined key but
        // before SQL NULL, in both ascending and descending runs, exactly as
        // `compare_doubles` documents.
        let mut engine = Engine::reference(EngineProfile::PostgisLike);
        engine
            .execute_script(
                "CREATE TABLE t (id int, x double);
                 INSERT INTO t (id, x) VALUES
                 (1, 3.0), (2, 'NaN'::double), (3, 1.0), (4, NULL);",
            )
            .unwrap();
        let ids = |engine: &mut Engine, sql: &str| -> Vec<i64> {
            engine
                .execute(sql)
                .unwrap()
                .rows
                .iter()
                .map(|r| r[0].as_int().unwrap())
                .collect()
        };
        assert_eq!(
            ids(&mut engine, "SELECT a.id FROM t a ORDER BY a.x LIMIT 4"),
            vec![3, 1, 2, 4]
        );
        // DESC reverses defined keys (NaN counts as the largest defined
        // key); NULLs stay last.
        assert_eq!(
            ids(
                &mut engine,
                "SELECT a.id FROM t a ORDER BY a.x DESC LIMIT 4"
            ),
            vec![2, 1, 3, 4]
        );
        // A LIMIT that cuts right at the NaN key is deterministic.
        assert_eq!(
            ids(&mut engine, "SELECT a.id FROM t a ORDER BY a.x LIMIT 3"),
            vec![3, 1, 2]
        );
    }

    #[test]
    fn nan_tied_order_keys_fall_back_to_row_order_under_limit() {
        // All-NaN keys are mutual ties: the stable sort must fall back to
        // row order on every profile, and LIMIT must cut deterministically.
        for profile in EngineProfile::ALL {
            let mut engine = Engine::reference(profile);
            knn_setup(&mut engine);
            let result = engine
                .execute("SELECT a.id FROM t a ORDER BY 'NaN'::double LIMIT 3")
                .unwrap();
            let ids: Vec<i64> = result.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
            assert_eq!(ids, vec![1, 2, 3], "{}", profile.name());
        }
    }

    #[test]
    fn join_order_by_limit_ties_at_cutoff_use_pair_order() {
        // Tie-break audit: equal sort keys straddling the LIMIT cutoff in a
        // join pick the earliest join pairs (left row order, then right row
        // order), the same deterministic rule the single-table paths use.
        let setup = "CREATE TABLE a (id int, g geometry);
            CREATE TABLE b (id int, g geometry);
            INSERT INTO a (id, g) VALUES (1, 'POINT(0 0)'), (2, 'POINT(10 0)');
            INSERT INTO b (id, g) VALUES (1, 'POINT(0 5)'), (2, 'POINT(10 5)'), (3, 'POINT(0 -5)');";
        let mut engine = Engine::reference(EngineProfile::PostgisLike);
        engine.execute_script(setup).unwrap();
        // Every pair is within distance 100; three pairs tie at distance 5
        // and the rest are farther, so LIMIT 3 cuts exactly at the tie group
        // and must keep it in pair-enumeration order.
        let result = engine
            .execute(
                "SELECT a.id, b.id FROM a JOIN b ON ST_DWithin(a.g, b.g, 100) \
                 ORDER BY ST_Distance(a.g, b.g) LIMIT 3",
            )
            .unwrap();
        let pairs: Vec<(i64, i64)> = result
            .rows
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect();
        assert_eq!(pairs, vec![(1, 1), (1, 3), (2, 2)]);
    }

    #[test]
    fn knn_tie_at_cutoff_is_stable_across_seqscan_index_and_reruns() {
        // Tie-break audit: ties exactly at the k-th distance must resolve to
        // the same (earliest-row) subset on the seqscan sort and the index
        // NN scan, and identically on every re-run — the well-definedness
        // skip in the oracles relies on engines being deterministic even on
        // inputs the oracle refuses to compare.
        let setup = "CREATE TABLE t (id int, g geometry);
            INSERT INTO t (id, g) VALUES
            (1, 'POINT(3 4)'), (2, 'POINT(4 3)'), (3, 'POINT(-3 -4)'), (4, 'POINT(0 5)'),
            (5, 'POINT(1 0)');";
        let mut seq = Engine::reference(EngineProfile::PostgisLike);
        seq.execute_script(setup).unwrap();
        let mut indexed = Engine::reference(EngineProfile::PostgisLike);
        indexed.execute_script(setup).unwrap();
        indexed
            .execute("CREATE INDEX idx ON t USING GIST (g);")
            .unwrap();
        indexed.execute("SET enable_seqscan = false;").unwrap();
        // Four rows tie at distance 5; every k cuts somewhere around them.
        for k in 1..=5 {
            let first = knn_ids(&mut seq, k);
            assert_eq!(first, knn_ids(&mut indexed, k), "k = {k}");
            assert_eq!(first, knn_ids(&mut seq, k), "k = {k} re-run");
        }
        assert_eq!(knn_ids(&mut seq, 3), vec![5, 1, 2]);
    }

    #[test]
    fn scalar_select_without_tables() {
        let mut engine = Engine::reference(EngineProfile::PostgisLike);
        let result = engine
            .execute(
                "SELECT ST_Distance('MULTIPOINT((1 0),(0 0))'::geometry, 'POINT(-2 0)'::geometry);",
            )
            .unwrap();
        assert_eq!(result.single_value(), Some(&Value::Double(2.0)));
    }

    const MUTATION_SETUP: &str = "CREATE TABLE t (id int, g geometry);
        INSERT INTO t (id, g) VALUES
        (1, 'POINT(1 1)'), (2, 'POINT(2 2)'), (3, 'POINT(3 3)');
        CREATE INDEX idx ON t USING GIST (g);
        SET enable_seqscan = false;";

    #[test]
    fn update_moves_rows_and_maintains_the_index() {
        let mut engine = Engine::reference(EngineProfile::PostgisLike);
        engine.execute_script(MUTATION_SETUP).unwrap();
        let result = engine
            .execute("UPDATE t SET g = 'POINT(9 9)'::geometry WHERE id = 2;")
            .unwrap();
        assert_eq!(
            result.effect,
            Some(ExecutionResult::Update { rows_updated: 1 })
        );
        // The index answers from the *new* location and forgets the old one.
        assert_eq!(
            count(
                &mut engine,
                "SELECT COUNT(*) FROM t WHERE g ~= 'POINT(9 9)'::geometry;"
            ),
            1
        );
        assert_eq!(
            count(
                &mut engine,
                "SELECT COUNT(*) FROM t WHERE g ~= 'POINT(2 2)'::geometry;"
            ),
            0
        );
        // WHERE by geometry value also targets rows.
        let by_geom = engine
            .execute("UPDATE t SET id = 7 WHERE g = 'POINT(9 9)'::geometry;")
            .unwrap();
        assert_eq!(
            by_geom.effect,
            Some(ExecutionResult::Update { rows_updated: 1 })
        );
    }

    #[test]
    fn delete_tombstones_rows_and_keeps_slot_ids_stable() {
        let mut engine = Engine::reference(EngineProfile::PostgisLike);
        engine.execute_script(MUTATION_SETUP).unwrap();
        let result = engine.execute("DELETE FROM t WHERE id = 1;").unwrap();
        assert_eq!(
            result.effect,
            Some(ExecutionResult::Delete { rows_deleted: 1 })
        );
        assert_eq!(count(&mut engine, "SELECT COUNT(*) FROM t;"), 2);
        // Surviving rows keep answering through the index: their slot ids
        // did not shift when slot 0 was tombstoned.
        assert_eq!(
            count(
                &mut engine,
                "SELECT COUNT(*) FROM t WHERE g ~= 'POINT(3 3)'::geometry;"
            ),
            1
        );
        // Deleting an already-deleted row matches nothing.
        let again = engine.execute("DELETE FROM t WHERE id = 1;").unwrap();
        assert_eq!(
            again.effect,
            Some(ExecutionResult::Delete { rows_deleted: 0 })
        );
        // Unfiltered DELETE empties the table.
        let rest = engine.execute("DELETE FROM t;").unwrap();
        assert_eq!(
            rest.effect,
            Some(ExecutionResult::Delete { rows_deleted: 2 })
        );
        assert_eq!(count(&mut engine, "SELECT COUNT(*) FROM t;"), 0);
    }

    #[test]
    fn insert_after_delete_reuses_no_slots_and_stays_indexed() {
        let mut engine = Engine::reference(EngineProfile::PostgisLike);
        engine.execute_script(MUTATION_SETUP).unwrap();
        engine.execute("DELETE FROM t WHERE id = 2;").unwrap();
        engine
            .execute("INSERT INTO t (id, g) VALUES (4, 'POINT(4 4)');")
            .unwrap();
        assert_eq!(count(&mut engine, "SELECT COUNT(*) FROM t;"), 3);
        assert_eq!(
            count(
                &mut engine,
                "SELECT COUNT(*) FROM t WHERE g ~= 'POINT(4 4)'::geometry;"
            ),
            1
        );
    }

    #[test]
    fn drop_index_falls_back_to_sequential_scans() {
        let mut engine = Engine::reference(EngineProfile::PostgisLike);
        engine.execute_script(MUTATION_SETUP).unwrap();
        let result = engine.execute("DROP INDEX idx;").unwrap();
        assert_eq!(result.effect, Some(ExecutionResult::DropIndex));
        // Even with seqscans "disabled", the planner has no index left and
        // must fall back — and still answers correctly.
        assert_eq!(
            count(
                &mut engine,
                "SELECT COUNT(*) FROM t WHERE g ~= 'POINT(2 2)'::geometry;"
            ),
            1
        );
        assert!(engine.execute("DROP INDEX idx;").is_err());
    }

    #[test]
    fn stale_index_fault_only_fires_through_update_maintenance() {
        let fault = FaultSet::with([FaultId::PostgisGistStaleOnMutation]);
        let query = "SELECT COUNT(*) FROM t WHERE g ~= 'POINT(-5 1)'::geometry;";

        // Load-once: the same final state built purely by INSERT is correct,
        // so a load-once campaign can never observe this fault.
        let mut load_once = Engine::with_faults(EngineProfile::PostgisLike, fault.clone());
        load_once
            .execute_script(
                "CREATE TABLE t (id int, g geometry);
                 INSERT INTO t (id, g) VALUES (1, 'POINT(-5 1)'), (2, 'POINT(2 2)');
                 CREATE INDEX idx ON t USING GIST (g);
                 SET enable_seqscan = false;",
            )
            .unwrap();
        assert_eq!(count(&mut load_once, query), 1);

        // Mutation workload: UPDATE moves a row into the negative-x
        // half-plane; the faulty maintenance skips the reinsert and the
        // index keeps answering from the stale envelope.
        let mut churned = Engine::with_faults(EngineProfile::PostgisLike, fault.clone());
        churned.execute_script(MUTATION_SETUP).unwrap();
        churned
            .execute("UPDATE t SET g = 'POINT(-5 1)'::geometry WHERE id = 2;")
            .unwrap();
        assert_eq!(count(&mut churned, query), 0, "index answer is stale");
        churned.execute("SET enable_seqscan = true;").unwrap();
        churned.execute("DROP INDEX idx;").unwrap();
        assert_eq!(count(&mut churned, query), 1, "the table itself is right");

        // The reference engine performs the same churn correctly.
        let mut fixed = Engine::reference(EngineProfile::PostgisLike);
        fixed.execute_script(MUTATION_SETUP).unwrap();
        fixed
            .execute("UPDATE t SET g = 'POINT(-5 1)'::geometry WHERE id = 2;")
            .unwrap();
        assert_eq!(count(&mut fixed, query), 1);
    }

    #[test]
    fn update_into_positive_halfplane_is_correct_even_with_the_fault() {
        let mut engine = Engine::with_faults(
            EngineProfile::PostgisLike,
            FaultSet::with([FaultId::PostgisGistStaleOnMutation]),
        );
        engine.execute_script(MUTATION_SETUP).unwrap();
        engine
            .execute("UPDATE t SET g = 'POINT(8 8)'::geometry WHERE id = 1;")
            .unwrap();
        assert_eq!(
            count(
                &mut engine,
                "SELECT COUNT(*) FROM t WHERE g ~= 'POINT(8 8)'::geometry;"
            ),
            1
        );
    }
}
