//! Cross-crate integration tests: SQL correctness of the engine on the
//! benchmark workloads, MVCC behavior under concurrency, and property-based
//! checks on query semantics.

use std::sync::Arc;

use mb2::common::{Prng, Value};
use mb2::engine::exec::ExecutionMode;
use mb2::engine::{Database, Knob};
use mb2::workloads::{smallbank::SmallBank, tatp::Tatp, tpcc::Tpcc, tpch::Tpch, Workload};

use proptest::prelude::*;

#[test]
fn all_workloads_run_concurrently_without_corruption() {
    let sb = SmallBank {
        accounts: 200,
        ..SmallBank::default()
    };
    let db = Arc::new(Database::open());
    sb.load(&db).unwrap();
    let initial: f64 = total_balance(&db);

    std::thread::scope(|scope| {
        for w in 0..4 {
            let db = db.clone();
            let sb = &sb;
            scope.spawn(move || {
                let mut rng = Prng::new(w as u64 + 100);
                for _ in 0..100 {
                    // Balance-neutral transactions only.
                    let stmts = sb.sample_transaction("amalgamate", &mut rng);
                    let _ = mb2::workloads::execute_transaction(&db, &stmts);
                }
            });
        }
    });
    // Amalgamate is balance-neutral: the total is exactly preserved no
    // matter how transactions interleave or abort.
    let after = total_balance(&db);
    assert!(after.is_finite());
    assert!(
        (after - initial).abs() < 1e-6,
        "balances must be preserved: {initial} -> {after}"
    );
    let r = db.execute("SELECT COUNT(*) FROM sb_checking").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(200));
}

fn total_balance(db: &Database) -> f64 {
    let r = db.execute("SELECT SUM(bal) FROM sb_checking").unwrap();
    let c = r.rows[0][0].as_f64().unwrap();
    let r = db.execute("SELECT SUM(bal) FROM sb_savings").unwrap();
    c + r.rows[0][0].as_f64().unwrap()
}

#[test]
fn tatp_mix_sustains_throughput() {
    let tatp = Tatp { subscribers: 300 };
    let db = Database::open();
    tatp.load(&db).unwrap();
    let mut rng = Prng::new(7);
    let mut committed = 0;
    for _ in 0..200 {
        if tatp.run_one(&db, &mut rng).is_ok() {
            committed += 1;
        }
    }
    assert!(committed > 150, "too many failures: {committed}/200");
}

#[test]
fn tpcc_consistency_district_order_counts() {
    let tpcc = Tpcc::small();
    let db = Database::open();
    tpcc.load(&db).unwrap();
    let mut rng = Prng::new(11);
    let before = count(&db, "orders");
    let mut new_orders = 0;
    for _ in 0..30 {
        let stmts = tpcc.sample_transaction("new_order", &mut rng);
        if mb2::workloads::execute_transaction(&db, &stmts).is_ok() {
            new_orders += 1;
        }
    }
    assert_eq!(count(&db, "orders"), before + new_orders);
    // order_line grows by 5-15 per order.
    let ol = count(&db, "order_line");
    assert!(ol >= before + new_orders * 5);
}

fn count(db: &Database, table: &str) -> i64 {
    db.execute(&format!("SELECT COUNT(*) FROM {table}"))
        .unwrap()
        .rows[0][0]
        .as_i64()
        .unwrap()
}

#[test]
fn tpch_results_mode_invariant() {
    let tpch = Tpch::with_scale(0.02);
    let db = Database::open();
    tpch.load(&db).unwrap();
    let mut rng = Prng::new(13);
    for template in tpch.template_names() {
        let sql = tpch.query(template, &mut rng);
        let plan = db.prepare(&sql).unwrap();
        db.set_knob(Knob::ExecutionMode, ExecutionMode::Interpret)
            .unwrap();
        let mut a = db.execute_plan(&plan, None).unwrap().rows;
        db.set_knob(Knob::ExecutionMode, ExecutionMode::Compiled)
            .unwrap();
        let mut b = db.execute_plan(&plan, None).unwrap().rows;
        // Ties in ORDER BY keys may come out in any order (hash-table
        // iteration is unordered); compare as multisets.
        a.sort_by(|x, y| format!("{x:?}").cmp(&format!("{y:?}")));
        b.sort_by(|x, y| format!("{x:?}").cmp(&format!("{y:?}")));
        assert_eq!(a, b, "{template}: modes disagree");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Aggregation invariant: COUNT(*) grouped sums to the table row count,
    /// and SUM over groups equals the global SUM.
    #[test]
    fn grouped_aggregates_partition_the_table(values in proptest::collection::vec((0i64..20, 0i64..1000), 1..200)) {
        let db = Database::open();
        db.execute("CREATE TABLE p (g INT, v INT)").unwrap();
        let rows: Vec<String> = values.iter().map(|(g, v)| format!("({g}, {v})")).collect();
        db.execute(&format!("INSERT INTO p VALUES {}", rows.join(", "))).unwrap();
        db.execute("ANALYZE p").unwrap();

        let grouped = db.execute("SELECT g, COUNT(*), SUM(v) FROM p GROUP BY g").unwrap();
        let count_sum: i64 = grouped.rows.iter().map(|r| r[1].as_i64().unwrap()).sum();
        let sum_sum: i64 = grouped.rows.iter().map(|r| r[2].as_i64().unwrap()).sum();
        prop_assert_eq!(count_sum, values.len() as i64);
        let expected: i64 = values.iter().map(|(_, v)| v).sum();
        prop_assert_eq!(sum_sum, expected);
    }

    /// Filter partition invariant: rows matching P plus rows matching NOT P
    /// equals all rows.
    #[test]
    fn filter_partitions_rows(values in proptest::collection::vec(0i64..1000, 1..150), bound in 0i64..1000) {
        let db = Database::open();
        db.execute("CREATE TABLE f (v INT)").unwrap();
        let rows: Vec<String> = values.iter().map(|v| format!("({v})")).collect();
        db.execute(&format!("INSERT INTO f VALUES {}", rows.join(", "))).unwrap();
        let lt = count_where(&db, &format!("v < {bound}"));
        let ge = count_where(&db, &format!("v >= {bound}"));
        prop_assert_eq!(lt + ge, values.len() as i64);
    }

    /// ORDER BY returns a sorted permutation of the unsorted result.
    #[test]
    fn order_by_is_sorted_permutation(values in proptest::collection::vec(-500i64..500, 1..100)) {
        let db = Database::open();
        db.execute("CREATE TABLE s (v INT)").unwrap();
        let rows: Vec<String> = values.iter().map(|v| format!("({v})")).collect();
        db.execute(&format!("INSERT INTO s VALUES {}", rows.join(", "))).unwrap();
        let sorted = db.execute("SELECT v FROM s ORDER BY v").unwrap();
        let got: Vec<i64> = sorted.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        let mut expected = values.clone();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    /// Join against a key table equals a manual lookup.
    #[test]
    fn hash_join_matches_nested_loop_semantics(
        left in proptest::collection::vec(0i64..30, 1..80),
        right in proptest::collection::vec(0i64..30, 1..40),
    ) {
        let db = Database::open();
        db.execute("CREATE TABLE l (k INT)").unwrap();
        db.execute("CREATE TABLE r (k INT)").unwrap();
        let rows: Vec<String> = left.iter().map(|v| format!("({v})")).collect();
        db.execute(&format!("INSERT INTO l VALUES {}", rows.join(", "))).unwrap();
        let rows: Vec<String> = right.iter().map(|v| format!("({v})")).collect();
        db.execute(&format!("INSERT INTO r VALUES {}", rows.join(", "))).unwrap();
        db.execute("ANALYZE l").unwrap();
        db.execute("ANALYZE r").unwrap();
        let joined = db
            .execute("SELECT COUNT(*) FROM l, r WHERE l.k = r.k")
            .unwrap().rows[0][0].as_i64().unwrap();
        let expected: i64 = left
            .iter()
            .map(|lk| right.iter().filter(|rk| *rk == lk).count() as i64)
            .sum();
        prop_assert_eq!(joined, expected);
    }
}

fn count_where(db: &Database, pred: &str) -> i64 {
    db.execute(&format!("SELECT COUNT(*) FROM f WHERE {pred}"))
        .unwrap()
        .rows[0][0]
        .as_i64()
        .unwrap()
}
