//! Criterion micro-benchmarks for the substrates and the MB2 hot paths
//! (translator + inference latency — the paper's §8.1 numbers).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use mb2_common::{Column, DataType, Metrics, OuKind, Schema, Value};
use mb2_core::collect::{OuSample, TrainingRepo};
use mb2_core::training::{train_all, TrainingConfig};
use mb2_core::{BehaviorModels, OuTranslator};
use mb2_engine::storage::{Table, TableId, Ts};
use mb2_engine::wal::{LogManager, LogManagerConfig, LogRecord};
use mb2_engine::{Database, Knob};
use mb2_ml::Algorithm;

fn bench_storage(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage");
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("insert_commit_1k", |b| {
        b.iter_batched(
            || {
                Table::new(
                    TableId(1),
                    "t",
                    Schema::new(vec![Column::new("a", DataType::Int)]),
                )
            },
            |t| {
                for i in 0..1000 {
                    let slot = t.insert(vec![Value::Int(i)], Ts::txn(1)).unwrap();
                    t.commit_slot(slot, Ts::txn(1), Ts(2), 1);
                }
            },
            BatchSize::SmallInput,
        )
    });
    let table = Table::new(
        TableId(1),
        "t",
        Schema::new(vec![Column::new("a", DataType::Int)]),
    );
    for i in 0..10_000 {
        let slot = table.insert(vec![Value::Int(i)], Ts::txn(1)).unwrap();
        table.commit_slot(slot, Ts::txn(1), Ts(2), 1);
    }
    group.bench_function("scan_10k", |b| {
        b.iter(|| {
            let mut n = 0usize;
            table.scan_visible(Ts(2), Ts::txn(9), |_, _| {
                n += 1;
                true
            });
            n
        })
    });
    group.finish();
}

fn bench_btree(c: &mut Criterion) {
    use mb2_engine::index::BPlusTree;
    let mut group = c.benchmark_group("btree");
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("insert_10k", |b| {
        b.iter(|| {
            let mut t = BPlusTree::new();
            for i in 0..10_000i64 {
                t.insert(vec![Value::Int((i * 7919) % 10_000)], i);
            }
            t.len()
        })
    });
    let mut tree = BPlusTree::new();
    for i in 0..100_000i64 {
        tree.insert(vec![Value::Int(i)], i);
    }
    group.bench_function("point_get_100k", |b| {
        let mut i = 0i64;
        b.iter(|| {
            i = (i + 7919) % 100_000;
            tree.get(&[Value::Int(i)])
        })
    });
    group.bench_function("range_1k_of_100k", |b| {
        b.iter(|| {
            let mut n = 0;
            tree.range(&[Value::Int(40_000)], &[Value::Int(41_000)], |_, _| {
                n += 1;
                true
            });
            n
        })
    });
    group.finish();
}

fn bench_wal(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal");
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("serialize_1k_records", |b| {
        let wal = LogManager::new(LogManagerConfig::default()).unwrap();
        b.iter(|| {
            for i in 0..1000u64 {
                wal.append(&LogRecord::Insert {
                    txn_id: i,
                    table_id: 1,
                    slot: i,
                    tuple: vec![Value::Int(i as i64), Value::Varchar("payload".into())],
                })
                .unwrap();
            }
            wal.flush_now().unwrap()
        })
    });
    group.finish();
}

fn bench_exec(c: &mut Criterion) {
    let mut group = c.benchmark_group("exec");
    group.measurement_time(Duration::from_secs(5));
    group.sample_size(20);
    let db = Database::open();
    db.execute("CREATE TABLE b1 (k INT, g INT, v FLOAT)")
        .unwrap();
    db.execute("CREATE TABLE b2 (k INT, w FLOAT)").unwrap();
    for chunk in (0..10_000i64).collect::<Vec<_>>().chunks(500) {
        let vals: Vec<String> = chunk
            .iter()
            .map(|i| format!("({i}, {}, 1.5)", i % 100))
            .collect();
        db.execute(&format!("INSERT INTO b1 VALUES {}", vals.join(", ")))
            .unwrap();
    }
    for chunk in (0..1000i64).collect::<Vec<_>>().chunks(500) {
        let vals: Vec<String> = chunk.iter().map(|i| format!("({i}, 2.5)")).collect();
        db.execute(&format!("INSERT INTO b2 VALUES {}", vals.join(", ")))
            .unwrap();
    }
    db.analyze_all();
    let join = db
        .prepare("SELECT * FROM b1, b2 WHERE b1.g = b2.k AND b2.w > 1.0")
        .unwrap();
    let agg = db
        .prepare("SELECT g, COUNT(*), SUM(v) FROM b1 GROUP BY g")
        .unwrap();
    let sort = db.prepare("SELECT * FROM b1 ORDER BY v LIMIT 100").unwrap();
    group.bench_function("hash_join_10k_x_1k", |b| {
        b.iter(|| db.execute_plan(&join, None).unwrap().rows_affected)
    });
    group.bench_function("agg_10k", |b| {
        b.iter(|| db.execute_plan(&agg, None).unwrap().rows_affected)
    });
    group.bench_function("sort_10k_top100", |b| {
        b.iter(|| db.execute_plan(&sort, None).unwrap().rows_affected)
    });
    for (name, mode) in [
        (
            "filter_interpret",
            mb2_engine::exec::ExecutionMode::Interpret,
        ),
        ("filter_compiled", mb2_engine::exec::ExecutionMode::Compiled),
    ] {
        db.set_knob(Knob::ExecutionMode, mode).unwrap();
        let plan = db
            .prepare("SELECT k * 2 + g FROM b1 WHERE v > 1.0")
            .unwrap();
        group.bench_function(name, |b| {
            b.iter(|| db.execute_plan(&plan, None).unwrap().rows_affected)
        });
    }
    db.set_knob(
        Knob::ExecutionMode,
        mb2_engine::exec::ExecutionMode::Compiled,
    )
    .unwrap();
    group.finish();
}

fn bench_ml(c: &mut Criterion) {
    use mb2_ml::forest::{ForestConfig, RandomForest};
    use mb2_ml::Regressor;
    let mut group = c.benchmark_group("ml");
    group.measurement_time(Duration::from_secs(5));
    group.sample_size(10);
    let mut rng = mb2_common::Prng::new(5);
    let x: Vec<Vec<f64>> = (0..500)
        .map(|_| (0..7).map(|_| rng.next_f64() * 10.0).collect())
        .collect();
    let y: Vec<Vec<f64>> = x
        .iter()
        .map(|r| vec![r[0] * 3.0 + r[1] * r[2], r[3] + 1.0])
        .collect();
    group.bench_function("random_forest_train_500x7", |b| {
        b.iter(|| {
            let mut f = RandomForest::new(ForestConfig {
                n_estimators: 20,
                ..ForestConfig::default()
            });
            f.fit(&x, &y).unwrap();
        })
    });
    let mut forest = RandomForest::new(ForestConfig {
        n_estimators: 50,
        ..ForestConfig::default()
    });
    forest.fit(&x, &y).unwrap();
    group.bench_function("random_forest_predict", |b| {
        b.iter(|| forest.predict_one(&x[0]))
    });
    group.finish();
}

/// The paper's §8.1 hot-path numbers: translator ~10µs, inference ~0.5ms.
fn bench_mb2(c: &mut Criterion) {
    let mut group = c.benchmark_group("mb2");
    group.measurement_time(Duration::from_secs(3));
    let db = Database::open();
    db.execute("CREATE TABLE m (k INT, g INT, v FLOAT)")
        .unwrap();
    for chunk in (0..2000i64).collect::<Vec<_>>().chunks(500) {
        let vals: Vec<String> = chunk
            .iter()
            .map(|i| format!("({i}, {}, 1.0)", i % 20))
            .collect();
        db.execute(&format!("INSERT INTO m VALUES {}", vals.join(", ")))
            .unwrap();
    }
    db.analyze_all();
    let plan = db
        .prepare("SELECT g, COUNT(*), SUM(v) FROM m WHERE k > 100 GROUP BY g ORDER BY g")
        .unwrap();
    let translator = OuTranslator::default();
    let knobs = db.knobs();
    group.bench_function("translate_agg_plan", |b| {
        b.iter(|| translator.translate_plan(&plan, &knobs).len())
    });
    // Train a minimal model set for inference-latency measurement.
    let mut repo = TrainingRepo::new();
    for inst in translator.translate_plan(&plan, &knobs) {
        for k in 1..=12 {
            let mut f = inst.features.clone();
            f[0] = (k * 100) as f64;
            let mut labels = Metrics::ZERO;
            labels[0] = f[0] * 2.0;
            repo.add(OuSample {
                ou: inst.ou,
                features: f,
                labels,
            });
        }
    }
    let (models, _) = train_all(
        &repo,
        &TrainingConfig {
            candidates: vec![Algorithm::RandomForest],
            ..TrainingConfig::default()
        },
    )
    .unwrap();
    let behavior = BehaviorModels::new(models, None);
    group.bench_function("ou_model_inference_agg_plan", |b| {
        b.iter(|| behavior.predict_plan(&plan, &knobs).total)
    });
    // One full tracked query execution (tracker overhead path).
    let instances = translator.translate_plan(&plan, &knobs);
    let collector = mb2_core::TrainingCollector::new(&instances);
    group.bench_function("tracked_query_execution", |b| {
        b.iter(|| {
            db.execute_plan(&plan, Some(&collector))
                .unwrap()
                .rows_affected
        })
    });
    let _ = OuKind::ALL; // keep import referenced
    group.finish();
}

criterion_group!(substrates, bench_storage, bench_btree, bench_wal);
criterion_group!(engine, bench_exec);
criterion_group!(models, bench_ml, bench_mb2);
criterion_main!(substrates, engine, models);
